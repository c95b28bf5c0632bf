"""Wire format for sampling manifests and assignments.

The paper's operations center "periodically configures the NIDS
responsibilities of the different nodes": the artifact it ships to each
node is the sampling manifest.  This module defines a stable JSON
encoding for manifests and assignments so they can be distributed,
versioned, diffed, and reloaded — plus round-trip helpers used by the
CLI and the test suite.

Schema (version 1):

```json
{
  "version": 1,
  "node": "KSCY",
  "entries": [
    {"class": "http", "unit": ["NYCM", "STTL"],
     "ranges": [[0.25, 0.5], [0.75, 0.8]]}
  ]
}
```
"""

from __future__ import annotations

import json
from typing import Dict, List, Mapping

from ..hashing.ranges import HashRange
from ..obs import COUNT_BUCKETS, get_registry
from .manifest import (
    REP106,
    Finding,
    NodeManifest,
    check_disjoint,
    unit_label,
)
from .nids_lp import NIDSAssignment

SCHEMA_VERSION = 1


def manifest_to_dict(manifest: NodeManifest) -> dict:
    """Encode one node's manifest as a JSON-compatible dict."""
    entries = []
    for (class_name, key), ranges in sorted(manifest.entries.items()):
        entries.append(
            {
                "class": class_name,
                "unit": list(key),
                "ranges": [[r.lo, r.hi] for r in ranges],
            }
        )
    return {
        "version": SCHEMA_VERSION,
        "node": manifest.node,
        "full": manifest.full,
        "entries": entries,
    }


def manifest_from_dict(data: Mapping) -> NodeManifest:
    """Decode a manifest dict, validating the schema version.

    A (class, unit) listed twice is an error, not last-wins: the
    ranges of the first listing would vanish unchecked.
    """
    version = data.get("version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported manifest schema version {version!r}")
    manifest = NodeManifest(node=data["node"], full=bool(data.get("full", False)))
    for entry in data.get("entries", []):
        ident = (entry["class"], tuple(entry["unit"]))
        if ident in manifest.entries:
            raise ValueError(
                f"manifest for node {manifest.node!r} lists unit"
                f" {unit_label(ident)} twice"
            )
        manifest.entries[ident] = tuple(
            HashRange(lo, hi) for lo, hi in entry["ranges"]
        )
    return manifest


def manifest_diff(old: NodeManifest, new: NodeManifest) -> dict:
    """Delta that transforms *old* into *new* (same node).

    The delta is itself a schema-version-1 JSON-compatible dict:

    ```json
    {
      "version": 1,
      "kind": "delta",
      "node": "KSCY",
      "full": false,
      "changed": [{"class": ..., "unit": [...], "ranges": [[lo, hi], ...]}],
      "removed": [{"class": ..., "unit": [...]}]
    }
    ```

    ``changed`` carries every entry that is new or whose ranges differ
    (exact comparison — callers wanting churn suppression should
    stabilize the manifests *before* diffing, so all nodes of a unit
    stay mutually consistent); ``removed`` lists entry keys present in
    *old* but absent from *new*.  The controller pushes these deltas to
    agents on epochs where most of the manifest is unchanged, which is
    strictly cheaper on the wire than re-sending the full manifest.
    """
    if old.node != new.node:
        raise ValueError(
            f"cannot diff manifests of different nodes {old.node!r} vs {new.node!r}"
        )
    changed = []
    for (class_name, key), ranges in sorted(new.entries.items()):
        if old.entries.get((class_name, key)) == ranges:
            continue
        changed.append(
            {
                "class": class_name,
                "unit": list(key),
                "ranges": [[r.lo, r.hi] for r in ranges],
            }
        )
    removed = [
        {"class": class_name, "unit": list(key)}
        for (class_name, key) in sorted(old.entries)
        if (class_name, key) not in new.entries
    ]
    registry = get_registry()
    registry.counter(
        "manifest_deltas_total", "manifest deltas computed",
        labels=("empty",),
    ).inc(empty=str(not changed and not removed).lower())
    registry.histogram(
        "manifest_delta_entries",
        "changed+removed entries per computed delta",
        buckets=COUNT_BUCKETS,
    ).observe(len(changed) + len(removed))
    return {
        "version": SCHEMA_VERSION,
        "kind": "delta",
        "node": new.node,
        "full": new.full,
        "changed": changed,
        "removed": removed,
    }


def apply_manifest_delta(base: NodeManifest, delta: Mapping) -> NodeManifest:
    """Apply a :func:`manifest_diff` delta to *base*, returning the result.

    Validates the schema version, kind, and node; *base* is left
    untouched.  ``apply_manifest_delta(old, manifest_diff(old, new))``
    reproduces *new* exactly.
    """
    if delta.get("version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported manifest schema version {delta.get('version')!r}"
        )
    if delta.get("kind") != "delta":
        raise ValueError(f"not a manifest delta: kind={delta.get('kind')!r}")
    if delta.get("node") != base.node:
        raise ValueError(
            f"delta for node {delta.get('node')!r} applied to {base.node!r}"
        )
    entries = dict(base.entries)
    for removal in delta.get("removed", []):
        entries.pop((removal["class"], tuple(removal["unit"])), None)
    for entry in delta.get("changed", []):
        entries[(entry["class"], tuple(entry["unit"]))] = tuple(
            HashRange(lo, hi) for lo, hi in entry["ranges"]
        )
    return NodeManifest(
        node=base.node, entries=entries, full=bool(delta.get("full", False))
    )


def check_delta(base: NodeManifest, delta: Mapping) -> List[Finding]:
    """Prove a :func:`manifest_diff` delta applies cleanly to its
    base-epoch manifest (REP106) and leaves no overlap behind (REP102).

    Schema version, kind and addressee are :func:`apply_manifest_delta`'s
    own validation; on top of it, a removal of an entry the base never
    held means the delta was computed against a different base.
    """
    subject = f"delta@{base.node}"
    try:
        applied = apply_manifest_delta(base, delta)
    except (ValueError, KeyError, TypeError) as error:
        return [Finding(REP106, subject, f"delta does not apply: {error}")]
    findings: List[Finding] = []
    for removal in delta.get("removed", []):
        key = (removal["class"], tuple(removal["unit"]))
        if key not in base.entries:
            findings.append(
                Finding(
                    REP106,
                    subject,
                    f"removes entry {unit_label(key)} absent from the base"
                    " epoch (delta computed against a different base)",
                )
            )
    for ident, pieces in sorted(applied.entries.items()):
        findings.extend(
            check_disjoint(
                f"{unit_label(ident)}@{base.node}",
                pieces,
                "applying the delta leaves overlapping ranges",
            )
        )
    return findings


def dump_manifests(manifests: Mapping[str, NodeManifest]) -> str:
    """Serialize a full set of per-node manifests to JSON text."""
    return json.dumps(
        {
            "version": SCHEMA_VERSION,
            "manifests": [
                manifest_to_dict(manifests[node]) for node in sorted(manifests)
            ],
        },
        indent=2,
        sort_keys=True,
    )


def load_manifests(text: str) -> Dict[str, NodeManifest]:
    """Parse JSON text produced by :func:`dump_manifests`; a node listed
    twice is an error."""
    data = json.loads(text)
    if data.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {data.get('version')!r}")
    manifests = {}
    for entry in data["manifests"]:
        manifest = manifest_from_dict(entry)
        if manifest.node in manifests:
            raise ValueError(f"manifest set lists node {manifest.node!r} twice")
        manifests[manifest.node] = manifest
    return manifests


def assignment_to_dict(assignment: NIDSAssignment) -> dict:
    """Encode an LP assignment (the ``d*`` profile) as a dict."""
    fractions = [
        {
            "class": class_name,
            "unit": list(key),
            "node": node,
            "fraction": value,
        }
        for (class_name, key, node), value in sorted(assignment.fractions.items())
        if value > 1e-12
    ]
    return {
        "version": SCHEMA_VERSION,
        "objective": assignment.objective,
        "solve_seconds": assignment.solve_seconds,
        "cpu_load": dict(sorted(assignment.cpu_load.items())),
        "mem_load": dict(sorted(assignment.mem_load.items())),
        "coverage": [
            {"class": class_name, "unit": list(key), "coverage": value}
            for (class_name, key), value in sorted(assignment.coverage.items())
        ],
        "fractions": fractions,
    }


def assignment_from_dict(data: Mapping) -> NIDSAssignment:
    """Decode an assignment dict back into :class:`NIDSAssignment`."""
    if data.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {data.get('version')!r}")
    fractions = {
        (entry["class"], tuple(entry["unit"]), entry["node"]): entry["fraction"]
        for entry in data["fractions"]
    }
    coverage = {
        (entry["class"], tuple(entry["unit"])): entry["coverage"]
        for entry in data["coverage"]
    }
    return NIDSAssignment(
        fractions=fractions,
        cpu_load=dict(data["cpu_load"]),
        mem_load=dict(data["mem_load"]),
        objective=float(data["objective"]),
        coverage=coverage,
        solve_seconds=float(data.get("solve_seconds", 0.0)),
    )


def dump_assignment(assignment: NIDSAssignment) -> str:
    """Serialize an assignment to JSON text."""
    return json.dumps(assignment_to_dict(assignment), indent=2, sort_keys=True)


def load_assignment(text: str) -> NIDSAssignment:
    """Parse JSON text produced by :func:`dump_assignment`."""
    return assignment_from_dict(json.loads(text))
