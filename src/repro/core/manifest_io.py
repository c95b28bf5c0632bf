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

import functools
import json
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from ..hashing.ranges import HashRange
from ..obs import COUNT_BUCKETS, get_registry
from .manifest import (
    REP106,
    EntryKey,
    Finding,
    NodeManifest,
    check_disjoint,
    unit_label,
)
from .nids_lp import NIDSAssignment

SCHEMA_VERSION = 1

#: One manifest entry's content: its ident and its ranges.
Content = Tuple[EntryKey, Tuple[HashRange, ...]]


class Wire(NamedTuple):
    """A JSON-compatible dict and the length of its sorted-key encoding."""

    data: dict
    size: int


def json_size(payload: object) -> int:
    """Wire size of a control message: its sorted-key JSON encoding."""
    return len(json.dumps(payload, sort_keys=True))


def joined_size(sizes: Iterable[int]) -> int:
    """Length of encodings joined by ``", "``, as a JSON list or object
    body holds them: every item plus 2 between two (0 for none)."""
    sizes = list(sizes)
    return sum(sizes) + 2 * (len(sizes) - 1) if sizes else 0


def _entry_dict(ident: EntryKey, ranges: Tuple[HashRange, ...]) -> dict:
    class_name, key = ident
    return {
        "class": class_name,
        "unit": list(key),
        "ranges": [[r.lo, r.hi] for r in ranges],
    }


def manifest_to_dict(manifest: NodeManifest) -> dict:
    """Encode one node's manifest as a JSON-compatible dict."""
    return {
        "version": SCHEMA_VERSION,
        "node": manifest.node,
        "full": manifest.full,
        "entries": [
            _entry_dict(ident, ranges)
            for ident, ranges in sorted(manifest.entries.items())
        ],
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
    changed, removed = _changes(old, new)
    return {
        "version": SCHEMA_VERSION,
        "kind": "delta",
        "node": new.node,
        "full": new.full,
        "changed": [_entry_dict(ident, new.entries[ident]) for ident in changed],
        "removed": [_removal_dict(ident) for ident in removed],
    }


def _removal_dict(ident: EntryKey) -> dict:
    class_name, key = ident
    return {"class": class_name, "unit": list(key)}


def _changes(
    old: NodeManifest, new: NodeManifest
) -> Tuple[List[EntryKey], List[EntryKey]]:
    """The entries a delta from *old* to *new* carries, sorted: those
    new or whose ranges differ, and those *new* no longer holds.
    Records the delta metrics."""
    if old.node != new.node:
        raise ValueError(
            f"cannot diff manifests of different nodes {old.node!r} vs {new.node!r}"
        )
    changed = [
        ident
        for ident in sorted(new.entries)
        if old.entries.get(ident) != new.entries[ident]
    ]
    removed = [ident for ident in sorted(old.entries) if ident not in new.entries]
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
    return changed, removed


@functools.lru_cache(maxsize=4096)
def _frame_size(kind: str, node: str, full: bool) -> int:
    """Size of a manifest (*kind* ``"manifest"``) or delta dict for
    *node* with its entry lists empty."""
    frame = {"version": SCHEMA_VERSION, "node": node, "full": full}
    if kind == "delta":
        return json_size(dict(frame, kind="delta", changed=[], removed=[]))
    return json_size(dict(frame, entries=[]))


class ConfigurationWire:
    """One configuration version's manifests on the wire.

    Each entry's wire dict and its sorted-key JSON length are computed
    once per ``(ident, ranges)`` content: the version reuses what the
    *previous* one encoded, and drops everything older.  Each node's
    :func:`manifest_to_dict` dict is assembled once, and the full push
    and the epoch log share it.  Every size is summed, never encoded:
    the frame's length, plus the entries' lengths joined by ``", "``
    (:func:`joined_size`) — equal to :func:`json_size` of the dict.
    Like a :class:`~repro.core.manifest_table.ManifestTable`, it reads
    a snapshot: a configuration is not written in place once adopted.
    """

    def __init__(
        self,
        manifests: Mapping[str, NodeManifest],
        previous: Optional["ConfigurationWire"] = None,
    ):
        self.manifests = manifests
        self._entries: Dict[Content, Wire] = {}
        # Only the last version's encodings; the one before goes with it.
        self._carried = previous._entries if previous is not None else {}
        self._assembled: Dict[str, Wire] = {}

    def __len__(self) -> int:
        return len(self.manifests)

    def _encode(self, held: Iterable[Content]) -> Tuple[List[dict], int]:
        """The wire dicts of *held* entries, in order, and their joined
        size: each looked up by content, encoded only when neither this
        version nor the last has."""
        entries, carried = self._entries, self._carried
        data, sizes = [], []
        for content in held:
            wire = entries.get(content)
            if wire is None:
                wire = carried.get(content)
                if wire is None:
                    encoded = _entry_dict(*content)
                    wire = Wire(encoded, json_size(encoded))
                entries[content] = wire
            data.append(wire.data)
            sizes.append(wire.size)
        return data, joined_size(sizes)

    def manifest(self, node: str) -> Wire:
        """:func:`manifest_to_dict` of *node*'s manifest, with its size."""
        wire = self._assembled.get(node)
        if wire is None:
            manifest = self.manifests[node]
            entries, size = self._encode(sorted(manifest.entries.items()))
            data = {
                "version": SCHEMA_VERSION,
                "node": manifest.node,
                "full": manifest.full,
                "entries": entries,
            }
            size += _frame_size("manifest", manifest.node, manifest.full)
            wire = self._assembled[node] = Wire(data, size)
        return wire

    def delta(self, base: NodeManifest, node: str) -> Wire:
        """:func:`manifest_diff` from *base* to *node*'s manifest, with
        its size."""
        target = self.manifests[node]
        changed, removed = _changes(base, target)
        entries, size = self._encode(
            (ident, target.entries[ident]) for ident in changed
        )
        removals = [_removal_dict(ident) for ident in removed]
        data = {
            "version": SCHEMA_VERSION,
            "kind": "delta",
            "node": target.node,
            "full": target.full,
            "changed": entries,
            "removed": removals,
        }
        size += _frame_size("delta", target.node, target.full)
        size += joined_size(json_size(removal) for removal in removals)
        return Wire(data, size)

    def log(self) -> Tuple[Tuple[str, Wire], ...]:
        """Every node's :meth:`manifest`, in node order: the form an
        epoch-log entry holds."""
        return tuple((node, self.manifest(node)) for node in sorted(self.manifests))


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
    """Encode an LP assignment (the ``d*`` profile) as a dict: its
    entries above 1e-12, in ``(class, unit, node)`` order."""
    order = assignment.sorted_order()
    order = order[assignment.value[order] > 1e-12]
    units, nodes = assignment.units, assignment.nodes
    fractions = [
        {
            "class": units[u][0],
            "unit": list(units[u][1]),
            "node": nodes[k],
            "fraction": value,
        }
        for u, k, value in zip(
            assignment.unit_of[order].tolist(),
            assignment.node_of[order].tolist(),
            assignment.value[order].tolist(),
        )
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
    """Decode an assignment dict back into :class:`NIDSAssignment`.

    A (class, unit, node) listed twice is an error, not last-wins: the
    first listing's fraction would vanish unchecked.
    """
    if data.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {data.get('version')!r}")
    coverage = {
        (entry["class"], tuple(entry["unit"])): entry["coverage"]
        for entry in data["coverage"]
    }
    return NIDSAssignment.from_triples(
        (
            (entry["class"], entry["unit"], entry["node"], entry["fraction"])
            for entry in data["fractions"]
        ),
        coverage,
        cpu_load=data["cpu_load"],
        mem_load=data["mem_load"],
        objective=float(data["objective"]),
        solve_seconds=float(data.get("solve_seconds", 0.0)),
    )


def dump_assignment(assignment: NIDSAssignment) -> str:
    """Serialize an assignment to JSON text."""
    return json.dumps(assignment_to_dict(assignment), indent=2, sort_keys=True)


def load_assignment(text: str) -> NIDSAssignment:
    """Parse JSON text produced by :func:`dump_assignment`."""
    return assignment_from_dict(json.loads(text))
