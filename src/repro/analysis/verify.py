"""Static deployment-artifact verification (``repro analysis verify``).

Given the *artifacts* of planning — an LP assignment, a manifest set,
a NIPS rounding solution, or a manifest delta — prove the paper's
deployment invariants **without running any traffic**:

* the hash ranges of every coordination unit partition ``[0, 1]``
  exactly ``r`` times, with no node overlapping itself and the union
  topping out at exactly 1.0 (Fig. 2 / Section 2.5);
* ``d_ikj`` mass only lands on nodes of the unit's forwarding path
  ``P_ik`` (Section 2.3 — an off-path node never sees the traffic it
  was assigned);
* a NIPS placement respects per-node TCAM, memory and CPU budgets, and
  nodes only sample for rules they enabled (Section 3.2, Eqs. 8-12);
* a manifest delta applies cleanly to its base epoch.

Each violated invariant maps to a stable rule ID (REP101-REP108, the
``docs/static_analysis.md`` catalogue) so CI and the controller's
fail-closed gate can report precisely *which* invariant broke.

Every invariant with hash-range or capacity arithmetic in it is stated
once, beside the artifact it constrains — the Fig. 2 partition and the
on-path rule in :mod:`repro.core.manifest`, the NIPS manifests in
:mod:`repro.core.nips_manifest`, Eqs. 8–13 in
:meth:`repro.core.nips_milp.NIPSProblem.check` — and returns
:class:`~repro.core.manifest.Finding` records.  This module composes
those checks into reports, the CLI's file loading and the
:class:`repro.control.Controller` pre-distribution gate; the raising
validators in ``core`` (``verify_manifests``, ``verify_nips_manifests``)
are views of the same checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.manifest import (
    VERIFIER_RULES,
    EntryKey,
    Finding,
    NodeManifest,
    check_deployment,
    check_on_path,
    check_partition,
)
from ..core.manifest_io import check_delta
from ..core.manifest_table import Manifests
from ..core.nids_lp import NIDSAssignment
from ..core.units import Units, UnitTable, eligible_nodes

if TYPE_CHECKING:  # heavy NIPS imports only for type checkers
    from ..core.nips_milp import NIPSProblem, NIPSSolution
from ..hashing.ranges import EPSILON


@dataclass
class VerificationReport:
    """All findings of one verification pass."""

    findings: List[Finding] = field(default_factory=list)
    checks: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every checked invariant held."""
        return not self.findings

    def rule_ids(self) -> List[str]:
        """Distinct violated rule IDs, sorted."""
        return sorted({finding.rule_id for finding in self.findings})

    def render_text(self) -> str:
        """Human-readable report."""
        rows = [finding.render() for finding in self.findings]
        status = "OK" if self.ok else "REJECTED"
        rows.append(
            f"{status}: {len(self.findings)} finding(s) from checks:"
            f" {', '.join(self.checks) or '-'}"
        )
        return "\n".join(rows)

    def render_json(self) -> str:
        """Machine-readable report (stable schema, version 1)."""
        return json.dumps(
            {
                "version": 1,
                "ok": self.ok,
                "checks": list(self.checks),
                "findings": [
                    {
                        "rule": f.rule_id,
                        "subject": f.subject,
                        "message": f.message,
                    }
                    for f in self.findings
                ],
            },
            indent=2,
            sort_keys=True,
        )


# -- NIDS deployments -----------------------------------------------------
def verify_deployment(
    units: Units,
    manifests: Manifests,
    assignment: Optional[NIDSAssignment] = None,
) -> VerificationReport:
    """Full static verification of a NIDS deployment artifact set.

    Always checks the partition and path invariants; with *assignment*
    also proves the ``d*`` profile feasible and the manifests faithful
    to it, all read through one manifest table.  This is the entry
    point the controller gate and the CLI share.
    """
    checks = ["partition", "on-path"]
    if assignment is not None:
        checks.extend(["assignment", "assignment-match"])
    return VerificationReport(
        findings=check_deployment(units, manifests, assignment), checks=tuple(checks)
    )


# -- manifest deltas -------------------------------------------------------
def verify_delta(base: NodeManifest, delta: Mapping) -> VerificationReport:
    """Static verification of one manifest delta against its base."""
    return VerificationReport(
        findings=check_delta(base, delta), checks=("delta",)
    )


# -- NIPS artifacts --------------------------------------------------------
def check_nips(
    problem: "NIPSProblem",
    solution: "NIPSSolution",
    manifests: Optional[Manifests] = None,
) -> List[Finding]:
    """Section 3.2 invariants on a (rounded) NIPS solution.

    :meth:`NIPSProblem.check` (Eqs. 8–13 and the on-path rule) and,
    with *manifests*,
    :func:`~repro.core.nips_manifest.check_nips_manifests`.
    """
    findings = problem.check(solution.e, solution.d)
    if manifests is not None:
        from ..core.nips_manifest import check_nips_manifests

        findings.extend(check_nips_manifests(solution, manifests))
    return findings


def verify_nips(
    problem: "NIPSProblem",
    solution: "NIPSSolution",
    manifests: Optional[Manifests] = None,
) -> VerificationReport:
    """Static verification of a NIPS rounding artifact."""
    checks = ["tcam", "capacity", "enablement", "path-mass", "on-path"]
    if manifests is not None:
        checks.append("nips-manifests")
    return VerificationReport(
        findings=check_nips(problem, solution, manifests),
        checks=tuple(checks),
    )


# -- artifact files (the CLI path) ----------------------------------------
def _pseudo_units(
    idents: Sequence[EntryKey],
    holders: Mapping[EntryKey, Set[str]],
    topology_label: Optional[str],
) -> UnitTable:
    """Reconstruct minimal units from artifact contents.

    The serialized artifacts carry (class, unit-key) idents but not the
    eligible sets; with a topology label the forwarding paths are
    recomputed from the key itself (a two-location key is PATH-scoped,
    a single location is its own observer — Section 2.1), enabling the
    off-path check.  Without a topology the holders stand in and the
    path check is vacuous.
    """
    paths = None
    known: Set[str] = set()
    if topology_label is not None:
        from ..topology.datasets import by_label
        from ..topology.routing import PathSet

        topology = by_label(topology_label)
        paths = PathSet(topology)
        known = set(topology.node_names)

    eligible = [
        eligible_nodes(key, paths)
        if paths is not None and len(key) in (1, 2) and set(key) <= known
        else tuple(sorted(holders.get((class_name, key), set())))
        for class_name, key in idents
    ]
    return UnitTable.from_sets(idents, eligible)


def verify_artifact_files(
    manifests_path: str,
    assignment_path: Optional[str] = None,
    topology_label: Optional[str] = None,
) -> VerificationReport:
    """Verify serialized planning artifacts straight from disk.

    *manifests_path* is a :func:`repro.core.manifest_io.dump_manifests`
    JSON file; *assignment_path* optionally adds the solved ``d*``
    profile; *topology_label* (e.g. ``internet2``) reconstructs the
    forwarding paths so off-path mass is caught.
    """
    from ..core.manifest_io import load_assignment, load_manifests

    with open(manifests_path, "r", encoding="utf-8") as handle:
        manifests = load_manifests(handle.read())
    assignment = None
    if assignment_path is not None:
        with open(assignment_path, "r", encoding="utf-8") as handle:
            assignment = load_assignment(handle.read())

    holders: Dict[EntryKey, Set[str]] = {}
    for node, manifest in manifests.items():
        for ident in manifest.entries:
            holders.setdefault(ident, set()).add(node)
    if assignment is not None:
        heavy = assignment.value > EPSILON
        for u, k in zip(
            assignment.unit_of[heavy].tolist(), assignment.node_of[heavy].tolist()
        ):
            holders.setdefault(assignment.units[u], set()).add(assignment.nodes[k])
    units = _pseudo_units(sorted(holders), holders, topology_label)
    report = verify_deployment(units, manifests, assignment)
    if assignment is None:
        # Without d* the per-unit fold comes from round(total); note it.
        report.checks = report.checks + ("fold-inferred",)
    return report
