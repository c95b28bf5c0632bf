"""Epoch bookkeeping for the coordination plane.

"ISPs typically collect traffic reports (e.g., NetFlow, SNMP) every
few minutes, and since NIDS configurations would typically be driven
from such reports, we envision needing to reconfigure NIDS with
roughly the same frequency" (paper §5).  An *epoch* is one such
reporting/reconfiguration interval.  This module holds the pieces the
epoch loop shares:

* :class:`EpochRecord` — the per-epoch metrics row the controller and
  scenario runner emit (coverage, reconfiguration lag, duplicated
  work, bytes on the wire);
* :class:`EpochLogEntry` — one adopted configuration as the leader
  replicates it to its standbys (``state-handoff``);
* :func:`merge_reports` — fold per-agent NetFlow reports into the
  network-wide report the planner consumes;
* :func:`stabilize_manifests` — per-unit churn suppression: when a
  re-solve moves a unit's hash ranges by less than a tolerance, keep
  the previous epoch's ranges (consistently for *all* nodes of the
  unit, preserving the coverage invariant), so steady-state delta
  pushes stay near-empty;
* :func:`coverage_metrics` — evaluate what fraction of the measured
  traffic the currently *applied* manifests actually cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.manifest import NodeManifest
from ..core.manifest_io import manifest_from_dict
from ..core.manifest_table import ManifestTable
from ..core.units import CoordinationUnit, UnitKey
from ..hashing.ranges import EPSILON, HashRange, union_length
from ..measurement.flows import TrafficReport

Ident = Tuple[str, UnitKey]

#: One epoch — the reporting / heartbeat / reconfiguration interval —
#: is one unit of the simulated clock.
EPOCH_SECONDS = 1.0
#: Epoch-lease TTL: over two epochs, so two consecutive lost renewal
#: beats do not trigger spurious degradation, but a real outage fences
#: every agent well before it heals.
LEASE_TTL = 2.5


def check_lease_ttl(lease_ttl: object) -> None:
    """Reject a lease TTL that is not a finite number > 0 (``nan``
    slips past a bare ``<= 0`` test and leaves every lease expired)."""
    if not (isinstance(lease_ttl, (int, float)) and 0 < lease_ttl < math.inf):
        raise ValueError(f"lease_ttl must be finite and > 0, got {lease_ttl!r}")


@dataclass
class EpochRecord:
    """One epoch's worth of coordination-plane metrics."""

    epoch: int
    time: float
    sessions: int = 0
    failed_nodes: Tuple[str, ...] = ()
    #: Why the controller produced new manifests this epoch
    #: ("bootstrap", "drift", "periodic", "failure", "recovery"), or ""
    #: if the configuration was left untouched.
    resolved: str = ""
    config_version: int = -1
    pushes_full: int = 0
    pushes_delta: int = 0
    #: Bytes actually pushed (deltas where chosen, fulls otherwise).
    push_bytes: int = 0
    #: What pushing full manifests to the same recipients would cost.
    full_equivalent_bytes: int = 0
    #: Fraction of (node, unit) manifest entries unchanged vs. the
    #: previous configuration (1.0 when nothing was re-solved).
    unchanged_entry_fraction: float = 1.0
    messages_sent: int = 0
    bytes_sent: int = 0
    #: Volume-weighted fraction of observable traffic covered by the
    #: live agents' applied manifests at epoch end.
    coverage: float = 1.0
    #: Worst single-unit coverage (diagnostic; 1.0 when converged).
    min_unit_coverage: float = 1.0
    #: Volume fraction whose entire eligible set is failed.
    orphaned_fraction: float = 0.0
    #: Volume-weighted hash-space mass analyzed at >1 node during this
    #: epoch's dual-manifest window (0 outside reconfigurations).
    duplicated_fraction: float = 0.0
    #: Seconds from pushing a configuration to its last acknowledgement
    #: (0 when nothing was pushed or acks are still pending).
    reconfig_lag: float = 0.0
    #: Whether every live node had acknowledged the current
    #: configuration by epoch end.
    converged: bool = True
    #: Whether the epoch is part of a transition window (configuration
    #: still propagating, or a failure not yet repaired).
    in_transition: bool = False
    #: Live nodes fenced out of coordinated planning because they
    #: self-reported edge-only degradation (lease expired).
    fenced_nodes: Tuple[str, ...] = ()


@dataclass(frozen=True)
class EpochLogEntry:
    """One adopted configuration in the replicated epoch log.

    ``manifests`` holds plain :func:`manifest_to_dict` dicts (not
    :class:`NodeManifest` objects) so entries serialize over the bus,
    pickle across process boundaries, and round-trip through JSON.
    """

    term: int
    version: int
    reason: str
    #: Highest agent-acknowledged version the leader had observed when
    #: it logged this entry.
    max_acked: int
    manifests: Tuple[Tuple[str, dict], ...]

    def to_dict(self) -> dict:
        """JSON-compatible dict (the manifest pairs become a mapping)."""
        return {
            "term": self.term,
            "version": self.version,
            "reason": self.reason,
            "max_acked": self.max_acked,
            "manifests": {node: data for node, data in self.manifests},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EpochLogEntry":
        """Rebuild an entry from :meth:`to_dict` output."""
        return cls(
            term=data["term"],
            version=data["version"],
            reason=data.get("reason", ""),
            max_acked=data.get("max_acked", -1),
            manifests=tuple(sorted(data.get("manifests", {}).items())),
        )

    def manifest_objects(self) -> Dict[str, NodeManifest]:
        """Materialize the stored manifests as ``NodeManifest``s."""
        return {
            node: manifest_from_dict(data) for node, data in self.manifests
        }


def merge_reports(reports: Iterable[TrafficReport]) -> TrafficReport:
    """Fold per-agent reports into one network-wide traffic report.

    Agents report the pairs they ingress, so pair keys are naturally
    disjoint across agents; summing keeps the merge correct even if a
    pair were reported twice (e.g. duplicated delivery).
    """
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to merge")
    merged = TrafficReport(
        interval_seconds=reports[0].interval_seconds,
        sampling_rate=reports[0].sampling_rate,
    )
    for report in reports:
        for pair, value in report.pair_flows.items():
            merged.pair_flows[pair] = merged.pair_flows.get(pair, 0.0) + value
        for pair, value in report.pair_packets.items():
            merged.pair_packets[pair] = merged.pair_packets.get(pair, 0.0) + value
        for key, value in report.pair_port_flows.items():
            merged.pair_port_flows[key] = (
                merged.pair_port_flows.get(key, 0.0) + value
            )
        for key, value in report.pair_port_packets.items():
            merged.pair_port_packets[key] = (
                merged.pair_port_packets.get(key, 0.0) + value
            )
    return merged


def _ranges_close(
    a: Tuple[HashRange, ...], b: Tuple[HashRange, ...], tolerance: float
) -> bool:
    if len(a) != len(b):
        return False
    a_sorted = sorted(a, key=lambda r: r.lo)
    b_sorted = sorted(b, key=lambda r: r.lo)
    return all(
        abs(x.lo - y.lo) <= tolerance and abs(x.hi - y.hi) <= tolerance
        for x, y in zip(a_sorted, b_sorted)
    )


def stabilize_manifests(
    previous: Dict[str, NodeManifest],
    proposed: Dict[str, NodeManifest],
    tolerance: float,
    allowed: Optional[Dict[Ident, Set[str]]] = None,
) -> Tuple[Dict[str, NodeManifest], Set[Ident]]:
    """Suppress sub-tolerance churn between two manifest sets.

    For each coordination unit, if every node's proposed ranges sit
    within *tolerance* of the previous epoch's (same holders, each
    endpoint moved at most *tolerance*), the previous ranges are kept —
    for **all** nodes of the unit at once, so the exact-coverage and
    disjointness invariants carry over from the previous (verified)
    configuration.  Units that moved materially adopt the proposed
    ranges.

    *allowed* optionally maps unit identity to the nodes permitted to
    hold it (the unit's current live eligible set); previous ranges
    are only reused when their holders are all still permitted, which
    keeps stabilization from resurrecting a failed node's assignment.

    Returns the stabilized manifests plus the set of units that
    actually changed.  LP optima move continuously with the measured
    volumes, so without this step *every* entry would differ every
    epoch and delta pushes would degenerate to full pushes.
    """
    old_table = ManifestTable.from_manifests(previous)
    new_table = ManifestTable.from_manifests(proposed)
    result = {
        node: NodeManifest(node=node, full=manifest.full)
        for node, manifest in proposed.items()
    }
    changed: Set[Ident] = set()
    # Sorted so per-node entry dicts build in one canonical order for
    # every input ordering (REP202: sets iterate in hash order).
    for ident in sorted(new_table.units):
        old_holders = dict(old_table.rows(ident))
        new_holders = dict(new_table.rows(ident))
        reusable = (
            bool(old_holders)
            and set(old_holders) == set(new_holders)
            and (allowed is None or set(old_holders) <= allowed.get(ident, set()))
            and all(
                _ranges_close(old_holders[node], new_holders[node], tolerance)
                for node in old_holders
            )
        )
        source = old_holders if reusable else new_holders
        if not reusable:
            changed.add(ident)
        for node, ranges in source.items():
            result[node].entries[ident] = ranges
    return result, changed


@dataclass
class CoverageSummary:
    """Applied-manifest coverage of one epoch's measured traffic."""

    #: Volume-weighted coverage of observable units (>= 1 live
    #: eligible node); 1.0 when there is nothing observable.
    coverage: float
    #: Worst per-unit coverage among observable units.
    min_unit_coverage: float
    #: Volume fraction of units with no live eligible node at all.
    orphaned_fraction: float
    #: Units (with volume share) currently not fully covered.
    uncovered: List[Tuple[Ident, float]] = field(default_factory=list)


def coverage_metrics(
    units: Sequence[CoordinationUnit],
    manifests: Dict[str, NodeManifest],
    live: Set[str],
) -> CoverageSummary:
    """How much of *units*' traffic the live applied manifests cover.

    A unit's coverage is the measure of the union of the ranges held by
    its *live* eligible nodes, clamped to 1.  Units whose entire
    eligible set is down are *orphaned* — nobody can observe that
    traffic, so it is excluded from the coverage denominator and
    reported separately (the paper's singleton-unit caveat: a Scan
    unit at a dead ingress simply has no substitute observer).
    """
    total = sum(unit.pkts for unit in units)
    observable = 0.0
    covered_mass = 0.0
    orphaned_mass = 0.0
    min_cov = 1.0
    uncovered: List[Tuple[Ident, float]] = []
    for unit in units:
        live_eligible = [node for node in unit.eligible if node in live]
        if not live_eligible:
            orphaned_mass += unit.pkts
            continue
        held: List[HashRange] = []
        for node in live_eligible:
            manifest = manifests.get(node)
            if manifest is not None:
                held.extend(manifest.ranges(unit.class_name, unit.key))
        covered = min(1.0, union_length(held))
        observable += unit.pkts
        covered_mass += unit.pkts * covered
        if covered < min_cov:
            min_cov = covered
        if covered < 1.0 - EPSILON:
            uncovered.append((unit.ident, unit.pkts / total if total else 0.0))
    coverage = covered_mass / observable if observable > 0 else 1.0
    uncovered.sort(key=lambda item: -item[1])
    return CoverageSummary(
        coverage=coverage,
        min_unit_coverage=min_cov,
        orphaned_fraction=orphaned_mass / total if total > 0 else 0.0,
        uncovered=uncovered,
    )


def ranges_reassigned(
    snapshot: Mapping[Ident, Tuple[HashRange, ...]],
    survivors: Mapping[str, NodeManifest],
    skip: Set[Ident],
) -> bool:
    """Whether every repairable *snapshot* range is held by some
    survivor's applied manifest (the acceptance check's ground truth:
    what the live agents actually run, not what the controller
    intends)."""
    table = ManifestTable.from_manifests(survivors)
    for ident, ranges in snapshot.items():
        if ident in skip:
            continue
        held = [
            piece for _node, pieces in table.holders(ident) for piece in pieces
        ]
        for piece in ranges:
            if piece.empty:
                continue
            if union_length(held, clip=piece) < piece.length - 1e-9:
                return False
    return True
