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
  pushes stay near-empty (one pass over both versions' table columns);
* :class:`GroundTruth` — one epoch's sessions against what the live
  agents serve: one served :class:`~repro.core.manifest_table.ManifestTable`
  per epoch, the sessions' units read from the pool root's memo, and
  :meth:`GroundTruth.coverage` — what fraction of the measured traffic
  the *applied* manifests actually cover — as a segmented
  ``union_length`` fold over the table's pieces that reproduces the
  scalar loop's float order (``tests/manifest_oracle.py`` keeps the
  loop); the chaos monitor's pair probe reads the same table;
* :func:`coverage_metrics` — the same measure for a unit table and a
  manifest set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..core.manifest import NodeManifest
from ..core.manifest_io import joined_size, json_size, manifest_from_dict
from ..core.manifest_table import Manifests, ManifestTable, left_sum, run_starts
from ..core.units import (
    KeyEligibility,
    UnitKey,
    Units,
    UnitTable,
    key_eligibility,
    session_unit_keys,
)
from ..hashing.ranges import EPSILON, HashRange, union_length
from ..measurement.flows import TrafficReport
from ..nids.modules.base import ModuleSpec
from ..topology.routing import PathSet
from ..traffic.batch import SessionBatch

if TYPE_CHECKING:
    from .agent import Agent

Ident = Tuple[str, UnitKey]

#: One epoch — the reporting / heartbeat / reconfiguration interval —
#: is one unit of the simulated clock.
EPOCH_SECONDS = 1.0
#: Epoch-lease TTL: over two epochs, so two consecutive lost renewal
#: beats do not trigger spurious degradation, but a real outage fences
#: every agent well before it heals.
LEASE_TTL = 2.5


def check_duration(name: str, seconds: object) -> None:
    """Reject a duration (a lease TTL, a heartbeat timeout) that is not a
    finite number > 0: ``nan`` slips past a bare ``<= 0`` test and
    leaves every lease expired or no node ever declared failed."""
    if not (isinstance(seconds, (int, float)) and 0 < seconds < math.inf):
        raise ValueError(f"{name} must be finite and > 0, got {seconds!r}")


@dataclass
class EpochRecord:
    """One epoch's worth of coordination-plane metrics."""

    epoch: int
    time: float
    sessions: int = 0
    failed_nodes: Tuple[str, ...] = ()
    #: Why the controller produced new manifests this epoch ("bootstrap",
    #: "takeover", "drift", "periodic", "failure", "recovery"), or "" if
    #: the configuration was left untouched.
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
    #: Each manifest's :func:`json_size`, in ``manifests`` order, when
    #: the logging leader had it (empty: measured on first need).
    manifest_sizes: Tuple[int, ...] = field(default=(), compare=False, repr=False)

    def _header(self) -> dict:
        return {
            "term": self.term,
            "version": self.version,
            "reason": self.reason,
            "max_acked": self.max_acked,
        }

    def to_dict(self) -> dict:
        """JSON-compatible dict (the manifest pairs become a mapping)."""
        return dict(
            self._header(),
            manifests={node: data for node, data in self.manifests},
        )

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

    @cached_property
    def json_size(self) -> int:
        """Length of :meth:`to_dict`'s sorted-key JSON encoding, summed
        once from the manifests' sizes: the frame, plus each
        ``"node": manifest`` item joined by ``", "``.  A logged entry
        never changes, and it is re-sent every beat."""
        sizes = self.manifest_sizes or tuple(
            json_size(data) for _node, data in self.manifests
        )
        items = (
            json_size(node) + 2 + size
            for (node, _data), size in zip(self.manifests, sizes)
        )
        return json_size(dict(self._header(), manifests={})) + joined_size(items)

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


def stabilize_manifests(
    previous: Manifests,
    proposed: Manifests,
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

    A proposed row (``full`` manifests write none) is close to the
    previous row of its (unit, node) when both hold as many pieces and,
    each sorted by ``lo``, every endpoint moved at most *tolerance*.
    Either set may come as its table.
    """
    old = ManifestTable.of(previous)
    new = ManifestTable.of(proposed)
    was, now = old.columns, new.columns
    groups = old.unit_ids(new.units)
    # Each proposed row's previous twin (same unit, same node; -1: none).
    twin = old.find_rows(groups[now.row_unit], old.node_ids(new.nodes)[now.row_node])
    was_count = np.bincount(was.row, minlength=len(was.row_unit))
    now_count = np.bincount(now.row, minlength=len(now.row_unit))
    close = (twin >= 0) & (np.append(was_count, -1)[twin] == now_count)
    # A row's pieces are adjacent, so after a stable sort by (row, lo)
    # its k-th piece in lo order sits k after the row's first piece.
    mine, theirs = np.lexsort((now.lo, now.row)), np.lexsort((was.lo, was.row))
    at = np.flatnonzero(close[now.row])
    row, a = now.row[at], mine[at]
    b = theirs[at - run_starts(now_count)[row] + run_starts(was_count)[twin[row]]]
    moved = np.maximum(np.abs(was.lo[b] - now.lo[a]), np.abs(was.hi[b] - now.hi[a]))
    close[row[~(moved <= tolerance)]] = False
    # A unit is kept when each of its rows is close to its twin and the
    # previous set writes it on no other node.
    rows = np.bincount(now.row_unit, minlength=len(new.units))
    was_rows = np.append(np.bincount(was.row_unit, minlength=len(old.units)), 0)
    kept = (np.bincount(now.row_unit, weights=close, minlength=len(rows)) == rows) & (
        was_rows[groups] == rows
    )

    result = {
        node: NodeManifest(node=node, full=manifest.full)
        for node, manifest in new.manifests.items()
    }
    changed: Set[Ident] = set()
    idents, first = new.units, np.append(0, np.cumsum(rows)).tolist()
    names = [new.nodes[k] for k in now.row_node.tolist()]
    twins, kept_units = twin.tolist(), kept.tolist()
    # Sorted so per-node entry dicts build in one canonical order for
    # every input ordering (REP202: sets iterate in hash order).
    for u in sorted(range(len(idents)), key=idents.__getitem__):
        ident = idents[u]
        span = range(first[u], first[u + 1])
        reusable = kept_units[u] and (
            allowed is None or all(names[r] in allowed.get(ident, ()) for r in span)
        )
        if not reusable:
            changed.add(ident)
        for r in span:
            result[names[r]].entries[ident] = (
                was.entries[twins[r]] if reusable else now.entries[r]
            )
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


def _union_fold(
    unit: np.ndarray, lo: np.ndarray, hi: np.ndarray, num_units: int
) -> np.ndarray:
    """Per unit, :func:`~repro.hashing.ranges.union_length` of its pieces.

    The pieces are non-empty and sorted by ``(unit, lo)``; each unit is
    folded left to right exactly as the scalar loop does — the cursor is
    the running max of the clipped tops, the total a left fold — one
    vector step per piece position, every unit at once.
    """
    counts = np.bincount(unit, minlength=num_units)
    start = run_starts(counts)
    total = np.zeros(num_units)
    cursor = np.zeros(num_units)
    for k in range(int(counts.max(initial=0))):
        units = np.flatnonzero(counts > k)
        piece = start[units] + k
        low = np.maximum(lo[piece], cursor[units])
        high = np.minimum(hi[piece], 1.0)
        gain = high > low
        units, low, high = units[gain], low[gain], high[gain]
        total[units] += high - low
        cursor[units] = high
    return total


def _held_measure(
    table: ManifestTable,
    groups: np.ndarray,
    position: np.ndarray,
    whole_unit: np.ndarray,
    whole_position: np.ndarray,
) -> np.ndarray:
    """Per unit *u*, the measure of the union of what its holders serve,
    clamped to 1 — ``min(1, union_length(held))`` with ``held`` gathered
    as :func:`coverage_metrics`' loop gathers it.

    * ``groups[u]`` is *u*'s row group in *table* (``-1``: no entry);
    * ``position[u, k]`` is where ``table.nodes[k]`` stands among *u*'s
      eligible nodes, ``-1`` for a node whose pieces do not count;
    * ``whole_unit`` / ``whole_position`` add ``[0, 1)`` pieces held
      outside the table (a degraded endpoint's edge stance).

    Ties in ``lo`` keep the gather order — holder position, then the
    holder's own piece order — as the scalar ``sorted`` does.
    """
    num_units = len(groups)
    held = table.pieces(groups)
    wholes = len(whole_unit)
    unit = np.concatenate([held.owner, whole_unit])
    position = np.concatenate([position[held.owner, held.node], whole_position])
    lo = np.concatenate([held.lo, np.zeros(wholes)])
    hi = np.concatenate([held.hi, np.ones(wholes)])
    keep = (position >= 0) & (hi - lo > EPSILON)
    unit, position, lo, hi = unit[keep], position[keep], lo[keep], hi[keep]
    order = np.lexsort((position, lo, unit))
    total = _union_fold(unit[order], lo[order], hi[order], num_units)
    return np.minimum(total, 1.0)


def _summarize(
    pkts: np.ndarray, observable: np.ndarray, covered: np.ndarray
) -> CoverageSummary:
    """Fold per-unit volumes and covered measures, in unit order, into a
    :class:`CoverageSummary` (units with no live eligible node are
    orphaned and leave the coverage denominator)."""
    total = left_sum(pkts)
    observed = left_sum(pkts[observable])
    covered_mass = left_sum(pkts[observable] * covered[observable])
    orphaned = left_sum(pkts[~observable])
    return CoverageSummary(
        coverage=covered_mass / observed if observed > 0 else 1.0,
        min_unit_coverage=float(covered[observable].min(initial=1.0)),
        orphaned_fraction=orphaned / total if total > 0 else 0.0,
    )


def coverage_metrics(
    units: Units,
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

    A unit table and a manifest set, read through the fold
    :class:`GroundTruth` runs on every epoch (:func:`_held_measure`).
    """
    units = UnitTable.of(units)
    table = ManifestTable.from_manifests(
        {node: manifest for node, manifest in manifests.items() if node in live}
    )
    column = units.codes_in(table.nodes)
    held = column >= 0
    position = np.full((len(units), len(table.nodes)), -1, dtype=np.intp)
    owner = units.owner[held]
    position[owner, column[held]] = np.flatnonzero(held) - units.offsets[owner]
    none = np.zeros(0, dtype=np.intp)
    covered = _held_measure(
        table, table.unit_ids(units.idents), position, none, none
    )
    observable = (
        np.bincount(units.owner[units.entries_in(live)], minlength=len(units)) > 0
    )
    return _summarize(units.pkts, observable, covered)


class ModuleRows(NamedTuple):
    """One module's matched rows of an epoch and their units."""

    eligibility: KeyEligibility
    #: Matched row positions in the epoch's sessions, and the unit key
    #: id of each.
    matched: np.ndarray
    unit: np.ndarray
    #: Key ids with at least one matched row, in sorted key order, and
    #: their packet volumes.
    present: np.ndarray
    pkts: np.ndarray
    #: Per key id, its row group in the served table (``-1``: none).
    group: np.ndarray


class GroundTruth:
    """One epoch's traffic against what the live agents serve.

    The epoch's sessions are a prefix of a session pool, so everything
    that depends only on the pool — each session's unit key per scope,
    each module's filter mask, each key's eligible set and endpoints —
    is read from the pool root's memo; per epoch this builds one served
    :class:`ManifestTable` (the alive, non-degraded agents' applied
    manifests) and, per module on first use, one ``np.bincount`` of the
    matched rows.  :meth:`coverage` is the epoch record's ground truth;
    the chaos monitor's (module, session) probe reads the same table and
    unit ids.
    """

    def __init__(
        self,
        modules: Sequence[ModuleSpec],
        sessions: SessionBatch,
        paths: PathSet,
        agents: Mapping[str, "Agent"],
    ):
        self.modules = list(modules)
        self.sessions = sessions
        self.paths = paths
        self.served = ManifestTable.from_manifests(
            {
                node: agent.manifest
                for node, agent in agents.items()
                if agent.alive and not agent.degraded
            }
        )
        nodes = sorted(paths.topology.node_names)
        #: Per topology node (sorted), plus one trailing ``False`` so an
        #: absent endpoint (``-1``) reads as down: alive; alive and in
        #: edge-only fallback.
        self.alive = np.array(
            [node in agents and agents[node].alive for node in nodes] + [False]
        )
        self.edge = self.alive & np.array(
            [node in agents and agents[node].degraded for node in nodes] + [False]
        )
        index = {node: n for n, node in enumerate(nodes)}
        self._table_nodes = np.array(
            [index[node] for node in self.served.nodes], dtype=np.intp
        )
        self._rows: Dict[str, ModuleRows] = {}

    def rows(self, spec: ModuleSpec) -> ModuleRows:
        """*spec*'s matched rows and units this epoch (built once)."""
        rows = self._rows.get(spec.name)
        if rows is None:
            sessions = self.sessions
            keys, unit_of_session = session_unit_keys(sessions, spec.scope)
            eligibility = key_eligibility(sessions, spec.scope, self.paths)
            matched = np.flatnonzero(sessions.match_mask(spec.traffic_filter))
            unit = unit_of_session[matched]
            present = np.flatnonzero(np.bincount(unit, minlength=len(keys)))
            present = present[np.argsort(eligibility.rank[present])]
            pkts = np.bincount(
                unit, weights=sessions.pkts_f[matched], minlength=len(keys)
            )
            group = np.full(len(keys), -1, dtype=np.intp)
            group[present] = self.served.unit_ids(
                (spec.name, keys[k]) for k in present.tolist()
            )
            rows = self._rows[spec.name] = ModuleRows(
                eligibility, matched, unit, present, pkts[present], group
            )
        return rows

    def coverage(self) -> CoverageSummary:
        """:func:`coverage_metrics` of the epoch's units (those with a
        matched session, in ``(class, key)`` order) against the served
        manifests, a live degraded endpoint holding all of its units."""
        by_class = sorted(self.modules, key=attrgetter("name"))
        blocks = [self.rows(spec) for spec in by_class]
        position = np.concatenate(
            [rows.eligibility.position[rows.present] for rows in blocks]
        )
        ends = np.concatenate([rows.eligibility.ends[rows.present] for rows in blocks])
        groups = np.concatenate([rows.group[rows.present] for rows in blocks])
        whole_unit, end = np.nonzero(self.edge[ends])
        covered = _held_measure(
            self.served,
            groups,
            position[:, self._table_nodes],
            whole_unit,
            position[whole_unit, ends[whole_unit, end]],
        )
        observable = ((position >= 0) & self.alive[:-1]).any(axis=1)
        pkts = np.concatenate([rows.pkts for rows in blocks])
        return _summarize(pkts, observable, covered)


def ranges_reassigned(
    snapshot: Mapping[Ident, Tuple[HashRange, ...]],
    survivors: Mapping[str, NodeManifest],
    skip: Set[Ident],
) -> bool:
    """Whether every repairable *snapshot* range is held by some
    survivor's applied manifest (the acceptance check's ground truth:
    what the live agents actually run, not what the controller
    intends)."""
    idents = [ident for ident in snapshot if ident not in skip]
    table = ManifestTable.from_manifests(survivors)
    held = table.pieces(table.unit_ids(idents))
    ends = np.searchsorted(held.owner, np.arange(len(idents) + 1)).tolist()
    lo, hi = held.lo.tolist(), held.hi.tolist()
    for u, ident in enumerate(idents):
        span = slice(ends[u], ends[u + 1])
        pieces = [HashRange(a, b) for a, b in zip(lo[span], hi[span])]
        for piece in snapshot[ident]:
            if piece.empty:
                continue
            if union_length(pieces, clip=piece) < piece.length - 1e-9:
                return False
    return True
