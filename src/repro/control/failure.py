"""Failure detection and failure-driven redistribution.

The §2.5 redundancy extension plans *proactively* for failures; this
module is the *reactive* half the operations center still needs: notice
that a node's NIDS process died (missed heartbeats), surgically hand
its hash ranges to surviving on-path nodes, and fold the node back in
when it recovers.

The repair is deliberately **targeted** rather than a full LP re-solve:
only the failed node's ranges move, so every surviving node's manifest
changes by at most the pieces it inherits.  That keeps the repair
push tiny (a delta, not a reconfiguration of the whole network) and
bounds the disruption to exactly the traffic that lost its analyzer.
The next periodic re-solve then restores global optimality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from ..core.manifest import NodeManifest
from ..core.manifest_table import left_sum
from ..core.units import UnitKey, Units, UnitTable
from ..hashing.ranges import EPSILON, HashRange
from ..topology.graph import Topology
from .epochs import check_duration

Ident = Tuple[str, UnitKey]


class HeartbeatMonitor:
    """Liveness tracking from periodic agent heartbeats.

    A node is marked failed once no heartbeat has been seen for
    *timeout* seconds; a heartbeat from a failed node marks it
    recovered (the caller decides how to reintegrate it).
    """

    def __init__(self, nodes: Sequence[str], timeout: float, now: float = 0.0):
        check_duration("heartbeat_timeout", timeout)
        self.timeout = timeout
        self.last_seen: Dict[str, float] = {node: now for node in nodes}
        self.failed: Set[str] = set()

    def beat(self, node: str, now: float) -> bool:
        """Record a heartbeat; returns True if *node* just recovered."""
        self.last_seen[node] = max(self.last_seen.get(node, now), now)
        if node in self.failed:
            self.failed.discard(node)
            return True
        return False

    def sweep(self, now: float) -> List[str]:
        """Nodes newly declared failed as of *now* (sorted)."""
        newly_failed = [
            node
            for node, seen in self.last_seen.items()
            if node not in self.failed and now - seen >= self.timeout
        ]
        self.failed.update(newly_failed)
        return sorted(newly_failed)

    def alive(self, node: str) -> bool:
        """Whether *node* is currently considered live."""
        return node not in self.failed


@dataclass
class RepairResult:
    """Outcome of a targeted failure repair."""

    #: Post-repair manifests for every node (failed nodes emptied).
    manifests: Dict[str, NodeManifest]
    #: Every (class, unit key, donor, receiver, range) reassignment.
    moves: List[Tuple[str, UnitKey, str, str, HashRange]]
    #: Units whose entire eligible set is failed, with the abandoned
    #: hash-space mass — the residual risk the operator must know about
    #: (e.g. a Scan unit whose only ingress observer died).
    orphaned: List[Tuple[Ident, float]] = field(default_factory=list)

    @property
    def moved_mass(self) -> float:
        """Total hash-space mass reassigned across all units."""
        return _mass(piece for *_rest, piece in self.moves)


def _mass(pieces: Iterable[HashRange]) -> float:
    """The pieces' lengths, folded left."""
    return left_sum(np.array([piece.length for piece in pieces], dtype=np.float64))


def _node_loads(
    manifests: Dict[str, NodeManifest],
    units: UnitTable,
    topology: Topology,
) -> Dict[str, float]:
    """Current planned CPU load per node implied by *manifests*."""
    index, cpu_work = units.by_ident, units.cpu_work.tolist()
    loads = {name: 0.0 for name in topology.node_names}
    for node, manifest in manifests.items():
        capacity = topology.node(node).cpu_capacity
        for ident, ranges in manifest.entries.items():
            u = index.get(ident)
            if u is None:
                continue
            loads[node] += cpu_work[u] * _mass(ranges) / capacity
    return loads


def repair_manifests(
    manifests: Dict[str, NodeManifest],
    units: Units,
    topology: Topology,
    failed: Set[str],
) -> RepairResult:
    """Reassign every failed node's hash ranges to live eligible nodes.

    Greedy least-loaded placement: each orphaned range piece goes to
    the surviving eligible node whose planned CPU load grows least —
    and whose existing ranges for the unit it does not already overlap
    (relevant under redundancy, where a node holding the same piece
    twice would violate the distinct-holders invariant).  Surviving
    nodes' existing ranges are never touched, so the resulting delta
    pushes are proportional to the failed node's share only.
    """
    units = UnitTable.of(units)
    index, cpu_work = units.by_ident, units.cpu_work.tolist()
    repaired = {
        node: NodeManifest(
            node=node, entries=dict(manifest.entries), full=manifest.full
        )
        for node, manifest in manifests.items()
    }
    loads = _node_loads(repaired, units, topology)
    moves: List[Tuple[str, UnitKey, str, str, HashRange]] = []
    orphaned: Dict[Ident, float] = {}

    for failed_node in sorted(failed):
        manifest = repaired.get(failed_node)
        if manifest is None:
            continue
        entries = manifest.entries
        manifest.entries = {}
        for ident in sorted(entries):
            ranges = entries[ident]
            u = index.get(ident)
            survivors = (
                [n for n in units.eligible[u] if n not in failed]
                if u is not None
                else []
            )
            if not survivors:
                orphaned[ident] = orphaned.get(ident, 0.0) + _mass(ranges)
                continue
            work = cpu_work[u]
            class_name, key = ident
            capacity = {n: topology.node(n).cpu_capacity for n in survivors}
            for piece in ranges:
                if piece.empty:
                    continue
                candidates = [
                    n
                    for n in survivors
                    if not any(
                        piece.overlaps(held)
                        for held in repaired[n].entries.get(ident, ())
                    )
                ]
                if not candidates:
                    # Every survivor already covers this piece (only
                    # possible under redundancy): the point keeps fewer
                    # distinct holders until the next full re-solve.
                    orphaned[ident] = orphaned.get(ident, 0.0) + piece.length
                    continue
                receiver = min(
                    candidates,
                    key=lambda n: loads[n] + work * piece.length / capacity[n],
                )
                repaired[receiver].entries[ident] = repaired[receiver].entries.get(
                    ident, ()
                ) + (piece,)
                loads[receiver] += work * piece.length / capacity[receiver]
                moves.append((class_name, key, failed_node, receiver, piece))

    return RepairResult(
        manifests=repaired,
        moves=moves,
        orphaned=sorted(
            ((ident, mass) for ident, mass in orphaned.items() if mass > EPSILON),
            key=lambda item: -item[1],
        ),
    )
