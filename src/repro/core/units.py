"""Coordination units (paper Section 2.1).

For each analysis class ``C_i``, the traffic ``T_i`` is partitioned into
components ``T_ik`` such that every packet matching ``T_ik`` can be
observed by each member of a node set ``P_ik`` — the *coordination
unit*.  The partition depends on the class's placement scope:

* ``PATH`` classes partition traffic by end-to-end route; the eligible
  set is every node on that route (the paper's Signature example).
* ``INGRESS`` classes partition by traffic source; only the source's
  ingress observes everything (the Scan example).
* ``EGRESS`` classes partition by destination; only the egress does.

Path-scoped units are keyed by the *unordered* location pair so both
directions of a session land in the same unit — required because
session-oriented analysis must see both directions at one node.  The
eligible set is the intersection of the two directed routes (identical
under symmetric shortest-path routing).

:func:`build_units` derives the units and their measured volumes —
``T_ik^pkts``, ``T_ik^items``, and the calibrated CPU/memory work the
LP balances — from a generated session trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..hashing.keys import Aggregation
from ..nids.modules.base import ModuleSpec, Scope
from ..topology.routing import PathSet
from ..traffic.session import Session

UnitKey = Tuple[str, ...]


@dataclass(frozen=True)
class CoordinationUnit:
    """One ``(C_i, T_ik, P_ik)`` triple with its measured volumes."""

    class_name: str
    key: UnitKey
    eligible: Tuple[str, ...]
    pkts: float
    items: float
    cpu_work: float
    mem_bytes: float

    @property
    def ident(self) -> Tuple[str, UnitKey]:
        """Dictionary identity: (class name, unit key)."""
        return (self.class_name, self.key)

    @property
    def singleton(self) -> bool:
        """Whether only one node can perform this analysis."""
        return len(self.eligible) == 1


def unit_key(scope: Scope, ingress: str, egress: str) -> UnitKey:
    """``GET_COORD_UNIT``: the unit key of traffic entering at *ingress*
    and leaving at *egress*, for a class of placement *scope*."""
    if scope is Scope.PATH:
        return tuple(sorted((ingress, egress)))
    if scope is Scope.INGRESS:
        return (ingress,)
    return (egress,)


def unit_key_for_session(spec: ModuleSpec, session: Session) -> UnitKey:
    """The coordination-unit key *session* belongs to under *spec*."""
    return unit_key(spec.scope, session.ingress, session.egress)


def eligible_nodes(key: UnitKey, paths: PathSet) -> Tuple[str, ...]:
    """``P_ik``: the nodes able to observe all of the unit's traffic.

    The key alone decides: a single location (ingress or egress scope)
    is its own only observer; a location pair is path-scoped.
    """
    if len(key) == 1:
        return key
    a, b = key
    forward = paths.path(a, b)
    backward = set(paths.path(b, a).nodes)
    observers = tuple(node for node in forward.nodes if node in backward)
    # Symmetric shortest paths make this the full path; degenerate
    # asymmetric ties still leave the endpoints, which always qualify.
    return observers if observers else (a, b)


@dataclass
class _UnitAccumulator:
    pkts: float = 0.0
    cpu_work: float = 0.0
    sessions: int = 0
    distinct: Set[int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.distinct is None:
            self.distinct = set()


def build_units(
    modules: Sequence[ModuleSpec],
    sessions: Sequence[Session],
    paths: PathSet,
) -> List[CoordinationUnit]:
    """Derive coordination units and volumes from a session trace.

    Only units with traffic are emitted (a unit with no matching
    traffic imposes no load and needs no assignment).  ``items`` counts
    follow each class's aggregation: sessions for flow/session-level
    analyses, distinct hosts for per-source/per-destination analyses.
    """
    accumulators: Dict[Tuple[str, UnitKey], _UnitAccumulator] = {}
    for spec in modules:
        for session in sessions:
            if not spec.traffic_filter.matches_session(session):
                continue
            key = unit_key_for_session(spec, session)
            acc = accumulators.setdefault((spec.name, key), _UnitAccumulator())
            acc.pkts += session.num_packets
            acc.cpu_work += spec.session_cpu(session)
            acc.sessions += 1
            if spec.aggregation in (Aggregation.SOURCE, Aggregation.DESTINATION):
                acc.distinct.add(spec.item_key(session))

    by_name = {spec.name: spec for spec in modules}
    units: List[CoordinationUnit] = []
    for (class_name, key), acc in accumulators.items():
        spec = by_name[class_name]
        if spec.aggregation in (Aggregation.SOURCE, Aggregation.DESTINATION):
            items = float(len(acc.distinct))
        else:
            items = float(acc.sessions)
        units.append(
            CoordinationUnit(
                class_name=class_name,
                key=key,
                eligible=eligible_nodes(key, paths),
                pkts=acc.pkts,
                items=items,
                cpu_work=acc.cpu_work,
                mem_bytes=items * spec.mem_req,
            )
        )
    units.sort(key=lambda u: (u.class_name, u.key))
    return units


def units_by_ident(units: Sequence[CoordinationUnit]) -> Dict[Tuple[str, UnitKey], CoordinationUnit]:
    """Index units by their (class, key) identity."""
    return {unit.ident: unit for unit in units}
