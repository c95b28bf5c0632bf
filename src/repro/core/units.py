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
LP balances — from a session trace held in columns
(:class:`~repro.traffic.batch.SessionBatch`): one group-by per class
over the batch's routing-pair ids, no per-session Python.  A caller
that also emulates the trace hands the same batch to both, so the
trace is walked once for planner and emulator.
:func:`units_from_volumes` is the shared assembly tail — measured
volumes here, NetFlow estimates in
:func:`repro.measurement.estimate_units`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from ..hashing.keys import Aggregation
from ..nids.modules.base import ModuleSpec, Scope
from ..topology.routing import PathSet
from ..traffic.batch import SessionBatch
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


def unit_label(ident: Tuple[str, UnitKey]) -> str:
    """``class/key,key`` — the subject prefix of a unit's findings."""
    class_name, key = ident
    return f"{class_name}/{','.join(key)}"


def unit_key(scope: Scope, ingress: str, egress: str) -> UnitKey:
    """``GET_COORD_UNIT``: the unit key of traffic entering at *ingress*
    and leaving at *egress*, for a class of placement *scope*."""
    if scope is Scope.PATH:
        return (ingress, egress) if ingress <= egress else (egress, ingress)
    if scope is Scope.INGRESS:
        return (ingress,)
    return (egress,)


def unit_key_for_session(spec: ModuleSpec, session: Session) -> UnitKey:
    """The coordination-unit key *session* belongs to under *spec*."""
    return unit_key(spec.scope, session.ingress, session.egress)


def eligible_nodes(key: UnitKey, paths: PathSet) -> Tuple[str, ...]:
    """``P_ik``: the nodes able to observe all of the unit's traffic.

    The key alone decides: a single location (ingress or egress scope)
    is its own only observer; a location pair is path-scoped, observed
    by the nodes on both of its directed routes
    (:meth:`PathSet.observers`, resolved once per pair).
    """
    if len(key) == 1:
        return key
    return paths.observers(*key)


#: One unit's measured volumes before assembly:
#: ``(spec, key, pkts, items, cpu_work)``.
UnitVolume = Tuple[ModuleSpec, UnitKey, float, float, float]


def units_from_volumes(
    volumes: Iterable[UnitVolume], paths: PathSet
) -> List[CoordinationUnit]:
    """Assemble measured or estimated volumes into sorted units.

    The one place a ``CoordinationUnit`` is put together: ``P_ik`` is
    :func:`eligible_nodes` (memoised on *paths*), memory is
    ``items * MemReq_i``, and the result is ordered by ``(class, key)``
    — the order the LP lays its variables out in.
    """
    units = [
        CoordinationUnit(
            class_name=spec.name,
            key=key,
            eligible=eligible_nodes(key, paths),
            pkts=pkts,
            items=items,
            cpu_work=cpu_work,
            mem_bytes=items * spec.mem_req,
        )
        for spec, key, pkts, items, cpu_work in volumes
    ]
    units.sort(key=lambda u: (u.class_name, u.key))
    return units


def session_unit_keys(
    batch: SessionBatch, scope: Scope
) -> Tuple[List[UnitKey], np.ndarray]:
    """The distinct *scope* unit keys of *batch*'s root and, per session
    of *batch*, its index into them.

    A session's unit depends only on its routing pair and the scope, so
    the key is resolved once per distinct pair of the root (first-seen
    pair order) and spread over its sessions through ``group_ids``; the
    result is memoised on the root (:meth:`SessionBatch.rooted_rows`),
    so every prefix of a session pool — the control plane's epochs —
    reads its unit ids without resolving a key.
    """

    def resolve(root: SessionBatch) -> Tuple[List[UnitKey], np.ndarray]:
        ids: Dict[UnitKey, int] = {}
        pair_unit = [
            ids.setdefault(unit_key(scope, *pair), len(ids)) for pair in root.pairs
        ]
        return list(ids), np.array(pair_unit, dtype=np.intp)[root.group_ids]

    return batch.rooted_rows(("units", scope), resolve)


class KeyEligibility(NamedTuple):
    """The eligible sets of a root's :func:`session_unit_keys`, as arrays
    over the topology's nodes in sorted order (node *n* below)."""

    #: ``position[k, n]``: where node *n* stands in key *k*'s
    #: :func:`eligible_nodes` tuple (path order), ``-1`` off it.
    position: np.ndarray
    #: ``ends[k]``: the node indices of key *k*'s distinct endpoints, the
    #: second ``-1`` when there is only one.
    ends: np.ndarray
    #: ``rank[k]``: key *k*'s position in sorted key order.
    rank: np.ndarray


def key_eligibility(
    batch: SessionBatch, scope: Scope, paths: PathSet
) -> KeyEligibility:
    """``P_ik`` of every *scope* unit key of *batch*'s root, resolved once
    per root and routing and memoised there (:meth:`SessionBatch.rooted`)."""

    def resolve(root: SessionBatch) -> KeyEligibility:
        keys, _ids = session_unit_keys(root, scope)
        nodes = tuple(sorted(paths.topology.node_names))
        index = {node: n for n, node in enumerate(nodes)}
        position = np.full((len(keys), len(nodes)), -1, dtype=np.int16)
        ends = np.full((len(keys), 2), -1, dtype=np.intp)
        for k, key in enumerate(keys):
            for p, node in enumerate(eligible_nodes(key, paths)):
                position[k, index[node]] = p
            for e, node in enumerate(dict.fromkeys(key)):
                ends[k, e] = index[node]
        rank = np.empty(len(keys), dtype=np.intp)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        rank[order] = np.arange(len(keys))
        return KeyEligibility(position, ends, rank)

    return batch.rooted(("eligible", (scope, paths)), resolve)


def _distinct_per_unit(unit: np.ndarray, items: np.ndarray, num_units: int) -> np.ndarray:
    """Number of distinct *items* values (int64) within each unit id.

    One sort of the combined key ``unit * span + (item - low)``, ``span``
    the width of the item range: equal keys are equal (unit, item)
    pairs, and each run's unit is its key ``// span``.  Host ids are
    arbitrary 64-bit values, so where ``num_units * span`` would not fit
    in int64 the items are first re-coded by rank, which shrinks
    ``span`` to their number of distinct values.
    """
    if len(items) == 0:
        return np.zeros(num_units, dtype=np.intp)
    low = int(items.min())
    span = int(items.max()) - low + 1
    if num_units * span > np.iinfo(np.int64).max:
        distinct, items = np.unique(items, return_inverse=True)
        low, span = 0, len(distinct)
    # int64 arithmetic is modular and the final key fits, so a wrap in
    # ``unit * span + item`` is undone by ``- low``.
    key = unit * span
    key += items
    key -= low
    key.sort()
    first = np.empty(len(key), dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return np.bincount(key[first] // span, minlength=num_units)


def build_units(
    modules: Sequence[ModuleSpec],
    sessions: Union[Sequence[Session], SessionBatch],
    paths: PathSet,
) -> List[CoordinationUnit]:
    """Derive coordination units and volumes from a session trace.

    *sessions* is a trace as ``Session`` objects or the
    :class:`~repro.traffic.batch.SessionBatch` already built from it
    (the columns are extracted once if a list is given).  Only units
    with traffic are emitted (a unit with no matching traffic imposes
    no load and needs no assignment).  ``items`` counts follow each
    class's aggregation: sessions for flow/session-level analyses,
    distinct hosts for per-source/per-destination analyses.

    Per class this is a group-by over the batch's columns: the class's
    rows are its filter's mask (the whole columns for a filter that
    matches everything), sessions map to their unit through
    :func:`session_unit_keys`, ``np.bincount`` sums packets, CPU work
    and session counts per unit, and distinct hosts per unit are one
    sort of a combined key (:func:`_distinct_per_unit`).
    ``bincount`` adds its weights in session order, so every volume is
    bit-equal to a per-session ``+=`` loop (``tests/planning_oracle.py``).
    """
    batch = SessionBatch.of(sessions)
    by_scope: Dict[Scope, Tuple[List[UnitKey], np.ndarray]] = {}
    volumes: List[UnitVolume] = []
    for spec in modules:
        if spec.scope not in by_scope:
            by_scope[spec.scope] = session_unit_keys(batch, spec.scope)
        keys, unit_of_session = by_scope[spec.scope]
        rows = (
            slice(None)  # whole columns: views, no gather
            if spec.traffic_filter.matches_all
            else np.flatnonzero(
                spec.traffic_filter.matches_sessions_batch(batch.proto, batch.dport)
            )
        )
        unit = unit_of_session[rows]
        pkts_f = batch.pkts_f[rows]
        cpu = spec.session_cpu_batch(pkts_f, batch.half_open[rows])
        counts = np.bincount(unit, minlength=len(keys))
        if spec.aggregation in (Aggregation.SOURCE, Aggregation.DESTINATION):
            items = _distinct_per_unit(
                unit, batch.item_keys(spec.aggregation)[rows], len(keys)
            )
        else:
            items = counts
        present = np.flatnonzero(counts)
        volumes.extend(
            zip(
                itertools.repeat(spec),
                [keys[k] for k in present.tolist()],
                np.bincount(unit, weights=pkts_f, minlength=len(keys))[present].tolist(),
                items[present].astype(np.float64).tolist(),
                np.bincount(unit, weights=cpu, minlength=len(keys))[present].tolist(),
            )
        )
    return units_from_volumes(volumes, paths)


def units_by_ident(units: Sequence[CoordinationUnit]) -> Dict[Tuple[str, UnitKey], CoordinationUnit]:
    """Index units by their (class, key) identity."""
    return {unit.ident: unit for unit in units}
