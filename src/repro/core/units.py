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

A set of units is one :class:`UnitTable`: the ``(class, key)`` idents,
each unit's ``P_ik`` as CSR codes into the topology's node names, and
the volumes — ``T_ik^pkts``, ``T_ik^items`` and the calibrated CPU and
memory work the LP balances — as float64 columns, in ``(class, key)``
order.  :func:`build_units` derives it from a session trace held in
columns (:class:`~repro.traffic.batch.SessionBatch`): one group-by per
class over the batch's routing-pair ids, no per-session Python.  A
caller that also emulates the trace hands the same batch to both, so
the trace is walked once for planner and emulator.  NetFlow estimates
(:func:`repro.measurement.estimate_units`) are assembled by the same
tail, :func:`assemble_units`.  A :class:`CoordinationUnit` is one row
of a table, what iterating it yields.
"""

from __future__ import annotations

from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from functools import cached_property
from typing import (
    AbstractSet,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..hashing.keys import Aggregation
from ..nids.modules.base import ModuleSpec, Scope
from ..topology.routing import PathSet
from ..traffic.batch import SessionBatch
from ..traffic.session import Session

UnitKey = Tuple[str, ...]
#: A unit's identity: (class name, unit key).
Ident = Tuple[str, UnitKey]


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


def _offsets(sizes) -> np.ndarray:
    """CSR offsets of rows holding *sizes* entries each."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _volume(row: int, doc: str) -> property:
    """Row *row* of :attr:`UnitTable.volumes`, read-only."""
    return property(lambda table: table.volumes[row], doc=doc)


@dataclass(eq=False, repr=False)
class UnitTable(_SequenceABC):
    """Coordination units as columns.

    Unit *u* is ``idents[u]``; its ``P_ik`` is
    ``nodes[codes[offsets[u]:offsets[u + 1]]]`` in path order; its
    ``pkts``, ``items``, ``cpu_work`` and ``mem_bytes`` are the rows of
    the float64 ``volumes[:, u]``.  The producers' tables are in
    ``(class, key)`` order over the topology's node names.  A table is
    also a ``Sequence[CoordinationUnit]``: indexing, iteration and
    ``==`` read its :attr:`rows`, built once.
    """

    idents: Tuple[Ident, ...]
    nodes: Tuple[str, ...]
    offsets: np.ndarray
    codes: np.ndarray
    volumes: np.ndarray

    pkts = _volume(0, "``T_ik^pkts`` per unit.")
    items = _volume(1, "``T_ik^items`` per unit.")
    cpu_work = _volume(2, "Calibrated CPU work per unit (``cpu_ik``).")
    mem_bytes = _volume(3, "``items * MemReq_i`` per unit (``mem_ik``).")

    @classmethod
    def from_sets(
        cls,
        idents: Sequence[Ident],
        eligible: Sequence[Sequence[str]],
        volumes: Optional[np.ndarray] = None,
    ) -> "UnitTable":
        """Units *idents* with node names *eligible*, coded in first-seen
        order, and *volumes* (4 × units; 0.0 when not given)."""
        index: Dict[str, int] = {}
        codes = [index.setdefault(n, len(index)) for path in eligible for n in path]
        return cls(
            tuple(idents),
            tuple(index),
            _offsets(list(map(len, eligible))),
            np.array(codes, dtype=np.intp),
            np.zeros((4, len(idents))) if volumes is None else volumes,
        )

    @classmethod
    def of(cls, units: "Units") -> "UnitTable":
        """*units* itself if a table, else the table of the rows, which
        it keeps as its :attr:`rows`."""
        if isinstance(units, UnitTable):
            return units
        rows = list(units)
        volumes = [(u.pkts, u.items, u.cpu_work, u.mem_bytes) for u in rows]
        table = cls.from_sets(
            [u.ident for u in rows],
            [u.eligible for u in rows],
            np.array(volumes, dtype=np.float64).reshape(len(rows), 4).T,
        )
        table.rows = rows
        return table

    @cached_property
    def sizes(self) -> np.ndarray:
        """``|P_ik|`` per unit."""
        return np.diff(self.offsets)

    @cached_property
    def owner(self) -> np.ndarray:
        """The unit of each entry of :attr:`codes`."""
        return np.repeat(np.arange(len(self)), self.sizes)

    @cached_property
    def eligible(self) -> List[Tuple[str, ...]]:
        """``P_ik`` per unit, as node names."""
        names = [self.nodes[code] for code in self.codes.tolist()]
        bounds = self.offsets.tolist()
        return [tuple(names[a:b]) for a, b in zip(bounds, bounds[1:])]

    @cached_property
    def by_ident(self) -> Dict[Ident, int]:
        """Each ident's unit (an ident listed twice: its last)."""
        return {ident: u for u, ident in enumerate(self.idents)}

    def codes_in(self, nodes: Sequence[str]) -> np.ndarray:
        """:attr:`codes` as indices into *nodes* (``-1``: not there)."""
        at = {name: k for k, name in enumerate(nodes)}
        recode = np.array([at.get(name, -1) for name in self.nodes], dtype=np.intp)
        return recode[self.codes]

    def entries_in(self, names: AbstractSet[str]) -> np.ndarray:
        """Per entry of :attr:`codes`, whether its node is in *names*."""
        return np.array([name in names for name in self.nodes], dtype=bool)[self.codes]

    def where(self, keep: np.ndarray) -> "UnitTable":
        """Only the entries where *keep*; a unit left with none goes."""
        count = np.bincount(self.owner[keep], minlength=len(self))
        units = np.flatnonzero(count)
        idents = tuple(map(self.idents.__getitem__, units.tolist()))
        offsets = _offsets(count[units])
        return UnitTable(
            idents, self.nodes, offsets, self.codes[keep], self.volumes[:, units]
        )

    @cached_property
    def rows(self) -> List[CoordinationUnit]:
        """The units as :class:`CoordinationUnit` rows."""
        return [
            CoordinationUnit(name, key, eligible, *volumes)
            for (name, key), eligible, volumes in zip(
                self.idents, self.eligible, self.volumes.T.tolist()
            )
        ]

    def __len__(self) -> int:
        return len(self.idents)

    def __getitem__(self, u):
        return self.rows[u]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (UnitTable, list, tuple)):
            return self.rows == list(other)
        return NotImplemented


#: What a public entry takes: a table, or rows (:meth:`UnitTable.of`).
Units = Union[UnitTable, Sequence[CoordinationUnit]]


class UnitBlock(NamedTuple):
    """One class's units before assembly: the distinct keys of its
    scope, the ids into them of the units with traffic (ascending) and
    their ``pkts``, ``items`` and ``cpu_work``."""

    spec: ModuleSpec
    keys: List[UnitKey]
    present: np.ndarray
    pkts: np.ndarray
    items: np.ndarray
    cpu_work: np.ndarray


def assemble_units(blocks: Sequence[UnitBlock], paths: PathSet) -> UnitTable:
    """Measured or estimated volumes as one table, in ``(class, key)`` order.

    ``P_ik`` is :func:`eligible_nodes`, coded once per distinct key of
    each scope and gathered per unit; memory is ``items * MemReq_i``;
    the order is one stable ``np.lexsort`` of class and key ranks, so a
    unit two classes of one name share keeps the classes' order.
    """
    if not blocks:
        return UnitTable.from_sets((), ())
    nodes = tuple(paths.topology.node_names)
    at = {node: j for j, node in enumerate(nodes)}
    scopes = {block.spec.scope: block.keys for block in blocks}
    rank = {key: r for r, key in enumerate(sorted(set().union(*scopes.values())))}
    names = sorted({block.spec.name for block in blocks})
    pool: List[int] = []
    per_scope = {}
    for scope, keys in scopes.items():
        eligible = [eligible_nodes(key, paths) for key in keys]
        sizes = np.fromiter(map(len, eligible), np.intp, len(keys))
        ranks = np.fromiter(map(rank.__getitem__, keys), np.intp, len(keys))
        per_scope[scope] = (len(pool) + _offsets(sizes)[:-1], sizes, ranks)
        pool.extend(at[node] for path in eligible for node in path)
    columns = []
    for b, block in enumerate(blocks):
        starts, sizes, ranks = per_scope[block.spec.scope]
        k = block.present
        klass = np.full(len(k), names.index(block.spec.name))
        columns.append(
            np.stack([np.full(len(k), b), k, starts[k], sizes[k], klass, ranks[k]])
        )
    block_of, key_of, start, size, klass, key_rank = np.concatenate(columns, axis=1)
    order = np.lexsort((key_rank, klass))
    size = size[order]
    offsets = _offsets(size)
    entries = np.arange(offsets[-1]) + np.repeat(start[order] - offsets[:-1], size)
    volumes = np.concatenate(
        [
            np.array([b.pkts, b.items, b.cpu_work, b.items * b.spec.mem_req], float)
            for b in blocks
        ],
        axis=1,
    )
    return UnitTable(
        tuple(
            (blocks[b].spec.name, blocks[b].keys[k])
            for b, k in zip(block_of[order].tolist(), key_of[order].tolist())
        ),
        nodes,
        offsets,
        np.array(pool, dtype=np.intp)[entries],
        volumes[:, order],
    )


def pair_unit_keys(
    pairs: Sequence[Tuple[str, str]], scope: Scope
) -> Tuple[List[UnitKey], np.ndarray]:
    """The distinct *scope* unit keys of routing *pairs* (first-seen order)
    and each pair's index into them: :func:`unit_key` of every pair.

    Each end is coded once, by its rank among the nodes named, so a path
    key's order (``ingress <= egress``) compares codes; each distinct
    key is a code, and its tuple is built once.
    """
    if not pairs:
        return [], np.empty(0, dtype=np.intp)
    ingress, egress = zip(*pairs)
    if scope is Scope.PATH:
        ends = (ingress, egress)
    else:
        ends = (ingress,) if scope is Scope.INGRESS else (egress,)
    nodes = sorted(set().union(*ends))
    rank = {node: n for n, node in enumerate(nodes)}
    coded = [
        np.fromiter(map(rank.__getitem__, end), np.intp, len(pairs)) for end in ends
    ]
    if scope is Scope.PATH:
        code = np.minimum(*coded) * len(nodes) + np.maximum(*coded)
    else:
        (code,) = coded
    distinct, first, pair_code = np.unique(code, return_index=True, return_inverse=True)
    seen = np.argsort(first)  # distinct codes in first-seen order
    pair_unit = np.empty(len(seen), dtype=np.intp)
    pair_unit[seen] = np.arange(len(seen))
    width = len(nodes) if scope is Scope.PATH else None
    keys = [
        (nodes[c],) if width is None else (nodes[c // width], nodes[c % width])
        for c in distinct[seen].tolist()
    ]
    return keys, pair_unit[pair_code]


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
        keys, pair_unit = pair_unit_keys(root.pairs, scope)
        return keys, pair_unit[root.group_ids]

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
) -> UnitTable:
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
    blocks: List[UnitBlock] = []
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
        blocks.append(
            UnitBlock(
                spec,
                keys,
                present,
                np.bincount(unit, weights=pkts_f, minlength=len(keys))[present],
                items[present].astype(np.float64),
                np.bincount(unit, weights=cpu, minlength=len(keys))[present],
            )
        )
    return assemble_units(blocks, paths)
