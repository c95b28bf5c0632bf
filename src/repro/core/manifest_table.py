"""A manifest set read by unit: who holds each unit's hash space.

A deployment is stored per node (:class:`~repro.core.manifest.NodeManifest`
— the file format, the agent's state, the Fig. 3 scalar check), but the
control path asks its questions per *unit*: how much of this unit's hash
space is duplicated mid-window (§5), is it still covered, do its ranges
partition ``[0, 1]`` (Fig. 2), did it move.  A unit has a handful of
on-path nodes and the LP usually gives its whole hash space to one of
them, so answering by probing every node's dict costs units × nodes for
what is units × ~1 rows.

:class:`ManifestTable` is that row set — one row per ``(unit, node)``
entry, grouped by unit, a unit's rows in sorted node order — built in
one pass over any ``Mapping[str, NodeManifest]`` into flat
:class:`Columns` that keep the manifests' own ``HashRange`` tuples by
reference.  It is the only way ``src/repro`` goes from a unit to its
holders, and it is read two ways: :meth:`~ManifestTable.pieces` gathers
every holder's pieces of some units (the Fig. 2 checks, coverage, the §5
orphaned mass and handoffs, the repair check; ``contains_batch`` probes
the same gather), and :meth:`~ManifestTable.find_rows` matches a (unit,
node) to its row (two versions row against row: the §5 transition
metrics, churn suppression).

A table is a snapshot of the mapping it keeps as :attr:`~ManifestTable.manifests`,
so build it once the set is final and carry it with the set: every reader
takes either (:meth:`ManifestTable.of` returns a table unchanged and
builds one for a mapping).  Carrying it is safe because an adopted set is
never written in place: failure repair copies the manifests before it
writes, a handoff's install decodes a fresh dict, and the controller
replaces its ``manifests`` whole on every adopt.  The in-place writers
(the repair's own loop, the fenced-singleton restore) run before the set
is final, so the controller builds the table after the last of them.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple, Union
)

import numpy as np

from ..hashing.ranges import EPSILON, HashRange
from .units import UnitKey

if TYPE_CHECKING:
    from .manifest import NodeManifest

EntryKey = Tuple[str, UnitKey]  # (class name, unit key)

#: The whole hash space ``[0, 1)``: the entry generation writes for a
#: unit's whole lap.  Both types are immutable, so every such entry
#: shares this one tuple.
WHOLE: Tuple[HashRange, ...] = (HashRange(0.0, 1.0),)


class Columns(NamedTuple):
    """A table's rows and every piece of them as flat arrays.

    Rows are grouped by unit (first-seen order), a unit's rows in node
    order.  Unit group *u*'s pieces, over all of its rows, are
    ``lo/hi[offsets[u]:offsets[u + 1]]``; piece *p* belongs to row
    ``row[p]``, written for group ``row_unit[r]`` on node
    ``nodes[row_node[r]]`` (an index into :attr:`ManifestTable.nodes`),
    and ``entries[r]`` is that row's tuple in its manifest (possibly
    empty: a row without pieces has no piece pointing at it).
    """

    offsets: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    row: np.ndarray
    row_unit: np.ndarray
    row_node: np.ndarray
    entries: List[Tuple[HashRange, ...]]


class Pieces(NamedTuple):
    """What the holders of a list of units hold (:meth:`ManifestTable.pieces`).

    Piece *i* is ``[lo[i], hi[i])``, held of requested unit ``owner[i]``
    by node ``node[i]`` (an index into :attr:`ManifestTable.nodes`).
    Pieces come in holder order: by owner, then node, then the entry's
    own order.
    """

    owner: np.ndarray
    node: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def take(self, index: np.ndarray) -> "Pieces":
        """The pieces at *index* (a mask or positions)."""
        return Pieces._make(column[index] for column in self)

    def mass(self, count: int) -> np.ndarray:
        """Per owner (``count`` of them), what its holders hold: each
        holder's lengths added in entry order (as :func:`row_mass`),
        then the holders in node order."""
        first = np.ones(len(self.owner), dtype=bool)
        first[1:] = (self.owner[1:] != self.owner[:-1]) | (self.node[1:] != self.node[:-1])
        length = np.maximum(self.hi - self.lo, 0.0)
        held = fold_segments(length, np.cumsum(first) - 1, int(first.sum()))
        return fold_segments(held, self.owner[first], count)


def fold_segments(values: np.ndarray, segments: np.ndarray, count: int) -> np.ndarray:
    """Per segment, ``0.0 + v0 + v1 + ...`` added left to right.

    The scalar ``sum`` order, so every total is bit-equal to the loop's:
    one vector step per position within a segment.  *segments* is
    non-decreasing, in ``[0, count)``; an absent segment totals 0.0.
    """
    total = np.zeros(count)
    if len(values):
        first = np.ones(len(values), dtype=bool)
        first[1:] = segments[1:] != segments[:-1]
        starts = np.flatnonzero(first)
        within = np.arange(len(values)) - np.repeat(
            starts, np.diff(np.append(starts, len(values)))
        )
        for k in range(int(within.max()) + 1):
            at = within == k
            total[segments[at]] += values[at]
    return total


def run_starts(counts: np.ndarray) -> np.ndarray:
    """Where each run starts in a flat array, given how long each is."""
    return np.cumsum(counts) - counts


def expand(sizes: np.ndarray, starts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(item, at)`` of a ragged gather: item *i* repeated ``sizes[i]``
    times, beside ``starts[i]``, ``starts[i] + 1``, ..."""
    item = np.repeat(np.arange(len(sizes)), sizes)
    return item, np.arange(len(item)) + (starts - run_starts(sizes))[item]


def left_sum(values: np.ndarray | Sequence[float]) -> float:
    """``((v[0] + v[1]) + v[2]) + ...`` (0.0 when empty): ``np.cumsum``
    adds in order, where ``np.sum`` pairs and, since Python 3.12,
    builtin ``sum`` compensates.  The one scalar fold of a float total
    that a report, gauge or trigger reads."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def row_mass(columns: Columns) -> np.ndarray:
    """Each row's mass: its pieces' lengths added in entry order, as
    :meth:`~repro.core.manifest.NodeManifest.assigned_fraction`
    sums them."""
    return fold_segments(
        np.maximum(columns.hi - columns.lo, 0.0), columns.row, len(columns.row_unit)
    )


class ManifestTable:
    """Rows ``(unit, node, pieces)`` of one manifest set, by unit."""

    def __init__(
        self,
        manifests: Mapping[str, "NodeManifest"],
        nodes: Tuple[str, ...],
        full_nodes: Tuple[str, ...],
        unit_index: Dict[EntryKey, int],
        columns: Columns,
    ):
        #: The set the table was built from (by reference).
        self.manifests = manifests
        #: Every node of the set, sorted (full or not, holding or not).
        self.nodes = nodes
        #: Nodes whose manifest is ``full=True``, sorted: holders of the
        #: whole hash space of every unit, listed once instead of per
        #: unit.  Entries written on such a manifest are not rows — as
        #: for every ``NodeManifest`` query, ``full`` overrides them.
        self.full_nodes = full_nodes
        self._unit_index = unit_index
        #: The rows and their pieces (:class:`Columns`).
        self.columns = columns

    @classmethod
    def from_manifests(
        cls, manifests: Mapping[str, "NodeManifest"]
    ) -> "ManifestTable":
        """The table of *manifests* as they are now: one pass into three
        flat lists (unit, node, tuple per entry), no object per entry."""
        nodes = tuple(sorted(manifests))
        full: List[str] = []
        unit_index: Dict[EntryKey, int] = {}
        row_unit: List[int] = []
        row_node: List[int] = []
        row_entries: List[Tuple[HashRange, ...]] = []
        for k, node in enumerate(nodes):
            manifest = manifests[node]
            if manifest.full:
                full.append(node)
                continue
            for ident, pieces in manifest.entries.items():
                row_unit.append(unit_index.setdefault(ident, len(unit_index)))
                row_node.append(k)
                row_entries.append(pieces)
        # Rows grouped by unit in first-seen order; the sort is stable,
        # so a unit's rows stay in node order.
        units = np.array(row_unit, dtype=np.intp)
        order = np.argsort(units, kind="stable")
        grouped = [row_entries[r] for r in order.tolist()]
        counts = np.array([len(pieces) for pieces in grouped], dtype=np.intp)
        flat = [piece for held in grouped for piece in held]
        # A unit's first piece is the first piece of its first row.
        row_start = np.append(run_starts(counts), len(flat))
        units = units[order]
        columns = Columns(
            offsets=row_start[np.searchsorted(units, np.arange(len(unit_index) + 1))],
            lo=np.array([piece.lo for piece in flat], dtype=np.float64),
            hi=np.array([piece.hi for piece in flat], dtype=np.float64),
            row=np.repeat(np.arange(len(counts)), counts),
            row_unit=units,
            row_node=np.array(row_node, dtype=np.intp)[order],
            entries=grouped,
        )
        return cls(manifests, nodes, tuple(full), unit_index, columns)

    @classmethod
    def of(cls, manifests: "Manifests") -> "ManifestTable":
        """*manifests* itself if a table, else the table of the set."""
        if isinstance(manifests, ManifestTable):
            return manifests
        return cls.from_manifests(manifests)

    @property
    def units(self) -> Tuple[EntryKey, ...]:
        """Every unit some manifest has an entry for, first-seen order."""
        return tuple(self._unit_index)

    def unit_ids(self, idents: Iterable[EntryKey]) -> np.ndarray:
        """Row-group index of each of *idents* (``-1``: no entry)."""
        index = self._unit_index
        return np.fromiter(
            (index.get(ident, -1) for ident in idents), dtype=np.intp
        )

    def node_ids(self, names: Iterable[str]) -> np.ndarray:
        """Index of each of *names* in :attr:`nodes` (``-1``: not in the set)."""
        index = {node: k for k, node in enumerate(self.nodes)}
        return np.fromiter(
            (index.get(name, -1) for name in names), dtype=np.intp
        )

    def _gather(self, groups: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(owner, piece)``: every piece the rows of each of *groups*
        hold (``-1``: none), as an index into the columns, in row order."""
        offsets = self.columns.offsets
        start = offsets[groups]
        return expand(np.where(groups >= 0, offsets[groups + 1] - start, 0), start)

    def pieces(self, groups: np.ndarray) -> Pieces:
        """What the holders of each of *groups* (row groups, ``-1``: a
        unit without an entry) hold, in holder order.

        A unit's holders are its rows — every entry written for it,
        including an empty tuple and one on a node off its path — and
        every ``full`` node, which holds ``[0, 1)`` of every unit.
        """
        owner, piece = self._gather(groups)
        columns = self.columns
        held = Pieces(
            owner, columns.row_node[columns.row[piece]], columns.lo[piece], columns.hi[piece]
        )
        if not self.full_nodes:
            return held
        full = self.node_ids(self.full_nodes)
        wholes = Pieces(
            np.repeat(np.arange(len(groups)), len(full)),
            np.tile(full, len(groups)),
            np.zeros(len(groups) * len(full)),
            np.ones(len(groups) * len(full)),
        )
        both = Pieces._make(map(np.concatenate, zip(held, wholes)))
        # Stable: a row's pieces keep their entry order.
        return both.take(np.lexsort((both.node, both.owner)))

    def find_rows(self, groups: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """The row written for each ``(groups[i], nodes[i])`` — a row
        group and an index into :attr:`nodes` — or ``-1`` if none is
        (either index may be ``-1``)."""
        columns = self.columns
        width = len(self.nodes)
        keys = columns.row_unit * width + columns.row_node  # increasing
        wanted = groups * width + nodes
        at = np.searchsorted(keys, wanted)
        found = (groups >= 0) & (nodes >= 0) & (np.append(keys, -1)[at] == wanted)
        return np.where(found, at, -1)

    def contains_batch(
        self, unit_ids: np.ndarray, hash_values: np.ndarray
    ) -> np.ndarray:
        """Per probe ``(unit_ids[i], hash_values[i])``: does any holder's
        piece contain the hash?

        Element-wise ``any(piece.contains(h))`` over the unit's holders
        (:meth:`repro.hashing.ranges.HashRange.contains`, closed top
        included): each probe is compared against its unit's gathered
        pieces, no per-unit Python.  A ``full`` node contains everything.
        """
        if self.full_nodes:
            return np.ones(len(hash_values), dtype=bool)
        probe, piece = self._gather(unit_ids)
        value = hash_values[probe]
        top = self.columns.hi[piece]
        inside = (self.columns.lo[piece] <= value) & (
            (value < top) | ((top >= 1.0 - EPSILON) & (value <= 1.0))
        )
        return np.bincount(probe[inside], minlength=len(hash_values)) > 0


#: What a manifest-set reader takes: the set, or its table.
Manifests = Union[Mapping[str, "NodeManifest"], ManifestTable]
