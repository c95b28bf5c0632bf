"""A manifest set read by unit: who holds each unit's hash space.

A deployment is stored per node (:class:`~repro.core.manifest.NodeManifest`
— the file format, the agent's state, the Fig. 3 scalar check), but the
control path asks its questions per *unit*: how much of this unit's hash
space is duplicated mid-window (§5), is it still covered, do its ranges
partition ``[0, 1]`` (Fig. 2), did it move.  A unit has a handful of
on-path nodes and the LP usually gives its whole hash space to one of
them, so answering by probing every node's dict costs units × nodes for
what is units × ~1 rows.

:class:`ManifestTable` is that row set — ``(unit, node, pieces)`` grouped
by unit, holders in sorted node order — built in one pass over any
``Mapping[str, NodeManifest]`` and the only way ``src/repro`` goes from a
unit to its holders.  It keeps the manifests' own ``HashRange`` tuples by
reference: no boundary float is copied or re-derived.  The pass fills
three flat lists (unit, node, pieces per entry) and allocates no object
per entry; the rows grouped by unit and the flat ``lo`` / ``hi``
columns (:attr:`ManifestTable.columns`, read by
:meth:`ManifestTable.contains_batch` and the Fig. 2 checks) are each
derived on first use, so a reader of one pays nothing for the other.

A table is a snapshot.  Several writers assign ``manifest.entries[...]``
in place after a set is generated (failure repair, the fenced-singleton
restore), so build the table from the set that is final, where it is
read, and do not keep it on an object whose manifests can still change.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, NamedTuple, Tuple

import numpy as np

from ..hashing.ranges import EPSILON, HashRange
from .units import UnitKey

if TYPE_CHECKING:
    from .manifest import NodeManifest

EntryKey = Tuple[str, UnitKey]  # (class name, unit key)

#: One row of a unit: the holding node and its pieces (the manifest's
#: own tuple, possibly empty).
Holder = Tuple[str, Tuple[HashRange, ...]]

#: The whole hash space ``[0, 1)``: what a ``full`` node holds of every
#: unit, and the entry generation writes for a unit's whole lap.  Both
#: types are immutable, so every such holder shares this one tuple.
WHOLE: Tuple[HashRange, ...] = (HashRange(0.0, 1.0),)


class Columns(NamedTuple):
    """Every piece of a table as flat arrays, in row order.

    Unit group *u*'s pieces, over all of its rows, are
    ``lo/hi[offsets[u]:offsets[u + 1]]``; piece *p* belongs to row
    ``row[p]``, written for group ``row_unit[r]`` on node
    ``nodes[row_node[r]]`` (an index into :attr:`ManifestTable.nodes`).
    A row without pieces has no piece pointing at it.
    """

    offsets: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    row: np.ndarray
    row_unit: np.ndarray
    row_node: np.ndarray


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


def left_sum(values: np.ndarray) -> float:
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
        nodes: Tuple[str, ...],
        full_nodes: Tuple[str, ...],
        unit_index: Dict[EntryKey, int],
        row_unit: List[int],
        row_node: List[int],
        row_pieces: List[Tuple[HashRange, ...]],
    ):
        #: Every node of the set, sorted (full or not, holding or not).
        self.nodes = nodes
        #: Nodes whose manifest is ``full=True``, sorted: holders of the
        #: whole hash space of every unit, listed once instead of per
        #: unit.  Entries written on such a manifest are not rows — as
        #: for every ``NodeManifest`` query, ``full`` overrides them.
        self.full_nodes = full_nodes
        self._unit_index = unit_index
        # One row per entry, node-major: its unit (an index into
        # ``_unit_index``'s first-seen order), its node (an index into
        # ``nodes``) and the manifest's own pieces tuple.
        self._row_unit = row_unit
        self._row_node = row_node
        self._row_pieces = row_pieces

    @classmethod
    def from_manifests(
        cls, manifests: Mapping[str, "NodeManifest"]
    ) -> "ManifestTable":
        """The table of *manifests* as they are now (one pass).

        The pass appends to three flat lists and allocates no object
        per entry; the grouped rows and the columns are derived from
        them on first use.
        """
        nodes = tuple(sorted(manifests))
        full: List[str] = []
        unit_index: Dict[EntryKey, int] = {}
        row_unit: List[int] = []
        row_node: List[int] = []
        row_pieces: List[Tuple[HashRange, ...]] = []
        for k, node in enumerate(nodes):
            manifest = manifests[node]
            if manifest.full:
                full.append(node)
                continue
            for ident, pieces in manifest.entries.items():
                row_unit.append(unit_index.setdefault(ident, len(unit_index)))
                row_node.append(k)
                row_pieces.append(pieces)
        return cls(nodes, tuple(full), unit_index, row_unit, row_node, row_pieces)

    @property
    def units(self) -> Tuple[EntryKey, ...]:
        """Every unit some manifest has an entry for, first-seen order."""
        return tuple(self._unit_index)

    @cached_property
    def _rows(self) -> Dict[EntryKey, Tuple[Holder, ...]]:
        rows: Dict[EntryKey, Tuple[Holder, ...]] = {}
        idents, nodes = self.units, self.nodes
        for u, k, pieces in zip(self._row_unit, self._row_node, self._row_pieces):
            ident = idents[u]
            if ident in rows:
                rows[ident] += ((nodes[k], pieces),)
            else:
                rows[ident] = ((nodes[k], pieces),)
        return rows

    def rows(self, ident: EntryKey) -> Tuple[Holder, ...]:
        """The entries written for *ident*, sorted by node.

        Every entry counts, including an empty tuple and one on a node
        off the unit's path; ``full`` manifests write none.
        """
        return self._rows.get(ident, ())

    def holders(self, ident: EntryKey) -> Tuple[Holder, ...]:
        """Who answers for *ident*, sorted by node: its :meth:`rows`
        plus every ``full`` node holding ``[0, 1)``."""
        rows = self._rows.get(ident, ())
        if not self.full_nodes:
            return rows
        return tuple(
            sorted(rows + tuple((node, WHOLE) for node in self.full_nodes))
        )

    # -- the array view ---------------------------------------------------
    @cached_property
    def columns(self) -> Columns:
        """The flat piece columns (:class:`Columns`), built once."""
        # Rows grouped by unit in first-seen order; the sort is stable,
        # so a unit's rows stay in node order.
        units = np.array(self._row_unit, dtype=np.intp)
        order = np.argsort(units, kind="stable")
        row_unit = units[order]
        grouped = [self._row_pieces[r] for r in order.tolist()]
        counts = np.array([len(pieces) for pieces in grouped], dtype=np.intp)
        pieces = [piece for held in grouped for piece in held]
        # A unit's first piece is the first piece of its first row.
        row_start = np.zeros(len(counts) + 1, dtype=np.intp)
        np.cumsum(counts, out=row_start[1:])
        first_row = np.searchsorted(row_unit, np.arange(len(self._unit_index) + 1))
        return Columns(
            offsets=row_start[first_row],
            lo=np.array([piece.lo for piece in pieces], dtype=np.float64),
            hi=np.array([piece.hi for piece in pieces], dtype=np.float64),
            row=np.repeat(np.arange(len(counts)), counts),
            row_unit=row_unit,
            row_node=np.array(self._row_node, dtype=np.intp)[order],
        )

    def unit_ids(self, idents: Iterable[EntryKey]) -> np.ndarray:
        """Row-group index of each of *idents* (``-1``: no entry)."""
        index = self._unit_index
        return np.fromiter(
            (index.get(ident, -1) for ident in idents), dtype=np.intp
        )

    def contains_batch(
        self, unit_ids: np.ndarray, hash_values: np.ndarray
    ) -> np.ndarray:
        """Per probe ``(unit_ids[i], hash_values[i])``: does any holder's
        piece contain the hash?

        Element-wise ``any(piece.contains(h))`` over the unit's holders
        (:meth:`repro.hashing.ranges.HashRange.contains`, closed top
        included): each probe is compared against its unit's slice of
        the flat columns, no per-unit Python.
        """
        if self.full_nodes:
            return np.ones(len(hash_values), dtype=bool)
        offsets, lo, hi = self.columns[:3]
        start = offsets[unit_ids]
        counts = np.where(unit_ids >= 0, offsets[unit_ids + 1] - start, 0)
        probe = np.repeat(np.arange(len(hash_values)), counts)
        within = np.arange(len(probe)) - (np.cumsum(counts) - counts)[probe]
        piece = start[probe] + within
        value = hash_values[probe]
        top = hi[piece]
        inside = (lo[piece] <= value) & (
            (value < top) | ((top >= 1.0 - EPSILON) & (value <= 1.0))
        )
        return np.bincount(probe[inside], minlength=len(hash_values)) > 0
