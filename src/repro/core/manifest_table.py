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
reference: no boundary float is copied or re-derived.  The flat ``lo`` /
``hi`` columns (:meth:`ManifestTable.contains_batch`) are derived on
first use, so a reader of rows alone pays nothing for them.

A table is a snapshot.  Several writers assign ``manifest.entries[...]``
in place after a set is generated (failure repair, the fenced-singleton
restore), so build the table from the set that is final, where it is
read, and do not keep it on an object whose manifests can still change.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Tuple

import numpy as np

from ..hashing.ranges import EPSILON, HashRange
from .units import UnitKey

if TYPE_CHECKING:
    from .manifest import NodeManifest

EntryKey = Tuple[str, UnitKey]  # (class name, unit key)

#: One row of a unit: the holding node and its pieces (the manifest's
#: own tuple, possibly empty).
Holder = Tuple[str, Tuple[HashRange, ...]]

_WHOLE: Tuple[HashRange, ...] = (HashRange(0.0, 1.0),)


class ManifestTable:
    """Rows ``(unit, node, pieces)`` of one manifest set, by unit."""

    def __init__(
        self,
        rows: Dict[EntryKey, Tuple[Holder, ...]],
        full_nodes: Tuple[str, ...],
    ):
        self._rows = rows
        #: Nodes whose manifest is ``full=True``, sorted: holders of the
        #: whole hash space of every unit, listed once instead of per
        #: unit.  Entries written on such a manifest are not rows — as
        #: for every ``NodeManifest`` query, ``full`` overrides them.
        self.full_nodes = full_nodes

    @classmethod
    def from_manifests(
        cls, manifests: Mapping[str, "NodeManifest"]
    ) -> "ManifestTable":
        """The table of *manifests* as they are now (one pass)."""
        rows: Dict[EntryKey, List[Holder]] = {}
        full: List[str] = []
        for node in sorted(manifests):
            manifest = manifests[node]
            if manifest.full:
                full.append(node)
                continue
            for ident, pieces in manifest.entries.items():
                rows.setdefault(ident, []).append((node, pieces))
        return cls(
            {ident: tuple(held) for ident, held in rows.items()}, tuple(full)
        )

    @property
    def units(self) -> Tuple[EntryKey, ...]:
        """Every unit some manifest has an entry for, first-seen order."""
        return tuple(self._rows)

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
            sorted(rows + tuple((node, _WHOLE) for node in self.full_nodes))
        )

    # -- the array view ---------------------------------------------------
    @cached_property
    def _unit_index(self) -> Dict[EntryKey, int]:
        return {ident: u for u, ident in enumerate(self._rows)}

    @cached_property
    def _columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(offsets, lo, hi)``: unit *u*'s pieces, over all of its
        rows, are ``lo/hi[offsets[u]:offsets[u + 1]]``."""
        offsets = [0]
        lo: List[float] = []
        hi: List[float] = []
        for held in self._rows.values():
            for _node, pieces in held:
                for piece in pieces:
                    lo.append(piece.lo)
                    hi.append(piece.hi)
            offsets.append(len(lo))
        return (
            np.array(offsets, dtype=np.intp),
            np.array(lo, dtype=np.float64),
            np.array(hi, dtype=np.float64),
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
        offsets, lo, hi = self._columns
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
