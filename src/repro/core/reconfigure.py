"""Handling traffic and routing changes (paper Section 5).

The operations center periodically re-solves the assignment LP as
traffic reports arrive.  Two concerns arise:

* **Traffic changes** — short-term bursts are absorbed by planning
  against conservative (e.g. 95th-percentile) volumes, trading some
  optimality for robustness; :func:`conservative_units` inflates unit
  volumes accordingly.

* **Routing/assignment changes** — when the optimal solution moves, a
  node holding connection state for some hash range may no longer be
  responsible for it.  "To ensure correctness ... nodes temporarily
  retain the old responsibilities until existing connections in these
  assignments expire.  That is, each node picks up new assignments
  immediately but takes on no new connections in the old assignments."
  :class:`TransitionPlan` implements exactly that dual-manifest window:
  per node, *new* connections follow the new manifest while
  *pre-existing* connections continue under the old one, and the plan
  reports the duplication this temporarily costs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from ..hashing.ranges import EPSILON
from .manifest_table import (
    EntryKey, ManifestTable, expand, fold_segments, left_sum, row_mass, run_starts
)
from .nids_deployment import NIDSDeployment
from .units import UnitKey, Units, UnitTable


def conservative_units(
    units: Units, headroom: float = 1.3
) -> UnitTable:
    """Inflate unit volumes by *headroom* (e.g. 95th-percentile ≈ 1.3×
    the mean for bursty traffic) before solving the LP.

    The resulting assignment is feasible for bursts up to the headroom
    at the cost of a proportionally higher planned max load.  Every
    volume scales in one multiply of the table's ``volumes``; idents and
    eligible sets are shared.  A headroom within EPSILON of 1.0 is a
    no-op fast path returning the table unscaled (the controller's
    default per-epoch path) — callers computing headroom as e.g.
    ``p95 / mean`` land a solver-epsilon below 1.0 and must not be
    rejected.
    """
    if not math.isfinite(headroom):
        raise ValueError(f"headroom must be finite, got {headroom!r}")
    if headroom < 1.0 - EPSILON:
        raise ValueError("headroom must be >= 1")
    table = UnitTable.of(units)
    if abs(headroom - 1.0) <= EPSILON:
        return table
    return dataclasses.replace(table, volumes=table.volumes * headroom)


class TransitionColumns:
    """Two versions' manifest tables read row against row, in one pass.

    Each old row — one node's entry for one unit — is matched with the
    new row of the same unit on the same node, if any.  From the match:

    * :attr:`duplicated`: per old unit, the hash-space mass its old
      holders keep mid-window that their new entries no longer hold
      (what :meth:`TransitionPlan.duplicated_fraction` reports, and
      :meth:`duplicated_share` weighs by packets);
    * :attr:`entries` / :attr:`unchanged`: how many ``(node, unit)``
      entries either version writes, and how many of them are identical
      in both.

    The masses are folded as the per-unit loop folds them
    (``tests/manifest_oracle.py``): per row, the old pieces' lengths and
    the (old piece, new piece) overlaps, old-major, left to right; per
    unit, the rows' differences in node order.  A ``full`` manifest
    writes no rows, so neither table may hold one.
    """

    def __init__(self, old: ManifestTable, new: ManifestTable):
        if old.full_nodes or new.full_nodes:
            raise ValueError("a full manifest has no per-unit rows to match")
        was, now = old.columns, new.columns
        # The new row of each old row's (unit, node); a sentinel row
        # with no pieces at index -1 stands for "none".
        match = new.find_rows(
            new.unit_ids(old.units)[was.row_unit],
            new.node_ids(old.nodes)[was.row_node],
        )
        found = match >= 0
        was_count = np.bincount(was.row, minlength=len(was.row_unit))
        now_count = np.append(np.bincount(now.row, minlength=len(now.row_unit)), 0)
        now_start = np.append(run_starts(now_count[:-1]), 0)

        # Per old piece, its row's counterpart: how many pieces, from where.
        pairs = now_count[match][was.row]
        first = now_start[match][was.row]
        position = np.arange(len(was.row)) - run_starts(was_count)[was.row]

        # Every (old piece, new piece) pair of a matched row, old-major.
        piece, other = expand(pairs, first)
        overlap = np.maximum(
            0.0,
            np.minimum(was.hi[piece], now.hi[other])
            - np.maximum(was.lo[piece], now.lo[other]),
        )
        kept = row_mass(was) - fold_segments(
            overlap, was.row[piece], len(was.row_unit)
        )
        #: Per unit of the old table (``old.units`` order).
        self.duplicated = fold_segments(kept, was.row_unit, len(old.units))
        self.units = old.units
        self._old = old

        # A matched row is unchanged when its pieces are, one for one.
        same = found & (now_count[match] == was_count)
        sized = same[was.row]
        twin = first + position
        differs = sized.copy()
        differs[sized] = (was.lo[sized] != now.lo[twin[sized]]) | (
            was.hi[sized] != now.hi[twin[sized]]
        )
        same[was.row[differs]] = False
        self.entries = len(was.row_unit) + len(now.row_unit) - int(found.sum())
        self.unchanged = int(same.sum())

    @property
    def unchanged_fraction(self) -> float:
        """Fraction of ``(node, unit)`` entries identical across the two
        versions (1.0 when neither writes any)."""
        return self.unchanged / self.entries if self.entries else 1.0

    def duplicated_share(self, units: Units) -> float:
        """Packet-weighted mean of :attr:`duplicated` over *units* (0.0
        when they carry no packets; a unit the old version does not
        write duplicates nothing), both totals left folds in unit order."""
        table = UnitTable.of(units)
        total = left_sum(table.pkts)
        if total <= 0:
            return 0.0
        held = np.append(self.duplicated, 0.0)
        return left_sum(table.pkts * held[self._old.unit_ids(table.idents)]) / total


@dataclass
class TransitionPlan:
    """The dual-manifest window between two deployments.

    During the transition, node ``j`` must:

    * sample *new* connections per ``new.manifests[j]``;
    * keep analyzing *existing* connections that fall in
      ``old.manifests[j]`` until they expire.

    :meth:`responsible_for_new` / :meth:`responsible_for_existing`
    answer the two questions a node asks per connection, and
    :meth:`duplicated_fraction` quantifies the temporary extra coverage
    (hash-space mass analyzed at more than one node) the paper accepts
    for correctness.
    """

    old: NIDSDeployment
    new: NIDSDeployment

    def __post_init__(self) -> None:
        # The plan reads both deployments by unit, as they stand when
        # it is built (a transition is planned between two final sets).
        self._old_table = ManifestTable.from_manifests(self.old.manifests)
        self._new_table = ManifestTable.from_manifests(self.new.manifests)

    def responsible_for_new(
        self, node: str, class_name: str, key: UnitKey, hash_value: float
    ) -> bool:
        """Should *node* take on a NEW connection for this traffic?"""
        return self.new.manifests[node].contains(class_name, key, hash_value)

    def responsible_for_existing(
        self, node: str, class_name: str, key: UnitKey, hash_value: float
    ) -> bool:
        """Should *node* keep analyzing an EXISTING connection?

        Old responsibilities are retained, and new responsibilities
        begin immediately, so during the window the node answers yes
        for the union of both manifests.
        """
        return self.old.manifests[node].contains(
            class_name, key, hash_value
        ) or self.new.manifests[node].contains(class_name, key, hash_value)

    @cached_property
    def columns(self) -> TransitionColumns:
        """Both deployments' tables matched row against row, once."""
        return TransitionColumns(self._old_table, self._new_table)

    @cached_property
    def _duplicated(self) -> Dict[EntryKey, float]:
        columns = self.columns
        return dict(zip(columns.units, columns.duplicated.tolist()))

    def duplicated_fraction(self, class_name: str, key: UnitKey) -> float:
        """Hash-space mass of the unit analyzed at >1 node mid-window.

        A point is duplicated when the old and new manifests place it
        at different nodes; mass where both agree transitions with no
        duplication.  Only an old holder has mass to duplicate: what
        it held, minus what it keeps under both manifests (read from
        :attr:`columns`).
        """
        return self._duplicated.get((class_name, key), 0.0)

    def orphaned_fraction(self, class_name: str, key: UnitKey) -> float:
        """Mass whose old holder is off the new routing path entirely.

        For such ranges, packets of existing connections may no longer
        traverse the retaining node; the paper's remedy is to transfer
        the NIDS state to the new holder (Sommer & Paxson's independent
        state).  The planner surfaces the affected mass so operators
        can budget the transfer.
        """
        units = self.new.units
        u = units.by_ident.get((class_name, key))
        if u is None:
            return 0.0
        table = self._old_table
        held = table.pieces(table.unit_ids([(class_name, key)]))
        off = ~np.isin(held.node, table.node_ids(units.eligible[u]))
        return float(held.take(off).mass(1)[0])

    def handoffs(self) -> List[Tuple[str, UnitKey, str, str, float]]:
        """All (class, unit, from-node, to-node, mass) state transfers
        the transition implies, largest first (equal masses in unit,
        donor, receiver order).

        A transfer's mass is the left fold of its (old piece, new piece)
        overlaps, old-major; donors and receivers are every holder,
        ``full`` nodes included.
        """
        old, new = self._old_table, self._new_table
        idents = sorted(set(self.old.units.idents) | set(self.new.units.idents))
        given = old.pieces(old.unit_ids(idents))
        taken = new.pieces(new.unit_ids(idents))
        # Every (old piece, new piece) pair of a unit, old-major, but a
        # node's pair with itself ...
        counts = np.bincount(taken.owner, minlength=len(idents))
        a, b = expand(counts[given.owner], run_starts(counts)[given.owner])
        moved = old.node_ids(new.nodes)[taken.node[b]] != given.node[a]
        a, b = a[moved], b[moved]
        overlap = np.maximum(
            0.0,
            np.minimum(given.hi[a], taken.hi[b]) - np.maximum(given.lo[a], taken.lo[b]),
        )
        # ... folded per (unit, donor, receiver), in that order.
        width = len(new.nodes)
        key = (given.owner[a] * len(old.nodes) + given.node[a]) * width + taken.node[b]
        order = np.argsort(key, kind="stable")
        keys, segment = np.unique(key[order], return_inverse=True)
        mass = fold_segments(overlap[order], segment, len(keys))
        unit, held = np.divmod(keys, len(old.nodes) * width)
        donor, receiver = np.divmod(held, width)
        transfers = [
            (*idents[u], old.nodes[d], new.nodes[r], m)
            for u, d, r, m in zip(
                unit.tolist(), donor.tolist(), receiver.tolist(), mass.tolist()
            )
            if m > 1e-9
        ]
        transfers.sort(key=lambda t: -t[4])
        return transfers


def plan_transition(old: NIDSDeployment, new: NIDSDeployment) -> TransitionPlan:
    """Build the dual-manifest transition between two deployments.

    The deployments must cover the same topology (node sets equal);
    unit sets may differ — routing changes alter eligible sets, and
    traffic changes alter which units exist at all.
    """
    if set(old.manifests) != set(new.manifests):
        raise ValueError("transition requires identical node sets")
    return TransitionPlan(old=old, new=new)
