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
from typing import List, Sequence, Tuple

from ..hashing.ranges import EPSILON
from .manifest_table import ManifestTable
from .nids_deployment import NIDSDeployment
from .units import CoordinationUnit, UnitKey, units_by_ident


#: Every measured resource field of a :class:`CoordinationUnit` that a
#: headroom factor must scale.  Kept in one place so a new resource
#: dimension cannot be silently missed by :func:`conservative_units`.
RESOURCE_FIELDS = ("pkts", "items", "cpu_work", "mem_bytes")


def conservative_units(
    units: Sequence[CoordinationUnit], headroom: float = 1.3
) -> List[CoordinationUnit]:
    """Inflate unit volumes by *headroom* (e.g. 95th-percentile ≈ 1.3×
    the mean for bursty traffic) before solving the LP.

    The resulting assignment is feasible for bursts up to the headroom
    at the cost of a proportionally higher planned max load.  All
    resource fields (``pkts``, ``items``, ``cpu_work``, ``mem_bytes``)
    scale together; identity fields (class, key, eligible set) are
    preserved.  A headroom within EPSILON of 1.0 is a no-op fast path
    returning the units unscaled (the controller's default per-epoch
    path) — callers computing headroom as e.g. ``p95 / mean`` land a
    solver-epsilon below 1.0 and must not be rejected.
    """
    if not math.isfinite(headroom):
        raise ValueError(f"headroom must be finite, got {headroom!r}")
    if headroom < 1.0 - EPSILON:
        raise ValueError("headroom must be >= 1")
    if abs(headroom - 1.0) <= EPSILON:
        return list(units)
    return [
        dataclasses.replace(
            unit,
            **{name: getattr(unit, name) * headroom for name in RESOURCE_FIELDS},
        )
        for unit in units
    ]


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
        self._new_units = units_by_ident(self.new.units)

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

    def duplicated_fraction(self, class_name: str, key: UnitKey) -> float:
        """Hash-space mass of the unit analyzed at >1 node mid-window.

        A point is duplicated when the old and new manifests place it
        at different nodes; mass where both agree transitions with no
        duplication.
        """
        duplicated = 0.0
        new_held = dict(self._new_table.holders((class_name, key)))
        # Only an old holder has mass to duplicate; they come in sorted
        # node order, so the float fold does not depend on set order.
        for node, old_ranges in self._old_table.holders((class_name, key)):
            new_ranges = new_held.get(node, ())
            # Mass held under either manifest, minus the overlap the
            # node keeps under both (not duplicated anywhere else).
            old_mass = sum(r.length for r in old_ranges)
            overlap = sum(
                old_piece.intersection_length(new_piece)
                for old_piece in old_ranges
                for new_piece in new_ranges
            )
            duplicated += old_mass - overlap
        return duplicated

    def orphaned_fraction(self, class_name: str, key: UnitKey) -> float:
        """Mass whose old holder is off the new routing path entirely.

        For such ranges, packets of existing connections may no longer
        traverse the retaining node; the paper's remedy is to transfer
        the NIDS state to the new holder (Sommer & Paxson's independent
        state).  The planner surfaces the affected mass so operators
        can budget the transfer.
        """
        new_unit = self._new_units.get((class_name, key))
        if new_unit is None:
            return 0.0
        orphaned = 0.0
        for node, old_ranges in self._old_table.holders((class_name, key)):
            if node not in new_unit.eligible:
                orphaned += sum(r.length for r in old_ranges)
        return orphaned

    def handoffs(self) -> List[Tuple[str, UnitKey, str, str, float]]:
        """All (class, unit, from-node, to-node, mass) state transfers
        the transition implies, largest first (equal masses in unit,
        donor, receiver order)."""
        transfers: List[Tuple[str, UnitKey, str, str, float]] = []
        idents = {u.ident for u in self.old.units} | set(self._new_units)
        for ident in sorted(idents):
            receivers = self._new_table.holders(ident)
            for donor, old_ranges in self._old_table.holders(ident):
                for receiver, new_ranges in receivers:
                    if receiver == donor:
                        continue
                    mass = sum(
                        o.intersection_length(n)
                        for o in old_ranges
                        for n in new_ranges
                    )
                    if mass > 1e-9:
                        transfers.append((*ident, donor, receiver, mass))
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
