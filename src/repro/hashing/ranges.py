"""Hash-range algebra for sampling manifests.

The LP solution assigns node ``R_j`` a fraction ``d_ikj`` of each
coordination unit's hash space.  ``GenerateNIDSManifest`` (paper Fig. 2)
lays those fractions end to end over ``[0, 1]`` so assignments are
non-overlapping, and the redundancy extension (Section 2.5) lays them
over ``[0, r]`` with wraparound modulo 1 so every point is covered by
``r`` *distinct* nodes.

This module provides the interval type both schemes rest on,
``HashRange`` — a half-open interval ``[lo, hi)`` within ``[0, 1]`` —
plus the disjointness and union-measure predicates the manifest delta
check and the failure path read.  The wraparound itself (an arc of
length ``d_ikj <= 1`` never overlaps itself, which is what guarantees
clause (2) of the redundancy requirement: no node covers a point twice)
and the cover sweep live in :mod:`repro.core.manifest`, as array passes
over every unit at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

#: Tolerance for floating-point interval arithmetic.  LP solvers return
#: values that sum to 1 only to within solver tolerance; all coverage
#: checks honour this epsilon.
EPSILON = 1e-9


@dataclass(frozen=True)
class HashRange:
    """Half-open interval ``[lo, hi)`` of the unit hash space."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (0.0 - EPSILON <= self.lo <= self.hi <= 1.0 + EPSILON):
            raise ValueError(f"invalid hash range [{self.lo}, {self.hi})")

    @property
    def length(self) -> float:
        """Measure of the interval."""
        return max(0.0, self.hi - self.lo)

    @property
    def empty(self) -> bool:
        """True if the interval has (numerically) zero measure."""
        return self.length <= EPSILON

    def contains(self, value: float) -> bool:
        """Whether *value* falls inside ``[lo, hi)``.

        A range that tops out within ``EPSILON`` of 1.0 is treated as
        closed at exactly 1.0.  This covers two cases: a hash value of
        1.0 itself (impossible for the 32-bit Bob hash, but permitted by
        the float interface), and — critically — values in ``(hi, 1.0)``
        when a solver-epsilon shortfall left ``hi`` just below 1.0.
        Without the closed top, such values would be analyzed by *no*
        node even though the partition check accepts the manifest (the
        shortfall is within its tolerance).
        """
        if self.hi >= 1.0 - EPSILON:
            return self.lo <= value <= 1.0
        return self.lo <= value < self.hi

    def overlaps(self, other: "HashRange") -> bool:
        """Whether two ranges share a set of positive measure."""
        return min(self.hi, other.hi) - max(self.lo, other.lo) > EPSILON

    def intersection_length(self, other: "HashRange") -> float:
        """Measure of the overlap between two ranges."""
        return max(0.0, min(self.hi, other.hi) - max(self.lo, other.lo))


def are_disjoint(ranges: Sequence[HashRange]) -> bool:
    """Whether no two ranges in *ranges* overlap with positive measure."""
    ordered = sorted((r for r in ranges if not r.empty), key=lambda r: r.lo)
    for left, right in zip(ordered, ordered[1:]):
        if left.hi - right.lo > EPSILON:
            return False
    return True


def union_length(
    ranges: Iterable[HashRange], clip: Optional[HashRange] = None
) -> float:
    """Measure of the union of *ranges* (need not be disjoint).

    With *clip*, the measure of ``union(ranges) ∩ clip``.
    """
    cursor, top = (0.0, 1.0) if clip is None else (clip.lo, clip.hi)
    total = 0.0
    for r in sorted((r for r in ranges if not r.empty), key=lambda r: r.lo):
        lo = max(r.lo, cursor)
        hi = min(r.hi, top)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
