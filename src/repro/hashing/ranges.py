"""Hash-range algebra for sampling manifests.

The LP solution assigns node ``R_j`` a fraction ``d_ikj`` of each
coordination unit's hash space.  ``GenerateNIDSManifest`` (paper Fig. 2)
lays those fractions end to end over ``[0, 1]`` so assignments are
non-overlapping, and the redundancy extension (Section 2.5) lays them
over ``[0, r]`` with wraparound modulo 1 so every point is covered by
``r`` *distinct* nodes.

This module provides the interval types both schemes rest on:

``HashRange``
    A half-open interval ``[lo, hi)`` within ``[0, 1]``.
``WrappedRange``
    An arc on the unit circle that may wrap past 1.0, materializing as
    one or two :class:`HashRange` pieces.  Because each ``d_ikj <= 1``,
    an arc never overlaps itself, which is what guarantees clause (2)
    of the redundancy requirement (no node covers a point twice).

plus coverage/disjointness predicates used by tests and by the manifest
verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

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
        node even though :func:`covers_unit_interval` accepts the
        manifest (the shortfall is within its tolerance).
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


@dataclass(frozen=True)
class WrappedRange:
    """An arc ``[start, start + length)`` on the unit circle.

    ``length`` must be at most 1 (as guaranteed by ``d_ikj <= 1``);
    arcs of length exactly 1 cover the full circle.
    """

    start: float
    length: float

    def __post_init__(self) -> None:
        if self.length < -EPSILON or self.length > 1.0 + EPSILON:
            raise ValueError(f"arc length {self.length} outside [0, 1]")
        if self.start < -EPSILON:
            raise ValueError(f"arc start {self.start} negative")

    def pieces(self) -> List[HashRange]:
        """Materialize the arc as one or two disjoint unit-space ranges."""
        lo = self.start % 1.0
        length = min(max(self.length, 0.0), 1.0)
        if length <= EPSILON:
            return []
        if length >= 1.0 - EPSILON:
            return [HashRange(0.0, 1.0)]
        hi = lo + length
        if hi <= 1.0 + EPSILON:
            return [HashRange(lo, min(hi, 1.0))]
        return [HashRange(lo, 1.0), HashRange(0.0, hi - 1.0)]

    def contains(self, value: float) -> bool:
        """Whether *value* (in ``[0, 1)``) lies on the arc."""
        return any(piece.contains(value) for piece in self.pieces())


def are_disjoint(ranges: Sequence[HashRange]) -> bool:
    """Whether no two ranges in *ranges* overlap with positive measure."""
    ordered = sorted((r for r in ranges if not r.empty), key=lambda r: r.lo)
    for left, right in zip(ordered, ordered[1:]):
        if left.hi - right.lo > EPSILON:
            return False
    return True


def covers_unit_interval(ranges: Sequence[HashRange], fold: int = 1) -> bool:
    """Whether *ranges* cover ``[0, 1]`` exactly *fold* times.

    This is the invariant established by manifest generation: for
    redundancy level ``r``, every point of the hash space must be
    covered by exactly ``r`` ranges.  Implemented as a sweep over the
    sorted interval endpoints.
    """
    events: List[Tuple[float, int]] = []
    for r in ranges:
        if r.empty:
            continue
        events.append((r.lo, +1))
        events.append((r.hi, -1))
    if not events:
        return fold == 0
    events.sort(key=lambda e: (e[0], -e[1]))
    depth = 0
    cursor = 0.0
    for position, delta in events:
        if position - cursor > EPSILON and depth != fold:
            return False
        depth += delta
        cursor = max(cursor, position)
    if 1.0 - cursor > EPSILON:
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
