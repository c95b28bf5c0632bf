"""Exact, order-independent float accumulation.

The engine's resource accounting sums millions of per-session CPU
charges.  Plain left-to-right ``+=`` makes the total depend on session
order and on how the trace was chunked — two runs over the same
sessions can differ in the last ulps, which breaks the repo's
bit-identical-report discipline the moment traces are streamed in
chunks or vectorized (NumPy reductions use pairwise
summation, not sequential).

:class:`ExactSum` removes ordering from the semantics entirely.  Every
IEEE-754 double is an integer multiple of ``2**-_SHIFT`` (``_SHIFT``
clears the smallest subnormal), so a sum of doubles is represented
*exactly* as a single arbitrary-precision integer numerator over the
fixed denominator ``2**_SHIFT``.  Adding a value, adding a whole NumPy
array, and merging two accumulators are all exact integer additions —
associative and commutative — and :meth:`value` performs one correctly
rounded conversion at the end.  Consequences:

* scalar and vectorized paths that charge the same multiset of
  per-session costs produce bit-identical totals;
* chunked/streamed runs merge to exactly the one-shot total, for any
  chunk size and any merge order.

The representation is also loss-free to serialize (hex numerator), so
partial reports can cross process boundaries and still merge exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

#: Fixed binary scale: ``value == _num * 2**-_SHIFT``.  ``frexp`` maps a
#: double to ``m * 2**e`` with ``m`` in [0.5, 1); the smallest exponent
#: it can return is -1073 (the minimum subnormal), so ``e - 53 + _SHIFT``
#: is never negative and every double lands on the grid exactly.
_SHIFT = 1126

_TWO53 = float(1 << 53)

#: Per-call block bound for :meth:`ExactSum.add_array`: mantissa halves
#: are 27-bit, so int64 partial sums stay overflow-free for any block
#: of fewer than 2**36 elements; 2**20 keeps peak temporaries small.
_BLOCK = 1 << 20


class ExactSum:
    """An exact running sum of IEEE-754 doubles.

    Supports scalar :meth:`add`, vectorized :meth:`add_array`, and
    exact :meth:`merge` of two accumulators.  Equality compares the
    exact sums, not their rounded float renderings.
    """

    __slots__ = ("_num",)

    def __init__(self, _num: int = 0):
        self._num = _num

    # -- accumulation -----------------------------------------------------
    def add(self, value: float) -> None:
        """Fold one float into the exact sum."""
        mantissa, exponent = math.frexp(value)
        self._num += int(mantissa * _TWO53) << (exponent - 53 + _SHIFT)

    def add_array(self, values) -> None:
        """Fold a NumPy float64 array into the exact sum.

        Equivalent to ``for v in values: self.add(v)`` but vectorized:
        mantissas are extracted in bulk, split into 27-bit halves, and
        each half is summed per exponent with one ``np.bincount``.  The
        float64 bins are exact: a half is below ``2**27`` in magnitude
        and a block has at most ``2**20`` elements, so every partial
        sum is an integer below ``2**53``.
        """
        import numpy as np

        values = np.asarray(values, dtype=np.float64)
        if not np.isfinite(values).all():
            raise ValueError("ExactSum requires finite values")
        for start in range(0, len(values), _BLOCK):
            block = values[start : start + _BLOCK]
            mantissa, exponent = np.frexp(block)
            digits = (mantissa * _TWO53).astype(np.int64)
            lowest = int(exponent.min())
            bins = exponent - lowest
            highs = np.bincount(bins, digits >> 27)
            lows = np.bincount(bins, digits & 0x7FFFFFF)
            for k in np.flatnonzero((highs != 0) | (lows != 0)).tolist():
                half = (int(highs[k]) << 27) + int(lows[k])
                self._num += half << (k + lowest - 53 + _SHIFT)

    def merge(self, other: "ExactSum") -> None:
        """Fold another accumulator in — exact, order-independent."""
        self._num += other._num

    # -- rendering --------------------------------------------------------
    def value(self) -> float:
        """The correctly rounded float of the exact sum."""
        if self._num == 0:
            return 0.0
        return float(Fraction(self._num, 1 << _SHIFT))

    # -- identity / transport ---------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactSum):
            return NotImplemented
        return self._num == other._num

    def __hash__(self) -> int:  # pragma: no cover - not used as key
        return hash(self._num)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExactSum({self.value()!r})"

    def __getstate__(self) -> int:
        return self._num

    def __setstate__(self, state: int) -> None:
        self._num = state

    def __reduce__(self):
        return (ExactSum, (self._num,))

    @classmethod
    def of(cls, values: Iterable[float]) -> "ExactSum":
        """Accumulator over an iterable of floats."""
        acc = cls()
        for value in values:
            acc.add(value)
        return acc
