"""``ExactSum.add_array`` folds exactly what the scalar ``add`` folds.

Every case compares the vector fold with ``ExactSum.of(values.tolist())``
— one exact integer addition per value — at the edges the per-exponent
``np.bincount`` has to get right: signs and signed zeros, subnormals and
the largest magnitudes, an exponent spread over nearly every bin, the
block boundary, and the headroom of one full block of the largest
mantissa at one exponent.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.exactsum import _BLOCK, ExactSum


def assert_folds_exactly(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    folded = ExactSum()
    folded.add_array(values)
    assert folded == ExactSum.of(values.tolist())


def test_negatives_and_signed_zeros():
    assert_folds_exactly([1.5, -1.5, 0.0, -0.0, -3.25, 2.0**-60, -(2.0**70), 0.1, -0.3])
    assert_folds_exactly([-0.0, -0.0])
    assert_folds_exactly([-7.0, -1e-300, -2.5e-13])


def test_subnormals_and_the_largest_magnitudes():
    tiny = 5e-324
    assert_folds_exactly(
        [tiny, -tiny, 3 * tiny, 2.2250738585072014e-308, 1e-310, -4e-320,
         1e308, -1e308, 1.7976931348623157e308, 1e308]
    )


def test_exponent_spread_of_two_thousand_bins():
    rng = np.random.default_rng(7)
    exponents = np.arange(-1074, 1024)
    mantissas = 1.0 + rng.random(len(exponents))
    values = np.ldexp(mantissas, exponents) / 2.0
    values[::3] *= -1.0
    assert len(np.unique(np.frexp(values)[1])) > 2_000
    assert_folds_exactly(rng.permutation(values))


@pytest.mark.parametrize("length", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_block_boundaries(length):
    rng = np.random.default_rng(length)
    values = rng.standard_normal(length) * 10.0 ** rng.integers(-20, 20, length)
    assert_folds_exactly(values)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_one_block_of_the_largest_mantissa_at_one_exponent(sign):
    """2**20 copies of ``2 - 2**-52`` (53 one bits): the per-bin sums of
    both halves reach their largest, still exact, integers."""
    values = np.full(_BLOCK, sign * np.nextafter(2.0, 0.0))
    assert_folds_exactly(values)


@given(
    arrays(
        np.float64,
        st.integers(min_value=0, max_value=400),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
@settings(max_examples=200, deadline=None)
def test_property_any_finite_array(values):
    assert_folds_exactly(values)


def test_non_finite_values_are_rejected():
    with pytest.raises(ValueError):
        ExactSum().add_array(np.array([1.0, np.inf]))
