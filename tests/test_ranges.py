"""Tests for hash-range interval algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.ranges import (
    EPSILON,
    HashRange,
    WrappedRange,
    are_disjoint,
    covers_unit_interval,
)


class TestHashRange:
    def test_basic_contains(self):
        r = HashRange(0.25, 0.5)
        assert r.contains(0.25)
        assert r.contains(0.4)
        assert not r.contains(0.5)
        assert not r.contains(0.1)

    def test_top_of_space_closed(self):
        r = HashRange(0.9, 1.0)
        assert r.contains(1.0)
        assert r.contains(0.95)

    def test_epsilon_shortfall_at_top_not_dropped(self):
        """Regression: a topmost range whose hi is within EPSILON of 1.0
        (solver-epsilon shortfall) must behave as closed at 1.0.

        Before the fix, HashRange(0.5, 1.0 - 5e-10).contains(1.0 - 1e-12)
        returned False even though covers_unit_interval accepted the
        manifest, so hash values in (hi, 1.0) were analyzed by NO node.
        """
        r = HashRange(0.5, 1.0 - 5e-10)
        assert r.contains(1.0 - 1e-12)
        assert r.contains(1.0 - 2e-10)
        assert r.contains(1.0)
        assert not r.contains(0.499)

    def test_epsilon_shortfall_manifest_drops_no_probe(self):
        """The pre-fix failure mode end to end: ranges that pass the
        coverage check must claim every probe up to the top."""
        ranges = [HashRange(0.0, 0.5), HashRange(0.5, 1.0 - 5e-10)]
        assert covers_unit_interval(ranges, fold=1)
        for probe in (0.0, 0.25, 0.5, 0.999, 1.0 - 2e-10, 1.0 - 1e-12):
            assert sum(r.contains(probe) for r in ranges) == 1

    def test_interior_ranges_stay_half_open(self):
        """The closed-top extension applies only near 1.0."""
        r = HashRange(0.2, 0.6)
        assert r.contains(0.6 - 1e-12)
        assert not r.contains(0.6)
        assert not r.contains(0.6 + 1e-12)

    def test_length_and_empty(self):
        assert HashRange(0.2, 0.7).length == pytest.approx(0.5)
        assert HashRange(0.3, 0.3).empty
        assert not HashRange(0.3, 0.4).empty

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            HashRange(0.5, 0.2)
        with pytest.raises(ValueError):
            HashRange(-0.2, 0.5)
        with pytest.raises(ValueError):
            HashRange(0.5, 1.5)

    def test_overlaps(self):
        assert HashRange(0.0, 0.5).overlaps(HashRange(0.4, 0.8))
        assert not HashRange(0.0, 0.5).overlaps(HashRange(0.5, 0.8))

    def test_intersection_length(self):
        a, b = HashRange(0.0, 0.6), HashRange(0.4, 1.0)
        assert a.intersection_length(b) == pytest.approx(0.2)
        assert b.intersection_length(a) == pytest.approx(0.2)
        assert a.intersection_length(HashRange(0.7, 0.9)) == 0.0


class TestWrappedRange:
    def test_non_wrapping_single_piece(self):
        pieces = WrappedRange(0.2, 0.3).pieces()
        assert pieces == [HashRange(0.2, 0.5)]

    def test_wrapping_two_pieces(self):
        pieces = WrappedRange(0.8, 0.5).pieces()
        assert len(pieces) == 2
        assert pieces[0] == HashRange(0.8, 1.0)
        assert pieces[1].lo == pytest.approx(0.0)
        assert pieces[1].hi == pytest.approx(0.3)

    def test_full_circle(self):
        assert WrappedRange(0.4, 1.0).pieces() == [HashRange(0.0, 1.0)]

    def test_zero_length(self):
        assert WrappedRange(0.3, 0.0).pieces() == []

    def test_start_beyond_one_is_modded(self):
        pieces = WrappedRange(1.25, 0.25).pieces()
        assert pieces == [HashRange(0.25, 0.5)]

    def test_contains_wraps(self):
        arc = WrappedRange(0.9, 0.2)
        assert arc.contains(0.95)
        assert arc.contains(0.05)
        assert not arc.contains(0.5)

    def test_length_cap(self):
        with pytest.raises(ValueError):
            WrappedRange(0.0, 1.2)

    def test_total_measure_preserved(self):
        for start in (0.0, 0.3, 0.77, 0.999):
            for length in (0.0, 0.1, 0.5, 0.9999):
                pieces = WrappedRange(start, length).pieces()
                assert sum(p.length for p in pieces) == pytest.approx(length, abs=1e-9)


class TestCoverage:
    def test_exact_partition_covers(self):
        ranges = [HashRange(0.0, 0.3), HashRange(0.3, 0.75), HashRange(0.75, 1.0)]
        assert covers_unit_interval(ranges, fold=1)
        assert are_disjoint(ranges)

    def test_gap_detected(self):
        ranges = [HashRange(0.0, 0.3), HashRange(0.4, 1.0)]
        assert not covers_unit_interval(ranges, fold=1)

    def test_overlap_detected_as_wrong_fold(self):
        ranges = [HashRange(0.0, 0.6), HashRange(0.4, 1.0)]
        assert not covers_unit_interval(ranges, fold=1)
        assert not are_disjoint(ranges)

    def test_double_cover(self):
        ranges = [
            HashRange(0.0, 1.0),
            HashRange(0.0, 0.5),
            HashRange(0.5, 1.0),
        ]
        assert covers_unit_interval(ranges, fold=2)
        assert not covers_unit_interval(ranges, fold=1)

    def test_empty_set(self):
        assert covers_unit_interval([], fold=0)
        assert not covers_unit_interval([], fold=1)


@given(
    cuts=st.lists(
        st.floats(min_value=0.001, max_value=0.999), min_size=1, max_size=10
    )
)
@settings(max_examples=200, deadline=None)
def test_property_partition_always_covers(cuts):
    """Any sorted cut sequence partitions [0,1] into a 1-fold cover."""
    points = sorted(set(cuts))
    boundaries = [0.0] + points + [1.0]
    ranges = [
        HashRange(lo, hi) for lo, hi in zip(boundaries, boundaries[1:]) if hi > lo
    ]
    assert covers_unit_interval(ranges, fold=1)
    assert are_disjoint(ranges)
    assert sum(r.length for r in ranges) == pytest.approx(1.0, abs=1e-9)


@given(
    start=st.floats(min_value=0.0, max_value=1.0),
    length=st.floats(min_value=0.0, max_value=1.0),
    probe=st.floats(min_value=0.0, max_value=0.999),
)
@settings(max_examples=300, deadline=None)
def test_property_wrapped_contains_matches_arc_membership(start, length, probe):
    """WrappedRange.contains agrees with direct circular arithmetic."""
    arc = WrappedRange(start, length)
    offset = (probe - start) % 1.0
    # Skip knife-edge cases at the arc boundary (float epsilon territory).
    if abs(offset - length) < 1e-7 or length < 1e-7:
        return
    expected = offset < length
    assert arc.contains(probe) == expected
