"""Property tests for the precompiled ManifestIndex.

The central invariant (satellite of the batch-dispatch work): for any
LP-style fraction vector laid out by ``generate_manifests``, every
probe in ``[0, 1)`` — including adversarial probes at and just below
every range boundary and the maximum value ``hash_unit`` can produce —
is claimed by exactly ``fold`` nodes, whether membership is answered by
the scalar ``NodeManifest.contains`` scan or the searchsorted
``ManifestIndex``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.manifest import NodeManifest, generate_manifests, verify_manifests
from repro.core.manifest_index import ManifestIndex, compile_ranges, index_manifests
from repro.core.nids_lp import NIDSAssignment
from repro.core.units import CoordinationUnit
from repro.hashing.ranges import EPSILON, HashRange

#: The largest value hash_unit() can return: (2**32 - 1) / 2**32.
MAX_HASH_UNIT = 1.0 - 2.0**-32


def _layout(fractions, fold):
    """Build one coordination unit + manifests from raw fractions.

    Callers must ensure no normalized share exceeds 1.0 (a node's arc
    may not lap itself) — property tests guard this with ``assume``.
    """
    total = sum(fractions)
    normalized = [f / total * fold for f in fractions]
    assert all(f <= 1.0 for f in normalized)
    nodes = [f"n{i}" for i in range(len(normalized))]
    unit = CoordinationUnit(
        class_name="c",
        key=("k",),
        eligible=tuple(nodes),
        pkts=1.0,
        items=1.0,
        cpu_work=1.0,
        mem_bytes=1.0,
    )
    assignment = NIDSAssignment.from_triples(
        (("c", ("k",), n, f) for n, f in zip(nodes, normalized)),
        {("c", ("k",)): float(fold)},
    )
    manifests = generate_manifests([unit], assignment, nodes)
    verify_manifests([unit], manifests)
    return unit, manifests


def _probes(manifests):
    """Adversarial probe set: boundaries, just-below boundaries, extremes."""
    probes = {0.0, 0.5, MAX_HASH_UNIT}
    for manifest in manifests.values():
        for ranges in manifest.entries.values():
            for r in ranges:
                for boundary in (r.lo, r.hi):
                    probes.add(boundary)
                    probes.add(np.nextafter(boundary, 0.0))
    return sorted(p for p in probes if 0.0 <= p < 1.0)


@given(
    fractions=st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=8
    ),
    fold=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_property_every_probe_claimed_exactly_fold_times(fractions, fold):
    assume(len(fractions) > fold)
    total = sum(fractions)
    assume(all(f / total * fold <= 1.0 for f in fractions))
    unit, manifests = _layout(fractions, fold)
    # Keep internal boundaries clear of the closed-top band so the
    # expected depth is unambiguous (the generator never creates such
    # boundaries for real LP outputs either — they are snapped to 1.0).
    for manifest in manifests.values():
        for ranges in manifest.entries.values():
            for r in ranges:
                assume(r.hi == 1.0 or r.hi <= 1.0 - 1e-6)
    indexes = index_manifests(manifests)
    probes = _probes(manifests)
    values = np.array(probes)
    batch_depth = np.zeros(len(probes), dtype=np.int64)
    for node in unit.eligible:
        scalar_mask = [
            manifests[node].contains("c", ("k",), p) for p in probes
        ]
        index_scalar_mask = [indexes[node].contains("c", ("k",), p) for p in probes]
        assert scalar_mask == index_scalar_mask
        batch_mask = indexes[node].contains_batch("c", ("k",), values)
        assert batch_mask.tolist() == scalar_mask
        batch_depth += batch_mask
    assert (batch_depth == fold).all(), (
        probes,
        batch_depth.tolist(),
    )


@given(
    bounds=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=12
    ),
    probe=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_property_compile_matches_linear_scan(bounds, probe):
    """compile_ranges membership == any(r.contains(probe)) for arbitrary
    (even overlapping or empty) range sets."""
    bounds = sorted(bounds)
    ranges = [
        HashRange(lo, hi) for lo, hi in zip(bounds[::2], bounds[1::2])
    ]
    compiled = compile_ranges(ranges)
    expected = any(r.contains(probe) for r in ranges)
    got = bool(np.searchsorted(compiled, probe, side="right") & 1)
    assert got == expected


class TestManifestIndex:
    def test_full_manifest_contains_everything(self):
        index = ManifestIndex(NodeManifest(node="standalone", full=True))
        assert index.contains("http", ("x",), 0.25)
        assert index.contains_batch("http", ("x",), np.array([0.0, 0.99])).all()

    def test_unknown_unit_contains_nothing(self):
        index = ManifestIndex(NodeManifest(node="a"))
        assert not index.contains("http", ("x",), 0.25)
        assert not index.contains_batch("http", ("x",), np.array([0.1, 0.9])).any()

    def test_closed_top_range_claims_up_to_one(self):
        manifest = NodeManifest(node="a")
        manifest.entries[("c", ("k",))] = (HashRange(0.5, 1.0 - 5e-10),)
        index = ManifestIndex(manifest)
        for probe in (0.5, 0.999, 1.0 - 1e-12, 1.0, MAX_HASH_UNIT):
            assert index.contains("c", ("k",), probe)
            assert manifest.contains("c", ("k",), probe)
        assert not index.contains("c", ("k",), 0.499)

    def test_touching_ranges_merge_without_gap(self):
        manifest = NodeManifest(node="a")
        manifest.entries[("c", ("k",))] = (
            HashRange(0.0, 0.25),
            HashRange(0.25, 0.5),
        )
        index = ManifestIndex(manifest)
        assert index.contains("c", ("k",), 0.25)
        assert not index.contains("c", ("k",), 0.5)

    def test_empty_ranges_claim_nothing(self):
        manifest = NodeManifest(node="a")
        manifest.entries[("c", ("k",))] = (HashRange(0.3, 0.3),)
        index = ManifestIndex(manifest)
        assert not index.contains("c", ("k",), 0.3)


def test_generated_manifests_snap_top_to_exactly_one():
    """Satellite bugfix: the last laid range of each unit reaches 1.0
    exactly even when the fractions carry solver epsilon."""
    unit, manifests = _layout([0.25, 0.25, 0.25, 0.25 - 3e-10], 1)
    top = max(
        r.hi
        for manifest in manifests.values()
        for ranges in manifest.entries.values()
        for r in ranges
    )
    assert top == 1.0
