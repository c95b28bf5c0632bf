"""Tests for sampling-manifest generation (Fig. 2 + redundancy)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.manifest import (
    full_manifest,
    generate_manifests,
    sampled_node,
    verify_manifests,
)
from repro.core.nids_lp import solve_nids_lp, uniform_assignment
from repro.core.units import build_units
from repro.nids.modules import STANDARD_MODULES
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator
from tests.manifest_oracle import covers_unit_interval


@pytest.fixture(scope="module")
def setup():
    topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topo)
    generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=41))
    sessions = generator.generate(2000)
    units = build_units(STANDARD_MODULES, sessions, paths)
    return topo, units


class TestGeneration:
    def test_invariants_hold(self, setup):
        topo, units = setup
        assignment = solve_nids_lp(units, topo)
        manifests = generate_manifests(units, assignment, topo.node_names)
        verify_manifests(units, manifests)  # raises on violation

    def test_assigned_fraction_matches_d(self, setup):
        topo, units = setup
        assignment = solve_nids_lp(units, topo)
        manifests = generate_manifests(units, assignment, topo.node_names)
        for unit in units:
            for node in unit.eligible:
                d = assignment.fraction(unit.class_name, unit.key, node)
                held = manifests[node].assigned_fraction(unit.class_name, unit.key)
                assert held == pytest.approx(d, abs=1e-6)

    def test_uniform_assignment_also_valid(self, setup):
        topo, units = setup
        assignment = uniform_assignment(units, topo)
        manifests = generate_manifests(units, assignment, topo.node_names)
        verify_manifests(units, manifests)

    def test_every_node_gets_a_manifest(self, setup):
        topo, units = setup
        assignment = solve_nids_lp(units, topo)
        manifests = generate_manifests(units, assignment, topo.node_names)
        assert set(manifests) == set(topo.node_names)

    def test_exactly_one_node_samples_any_hash(self, setup):
        topo, units = setup
        assignment = solve_nids_lp(units, topo)
        manifests = generate_manifests(units, assignment, topo.node_names)
        probes = [0.0, 0.1, 0.33, 0.5, 0.77, 0.999]
        for unit in units[:50]:
            for probe in probes:
                holders = sampled_node(unit, manifests, probe)
                assert len(holders) == 1

    def test_inconsistent_fractions_rejected(self, setup):
        topo, units = setup
        assignment = solve_nids_lp(units, topo)
        # Zero a substantial fraction so the unit's coverage no longer
        # sums to 1; generation must refuse to build such manifests.
        value = assignment.value.copy()
        value[np.argmax(value)] = 0.0
        assignment = dataclasses.replace(assignment, value=value)
        with pytest.raises(ValueError):
            generate_manifests(units, assignment, topo.node_names)


class TestRedundancy:
    def test_two_fold_coverage(self, setup):
        topo, units = setup
        assignment = solve_nids_lp(units, topo, coverage=2.0)
        manifests = generate_manifests(units, assignment, topo.node_names)
        verify_manifests(units, manifests)

    def test_r_distinct_nodes_per_point(self, setup):
        topo, units = setup
        assignment = solve_nids_lp(units, topo, coverage=2.0)
        manifests = generate_manifests(units, assignment, topo.node_names)
        probes = [0.05, 0.25, 0.5, 0.75, 0.95]
        for unit in units:
            expected = int(min(2, len(unit.eligible)))
            for probe in probes:
                holders = sampled_node(unit, manifests, probe)
                assert len(holders) == expected
                assert len(set(holders)) == expected  # distinct nodes

    def test_no_node_covers_a_point_twice(self, setup):
        """Redundancy clause (2): wraparound arcs never self-overlap."""
        topo, units = setup
        assignment = solve_nids_lp(units, topo, coverage=3.0)
        manifests = generate_manifests(units, assignment, topo.node_names)
        for unit in units:
            for node in unit.eligible:
                pieces = manifests[node].ranges(unit.class_name, unit.key)
                total = sum(p.length for p in pieces)
                assert total <= 1.0 + 1e-6


class TestFullManifest:
    def test_contains_everything(self):
        manifest = full_manifest("standalone")
        assert manifest.contains("http", ("x",), 0.123)
        assert manifest.responsible("anything", ("y",))
        assert manifest.assigned_fraction("scan", ("z",)) == 1.0

    def test_ranges_cover_unit(self):
        manifest = full_manifest("standalone")
        ranges = manifest.ranges("http", ("x",))
        assert covers_unit_interval(list(ranges), fold=1)


@given(
    fractions=st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8
    )
)
@settings(max_examples=150, deadline=None)
def test_property_any_normalized_split_covers(fractions):
    """Any d-vector summing to 1 yields a disjoint exact cover —
    the Fig. 2 invariant independent of the LP."""
    from repro.core.manifest import NodeManifest
    from repro.core.nids_lp import NIDSAssignment
    from repro.core.units import CoordinationUnit

    total = sum(fractions)
    normalized = [f / total for f in fractions]
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
        {("c", ("k",)): 1.0},
    )
    manifests = generate_manifests([unit], assignment, nodes)
    verify_manifests([unit], manifests)
