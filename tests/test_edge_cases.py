"""Edge-case and robustness tests across the library."""

import pytest

from repro.core.manifest import generate_manifests, verify_manifests
from repro.core.nids_lp import (
    integral_assignment,
    solve_nids_lp,
    uniform_assignment,
)
from repro.core.units import build_units
from repro.nids.engine import BroInstance, BroMode
from repro.nids.modules import SIGNATURE, STANDARD_MODULES
from repro.topology import LinkSpec, NodeSpec, PathSet, Topology, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator


@pytest.fixture(scope="module")
def world():
    topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topo)
    generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=171))
    return topo, paths, generator


class TestEmptyInputs:
    def test_lp_with_no_units(self, world):
        topo, _, _ = world
        assignment = solve_nids_lp([], topo)
        assert assignment.objective == pytest.approx(0.0)
        assert len(assignment.value) == 0

    def test_manifests_with_no_units(self, world):
        topo, _, _ = world
        assignment = solve_nids_lp([], topo)
        manifests = generate_manifests([], assignment, topo.node_names)
        verify_manifests([], manifests)
        assert all(m.num_entries == 0 for m in manifests.values())

    def test_engine_with_empty_trace(self, world):
        report = BroInstance("n", STANDARD_MODULES, BroMode.UNMODIFIED).process_sessions(
            []
        )
        assert report.cpu == 0.0
        assert report.tracked_connections == 0

    def test_units_from_empty_trace(self, world):
        _, paths, _ = world
        assert build_units(STANDARD_MODULES, [], paths) == []

    def test_generator_zero_sessions(self, world):
        _, _, generator = world
        assert list(generator.generate(0)) == []


class TestTinyTopologies:
    def test_two_node_network_end_to_end(self):
        topo = Topology(
            "pair",
            [NodeSpec("a", population=1.0), NodeSpec("b", population=2.0)],
            [LinkSpec("a", "b", 10.0)],
        ).set_uniform_capacities(cpu=1.0, mem=1.0)
        paths = PathSet(topo)
        generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=1))
        sessions = generator.generate(200)
        units = build_units(STANDARD_MODULES, sessions, paths)
        assignment = solve_nids_lp(units, topo)
        manifests = generate_manifests(units, assignment, topo.node_names)
        verify_manifests(units, manifests)

    def test_single_session(self, world):
        topo, paths, generator = world
        sessions = generator.generate(1)
        units = build_units(STANDARD_MODULES, sessions, paths)
        assert units
        assignment = solve_nids_lp(units, topo)
        verify_manifests(
            units, generate_manifests(units, assignment, topo.node_names)
        )


class TestIntegralAssignment:
    def test_whole_units_only(self, world):
        topo, paths, generator = world
        sessions = generator.generate(800)
        units = build_units(STANDARD_MODULES, sessions, paths)
        integral = integral_assignment(units, topo)
        assert integral.value.tolist() == [1.0] * len(units)
        for unit in units:
            holders = [
                node
                for node in unit.eligible
                if integral.fraction(unit.class_name, unit.key, node) > 0
            ]
            assert len(holders) == 1

    def test_never_beats_lp(self, world):
        topo, paths, generator = world
        sessions = generator.generate(800)
        units = build_units(STANDARD_MODULES, sessions, paths)
        lp = solve_nids_lp(units, topo)
        integral = integral_assignment(units, topo)
        assert lp.objective <= integral.objective + 1e-9

    def test_beats_uniform_on_skew(self, world):
        """Least-loaded-first should beat the blind even split."""
        topo, paths, generator = world
        sessions = generator.generate(800)
        units = build_units(STANDARD_MODULES, sessions, paths)
        integral = integral_assignment(units, topo)
        naive = uniform_assignment(units, topo)
        assert integral.objective <= naive.objective * 1.05

    def test_manifests_from_integral_assignment(self, world):
        topo, paths, generator = world
        sessions = generator.generate(400)
        units = build_units(STANDARD_MODULES, sessions, paths)
        integral = integral_assignment(units, topo)
        manifests = generate_manifests(units, integral, topo.node_names)
        verify_manifests(units, manifests)


class TestDegenerateTraffic:
    def test_single_protocol_trace(self, world):
        """A trace matching only one module still plans cleanly."""
        topo, paths, generator = world
        from repro.traffic.profiles import TrafficProfile

        dns_only = TrafficProfile("dns-only", {"dns": 1.0})
        gen = TrafficGenerator(
            topo, paths, profile=dns_only, config=GeneratorConfig(seed=2)
        )
        sessions = gen.generate(300)
        units = build_units(STANDARD_MODULES, sessions, paths)
        class_names = {u.class_name for u in units}
        # Only all-traffic modules and scan see DNS.
        assert "http" not in class_names
        assert "signature" in class_names and "scan" in class_names
        assignment = solve_nids_lp(units, topo)
        assert assignment.objective > 0
