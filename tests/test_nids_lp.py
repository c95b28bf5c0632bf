"""Tests for the Section 2.2 NIDS assignment LP."""

import pytest

from repro.core.nids_lp import build_nids_lp, solve_nids_lp, uniform_assignment
from repro.core.units import CoordinationUnit, build_units
from repro.nids.modules import STANDARD_MODULES
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator


@pytest.fixture(scope="module")
def setup():
    topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topo)
    generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=31))
    sessions = generator.generate(2500)
    units = build_units(STANDARD_MODULES, sessions, paths)
    return topo, units


@pytest.fixture(scope="module")
def assignment(setup):
    topo, units = setup
    return solve_nids_lp(units, topo)


class TestCoverage:
    def test_every_unit_fully_covered(self, setup, assignment):
        _, units = setup
        for unit in units:
            total = sum(
                assignment.fraction(unit.class_name, unit.key, node)
                for node in unit.eligible
            )
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_fractions_within_bounds(self, assignment):
        for value in assignment.value.tolist():
            assert -1e-9 <= value <= 1.0 + 1e-9

    def test_singleton_units_fully_assigned(self, setup, assignment):
        _, units = setup
        for unit in units:
            if unit.singleton:
                only = unit.eligible[0]
                assert assignment.fraction(
                    unit.class_name, unit.key, only
                ) == pytest.approx(1.0, abs=1e-6)

    def test_no_fraction_outside_eligible_set(self, setup, assignment):
        _, units = setup
        eligible = {
            (u.class_name, u.key): set(u.eligible) for u in units
        }
        for u, k, value in zip(
            assignment.unit_of.tolist(),
            assignment.node_of.tolist(),
            assignment.value.tolist(),
        ):
            if value > 1e-9:
                assert assignment.nodes[k] in eligible[assignment.units[u]]


class TestObjective:
    def test_objective_is_max_load(self, assignment):
        expected = max(assignment.max_cpu_load, assignment.max_mem_load)
        assert assignment.objective == pytest.approx(expected, rel=1e-6)

    def test_loads_consistent_with_fractions(self, setup, assignment):
        topo, units = setup
        cpu = {name: 0.0 for name in topo.node_names}
        for unit in units:
            for node in unit.eligible:
                cpu[node] += (
                    unit.cpu_work
                    * assignment.fraction(unit.class_name, unit.key, node)
                    / topo.node(node).cpu_capacity
                )
        for name in topo.node_names:
            assert cpu[name] == pytest.approx(assignment.cpu_load[name], rel=1e-5, abs=1e-6)

    def test_lp_beats_uniform_split(self, setup, assignment):
        topo, units = setup
        naive = uniform_assignment(units, topo)
        assert assignment.objective <= naive.objective + 1e-9

    def test_lp_beats_uniform_strictly_on_skewed_load(self, setup, assignment):
        """On a gravity TM the naive split leaves hot ingresses
        overloaded; the LP must strictly improve."""
        topo, units = setup
        naive = uniform_assignment(units, topo)
        assert assignment.objective < naive.objective * 0.95


class TestHeterogeneousCapacities:
    def test_bigger_node_takes_more_load(self, setup):
        topo, units = setup
        upgraded = topo.copy()
        upgraded.scale_capacity("KSCY", cpu_factor=10.0, mem_factor=10.0)
        base = solve_nids_lp(units, topo)
        boosted = solve_nids_lp(units, upgraded)
        assert boosted.objective <= base.objective + 1e-9

    def test_capacity_normalization(self, setup):
        """Scaling all capacities by c scales all loads by 1/c."""
        topo, units = setup
        scaled = topo.copy().set_uniform_capacities(cpu=2.0, mem=2.0)
        base = solve_nids_lp(units, topo)
        halved = solve_nids_lp(units, scaled)
        assert halved.objective == pytest.approx(base.objective / 2.0, rel=1e-4)


class TestRedundancy:
    def test_coverage_two(self, setup):
        topo, units = setup
        assignment = solve_nids_lp(units, topo, coverage=2.0)
        for unit in units:
            expected = min(2.0, len(unit.eligible))
            total = sum(
                assignment.fraction(unit.class_name, unit.key, node)
                for node in unit.eligible
            )
            assert total == pytest.approx(expected, abs=1e-6)

    def test_redundancy_costs_load(self, setup, assignment):
        topo, units = setup
        redundant = solve_nids_lp(units, topo, coverage=2.0)
        assert redundant.objective > assignment.objective

    def test_fractions_still_capped_at_one(self, setup):
        topo, units = setup
        assignment = solve_nids_lp(units, topo, coverage=3.0)
        for value in assignment.value.tolist():
            assert value <= 1.0 + 1e-9

    def test_invalid_coverage(self, setup):
        topo, units = setup
        with pytest.raises(ValueError):
            solve_nids_lp(units, topo, coverage=0.5)


class TestResponsibleNodes:
    def test_responsible_nodes_listing(self, setup, assignment):
        _, units = setup
        unit = next(u for u in units if not u.singleton)
        responsible = assignment.responsible_nodes(unit.class_name, unit.key)
        assert responsible
        total = sum(fraction for _, fraction in responsible)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestUniformAssignment:
    def test_even_split(self, setup):
        topo, units = setup
        naive = uniform_assignment(units, topo)
        for unit in units:
            share = 1.0 / len(unit.eligible)
            for node in unit.eligible:
                assert naive.fraction(
                    unit.class_name, unit.key, node
                ) == pytest.approx(share)

    def test_objective_matches_max_load(self, setup):
        topo, units = setup
        naive = uniform_assignment(units, topo)
        assert naive.objective == pytest.approx(
            max(naive.max_cpu_load, naive.max_mem_load)
        )


class TestOneBalancingFunction:
    """The paper "adopts min-max for concreteness"; so does the program.
    The weighted-sum objective no caller selected is gone, not defaulted."""

    @pytest.mark.parametrize(
        "options",
        [dict(objective="sum"), dict(objective="max"), dict(cpu_weight=2.0), dict(mem_weight=2.0)],
    )
    def test_objective_options_are_not_accepted(self, setup, options):
        topo, units = setup
        for function in (solve_nids_lp, build_nids_lp):
            with pytest.raises(TypeError):
                function(units, topo, **options)

    def test_the_objective_is_the_single_column_maxload(self, setup):
        topo, units = setup
        program = build_nids_lp(units, topo).program
        assert [program.variable_names[col] for col in program.objective_cols] == ["MaxLoad"]
        assert program.objective_coefficients.tolist() == [1.0]
