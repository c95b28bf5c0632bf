"""Tests for the NIPS enforcement simulation."""

import random

import numpy as np
import pytest

from repro.core.nips_manifest import generate_nips_manifests
from repro.core.nips_milp import (
    compile_nips_polytope,
    solve_relaxation,
    solve_with_fixed_rules,
)
from repro.core.rounding import RoundingVariant, best_of_roundings
from repro.hashing.ranges import EPSILON
from repro.nips.enforcement import enforce
from tests import planning_oracle as oracle
from tests.test_nips_milp import small_problem


@pytest.fixture(scope="module")
def deployment():
    problem = small_problem(num_rules=5, cam=2.0, seed=13, num_nodes=6)
    best = best_of_roundings(problem, RoundingVariant.GREEDY_LP, iterations=4, seed=1)
    return problem, best.solution


class TestDisjointEnforcement:
    def test_realized_footprint_equals_objective(self, deployment):
        """With Fig. 2-style disjoint ranges, the enforcement realizes
        exactly the optimization objective."""
        problem, solution = deployment
        report = enforce(problem, solution, disjoint=True)
        assert report.footprint_removed == pytest.approx(
            report.modeled_objective, rel=1e-6
        )

    def test_loads_within_conservative_model(self, deployment):
        problem, solution = deployment
        report = enforce(problem, solution, disjoint=True)
        assert report.load_within_model()

    def test_drop_rate_bounded(self, deployment):
        problem, solution = deployment
        report = enforce(problem, solution, disjoint=True)
        assert 0.0 <= report.drop_rate <= 1.0

    def test_no_deployment_drops_nothing(self, deployment):
        problem, solution = deployment
        empty = solve_with_fixed_rules(solution.polytope, [0.0] * problem.layout.num_e)
        report = enforce(problem, empty)
        assert report.footprint_removed == 0.0
        assert report.flows_dropped == 0.0


def installed(problem, manifests):
    """Loads and footprint of what *manifests* install: every entry's
    hash-space share of its path's traffic, at its node."""
    rules = {rule.index: rule for rule in problem.rules}
    cpu, mem, footprint = {}, {}, 0.0
    for node, manifest in manifests.items():
        for (name, pair), pieces in manifest.entries.items():
            rule = rules[int(name.removeprefix("rule"))]
            share = sum(piece.length for piece in pieces)
            cpu[node] = cpu.get(node, 0.0) + problem.pkts[pair] * rule.cpu_req * share
            mem[node] = mem.get(node, 0.0) + problem.items[pair] * rule.mem_req * share
            unwanted = problem.items[pair] * problem.match.rate(rule.index, pair)
            footprint += unwanted * share * problem.dist[pair][node]
    return cpu, mem, footprint


def all_enabled(problem):
    return {(rule.index, node): 1.0 for rule in problem.rules for node in problem.topology.node_names}


class TestInstalledRanges:
    """``enforce(disjoint=True)`` books each node's share from the rows
    ``generate_nips_manifests`` lays, so it simulates exactly what the
    manifests install."""

    def assert_books_what_is_installed(self, problem, solution):
        report = enforce(problem, solution, disjoint=True)
        cpu, mem, footprint = installed(problem, generate_nips_manifests(problem, solution))
        assert set(report.node_cpu_load) == set(cpu)
        assert set(report.node_mem_load) == set(mem)
        for node in cpu:
            assert report.node_cpu_load[node] == pytest.approx(cpu[node], rel=1e-12)
            assert report.node_mem_load[node] == pytest.approx(mem[node], rel=1e-12)
        assert report.footprint_removed == pytest.approx(footprint, rel=1e-12)
        return report

    def test_enforce_books_what_the_manifests_install(self, deployment):
        self.assert_books_what_is_installed(*deployment)

    def test_a_rounding_with_an_entry_under_epsilon(self):
        """GREEDY_LP leaves a d of 1.5e-16 here: laid by no manifest,
        booked by no node."""
        problem = small_problem(num_rules=5, cam=2.0, seed=2, num_nodes=6)
        best = best_of_roundings(problem, RoundingVariant.GREEDY_LP, iterations=4, seed=2)
        d = best.solution.d
        assert ((d > 0.0) & (d <= EPSILON)).any()
        self.assert_books_what_is_installed(problem, best.solution)

    def test_entries_at_or_under_epsilon_are_not_booked(self):
        problem = small_problem(num_rules=3, cam=3.0, seed=5, num_nodes=6)
        pair = ("n000", "n001")
        first, second = problem.paths[pair].nodes[:2]
        solution = oracle.solution_of(
            problem, all_enabled(problem), {(0, pair, first): 5e-10, (0, pair, second): 0.5}
        )
        report = self.assert_books_what_is_installed(problem, solution)
        assert first not in report.node_cpu_load
        assert report.modeled_cpu_load[first] > 0.0

    def test_mass_past_the_top_books_no_negative_share(self):
        """Sum d = 1 + 5.5e-7 on one path passes the feasibility check;
        the piece laid past the top is empty, not negative."""
        problem = small_problem(num_rules=3, cam=3.0, seed=5, num_nodes=6)
        pair = ("n000", "n001")
        first, second = problem.paths[pair].nodes[:2]
        solution = oracle.solution_of(
            problem, all_enabled(problem), {(0, pair, first): 1 + 5e-7, (0, pair, second): 5e-8}
        )
        assert problem.check(solution.e, solution.d) == []
        report = self.assert_books_what_is_installed(problem, solution)
        assert report.node_cpu_load[second] == 0.0
        assert min(np.array(list(report.node_cpu_load.values()))) >= 0.0
        assert report.footprint_removed == pytest.approx(report.modeled_objective, rel=1e-6)
        assert report.load_within_model()


class TestIndependentSampling:
    def test_independent_never_beats_disjoint(self, deployment):
        """Independent per-node sampling re-inspects flows already
        dropped upstream; disjoint ranges dominate it."""
        problem, solution = deployment
        disjoint = enforce(problem, solution, disjoint=True)
        independent = enforce(problem, solution, disjoint=False)
        assert independent.footprint_removed <= disjoint.footprint_removed + 1e-6

    def test_independent_loads_within_model(self, deployment):
        problem, solution = deployment
        report = enforce(problem, solution, disjoint=False)
        assert report.load_within_model()


class TestAgainstRelaxation:
    def test_enforced_rounded_solution_below_lp_bound(self, deployment):
        problem, solution = deployment
        relaxed = solve_relaxation(problem)
        report = enforce(problem, solution, disjoint=True)
        assert report.footprint_removed <= relaxed.objective + 1e-6

    def test_full_enablement_maximizes_drops(self):
        problem = small_problem(num_rules=3, cam=3.0, seed=17, num_nodes=5)
        all_on = [1.0] * problem.layout.num_e
        solution = solve_with_fixed_rules(compile_nips_polytope(problem), all_on)
        report = enforce(problem, solution)
        assert report.flows_dropped > 0


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


@given(seed=st.integers(min_value=0, max_value=500))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_property_disjoint_enforcement_realizes_objective(seed):
    """For any rounded deployment, disjoint-range enforcement realizes
    exactly the optimization objective and stays within the load model."""
    import random as _random

    from repro.core.rounding import RoundingVariant, rounded_deployment
    from repro.core.nips_milp import solve_relaxation as _relax

    problem = small_problem(num_rules=4, cam=2.0, seed=seed, num_nodes=5)
    relaxed = _relax(problem)
    result = rounded_deployment(
        compile_nips_polytope(problem),
        RoundingVariant.GREEDY_LP,
        _random.Random(seed),
        relaxed=relaxed,
    )
    report = enforce(problem, result.solution, disjoint=True)
    assert report.footprint_removed == pytest.approx(
        result.solution.objective, rel=1e-6, abs=1e-6
    )
    assert report.load_within_model()
