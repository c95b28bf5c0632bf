"""Tests for the NIPS enforcement simulation."""

import random

import pytest

from repro.core.nips_milp import (
    compile_nips_polytope,
    solve_relaxation,
    solve_with_fixed_rules,
)
from repro.core.rounding import RoundingVariant, best_of_roundings
from repro.nips.enforcement import enforce
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
