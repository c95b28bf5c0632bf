"""Tests for the Fig. 9 randomized-rounding algorithms."""

import random

import pytest

from repro.core.nips_milp import compile_nips_polytope, solve_exact, solve_relaxation
from repro.core.rounding import (
    RoundingVariant,
    best_of_roundings,
    finish_basic,
    greedy_fill,
    round_enablement,
    rounded_deployment,
)
from tests import planning_oracle as oracle
from tests.test_nips_milp import small_problem


@pytest.fixture(scope="module")
def problem():
    return small_problem(num_rules=6, cam=2.0, seed=9, num_nodes=6)


@pytest.fixture(scope="module")
def polytope(problem):
    return compile_nips_polytope(problem)


@pytest.fixture(scope="module")
def relaxed(problem):
    return solve_relaxation(problem)


class TestRoundEnablement:
    def test_binary_output(self, problem, polytope, relaxed):
        e_hat, d_hat, trials = round_enablement(polytope, relaxed, random.Random(0))
        assert set(e_hat.tolist()) <= {0, 1}
        assert trials >= 1

    def test_cam_repaired(self, problem, polytope, relaxed):
        for seed in range(5):
            e_hat, _, _ = round_enablement(polytope, relaxed, random.Random(seed))
            for node in problem.topology.node_names:
                used = sum(
                    problem.rules[i].cam_req
                    for (i, n), v in oracle.e_dict(problem, e_hat).items()
                    if n == node and v
                )
                assert used <= problem.topology.node(node).cam_capacity + 1e-9

    def test_d_respects_e(self, problem, polytope, relaxed):
        e_hat, d_hat, _ = round_enablement(polytope, relaxed, random.Random(1))
        e_hat = oracle.e_dict(problem, e_hat)
        for (i, pair, node), value in oracle.d_dict(problem, d_hat).items():
            if not e_hat[(i, node)]:
                assert value == 0.0


class TestVariants:
    @pytest.mark.parametrize("variant", list(RoundingVariant))
    def test_all_variants_feasible(self, problem, polytope, relaxed, variant):
        result = rounded_deployment(
            polytope, variant, random.Random(3), relaxed=relaxed
        )
        # rounded_deployment itself asserts feasibility; double-check.
        assert problem.check_feasible(result.solution.e, result.solution.d) == []

    @pytest.mark.parametrize("variant", list(RoundingVariant))
    def test_never_exceeds_lp_bound(self, problem, polytope, relaxed, variant):
        result = rounded_deployment(
            polytope, variant, random.Random(4), relaxed=relaxed
        )
        assert result.solution.objective <= relaxed.objective + 1e-6
        assert 0.0 <= result.fraction_of_lp <= 1.0 + 1e-9

    def test_lp_resolve_beats_basic_scaling(self, problem, relaxed):
        """Section 3.3: re-solving the LP after rounding can only help
        relative to the conservative scaling."""
        basic = best_of_roundings(
            problem, RoundingVariant.BASIC, iterations=5, seed=7, relaxed=relaxed
        )
        lp = best_of_roundings(
            problem, RoundingVariant.LP, iterations=5, seed=7, relaxed=relaxed
        )
        assert lp.solution.objective >= basic.solution.objective - 1e-9

    def test_greedy_beats_plain_lp(self, problem, relaxed):
        lp = best_of_roundings(
            problem, RoundingVariant.LP, iterations=5, seed=7, relaxed=relaxed
        )
        greedy = best_of_roundings(
            problem, RoundingVariant.GREEDY_LP, iterations=5, seed=7, relaxed=relaxed
        )
        assert greedy.solution.objective >= lp.solution.objective - 1e-9

    def test_greedy_near_exact_on_small_instance(self, problem, relaxed):
        """On a tiny instance the greedy pipeline should approach the
        true integer optimum (Fig. 10b shows >=92% of even OptLP)."""
        exact = solve_exact(problem)
        greedy = best_of_roundings(
            problem, RoundingVariant.GREEDY_LP, iterations=8, seed=11, relaxed=relaxed
        )
        assert exact.optimal
        assert greedy.solution.objective >= 0.85 * exact.objective

    def test_exact_never_below_rounded(self, problem, relaxed):
        exact = solve_exact(problem)
        greedy = best_of_roundings(
            problem, RoundingVariant.GREEDY_LP, iterations=8, seed=11, relaxed=relaxed
        )
        assert exact.objective >= greedy.solution.objective - 1e-6


class TestGreedyFill:
    def test_fills_to_capacity(self, problem):
        filled = oracle.e_dict(problem, greedy_fill(problem, [0.0] * problem.layout.num_e))
        for node in problem.topology.node_names:
            used = sum(
                problem.rules[i].cam_req
                for (i, n), v in filled.items()
                if n == node and v
            )
            cap = problem.topology.node(node).cam_capacity
            assert used <= cap + 1e-9
            # With unit cam_req and more rules than capacity, the fill
            # should use every slot.
            assert used == pytest.approx(min(cap, problem.num_rules))

    def test_preserves_existing_enablement(self, problem):
        seeded = {(0, problem.topology.node_names[0]): 1}
        filled = greedy_fill(problem, oracle.e_vector(problem, seeded))
        assert oracle.e_dict(problem, filled)[(0, problem.topology.node_names[0])] == 1


class TestBestOfRoundings:
    def test_best_is_max_over_iterations(self, problem, polytope, relaxed):
        singles = [
            rounded_deployment(
                polytope, RoundingVariant.LP, random.Random(100 + k), relaxed=relaxed
            ).solution.objective
            for k in range(4)
        ]
        best = best_of_roundings(
            problem, RoundingVariant.LP, iterations=8, seed=42, relaxed=relaxed
        )
        # The best over 8 fresh draws is at least competitive with any
        # single observed draw's ballpark (sanity, not exact equality).
        assert best.solution.objective >= min(singles) - 1e-9

    def test_deterministic_given_seed(self, problem, relaxed):
        a = best_of_roundings(problem, RoundingVariant.LP, iterations=3, seed=5, relaxed=relaxed)
        b = best_of_roundings(problem, RoundingVariant.LP, iterations=3, seed=5, relaxed=relaxed)
        assert a.solution.objective == pytest.approx(b.solution.objective)
