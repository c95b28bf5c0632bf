"""Tests for online adaptation (FPL, Section 3.5)."""

import random

import pytest

from repro.core.nips_milp import build_nips_problem, compile_nips_polytope
from repro.core.online import (
    FPLAdapter,
    FPLConfig,
    decision_value,
    run_online_adaptation,
    solve_best_response,
    state_vector,
    theoretical_epsilon,
)
from repro.experiments.online_adaptation import build_online_problem
from repro.nips.adversary import (
    EvasiveAdversary,
    ShiftingHotspotProcess,
    UniformProcess,
)
from tests import planning_oracle as oracle


def _everything_enabled(problem):
    """An ``e`` vector enabling every rule on every node (no TCAM online)."""
    return [1.0] * problem.layout.num_e


@pytest.fixture(scope="module")
def problem():
    return build_online_problem(num_rules=3, seed=1)


@pytest.fixture(scope="module")
def polytope(problem):
    return compile_nips_polytope(problem)


class TestStateVector:
    def test_components_match_formula(self, problem):
        rates = {(0, problem.pairs[0]): 0.01}
        state = oracle.d_dict(problem, state_vector(problem, rates))
        pair = problem.pairs[0]
        for node in problem.paths[pair].nodes:
            expected = problem.items[pair] * 0.01 * problem.dist[pair][node]
            assert state[(0, pair, node)] == pytest.approx(expected)
        assert sum(1 for value in state.values() if value) == len(problem.paths[pair].nodes)

    def test_zero_rates_empty_state(self, problem):
        assert not state_vector(problem, {}).any()

    def test_decision_value_dot_product(self, problem):
        pair = problem.pairs[0]
        node = problem.paths[pair].nodes[0]
        state = oracle.d_vector(problem, {(0, pair, node): 2.0})
        decision = oracle.d_vector(problem, {(0, pair, node): 3.0, (1, pair, node): 5.0})
        assert decision_value(problem, state, decision) == pytest.approx(6.0)


class TestBestResponse:
    def test_solution_in_polytope(self, problem, polytope):
        rates = {
            (rule.index, pair): 0.005
            for rule in problem.rules
            for pair in problem.pairs
        }
        weights = state_vector(problem, rates)
        decision = solve_best_response(polytope, weights)
        # Check Eq. 11 and capacities via the problem's checker with
        # all rules enabled (no TCAM constraint online).
        e = _everything_enabled(problem)
        violations = [
            v for v in problem.check_feasible(e, decision) if "TCAM" not in v
        ]
        assert violations == []

    def test_prefers_high_weight_components(self, problem, polytope):
        pair = problem.pairs[0]
        nodes = problem.paths[pair].nodes
        weights = {(0, pair, nodes[0]): 100.0, (0, pair, nodes[-1]): 1.0}
        decision = oracle.d_dict(
            problem, solve_best_response(polytope, oracle.d_vector(problem, weights))
        )
        assert decision[(0, pair, nodes[0])] >= decision[(0, pair, nodes[-1])]

    def test_nonpositive_weights_dropped(self, problem, polytope):
        weights = {(0, problem.pairs[0], problem.paths[problem.pairs[0]].nodes[0]): 0.0}
        decision = solve_best_response(polytope, oracle.d_vector(problem, weights))
        assert not decision.any()


class TestFPLAdapter:
    def test_theoretical_epsilon_positive(self, problem):
        assert theoretical_epsilon(problem, FPLConfig(epochs=100)) > 0

    def test_decide_advances_clock(self, problem):
        adapter = FPLAdapter(problem, FPLConfig(epochs=10, perturbation_scale=1e6))
        adapter.decide()
        assert adapter.t == 1
        adapter.observe({(0, problem.pairs[0]): 0.01})
        adapter.decide()
        assert adapter.t == 2

    def test_explicit_epsilon_respected(self, problem):
        adapter = FPLAdapter(problem, FPLConfig(epochs=10, epsilon=0.5))
        assert adapter.epsilon == 0.5

    def test_decisions_feasible_every_epoch(self, problem):
        adapter = FPLAdapter(problem, FPLConfig(epochs=5, perturbation_scale=1e6))
        process = UniformProcess(problem, seed=3)
        e = _everything_enabled(problem)
        for epoch in range(1, 4):
            decision = adapter.decide()
            violations = [
                v for v in problem.check_feasible(e, decision) if "TCAM" not in v
            ]
            assert violations == []
            adapter.observe(process(epoch, None))


class TestRegret:
    def test_regret_small_against_iid_uniform(self, problem):
        """Fig. 11's headline: regret within 15% of the best static
        solution in hindsight, trending toward zero."""
        process = UniformProcess(problem, seed=5)
        result = run_online_adaptation(
            problem,
            process,
            FPLConfig(epochs=40, perturbation_scale=1e6, seed=1),
            report_every=10,
        )
        assert result.final_regret <= 0.15
        regrets = [p.normalized_regret for p in result.points]
        assert regrets[-1] <= regrets[0] + 0.02  # non-increasing trend

    def test_points_accumulate(self, problem):
        process = UniformProcess(problem, seed=6)
        result = run_online_adaptation(
            problem,
            process,
            FPLConfig(epochs=20, perturbation_scale=1e6, seed=2),
            report_every=5,
        )
        epochs = [p.epoch for p in result.points]
        assert epochs == [5, 10, 15, 20]
        totals = [p.fpl_total for p in result.points]
        assert totals == sorted(totals)


class TestAdversaries:
    def test_uniform_rates_in_range(self, problem):
        process = UniformProcess(problem, seed=0, high=0.01)
        rates = process(1, None)
        assert len(rates) == len(problem.pairs) * problem.num_rules
        assert all(0.0 <= r <= 0.01 for r in rates.values())

    def test_shifting_hotspot_changes_phase(self, problem):
        process = ShiftingHotspotProcess(problem, seed=1, period=10, hot_count=3)
        early = process(1, None)
        late = process(25, None)
        hot_early = {k for k, v in early.items() if v > 0.01}
        hot_late = {k for k, v in late.items() if v > 0.01}
        assert len(hot_early) == 3
        assert hot_early != hot_late

    def test_evasive_adversary_targets_gap(self, problem):
        adversary = EvasiveAdversary(problem, seed=2, budget_rate=0.01)
        pair = problem.pairs[0]
        covered_decision = {
            (rule.index, p, problem.paths[p].nodes[0]): 1.0
            for rule in problem.rules
            for p in problem.pairs
            if p != pair or rule.index != 0
        }
        rates = adversary(2, oracle.d_vector(problem, covered_decision))
        hot = [k for k, v in rates.items() if v > 0]
        assert hot == [(0, pair)]

    def test_evasive_first_epoch_random_target(self, problem):
        adversary = EvasiveAdversary(problem, seed=3)
        rates = adversary(1, None)
        assert sum(1 for v in rates.values() if v > 0) == 1
