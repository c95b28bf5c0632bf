"""Tests for the NIPS MILP formulation (Eqs. 7-14)."""

import itertools
import random

import pytest

from repro.core.nips_milp import (
    INTERNET2_BASE_FLOWS,
    INTERNET2_BASE_PACKETS,
    NIPSProblem,
    build_nips_problem,
    compile_nips_polytope,
    solve_exact,
    solve_relaxation,
    solve_with_fixed_rules,
)
from repro.nips.rules import MatchRateMatrix, NIPSRule, unit_rules
from repro.topology import DistanceMetric, PathSet, internet2, random_pop_topology
from tests import planning_oracle as oracle


def small_problem(num_rules=4, cam=2.0, seed=5, num_nodes=5):
    topo = random_pop_topology(num_nodes, seed=seed).set_uniform_capacities(
        cpu=200_000.0, mem=50_000.0, cam=cam
    )
    rules = unit_rules(num_rules)
    pairs = [(a, b) for a in topo.node_names for b in topo.node_names if a != b]
    match = MatchRateMatrix.uniform(rules, pairs, random.Random(seed))
    return build_nips_problem(
        topo, rules, match, total_flows=500_000.0, total_packets=2_000_000.0
    )


@pytest.fixture(scope="module")
def i2_problem():
    topo = internet2().set_uniform_capacities(
        cpu=2_000_000.0, mem=400_000.0, cam=10.0
    )
    rules = unit_rules(30)
    pairs = [(a, b) for a in topo.node_names for b in topo.node_names if a != b]
    match = MatchRateMatrix.uniform(rules, pairs, random.Random(2))
    return build_nips_problem(topo, rules, match)


@pytest.fixture(scope="module")
def i2_polytope(i2_problem):
    return compile_nips_polytope(i2_problem)


class TestProblemConstruction:
    def test_volume_model_defaults(self, i2_problem):
        assert sum(i2_problem.items.values()) == pytest.approx(INTERNET2_BASE_FLOWS)
        assert sum(i2_problem.pkts.values()) == pytest.approx(INTERNET2_BASE_PACKETS)

    def test_volume_scales_with_network_size(self):
        topo = random_pop_topology(22, seed=1).set_uniform_capacities(cam=5.0)
        rules = unit_rules(5)
        pairs = [(a, b) for a in topo.node_names for b in topo.node_names if a != b]
        match = MatchRateMatrix.uniform(rules, pairs, random.Random(1))
        problem = build_nips_problem(topo, rules, match)
        assert sum(problem.items.values()) == pytest.approx(
            INTERNET2_BASE_FLOWS * 22 / 11
        )

    @pytest.mark.parametrize(
        "rate", [float("nan"), float("inf"), float("-inf"), -0.01, 1.01]
    )
    def test_a_match_rate_outside_the_unit_interval_names_its_rule_and_pair(self, rate):
        # NaN used to pass (it compares False both ways); Eq. 7 then
        # dropped the rule silently and greedy sorted a NaN gain.
        rates = {(0, ("a", "b")): 0.5, (3, ("b", "a")): rate}
        with pytest.raises(ValueError, match=r"^match rate .* for \(rule, pair\) "
                           r"\(3, \('b', 'a'\)\) is not in \[0, 1\]$"):
            MatchRateMatrix(rates)

    def test_a_problem_without_rules_is_refused(self):
        # It used to build, then fail inside build_nips_lp on an empty
        # polytope (``'NoneType' object has no attribute 'tocoo'``).
        topo = internet2().set_uniform_capacities(cam=1.0)
        with pytest.raises(ValueError, match="at least one rule"):
            build_nips_problem(topo, [], MatchRateMatrix({}))

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.0])
    def test_the_unit_interval_is_closed(self, rate):
        assert MatchRateMatrix({(0, ("a", "b")): rate}).rate(0, ("a", "b")) == rate

    def test_paths_and_dist_consistent(self, i2_problem):
        for pair, path in i2_problem.paths.items():
            dist = i2_problem.dist[pair]
            assert set(dist) == set(path.nodes)
            # Hops metric: ingress sees the whole path, egress sees 1.
            assert dist[path.nodes[0]] == len(path)
            assert dist[path.nodes[-1]] == 1.0

    def test_unit_distance_metric(self):
        topo = internet2().set_uniform_capacities(cam=3.0)
        rules = unit_rules(3)
        pairs = [("STTL", "NYCM")]
        match = MatchRateMatrix.uniform(rules, pairs, random.Random(0))
        problem = build_nips_problem(
            topo, rules, match, metric=DistanceMetric.UNIT
        )
        for dist in problem.dist.values():
            assert set(dist.values()) == {1.0}


def _check_feasible(problem, e, d):
    """``check_feasible`` at keyed ``e`` and ``d`` (0.0 where absent)."""
    return problem.check_feasible(oracle.e_vector(problem, e), oracle.d_vector(problem, d))


class TestObjectiveAndFeasibility:
    def test_objective_formula(self, i2_problem):
        pair = i2_problem.pairs[0]
        node = i2_problem.paths[pair].nodes[0]
        d = {(0, pair, node): 0.5}
        expected = (
            i2_problem.items[pair]
            * i2_problem.match.rate(0, pair)
            * i2_problem.dist[pair][node]
            * 0.5
        )
        assert i2_problem.objective(oracle.d_vector(i2_problem, d)) == pytest.approx(expected)

    def test_feasibility_checker_accepts_valid(self, i2_problem):
        pair = i2_problem.pairs[0]
        node = i2_problem.paths[pair].nodes[0]
        e = {(0, node): 1}
        d = {(0, pair, node): 0.001}
        assert _check_feasible(i2_problem, e, d) == []

    def test_feasibility_checker_catches_unlinked_d(self, i2_problem):
        pair = i2_problem.pairs[0]
        node = i2_problem.paths[pair].nodes[0]
        violations = _check_feasible(i2_problem, {}, {(0, pair, node): 0.5})
        assert any("exceeds e" in v for v in violations)

    def test_feasibility_checker_catches_cam_overflow(self, i2_problem):
        node = i2_problem.topology.node_names[0]
        e = {(i, node): 1 for i in range(30)}  # cam capacity is 10
        violations = _check_feasible(i2_problem, e, {})
        assert any("TCAM" in v for v in violations)

    def test_feasibility_checker_catches_path_oversampling(self, i2_problem):
        pair = i2_problem.pairs[0]
        nodes = i2_problem.paths[pair].nodes
        if len(nodes) < 2:
            pytest.skip("need a multi-hop path")
        e = {(0, n): 1 for n in nodes[:2]}
        d = {(0, pair, nodes[0]): 0.7, (0, pair, nodes[1]): 0.7}
        violations = _check_feasible(i2_problem, e, d)
        assert any("sum to" in v for v in violations)


class TestRelaxation:
    def test_relaxation_solution_feasible_fractionally(self, i2_problem):
        relaxed = solve_relaxation(i2_problem)
        assert relaxed.objective > 0
        # Fractional e is allowed in the relaxation; d <= e must hold.
        e = oracle.e_dict(i2_problem, relaxed.e)
        for (i, pair, node), value in oracle.d_dict(i2_problem, relaxed.d).items():
            assert value <= e[(i, node)] + 1e-6

    def test_relaxation_respects_cam_fractionally(self, i2_problem):
        relaxed = solve_relaxation(i2_problem)
        for node in i2_problem.topology.node_names:
            used = sum(
                value
                for (i, n), value in oracle.e_dict(i2_problem, relaxed.e).items()
                if n == node
            )
            assert used <= i2_problem.topology.node(node).cam_capacity + 1e-6

    def test_more_tcam_cannot_hurt(self):
        base = small_problem(cam=1.0)
        more = small_problem(cam=3.0)
        assert solve_relaxation(more).objective >= solve_relaxation(base).objective - 1e-6


class TestExactVsRelaxation:
    def test_relaxation_upper_bounds_exact(self):
        problem = small_problem(num_rules=3, cam=1.0, num_nodes=4)
        relaxed = solve_relaxation(problem)
        exact = solve_exact(problem)
        assert exact.optimal
        assert exact.objective <= relaxed.objective + 1e-6

    def test_exact_solution_feasible(self):
        problem = small_problem(num_rules=3, cam=1.0, num_nodes=4)
        built_exact = solve_exact(problem)
        # Reconstruct e/d maps from the named variables.
        e = {}
        d = {}
        for name, value in zip(built_exact.variable_names, built_exact.values):
            if name.startswith("e["):
                i, node = name[2:-1].split("|")
                e[(int(i), node)] = round(value)
            elif name.startswith("d["):
                i, pair_str, node = name[2:-1].split("|")
                a, b = pair_str.split("-")
                d[(int(i), (a, b), node)] = value
        assert _check_feasible(problem, e, d) == []


def _brute_force_optimum(problem):
    """``OptNIPS`` by enumeration, independent of any search: every
    placement ``e`` within each node's TCAM, its best ``d`` solved as a
    bounds view of the relaxation's polytope, the best of them kept."""
    polytope = compile_nips_polytope(problem)
    rules = problem.rules
    per_node = []
    for node in problem.topology.node_names:
        capacity = problem.topology.node(node).cam_capacity
        per_node.append(
            [
                {(rule.index, node) for rule in chosen}
                for size in range(len(rules) + 1)
                for chosen in itertools.combinations(rules, size)
                if sum(rule.cam_req for rule in chosen) <= capacity
            ]
        )
    best = 0.0
    for placement in itertools.product(*per_node):
        enabled = set().union(*placement)
        fixed = [float(key in enabled) for key in oracle.e_keys(problem)]
        best = max(best, solve_with_fixed_rules(polytope, fixed).objective)
    return best


class TestExactByEnumeration:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_rules=3, cam=1.0, num_nodes=4),
            dict(num_rules=2, cam=1.0, num_nodes=4, seed=9),
            dict(num_rules=4, cam=1.0, num_nodes=3, seed=9),
        ],
    )
    def test_exact_is_the_best_placement(self, kwargs):
        problem = small_problem(**kwargs)
        exact = solve_exact(problem)
        assert exact.optimal
        assert exact.objective == pytest.approx(_brute_force_optimum(problem), rel=1e-9)
        # Instances whose relaxation is fractional: integrality binds.
        assert solve_relaxation(problem).objective > exact.objective + 1.0


class TestFixedRuleLP:
    def test_restricted_lp_respects_placement(self, i2_problem, i2_polytope):
        # Enable rule 0 everywhere, others nowhere.
        fixed = {
            (i, node): (1 if i == 0 else 0)
            for i in range(i2_problem.num_rules)
            for node in i2_problem.topology.node_names
        }
        solution = solve_with_fixed_rules(i2_polytope, oracle.e_vector(i2_problem, fixed))
        for (i, pair, node), value in oracle.d_dict(i2_problem, solution.d).items():
            if i != 0:
                assert value == 0.0
        assert i2_problem.check_feasible(solution.e, solution.d) == []

    def test_restricted_never_beats_relaxation(self, i2_problem, i2_polytope):
        relaxed = solve_relaxation(i2_problem)
        fixed = {
            (i, node): (1 if i < 10 else 0)
            for i in range(i2_problem.num_rules)
            for node in i2_problem.topology.node_names
        }
        restricted = solve_with_fixed_rules(i2_polytope, oracle.e_vector(i2_problem, fixed))
        assert restricted.objective <= relaxed.objective + 1e-6

    def test_enabled_rules_listing(self, i2_problem, i2_polytope):
        fixed = {
            (i, node): (1 if i in (2, 5) else 0)
            for i in range(i2_problem.num_rules)
            for node in i2_problem.topology.node_names
        }
        solution = solve_with_fixed_rules(i2_polytope, oracle.e_vector(i2_problem, fixed))
        node = i2_problem.topology.node_names[0]
        assert solution.enabled_rules(node) == [2, 5]


class TestDegenerateCapacity:
    def test_empty_placement_returns_zero_deployment(self, i2_polytope):
        """A TCAM budget below one slot enables nothing; the restricted
        LP degenerates to the zero deployment instead of erroring."""
        solution = solve_with_fixed_rules(i2_polytope, [0.0] * i2_polytope.layout.num_e)
        assert solution.objective == 0.0
        assert solution.d.tolist() == [0.0] * i2_polytope.layout.num_d

    def test_rounding_survives_sub_slot_budget(self):
        """The full rounding pipeline on a problem whose TCAM cannot
        hold even one rule yields the (feasible) zero deployment."""
        import random

        from repro.core.rounding import RoundingVariant, rounded_deployment

        problem = small_problem(num_rules=3, cam=0.5, num_nodes=4)
        from repro.core.nips_milp import solve_relaxation as _relax

        relaxed = _relax(problem)
        result = rounded_deployment(
            compile_nips_polytope(problem),
            RoundingVariant.GREEDY_LP,
            random.Random(0),
            relaxed=relaxed,
        )
        assert result.solution.objective == 0.0
        assert problem.check_feasible(result.solution.e, result.solution.d) == []
