"""The one NIPS layout against the per-term oracle (``tests/planning_oracle.py``).

``repro.core.nips_milp.compile_nips_polytope`` states Eqs. 7 and 9–11
once; the relaxation wraps it, and the fixed-``e`` re-solve, the FPL
best response and branch-and-bound are bounds/cost views.  The oracle
is the parent's expression-built ``build_nips_lp`` (with its
``fixed_e=`` fork) and ``solve_best_response`` builder, verbatim.

Seeded mutations each of which fails a test here: swapping the memory
and CPU coefficient vectors, or grouping Eq. 11 rows by (rule, node)
instead of (rule, pair) (``test_relaxation_compiles_to_the_oracles_arrays``);
taking Eq. 12's bound from the wrong node
(``test_fixed_rules_match_the_rebuilt_program``); dropping the
``weight <= 0 => ub = 0`` rule
(``test_non_positive_weights_are_fixed_at_zero``); letting
``with_bounds`` write through to the shared program
(``test_views_share_matrices_and_leave_the_source_alone``,
``test_a_placement_solves_the_same_before_and_after_another``).
"""

import random

import numpy as np
import pytest

from repro.core import online
from repro.core.nips_milp import (
    build_nips_lp,
    build_nips_problem,
    compile_nips_polytope,
    solve_exact,
    solve_relaxation,
    solve_with_fixed_rules,
)
from repro.core.online import (
    FPLConfig,
    decision_value,
    run_online_adaptation,
    solve_best_response,
    state_vector,
)
from repro.core.rounding import (
    RoundingVariant,
    best_of_roundings,
    greedy_fill,
    round_enablement,
)
from repro.lp.milp import solve_milp
from repro.lp.model import LinearProgram
from repro.lp.solver import solve
from repro.nips.adversary import UniformProcess
from repro.nips.rules import MatchRateMatrix, NIPSRule, unit_rules
from repro.obs import MetricsRegistry, use_registry
from repro.topology.datasets import by_label
from tests import planning_oracle as oracle
from tests.lp_expressions import value
from tests.test_nips_milp import small_problem
from tests.test_planning_columns import _assert_same_compile

REL = 1e-9


def _problem(label, num_rules, seed, cam_fraction=0.1, rules=None):
    rules = rules or unit_rules(num_rules)
    topology = by_label(label).set_uniform_capacities(
        cpu=2_000_000.0, mem=400_000.0, cam=max(1.0, cam_fraction * len(rules))
    )
    names = topology.node_names
    pairs = [(a, b) for a in names for b in names if a != b]
    match = MatchRateMatrix.uniform(rules, pairs, random.Random(seed))
    return build_nips_problem(topology, rules, match)


def _uneven_rules(count):
    """Rules whose three requirements all differ, so no two coefficient
    vectors coincide by accident."""
    return [
        NIPSRule(
            index=i,
            name=f"rule-{i}",
            cpu_req=1.0 + 0.25 * i,
            mem_req=2.0 - 0.125 * i,
            cam_req=1.0 + (i % 3),
        )
        for i in range(count)
    ]


# -- the relaxation is the parent's program ------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "label, num_rules", [("internet2", 10), ("Geant", 6), ("AS1221", 2)]
)
def test_relaxation_compiles_to_the_oracles_arrays(label, num_rules, seed):
    problem = _problem(label, num_rules, seed)
    built, reference = build_nips_lp(problem), oracle.build_nips_lp(problem)
    assert built.program.num_constraints == reference.program.num_constraints
    # Variables are e_keys then d_keys, as the oracle numbered them.
    keys = built.polytope.e_keys + built.polytope.d_keys
    assert keys == list(reference.e_vars) + list(reference.d_vars)
    assert list(range(len(keys))) == [
        var.index for var in (*reference.e_vars.values(), *reference.d_vars.values())
    ]
    _assert_same_compile(built.program.compile(), reference.program.compile())


def test_uneven_requirements_and_capacities_compile_alike():
    problem = _problem("internet2", 5, seed=4, rules=_uneven_rules(5))
    for index, name in enumerate(problem.topology.node_names):
        problem.topology.scale_capacity(
            name, cpu_factor=1.0 + 0.37 * (index % 5), mem_factor=3.0 / (1 + index % 3)
        )
    for integral in (False, True):
        built = build_nips_lp(problem, integral=integral)
        reference = oracle.build_nips_lp(problem, integral=integral)
        assert built.program.binary_indices == reference.program.binary_indices
        _assert_same_compile(built.program.compile(), reference.program.compile())


def test_relaxation_solution_equals_the_oracles():
    problem = _problem("internet2", 10, seed=2)
    reference = oracle.build_nips_lp(problem)
    solution = solve(reference.program)
    relaxed = solve_relaxation(problem)
    assert relaxed.objective == solution.objective
    assert relaxed.e == {k: value(solution, v) for k, v in reference.e_vars.items()}
    assert relaxed.d == {k: value(solution, v) for k, v in reference.d_vars.items()}


def test_a_zero_rate_rule_costs_nothing_and_is_never_sampled():
    rules = unit_rules(4)
    topology = by_label("internet2").set_uniform_capacities(
        cpu=2_000_000.0, mem=400_000.0, cam=4.0
    )
    names = topology.node_names
    pairs = [(a, b) for a in names for b in names if a != b]
    rates = dict(MatchRateMatrix.uniform(rules, pairs, random.Random(8)).items())
    rates = {key: (0.0 if key[0] == 2 else rate) for key, rate in rates.items()}
    problem = build_nips_problem(topology, rules, MatchRateMatrix(rates))

    built, reference = build_nips_lp(problem), oracle.build_nips_lp(problem)
    _assert_same_compile(built.program.compile(), reference.program.compile())
    polytope = built.polytope
    assert not any(
        cost for key, cost in zip(polytope.d_keys, polytope.compiled.cost) if key[0] == 2
    )
    everything = {key: 1 for key in polytope.e_keys}
    ours = solve_with_fixed_rules(polytope, everything)
    theirs = oracle.solve_with_fixed_rules(problem, everything)
    assert ours.objective == pytest.approx(theirs.objective, rel=REL)
    assert problem.check(ours.e, ours.d) == []


# -- fixed e is a bound ----------------------------------------------------------
@pytest.mark.parametrize("cam_fraction", [0.05, 0.1, 0.15, 0.25])
@pytest.mark.parametrize("label, num_rules", [("internet2", 20), ("Geant", 8)])
def test_fixed_rules_match_the_rebuilt_program(label, num_rules, cam_fraction):
    problem = _problem(label, num_rules, seed=3, cam_fraction=cam_fraction)
    polytope = compile_nips_polytope(problem)
    relaxed = solve_relaxation(problem)
    rng = random.Random(11)
    for _ in range(2):
        e_hat, _d_hat, _trials = round_enablement(polytope, relaxed, rng)
        for placement in (e_hat, greedy_fill(problem, e_hat)):
            ours = solve_with_fixed_rules(polytope, placement)
            theirs = oracle.solve_with_fixed_rules(problem, placement)
            assert ours.objective == pytest.approx(theirs.objective, rel=REL)
            assert ours.e == theirs.e
            assert list(ours.d) == list(theirs.d)
            assert problem.check(ours.e, ours.d) == []


def test_a_placement_solves_the_same_before_and_after_another():
    problem = _problem("internet2", 8, seed=5, cam_fraction=0.25)
    polytope = compile_nips_polytope(problem)
    nodes = problem.topology.node_names
    first = {(i, node): int(i < 2) for i in range(8) for node in nodes}
    second = {(i, node): int(i >= 6 and node == nodes[0]) for i in range(8) for node in nodes}
    before = solve_with_fixed_rules(polytope, first)
    other = solve_with_fixed_rules(polytope, second)
    after = solve_with_fixed_rules(polytope, first)
    assert other.objective < before.objective
    assert after.objective == before.objective
    assert after.d == before.d


def test_views_share_matrices_and_leave_the_source_alone():
    polytope = compile_nips_polytope(_problem("internet2", 3, seed=6))
    compiled = polytope.compiled
    bounds, cost = list(compiled.bounds), list(compiled.cost)
    size = compiled.num_variables

    bounded = compiled.with_bounds(0.0, np.zeros(size))
    costed = bounded.with_cost(np.ones(size))
    for view in (bounded, costed):
        assert view is not compiled
        assert view.a_ub is compiled.a_ub and view.b_ub is compiled.b_ub
        assert view.variable_names is compiled.variable_names
        assert view.name == compiled.name == "nips-polytope"
    assert list(compiled.bounds) == bounds and list(compiled.cost) == cost
    assert bounded.bounds.tolist() == [[0.0, 0.0]] * size
    assert list(bounded.cost) == cost
    assert costed.bounds is bounded.bounds
    # A maximization's cost is negated for the backend, once.
    assert compiled.maximize and list(costed.cost) == [-1.0] * size
    assert costed.objective_value(np.full(size, 0.5)) == 0.5 * size


def test_columns_fixed_at_zero_never_reach_the_backend(monkeypatch):
    from repro.lp import solver

    problem = _problem("internet2", 6, seed=9, cam_fraction=0.25)
    polytope = compile_nips_polytope(problem)
    nodes = problem.topology.node_names
    placement = {(i, node): int(i == 4) for i in range(6) for node in nodes}
    enabled = polytope.enabler_values(placement) > 0
    widths = []

    def spy(cost, a_ub, b_ub, a_eq, b_eq, bounds):
        widths.append((len(cost), a_ub.shape[1], len(bounds)))
        return real(cost, a_ub, b_ub, a_eq, b_eq, bounds)

    real = solver.backend
    monkeypatch.setattr(solver, "backend", spy)
    registry = MetricsRegistry()
    with use_registry(registry):
        solution = solve(polytope.compiled.with_bounds(0.0, enabled))

    assert widths == [(int(enabled.sum()),) * 3]
    assert len(solution.values) == len(enabled)
    assert not np.asarray(solution.values)[~enabled].any()
    assert registry.get("lp_variables").sum() == len(enabled)  # the program's size
    reference = oracle.solve_with_fixed_rules(problem, placement)
    assert solution.objective == pytest.approx(reference.objective, rel=REL)


# -- FPL's best response is a cost view --------------------------------------------
def _perturbed_weights(problem, rng):
    """Dense non-negative weights in the adapter's (pair, rule, node) order."""
    return {
        (rule.index, pair, node): rng.random() * problem.items[pair] * problem.dist[pair][node]
        for pair in problem.pairs
        for rule in problem.rules
        for node in problem.paths[pair].nodes
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_best_response_matches_the_oracles_builder(seed):
    problem = _problem("internet2", 6, seed=seed)
    polytope = compile_nips_polytope(problem)
    rng = random.Random(seed)
    sparse = state_vector(
        problem,
        {(i, pair): rng.random() * 0.01 for i in (0, 3) for pair in problem.pairs[::3]},
    )
    signed = {
        key: weight * (1.0 if rng.random() < 0.7 else -1.0)
        for key, weight in _perturbed_weights(problem, rng).items()
    }
    for weights in (_perturbed_weights(problem, rng), sparse, signed):
        ours = solve_best_response(polytope, weights)
        theirs = oracle.solve_best_response(problem, weights)
        assert set(ours) == set(theirs) == {k for k, w in weights.items() if w > 0.0}
        assert decision_value(weights, ours) == pytest.approx(
            decision_value(weights, theirs), rel=REL
        )


def test_non_positive_weights_are_fixed_at_zero(monkeypatch):
    problem = _problem("internet2", 3, seed=7)
    polytope = compile_nips_polytope(problem)
    keys = polytope.d_keys
    weights = {key: float(index % 3 - 1) for index, key in enumerate(keys)}  # -1, 0, 1
    solved = []

    def spy(program):
        solved.append(program)
        return real(program)

    real = online.solve_or_raise
    monkeypatch.setattr(online, "solve_or_raise", spy)
    decision = solve_best_response(polytope, weights)

    (program,) = solved
    assert program.bounds[:, 0].tolist() == [0.0] * len(keys)
    assert program.bounds[:, 1].tolist() == [float(weights[key] > 0.0) for key in keys]
    assert list(decision) == [key for key in keys if weights[key] > 0.0]
    assert solve_best_response(polytope, {key: min(w, 0.0) for key, w in weights.items()}) == {}
    assert solved[1:] == []  # nothing worth filtering: no solve at all


# -- branch-and-bound is a bounds view ------------------------------------------------
@pytest.mark.parametrize(
    "kwargs, objective, nodes",
    [
        (dict(num_rules=3, cam=1.0, num_nodes=4), 3770.823258294558, 9),
        (dict(num_rules=4, cam=2.0, num_nodes=5), 5817.203685399809, 7),
        (dict(num_rules=3, cam=1.0, num_nodes=5, seed=9), 3697.303866033596, 9),
    ],
)
def test_exact_solve_is_the_parents(kwargs, objective, nodes):
    """Objective and search tree pinned at the parent commit's values,
    and equal on the oracle-built program."""
    problem = small_problem(**kwargs)
    program = build_nips_lp(problem, integral=True).program
    lower, upper = list(program.lower_bounds), list(program.upper_bounds)
    exact = solve_exact(problem)
    reference = solve_milp(oracle.build_nips_lp(problem, integral=True).program, max_nodes=2000)
    for result in (exact, reference):
        assert result.objective == pytest.approx(objective, rel=REL)
        assert result.proved_optimal
        assert result.nodes_explored == nodes
    assert exact.values == reference.values
    solve_milp(program)
    assert (program.lower_bounds, program.upper_bounds) == (lower, upper)


# -- whoever loops compiles once -------------------------------------------------------
@pytest.fixture
def compiles(monkeypatch):
    calls = []
    real = LinearProgram.compile

    def counted(self):
        calls.append(self.name)
        return real(self)

    monkeypatch.setattr(LinearProgram, "compile", counted)
    return calls


def test_ten_roundings_compile_the_polytope_once(compiles):
    problem = _problem("internet2", 10, seed=1)
    relaxed = solve_relaxation(problem)
    del compiles[:]
    registry = MetricsRegistry()
    with use_registry(registry):
        best_of_roundings(
            problem, RoundingVariant.GREEDY_LP, iterations=10, seed=3, relaxed=relaxed
        )
    assert compiles == ["nips-polytope"]
    # Every re-solve still goes through the one metrics funnel.
    size = len(relaxed.d)
    assert registry.get("lp_solves_total").value(status="optimal") == 10
    assert registry.get("lp_variables").count() == 10
    assert registry.get("lp_variables").sum() == 10 * size
    assert registry.get("lp_iterations").count() == 10


def test_fifty_fpl_epochs_compile_once(compiles):
    problem = _problem("internet2", 3, seed=1, cam_fraction=1.0)
    registry = MetricsRegistry()
    with use_registry(registry):
        result = run_online_adaptation(
            problem,
            UniformProcess(problem, seed=5),
            FPLConfig(epochs=50, perturbation_scale=1e6, seed=1),
            report_every=10,
        )
    assert [point.epoch for point in result.points] == [10, 20, 30, 40, 50]
    assert compiles == ["nips-polytope"]
    assert registry.get("lp_solves_total").value(status="optimal") == 55
