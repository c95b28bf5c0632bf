"""Section 3.3's rounding as vector passes, against its dict loops.

``repro.core.rounding`` draws ``ê`` as one comparison of a trial's
draws with the thresholds ``min(1, e*/alpha)``, repairs TCAM per node
over index lists, folds greedy's gains with ``np.bincount`` over the
polytope's ``enabler`` index, and maps ``d`` back through
``np.flatnonzero``.  ``tests/planning_oracle.py`` keeps the loops they
replaced (``round_enablement``, ``greedy_fill`` and ``d_mapping``,
verbatim); every comparison here is ``==``, with dict key order, the
trial count and ``rng.getstate()`` included.

Seeded mutations each of which fails a test here: breaking greedy's
gain ties by key instead of by first visit
(``test_tied_gains_fill_in_first_visit_order``); taking greedy's
candidates from ``value > 0`` instead of ``M_ik > 0``
(``test_zero_gains_are_still_candidates``); drawing in sorted-key
order instead of ``relaxed.e`` order (``test_enablement_is_the_oracles``);
folding the gains with ``np.add.reduceat`` instead of ``np.bincount``
(``test_gains_are_the_oracles``).
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.core import rounding
from repro.core.nips_milp import (
    build_nips_problem,
    solve_relaxation,
    solve_with_fixed_rules,
)
from repro.core.rounding import (
    RoundingVariant,
    best_of_roundings,
    finish_basic,
    greedy_fill,
    round_enablement,
    rounded_deployment,
)
from repro.nips.rules import MatchRateMatrix, NIPSRule, unit_rules
from repro.topology.datasets import by_label
from tests import planning_oracle as oracle

# AS1239 keeps every 12th pair (221 of 2,652, all 52 nodes): the full
# relaxation under a binding TCAM takes half a minute.
GRID = [("internet2", 20), ("Geant", 10), ("AS1239", 4)]
STRIDE = {"AS1239": 12}
RATES = ["uniform", "exponential", "hotspot"]
CAM_FRACTIONS = [0.05, 0.25, 1.0]


def _topology(label, cam):
    return by_label(label).set_uniform_capacities(cpu=2_000_000.0, mem=400_000.0, cam=cam)


def _pairs(topology):
    names = topology.node_names
    return [(a, b) for a in names for b in names if a != b]


def _problem(label, num_rules, rates, cam_fraction, seed=4, rules=None):
    rules = rules or unit_rules(num_rules)
    topology = _topology(label, cam_fraction * len(rules))
    draw = getattr(MatchRateMatrix, rates)
    match = draw(rules, _pairs(topology), random.Random(seed))
    problem = build_nips_problem(topology, rules, match)
    stride = STRIDE.get(label, 1)
    paths = {pair: path for k, (pair, path) in enumerate(problem.paths.items()) if k % stride == 0}
    return dataclasses.replace(problem, paths=paths)


_RELAXED = {}


def _relaxed(label, num_rules, rates, cam_fraction):
    """``(problem, relaxation)`` per grid cell, solved once per session."""
    key = (label, num_rules, rates, cam_fraction)
    if key not in _RELAXED:
        problem = _problem(label, num_rules, rates, cam_fraction)
        _RELAXED[key] = problem, solve_relaxation(problem)
    return _RELAXED[key]


def _same(ours, theirs):
    """``==`` on two dicts, key order included."""
    assert list(ours.items()) == list(theirs.items())


def _oracle_rounding(polytope, variant, rng, relaxed):
    """``rounded_deployment`` composed of the oracle's loops."""
    e_hat, d_hat, trials = oracle.round_enablement(polytope, relaxed, rng)
    if variant is RoundingVariant.BASIC:
        solution = finish_basic(polytope, d_hat, e_hat)
    elif variant is RoundingVariant.LP:
        solution = solve_with_fixed_rules(polytope, e_hat)
    else:
        solution = solve_with_fixed_rules(polytope, oracle.greedy_fill(polytope.problem, e_hat))
    return solution, trials


def _assert_same_rounding(polytope, relaxed, variant, seed):
    ours_rng, theirs_rng = random.Random(seed), random.Random(seed)
    ours = rounded_deployment(polytope, variant, ours_rng, relaxed=relaxed)
    solution, trials = _oracle_rounding(polytope, variant, theirs_rng, relaxed)
    _same(ours.solution.e, solution.e)
    _same(ours.solution.d, solution.d)
    assert ours.solution.objective == solution.objective
    assert ours.trials == trials
    assert ours_rng.getstate() == theirs_rng.getstate()


# -- the grid ----------------------------------------------------------------------
@pytest.mark.parametrize("cam_fraction", CAM_FRACTIONS)
@pytest.mark.parametrize("rates", RATES)
@pytest.mark.parametrize("label, num_rules", GRID)
def test_enablement_is_the_oracles(label, num_rules, rates, cam_fraction):
    problem, relaxed = _relaxed(label, num_rules, rates, cam_fraction)
    polytope = relaxed.polytope
    for seed in range(3):
        ours_rng, theirs_rng = random.Random(seed), random.Random(seed)
        ours = round_enablement(polytope, relaxed, ours_rng)
        theirs = oracle.round_enablement(polytope, relaxed, theirs_rng)
        _same(ours[0], theirs[0])
        _same(ours[1], theirs[1])
        assert ours[2] == theirs[2]
        assert ours_rng.getstate() == theirs_rng.getstate()
        _same(greedy_fill(problem, ours[0]), oracle.greedy_fill(problem, theirs[0]))
    _same(greedy_fill(problem, {}), oracle.greedy_fill(problem, {}))


@pytest.mark.parametrize(
    "label, alpha, beta, max_trials",
    [
        ("internet2", 1.0, 0.4, 100),  # 7-28 trials
        ("Geant", 1.0, 0.5, 100),  # 10-45 trials, one seed exhausts the budget
        ("Geant", 1.0, 0.4, 6),  # every seed exhausts a small budget
        ("Geant", 2.0, 2.0, 0),  # no trial at all
    ],
)
def test_redrawn_enablement_is_the_oracles(label, alpha, beta, max_trials):
    cells = {
        "internet2": ("internet2", 20, "hotspot", 0.05),
        "Geant": ("Geant", 10, "uniform", 0.25),
    }
    _problem_, relaxed = _relaxed(*cells[label])
    for seed in range(6):
        ours_rng, theirs_rng = random.Random(seed), random.Random(seed)
        ours = round_enablement(relaxed.polytope, relaxed, ours_rng, alpha, beta, max_trials)
        theirs = oracle.round_enablement(
            relaxed.polytope, relaxed, theirs_rng, alpha, beta, max_trials
        )
        _same(ours[0], theirs[0])
        _same(ours[1], theirs[1])
        assert ours[2] == theirs[2]
        assert ours_rng.getstate() == theirs_rng.getstate()


@pytest.mark.parametrize("cam_fraction", CAM_FRACTIONS)
@pytest.mark.parametrize("rates", RATES)
@pytest.mark.parametrize("label, num_rules", GRID)
def test_gains_are_the_oracles(label, num_rules, rates, cam_fraction):
    _problem_, relaxed = _relaxed(label, num_rules, rates, cam_fraction)
    polytope = relaxed.polytope
    candidates, gains = rounding._greedy_gains(polytope)
    ours = {polytope.e_keys[k]: gains[k] for k in candidates.tolist()}
    _same(ours, oracle.greedy_gains(polytope.problem))


@pytest.mark.parametrize("variant", list(RoundingVariant))
@pytest.mark.parametrize("cam_fraction", CAM_FRACTIONS)
@pytest.mark.parametrize("label, num_rules", GRID)
def test_each_variant_is_the_oracles(label, num_rules, cam_fraction, variant):
    _problem_, relaxed = _relaxed(label, num_rules, "uniform", cam_fraction)
    _assert_same_rounding(relaxed.polytope, relaxed, variant, seed=7)


@pytest.mark.parametrize("variant", list(RoundingVariant))
@pytest.mark.parametrize("rates", RATES)
def test_best_of_roundings_is_the_oracle_loops(rates, variant):
    problem, relaxed = _relaxed("Geant", 10, rates, 0.25)
    best = best_of_roundings(problem, variant, iterations=3, seed=5, relaxed=relaxed)
    rng = random.Random(5)
    reference = None
    for _ in range(3):
        solution, trials = _oracle_rounding(relaxed.polytope, variant, rng, relaxed)
        if reference is None or solution.objective > reference[0].objective:
            reference = solution, trials
    _same(best.solution.e, reference[0].e)
    _same(best.solution.d, reference[0].d)
    assert best.solution.objective == reference[0].objective
    assert best.trials == reference[1]
    assert best.opt_lp == relaxed.objective


@pytest.mark.parametrize("seed", [0, 3])
def test_d_mapping_is_the_oracles(seed):
    _problem_, relaxed = _relaxed("Geant", 10, "uniform", 0.25)
    polytope = relaxed.polytope
    rng = np.random.default_rng(seed)
    values = rng.random(len(polytope.d_keys)).tolist()
    for kept in (
        rng.random(len(values)) < 0.1,
        (rng.random(len(values)) < 0.5).astype(float),
        np.zeros(len(values)),
    ):
        _same(polytope.d_mapping(values, kept), oracle.d_mapping(polytope, values, kept))


# -- crafted cases ------------------------------------------------------------------
def _exact_problem(rates):
    """Internet2 with every pair's volume 1.0 and hop distances, so a
    gain is a sum of small dyadic numbers and equal gains tie exactly."""
    rules = unit_rules(2)
    topology = _topology("internet2", 1.0)
    problem = build_nips_problem(topology, rules, MatchRateMatrix(rates(topology)))
    return dataclasses.replace(problem, items={pair: 1.0 for pair in problem.items})


def test_equal_rates_tie_and_fill_as_the_oracle():
    problem = _exact_problem(
        lambda topology: {(i, pair): 0.5 for i in range(2) for pair in _pairs(topology)}
    )
    gains = oracle.greedy_gains(problem)
    assert len(set(gains.values())) < len(gains)  # ties exist
    _same(greedy_fill(problem, {}), oracle.greedy_fill(problem, {}))


def test_tied_gains_fill_in_first_visit_order():
    """Rule 1 is visited first at a node where rule 0 ties it on gain:
    greedy's one TCAM slot there goes to rule 1, not to the smaller key."""
    topology = _topology("internet2", 1.0)
    pairs = _pairs(topology)
    dist = build_nips_problem(topology, unit_rules(2), MatchRateMatrix({})).dist
    # The first pair through a node, and a later one crossing it at the
    # same distance: rule 0 skips the first, rule 1 the later one.
    node, first, later = next(
        (node, through[0], other)
        for node in topology.node_names
        for through in [[pair for pair in pairs if node in dist[pair]]]
        for other in through[1:]
        if dist[other][node] == dist[through[0]][node] > 0.0
    )
    problem = _exact_problem(
        lambda topology: {
            (i, pair): 0.0 if (i, pair) in {(0, first), (1, later)} else 0.5
            for i in range(2)
            for pair in pairs
        }
    )
    gains = oracle.greedy_gains(problem)
    assert gains[(0, node)] == gains[(1, node)]
    filled = greedy_fill(problem, {})
    _same(filled, oracle.greedy_fill(problem, {}))
    assert filled[(1, node)] == 1 and (0, node) not in filled


def test_zero_rate_rules_are_never_candidates():
    problem = _exact_problem(
        lambda topology: {(i, pair): 0.5 * i for i in range(2) for pair in _pairs(topology)}
    )
    filled = greedy_fill(problem, {})
    _same(filled, oracle.greedy_fill(problem, {}))
    assert {i for i, _node in filled} == {1}


def test_zero_gains_are_still_candidates():
    # No flows: every gain is 0, yet every matching (rule, node) key is
    # a candidate and takes a free TCAM slot in first-visit order.
    rules = unit_rules(3)
    topology = _topology("internet2", 2.0)
    match = MatchRateMatrix.uniform(rules, _pairs(topology), random.Random(2))
    problem = build_nips_problem(topology, rules, match, total_flows=0.0)
    relaxed = solve_relaxation(problem)
    assert set(oracle.greedy_gains(problem).values()) == {0.0}
    filled = greedy_fill(problem, {})
    _same(filled, oracle.greedy_fill(problem, {}))
    assert sum(filled.values()) == 2 * len(topology)
    for variant in RoundingVariant:
        _assert_same_rounding(relaxed.polytope, relaxed, variant, seed=1)


def test_uneven_tcam_needs_repair_as_the_oracle():
    rules = [
        NIPSRule(index=i, name=f"rule-{i}", cam_req=0.1 + 0.7 * (i % 3)) for i in range(9)
    ]
    problem = _problem("Geant", 9, "hotspot", 0.2, rules=rules)
    relaxed = solve_relaxation(problem)
    for variant in RoundingVariant:
        for seed in range(3):
            _assert_same_rounding(relaxed.polytope, relaxed, variant, seed)


def test_a_relaxation_with_other_keys_draws_as_the_oracle():
    # Shuffled, one key missing (its e_ij reads as 0) and one the
    # polytope does not know (drawn for, never spread onto d).
    problem, relaxed = _relaxed("internet2", 20, "uniform", 0.25)
    keys = random.Random(1).sample(list(relaxed.e), len(relaxed.e) - 1)
    other = {key: relaxed.e[key] for key in keys[:5]}
    other[(0, "elsewhere")] = 0.75
    other.update((key, relaxed.e[key]) for key in keys[5:])
    for variant in RoundingVariant:
        _assert_same_rounding(
            relaxed.polytope, dataclasses.replace(relaxed, e=other), variant, seed=2
        )


# -- one polytope per relaxation ------------------------------------------------------
def test_roundings_reuse_the_relaxations_polytope_for_its_problem_only(monkeypatch):
    problem, relaxed = _relaxed("internet2", 20, "uniform", 0.25)
    compiled = []
    real = rounding.compile_nips_polytope
    monkeypatch.setattr(
        rounding, "compile_nips_polytope", lambda p: compiled.append(p) or real(p)
    )
    best_of_roundings(problem, RoundingVariant.LP, iterations=2, relaxed=relaxed)
    assert compiled == []
    twin = dataclasses.replace(problem)
    again = best_of_roundings(twin, RoundingVariant.LP, iterations=2, relaxed=relaxed)
    assert compiled == [twin]
    first = best_of_roundings(problem, RoundingVariant.LP, iterations=2, relaxed=relaxed)
    _same(again.solution.d, first.solution.d)


@pytest.mark.parametrize("iterations", [0, -1])
def test_no_rounding_at_all_is_refused(iterations, monkeypatch):
    problem = _problem("internet2", 3, "uniform", 0.5)
    monkeypatch.setattr(rounding, "solve_relaxation", pytest.fail)
    with pytest.raises(ValueError, match=rf"^iterations must be >= 1, got {iterations}$"):
        best_of_roundings(problem, RoundingVariant.LP, iterations=iterations)
