"""Section 3.3's rounding as vector passes, against its dict loops.

``repro.core.rounding`` draws ``ê`` as one comparison of a trial's
draws with the thresholds ``min(1, e*/alpha)``, repairs TCAM per node
over index lists and folds greedy's gains with ``np.bincount`` over the
layout's ``enabler`` index; ``ê`` and ``d̂`` are vectors in the
problem's layout.  ``tests/planning_oracle.py`` keeps the loops they
replaced (``round_enablement`` and ``greedy_fill``, keyed by
(rule, node) and (rule, pair, node)); every comparison here is ``==``
on the vectors, the oracle's keys read in layout order, with the trial
count and ``rng.getstate()`` included.

Seeded mutations each of which fails a test here: breaking greedy's
gain ties by key instead of by first visit
(``test_tied_gains_fill_in_first_visit_order``); taking greedy's
candidates from ``value > 0`` instead of ``M_ik > 0``
(``test_zero_gains_are_still_candidates``); drawing in sorted-key
order instead of ``e`` order (``test_enablement_is_the_oracles``);
folding the gains with ``np.add.reduceat`` instead of ``np.bincount``
(``test_gains_are_the_oracles``).
"""

import dataclasses
import random

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


def _same(keys, ours, theirs):
    """``==`` between a product ``e`` / ``d`` vector and the oracle's
    values keyed by *keys*, which hold every key, in order."""
    assert list(theirs) == keys
    assert ours.tolist() == list(theirs.values())


def _oracle_rounding(polytope, variant, rng, relaxed):
    """``rounded_deployment`` composed of the oracle's loops."""
    problem = polytope.problem
    e_hat, d_hat, trials = oracle.round_enablement(polytope, relaxed, rng)
    if variant is RoundingVariant.BASIC:
        solution = finish_basic(
            polytope, oracle.d_vector(problem, d_hat), oracle.e_vector(problem, e_hat)
        )
    elif variant is RoundingVariant.LP:
        solution = solve_with_fixed_rules(polytope, oracle.e_vector(problem, e_hat))
    else:
        filled = oracle.greedy_fill(problem, e_hat)
        solution = solve_with_fixed_rules(polytope, oracle.e_vector(problem, filled))
    return solution, trials


def _assert_same_rounding(polytope, relaxed, variant, seed):
    ours_rng, theirs_rng = random.Random(seed), random.Random(seed)
    ours = rounded_deployment(polytope, variant, ours_rng, relaxed=relaxed)
    solution, trials = _oracle_rounding(polytope, variant, theirs_rng, relaxed)
    assert ours.solution.e.tolist() == solution.e.tolist()
    assert ours.solution.d.tolist() == solution.d.tolist()
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
    e_keys, d_keys = oracle.e_keys(problem), oracle.d_keys(problem)
    for seed in range(3):
        ours_rng, theirs_rng = random.Random(seed), random.Random(seed)
        ours = round_enablement(polytope, relaxed, ours_rng)
        theirs = oracle.round_enablement(polytope, relaxed, theirs_rng)
        _same(e_keys, ours[0], theirs[0])
        _same(d_keys, ours[1], theirs[1])
        assert ours[2] == theirs[2]
        assert ours_rng.getstate() == theirs_rng.getstate()
        _same(e_keys, greedy_fill(problem, ours[0]), oracle.greedy_fill(problem, theirs[0]))
    _same_fill(problem, {})


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
    problem, relaxed = _relaxed(*cells[label])
    for seed in range(6):
        ours_rng, theirs_rng = random.Random(seed), random.Random(seed)
        ours = round_enablement(relaxed.polytope, relaxed, ours_rng, alpha, beta, max_trials)
        theirs = oracle.round_enablement(
            relaxed.polytope, relaxed, theirs_rng, alpha, beta, max_trials
        )
        if max_trials:
            _same(oracle.e_keys(problem), ours[0], theirs[0])
        else:  # no trial drew a key: the oracle's ê is empty
            assert theirs[0] == {} and not ours[0].any()
        _same(oracle.d_keys(problem), ours[1], theirs[1])
        assert ours[2] == theirs[2]
        assert ours_rng.getstate() == theirs_rng.getstate()


@pytest.mark.parametrize("cam_fraction", CAM_FRACTIONS)
@pytest.mark.parametrize("rates", RATES)
@pytest.mark.parametrize("label, num_rules", GRID)
def test_gains_are_the_oracles(label, num_rules, rates, cam_fraction):
    problem, _relaxation = _relaxed(label, num_rules, rates, cam_fraction)
    candidates, gains = rounding._greedy_gains(problem.layout)
    keys = oracle.e_keys(problem)
    ours = {keys[k]: gains[k] for k in candidates.tolist()}
    assert list(ours.items()) == list(oracle.greedy_gains(problem).items())


@pytest.mark.parametrize("variant", list(RoundingVariant))
@pytest.mark.parametrize("cam_fraction", CAM_FRACTIONS)
@pytest.mark.parametrize("label, num_rules", GRID)
def test_each_variant_is_the_oracles(label, num_rules, cam_fraction, variant):
    _problem_, relaxed = _relaxed(label, num_rules, "uniform", cam_fraction)
    _assert_same_rounding(relaxed.polytope, relaxed, variant, seed=7)


@pytest.mark.parametrize("variant", list(RoundingVariant))
@pytest.mark.parametrize("rates", RATES)
def test_best_of_roundings_is_the_oracle_loops(rates, variant):
    _assert_best_is_the_oracles(rates, variant, seed=5)


@pytest.mark.parametrize("seed", [6, 7])
@pytest.mark.parametrize("variant", list(RoundingVariant))
def test_best_of_roundings_is_the_oracle_loops_at_other_seeds(variant, seed):
    _assert_best_is_the_oracles("uniform", variant, seed)


class _KeptRandom(random.Random):
    """``random.Random`` that remembers each instance made."""

    made = []

    def __init__(self, *args):
        super().__init__(*args)
        self.made.append(self)


def _assert_best_is_the_oracles(rates, variant, seed):
    """``best_of_roundings`` is the oracle loops', the state its RNG is
    left in included."""
    problem, relaxed = _relaxed("Geant", 10, rates, 0.25)
    _KeptRandom.made.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rounding.random, "Random", _KeptRandom)
        best = best_of_roundings(problem, variant, iterations=3, seed=seed, relaxed=relaxed)
    (ours_rng,) = _KeptRandom.made
    rng = random.Random(seed)
    reference = None
    for _ in range(3):
        solution, trials = _oracle_rounding(relaxed.polytope, variant, rng, relaxed)
        if reference is None or solution.objective > reference[0].objective:
            reference = solution, trials
    assert best.solution.e.tolist() == reference[0].e.tolist()
    assert best.solution.d.tolist() == reference[0].d.tolist()
    assert best.solution.objective == reference[0].objective
    assert best.trials == reference[1]
    assert best.opt_lp == relaxed.objective
    assert ours_rng.getstate() == rng.getstate()


# -- crafted cases ------------------------------------------------------------------
def _same_fill(problem, e_hat):
    """``greedy_fill`` from the keyed *e_hat* is the oracle's fill."""
    ours = greedy_fill(problem, oracle.e_vector(problem, e_hat))
    assert ours.tolist() == oracle.e_vector(problem, oracle.greedy_fill(problem, e_hat)).tolist()
    return oracle.e_dict(problem, ours)


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
    _same_fill(problem, {})


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
    filled = _same_fill(problem, {})
    assert filled[(1, node)] == 1 and filled[(0, node)] == 0


def test_zero_rate_rules_are_never_candidates():
    problem = _exact_problem(
        lambda topology: {(i, pair): 0.5 * i for i in range(2) for pair in _pairs(topology)}
    )
    filled = _same_fill(problem, {})
    assert {i for (i, _node), on in filled.items() if on} == {1}


def test_zero_gains_are_still_candidates():
    # No flows: every gain is 0, yet every matching (rule, node) key is
    # a candidate and takes a free TCAM slot in first-visit order.
    rules = unit_rules(3)
    topology = _topology("internet2", 2.0)
    match = MatchRateMatrix.uniform(rules, _pairs(topology), random.Random(2))
    problem = build_nips_problem(topology, rules, match, total_flows=0.0)
    relaxed = solve_relaxation(problem)
    assert set(oracle.greedy_gains(problem).values()) == {0.0}
    filled = _same_fill(problem, {})
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
    assert again.solution.d.tolist() == first.solution.d.tolist()


@pytest.mark.parametrize("iterations", [0, -1])
def test_no_rounding_at_all_is_refused(iterations, monkeypatch):
    problem = _problem("internet2", 3, "uniform", 0.5)
    monkeypatch.setattr(rounding, "solve_relaxation", pytest.fail)
    with pytest.raises(ValueError, match=rf"^iterations must be >= 1, got {iterations}$"):
        best_of_roundings(problem, RoundingVariant.LP, iterations=iterations)
