"""``NIPSProblem.check`` and ``objective`` as column passes, against
their dict walks.

A NIPS solution holds ``e`` and ``d`` as vectors in the problem's
layout, and Eqs. 7–13 are read off them as column passes: per-node and
per-path sums are ``np.bincount`` folds in ``d`` order, findings are
rendered for the failing entries only.  ``tests/planning_oracle.py``
keeps the dict walks they replaced (``check`` and ``objective``, fed
the same values keyed by (rule, node) and (rule, pair, node)); every
comparison here is ``==``, finding for finding and on the objective.

Seeded mutations each of which fails a test here: summing the
objective with ``np.sum`` (pairwise) instead of a left fold, which
already differs on the unperturbed relaxation, or keeping ``d > 0``
instead of skipping ``d <= 0`` (a NaN then drops out of the objective),
or dropping the finiteness rule (``test_a_nan_is_a_finding``);
reporting the capacities in reverse node order
(``test_perturbed_relaxations_agree_with_the_oracle``).
"""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.manifest import REP101
from repro.core.nips_milp import build_nips_problem, solve_relaxation
from repro.core.rounding import RoundingVariant, best_of_roundings
from repro.nips.rules import MatchRateMatrix, NIPSRule
from repro.topology.datasets import by_label
from tests import planning_oracle as oracle


def _rules(count):
    """Rules whose requirements differ, so no two coefficients coincide."""
    return [
        NIPSRule(
            index=i,
            name=f"rule-{i}",
            cpu_req=1.0 + 0.25 * i,
            mem_req=2.0 - 0.125 * i,
            cam_req=1.0 + (i % 2),
        )
        for i in range(count)
    ]


def _problem(label="internet2", num_rules=4, cam=3.0, seed=3):
    rules = _rules(num_rules)
    topology = by_label(label).set_uniform_capacities(cpu=2_000_000.0, mem=400_000.0, cam=cam)
    names = topology.node_names
    pairs = [(a, b) for a in names for b in names if a != b]
    match = MatchRateMatrix.uniform(rules, pairs, random.Random(seed))
    return build_nips_problem(topology, rules, match)


PROBLEM = _problem()
RELAXED = solve_relaxation(PROBLEM)


def _agree(problem, e, d):
    """The columnar check and objective equal the oracle's walks."""
    ours = problem.check(e, d)
    theirs = oracle.check(problem, oracle.e_dict(problem, e), oracle.d_dict(problem, d))
    assert ours == theirs
    objective = problem.objective(d)
    reference = oracle.objective(problem, oracle.d_dict(problem, d))
    assert objective == reference or (math.isnan(objective) and math.isnan(reference))
    return ours


# -- the two NaN cases that used to verify clean ------------------------------------
@pytest.mark.parametrize("vector", ["e", "d"])
def test_a_nan_is_a_finding(vector):
    e, d = RELAXED.e.copy(), RELAXED.d.copy()
    assert PROBLEM.check(e, d) == []
    # The relaxation's largest d and its Eq. 12 e: a NaN e_ij would
    # silently switch Eq. 12 off for the rule on that node.
    t = int(np.argmax(d))
    if vector == "e":
        e[PROBLEM.layout.enabler[t]] = math.nan
    else:
        d[t] = math.nan
    findings = _agree(PROBLEM, e, d)
    assert [f.rule_id for f in findings] == [REP101]
    assert findings[0].message.endswith(" nan is not a finite number (Eq. 13)")


def test_vectors_of_another_length_are_refused():
    layout = PROBLEM.layout
    with pytest.raises(ValueError, match=rf"this problem's layout has {layout.num_d} d entries"):
        PROBLEM.check(RELAXED.e, RELAXED.d[:-1])
    with pytest.raises(ValueError, match=rf"this problem's layout has {layout.num_e} e entries"):
        PROBLEM.check(np.append(RELAXED.e, 1.0), RELAXED.d)
    with pytest.raises(ValueError, match=rf"{layout.num_d} d entries"):
        PROBLEM.objective(np.zeros(layout.num_d + 1))


# -- solved and rounded solutions ----------------------------------------------------
@pytest.mark.parametrize("variant", list(RoundingVariant))
def test_solved_solutions_agree_with_the_oracle(variant):
    assert _agree(PROBLEM, RELAXED.e, RELAXED.d) == []
    best = best_of_roundings(PROBLEM, variant, iterations=2, seed=4, relaxed=RELAXED)
    assert _agree(PROBLEM, best.solution.e, best.solution.d) == []
    assert best.solution.objective == pytest.approx(PROBLEM.objective(best.solution.d), rel=1e-9)


# -- perturbed relaxations ---------------------------------------------------------------
SPECIAL = [math.nan, math.inf, -math.inf]


def _perturbations():
    """One edit of ``(e, d)``: a kind and where / how much."""
    return st.tuples(
        st.sampled_from(
            ["negative", "special", "e-special", "breach", "e-zero", "oversum", "scale", "cam"]
        ),
        st.integers(min_value=0, max_value=10**9),
        st.floats(min_value=1e-9, max_value=4.0, allow_nan=False),
    )


def _apply(problem, e, d, edit):
    kind, where, size = edit
    layout = problem.layout
    t, k = where % layout.num_d, where % layout.num_e
    if kind == "negative":
        d[t] = -size
    elif kind == "special":
        d[t] = SPECIAL[where % 3]
    elif kind == "e-special":
        e[k] = SPECIAL[where % 3]
    elif kind == "breach":  # Eq. 12 by size over its e_ij
        d[t] = e[layout.enabler[t]] + size
    elif kind == "e-zero":  # every d on it now breaches Eq. 12
        e[layout.enabler[t]] = 0.0
    elif kind == "oversum":  # Eq. 11 over the (rule, pair) of entry t
        same = (layout.rule_of == layout.rule_of[t]) & (layout.pair_of == layout.pair_of[t])
        d[same] = 0.5 + size
    elif kind == "scale":  # memory / CPU overflow everywhere it binds
        d *= 1.0 + size
    else:  # TCAM: enable every rule on one node
        e[k % len(layout.nodes) :: len(layout.nodes)] = 1.0 + size


@given(edits=st.lists(_perturbations(), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_perturbed_relaxations_agree_with_the_oracle(edits):
    e, d = RELAXED.e.copy(), RELAXED.d.copy()
    for edit in edits:
        _apply(PROBLEM, e, d, edit)
    _agree(PROBLEM, e, d)


@pytest.mark.parametrize("seed", range(3))
def test_every_kind_of_finding_agrees(seed):
    """One ``(e, d)`` carrying every finding the check renders."""
    rng = np.random.default_rng(seed)
    e, d = RELAXED.e.copy(), RELAXED.d.copy()
    edits = [(kind, int(rng.integers(10**9)), float(rng.uniform(0.01, 2.0))) for kind in (
        "negative", "special", "e-special", "breach", "e-zero", "oversum", "scale", "cam"
    )]
    for edit in edits:
        _apply(PROBLEM, e, d, edit)
    findings = _agree(PROBLEM, e, d)
    messages = " ".join(f.message for f in findings)
    for fragment in ("not a finite number", "is negative", "(Eq. 12)", "(Eq. 11)", "(Eq. 8)"):
        assert fragment in messages
