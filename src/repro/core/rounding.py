"""Randomized-rounding approximation for NIPS deployment (Fig. 9).

The exact problem is NP-hard, so the paper rounds the LP relaxation:

1. Solve the relaxation for ``e*``, ``d*``; let ``eps = d*/e*``.
2. Repeatedly draw ``ê_ij = 1`` with probability ``e*_ij / alpha``
   until the induced ``d̂ = eps * ê`` violates no capacity constraint
   (Eqs. 9–11) by more than a factor ``beta * log N``.
3. Zero out ``ê`` entries as needed to repair TCAM violations (Eq. 8).
4. Scale ``eps`` down by ``beta * log N`` so Eqs. 9–11 hold exactly.

This guarantees an ``Omega(1 / log N)`` fraction of ``OptLP`` in
expectation.  Two practical improvements (Section 3.3) replace the
conservative scaling:

* **Rounding + LP re-solve** — fix ``ê`` and solve the d-only LP
  (Fig. 10a: ≥~70% of OptLP);
* **Rounding + greedy + LP re-solve** — additionally enable more rules
  greedily while TCAM capacity remains, then solve the d-only LP
  (Fig. 10b: ≥92% of OptLP).

Both improvements "do not affect feasibility and can only improve the
value of the objective function".
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .manifest import raise_first
from .nips_milp import (
    DKey,
    EKey,
    NIPSPolytope,
    NIPSProblem,
    NIPSSolution,
    compile_nips_polytope,
    solve_relaxation,
    solve_with_fixed_rules,
)

_TINY = 1e-9


class RoundingVariant(enum.Enum):
    """The three algorithm variants evaluated in Section 3.4."""

    BASIC = "basic"  # Fig. 9 verbatim, conservative scaling
    LP = "round+lp"  # Fig. 10(a)
    GREEDY_LP = "round+greedy+lp"  # Fig. 10(b)


@dataclass
class RoundedSolution:
    """Result of one rounding run."""

    variant: RoundingVariant
    solution: NIPSSolution
    trials: int
    opt_lp: float

    @property
    def fraction_of_lp(self) -> float:
        """Objective as a fraction of the LP upper bound (Fig. 10 y-axis)."""
        return self.solution.objective / self.opt_lp if self.opt_lp > 0 else 0.0


def _violation_factor(polytope: NIPSPolytope, d: np.ndarray) -> float:
    """Largest factor by which Eqs. 9–11 are exceeded at the ``d``-block
    vector *d* (1.0 = feasible): ``max(A · d / b)`` over the polytope's
    own rows (a zero-capacity row has no factor)."""
    compiled = polytope.compiled
    bounded = compiled.b_ub > 0
    load = compiled.a_ub @ d
    return float(np.max(load[bounded] / compiled.b_ub[bounded], initial=1.0))


def _repair_cam(
    problem: NIPSProblem, e_hat: Dict[EKey, int], rng: random.Random
) -> None:
    """Zero ``ê`` entries until every node's TCAM constraint holds.

    The paper drops entries "arbitrarily"; we drop uniformly at random
    among the node's enabled rules, which keeps the repair unbiased.
    """
    for node_name in problem.topology.node_names:
        cap = problem.topology.node(node_name).cam_capacity
        enabled = [
            (i, node_name)
            for (i, n), value in e_hat.items()
            if n == node_name and value
        ]
        used = sum(problem.rules[i].cam_req for i, _ in enabled)
        while used > cap + _TINY and enabled:
            victim = enabled.pop(rng.randrange(len(enabled)))
            e_hat[victim] = 0
            used -= problem.rules[victim[0]].cam_req


def round_enablement(
    polytope: NIPSPolytope,
    relaxed: NIPSSolution,
    rng: random.Random,
    alpha: float = 2.0,
    beta: float = 2.0,
    max_trials: int = 100,
) -> Tuple[Dict[EKey, int], Dict[DKey, float], int]:
    """Fig. 9 lines 3–10: rounded ``ê``, induced ``d̂``, trials used.

    The returned ``d̂`` is *unscaled* (pre line 11); callers choose
    between conservative scaling (:func:`finish_basic`) and the
    LP-re-solve improvements.
    """
    problem = polytope.problem
    e_star = polytope.enabler_values(relaxed.e)
    eps = np.divide(
        polytope.d_vector(relaxed.d), e_star, out=np.zeros(len(e_star)), where=e_star > _TINY
    )

    threshold = beta * problem.log_n()
    e_hat: Dict[EKey, int] = {}
    trials = 0
    while trials < max_trials:
        trials += 1
        e_hat = {
            key: 1 if rng.random() < min(1.0, value / alpha) else 0
            for key, value in relaxed.e.items()
        }
        if _violation_factor(polytope, eps * polytope.enabler_values(e_hat)) <= threshold:
            break

    _repair_cam(problem, e_hat, rng)
    d_hat = eps * polytope.enabler_values(e_hat)
    return e_hat, dict(zip(polytope.d_keys, d_hat.tolist())), trials


def finish_basic(
    polytope: NIPSPolytope,
    d_hat: Mapping[DKey, float],
    e_hat: Mapping[EKey, int],
) -> NIPSSolution:
    """Fig. 9 lines 11–13: conservative down-scaling."""
    # The paper scales by beta*log N unconditionally; scaling by the
    # *observed* violation factor (capped below by 1) is never less
    # conservative than necessary and keeps the guarantee.
    scale = _violation_factor(polytope, polytope.d_vector(d_hat))
    d_scaled = {key: value / scale for key, value in d_hat.items()}
    return NIPSSolution(
        e={key: float(value) for key, value in e_hat.items()},
        d=d_scaled,
        objective=polytope.problem.objective(d_scaled),
        solve_seconds=0.0,
    )


def greedy_fill(
    problem: NIPSProblem,
    e_hat: Dict[EKey, int],
) -> Dict[EKey, int]:
    """Greedily enable more rules while TCAM capacity remains.

    Candidates are ordered by their maximum potential footprint
    reduction at the node (sum over paths through the node of
    ``T^items * M_ik * Dist_ikj``), so TCAM slots go to the most
    valuable rules first.
    """
    filled = dict(e_hat)
    cam_used: Dict[str, float] = {}
    for (i, node), value in filled.items():
        if value:
            cam_used[node] = cam_used.get(node, 0.0) + problem.rules[i].cam_req

    gains: Dict[EKey, float] = {}
    for pair in problem.pairs:
        items = problem.items[pair]
        for node in problem.paths[pair].nodes:
            dist = problem.dist[pair][node]
            for rule in problem.rules:
                rate = problem.match.rate(rule.index, pair)
                if rate <= 0.0:
                    continue
                key = (rule.index, node)
                gains[key] = gains.get(key, 0.0) + items * rate * dist

    for key in sorted(gains, key=lambda k: -gains[k]):
        if filled.get(key, 0):
            continue
        i, node_name = key
        cap = problem.topology.node(node_name).cam_capacity
        need = problem.rules[i].cam_req
        if cam_used.get(node_name, 0.0) + need <= cap + _TINY:
            filled[key] = 1
            cam_used[node_name] = cam_used.get(node_name, 0.0) + need
    return filled


def rounded_deployment(
    polytope: NIPSPolytope,
    variant: RoundingVariant,
    rng: random.Random,
    relaxed: Optional[NIPSSolution] = None,
    alpha: float = 2.0,
    beta: float = 2.0,
) -> RoundedSolution:
    """Run one rounding iteration of the chosen *variant*."""
    problem = polytope.problem
    if relaxed is None:
        relaxed = solve_relaxation(problem)
    e_hat, d_hat, trials = round_enablement(polytope, relaxed, rng, alpha, beta)

    if variant is RoundingVariant.BASIC:
        solution = finish_basic(polytope, d_hat, e_hat)
    elif variant is RoundingVariant.LP:
        solution = solve_with_fixed_rules(polytope, e_hat)
    else:
        solution = solve_with_fixed_rules(polytope, greedy_fill(problem, e_hat))

    raise_first(problem.check(solution.e, solution.d))
    return RoundedSolution(
        variant=variant,
        solution=solution,
        trials=trials,
        opt_lp=relaxed.objective,
    )


def best_of_roundings(
    problem: NIPSProblem,
    variant: RoundingVariant,
    iterations: int = 10,
    seed: int = 0,
    relaxed: Optional[NIPSSolution] = None,
) -> RoundedSolution:
    """The paper's procedure: best of *iterations* independent roundings,
    every one a bounds view of the one polytope compiled here."""
    if relaxed is None:
        relaxed = solve_relaxation(problem)
    polytope = compile_nips_polytope(problem)
    rng = random.Random(seed)
    best: Optional[RoundedSolution] = None
    for _ in range(iterations):
        candidate = rounded_deployment(polytope, variant, rng, relaxed=relaxed)
        if best is None or candidate.solution.objective > best.solution.objective:
            best = candidate
    assert best is not None
    return best
