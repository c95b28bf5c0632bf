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

Every rounding reads and writes ``e`` and ``d`` vectors in the
problem's :class:`~repro.core.nips_milp.NIPSLayout` and re-solves one
compiled :class:`~repro.core.nips_milp.NIPSPolytope` — the
relaxation's own when :func:`best_of_roundings` is handed it.  What
does not change between roundings (``eps``, the thresholds
``min(1, e*/alpha)``, greedy's candidate order) is computed once per
loop; a trial is one ``rng.random()`` per ``e`` entry compared as a
vector, and greedy's gains are an ``np.bincount`` over the layout's
``enabler`` index.  The dict loops this replaced are
``tests/planning_oracle.py``'s, which the product equals bit for bit,
random state included.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .manifest import raise_first
from .nips_milp import (
    NIPSLayout,
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


class _Rounder:
    """Fig. 9 lines 3–10 on the polytope's vectors, for one relaxation.

    What does not change between roundings is gathered once: ``eps =
    d*/e*`` per ``d`` entry and the Bernoulli chances ``min(1, e*/alpha)``
    per ``e`` entry.
    """

    def __init__(
        self, polytope: NIPSPolytope, relaxed: NIPSSolution, alpha: float, beta: float
    ) -> None:
        self.polytope = polytope
        self.relaxed = relaxed
        e_star = relaxed.e[polytope.layout.enabler]
        self.eps = np.divide(relaxed.d, e_star, out=np.zeros(len(e_star)), where=e_star > _TINY)
        # ``fmin``, like ``min(1.0, x)``, keeps 1.0 against a NaN.
        self.chance = np.fmin(1.0, relaxed.e / alpha)
        self.threshold = beta * polytope.problem.log_n()
        self._fill_order: Optional[List[int]] = None

    def draw(
        self, rng: random.Random, max_trials: int = 100
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Rounded ``ê``, the unscaled ``d̂ = eps · ê``, trials used.

        Each trial draws one ``rng.random()`` per ``e`` entry in order;
        the TCAM repair then draws its victims.
        """
        random_draw = rng.random
        enabler = self.polytope.layout.enabler
        flags = np.zeros(len(self.chance))
        trials = 0
        while trials < max_trials:
            trials += 1
            draws = np.array([random_draw() for _ in range(len(self.chance))])
            flags = (draws < self.chance).astype(np.float64)
            if _violation_factor(self.polytope, self.eps * flags[enabler]) <= self.threshold:
                break
        self._repair_cam(flags, rng)
        return flags, self.eps * flags[enabler], trials

    def _repair_cam(self, flags: np.ndarray, rng: random.Random) -> None:
        """Zero ``ê`` entries until every node's TCAM constraint holds.

        The paper drops entries "arbitrarily"; we drop uniformly at random
        among the node's enabled rules, which keeps the repair unbiased.
        """
        problem = self.polytope.problem
        nodes = self.polytope.layout.nodes
        width = len(nodes)
        for j, node_name in enumerate(nodes):
            cap = problem.topology.node(node_name).cam_capacity
            enabled = np.flatnonzero(flags[j::width]).tolist()
            used = sum(problem.rules[r].cam_req for r in enabled)
            while used > cap + _TINY and enabled:
                victim = enabled.pop(rng.randrange(len(enabled)))
                flags[victim * width + j] = 0.0
                used -= problem.rules[victim].cam_req

    def deploy(self, variant: RoundingVariant, rng: random.Random) -> RoundedSolution:
        """One rounding of *variant*, checked against Eqs. 8–13."""
        polytope = self.polytope
        e_hat, d_hat, trials = self.draw(rng)
        if variant is RoundingVariant.BASIC:
            solution = finish_basic(polytope, d_hat, e_hat)
        elif variant is RoundingVariant.LP:
            solution = solve_with_fixed_rules(polytope, e_hat)
        else:
            if self._fill_order is None:
                self._fill_order = _fill_order(polytope.layout)
            solution = solve_with_fixed_rules(
                polytope, _fill(polytope.problem, self._fill_order, e_hat)
            )
        raise_first(polytope.problem.check(solution.e, solution.d))
        return RoundedSolution(
            variant=variant, solution=solution, trials=trials, opt_lp=self.relaxed.objective
        )


def round_enablement(
    polytope: NIPSPolytope,
    relaxed: NIPSSolution,
    rng: random.Random,
    alpha: float = 2.0,
    beta: float = 2.0,
    max_trials: int = 100,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Fig. 9 lines 3–10: rounded ``ê``, induced ``d̂``, trials used.

    The returned ``d̂`` is *unscaled* (pre line 11); callers choose
    between conservative scaling (:func:`finish_basic`) and the
    LP-re-solve improvements.
    """
    return _Rounder(polytope, relaxed, alpha, beta).draw(rng, max_trials)


def finish_basic(
    polytope: NIPSPolytope, d_hat: np.ndarray, e_hat: np.ndarray
) -> NIPSSolution:
    """Fig. 9 lines 11–13: conservative down-scaling."""
    # The paper scales by beta*log N unconditionally; scaling by the
    # *observed* violation factor (capped below by 1) is never less
    # conservative than necessary and keeps the guarantee.
    d_scaled = d_hat / _violation_factor(polytope, d_hat)
    return NIPSSolution(
        e=np.array(e_hat, dtype=np.float64),
        d=d_scaled,
        objective=polytope.problem.objective(d_scaled),
        solve_seconds=0.0,
        polytope=polytope,
    )


def greedy_fill(problem: NIPSProblem, e_hat: np.ndarray) -> np.ndarray:
    """Greedily enable more rules while TCAM capacity remains.

    Candidates are ordered by their maximum potential footprint
    reduction at the node (sum over paths through the node of
    ``T^items * M_ik * Dist_ikj``), so TCAM slots go to the most
    valuable rules first.  The gains are read off the problem's layout.
    """
    return _fill(problem, _fill_order(problem.layout), e_hat)


def _greedy_gains(layout: NIPSLayout) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy's candidates and every ``e`` entry's gain.

    A candidate is a rule that matches (``M_ik > 0``) some path through
    the node, even at zero gain.  Candidates are ``e`` positions in
    first-visit order — by (pair, on-path node) hop, then rule — and a
    gain is the left fold of ``T^items * M_ik * Dist_ikj`` over its
    entries in ``d`` order, i.e. in pair order.
    """
    matched = np.flatnonzero(layout.matched)
    keys = layout.enabler[matched]
    gains = np.bincount(keys, weights=layout.value[matched], minlength=layout.num_e)
    # ``d`` is rule-major, so an ``e`` entry's first ``d`` entry is its first hop.
    candidates, first = np.unique(keys, return_index=True)
    first = matched[first]
    visit = first % layout.hops * len(layout.rule_ids) + first // layout.hops
    return candidates[np.argsort(visit)], gains


def _fill_order(layout: NIPSLayout) -> List[int]:
    """Greedy's candidates by descending gain, ties in first-visit order."""
    candidates, gains = _greedy_gains(layout)
    return candidates[np.argsort(-gains[candidates], kind="stable")].tolist()


def _fill(problem: NIPSProblem, order: List[int], e_hat: np.ndarray) -> np.ndarray:
    """:func:`greedy_fill` over the ``e`` positions *order*."""
    nodes = problem.layout.nodes
    width = len(nodes)
    filled = problem.layout.column("e", e_hat).tolist()
    cam_used = [0.0] * width
    for k, value in enumerate(filled):
        if value:
            cam_used[k % width] += problem.rules[k // width].cam_req

    for k in order:
        if filled[k]:
            continue
        r, j = divmod(k, width)
        cap = problem.topology.node(nodes[j]).cam_capacity
        need = problem.rules[r].cam_req
        if cam_used[j] + need <= cap + _TINY:
            filled[k] = 1.0
            cam_used[j] += need
    return np.array(filled)


def rounded_deployment(
    polytope: NIPSPolytope,
    variant: RoundingVariant,
    rng: random.Random,
    relaxed: Optional[NIPSSolution] = None,
    alpha: float = 2.0,
    beta: float = 2.0,
) -> RoundedSolution:
    """Run one rounding iteration of the chosen *variant*."""
    if relaxed is None:
        relaxed = solve_relaxation(polytope.problem)
    return _Rounder(polytope, relaxed, alpha, beta).deploy(variant, rng)


def best_of_roundings(
    problem: NIPSProblem,
    variant: RoundingVariant,
    iterations: int = 10,
    seed: int = 0,
    relaxed: Optional[NIPSSolution] = None,
) -> RoundedSolution:
    """The paper's procedure: best of *iterations* independent roundings,
    every one a bounds view of one polytope — the relaxation's own when
    it was solved for *problem*, else one compiled here."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if relaxed is None:
        relaxed = solve_relaxation(problem)
    polytope = relaxed.polytope
    if polytope.problem is not problem:
        polytope = compile_nips_polytope(problem)
    rounder = _Rounder(polytope, relaxed, alpha=2.0, beta=2.0)
    rng = random.Random(seed)
    best = rounder.deploy(variant, rng)
    for _ in range(iterations - 1):
        candidate = rounder.deploy(variant, rng)
        if candidate.solution.objective > best.solution.objective:
            best = candidate
    return best
