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

Every rounding works on the vectors of one compiled
:class:`~repro.core.nips_milp.NIPSPolytope` — the relaxation's own when
:func:`best_of_roundings` is handed it.  What does not change between
roundings (``eps``, the thresholds ``min(1, e*/alpha)``, greedy's
candidate order) is computed once per loop; a trial is one
``rng.random()`` per ``relaxed.e`` key compared as a vector, and
greedy's gains are an ``np.bincount`` over the polytope's ``enabler``
index.  ``d̂`` becomes a dict only where one is read (the Fig. 9
scaling and :func:`round_enablement`).  The dict loops this replaced
are ``tests/planning_oracle.py``'s, which the product equals bit for
bit, random state included.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

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


class _Rounder:
    """Fig. 9 lines 3–10 on the polytope's vectors, for one relaxation.

    What does not change between roundings is gathered once: ``eps =
    d*/e*`` per ``d`` variable, the Bernoulli chances ``min(1, e*/alpha)``
    in ``relaxed.e`` order, where each of those keys sits in the
    polytope's ``e_keys``, and each node's keys for the TCAM repair.
    """

    def __init__(
        self, polytope: NIPSPolytope, relaxed: NIPSSolution, alpha: float, beta: float
    ) -> None:
        problem = polytope.problem
        self.polytope = polytope
        self.relaxed = relaxed
        self.keys = list(relaxed.e)
        e_star = polytope.enabler_values(relaxed.e)
        self.eps = np.divide(
            polytope.d_vector(relaxed.d), e_star, out=np.zeros(len(e_star)), where=e_star > _TINY
        )
        # ``fmin``, like ``min(1.0, x)``, keeps 1.0 against a NaN.
        self.chance = np.fmin(1.0, np.array(list(relaxed.e.values()), dtype=np.float64) / alpha)
        self.threshold = beta * problem.log_n()
        position = {key: k for k, key in enumerate(polytope.e_keys)}
        slot = np.array([position.get(key, -1) for key in self.keys], dtype=np.intp)
        self.known = np.flatnonzero(slot >= 0)
        self.slot = slot[self.known]
        self.members: Dict[str, List[int]] = {name: [] for name in problem.topology.node_names}
        for k, (_i, node) in enumerate(self.keys):
            if node in self.members:
                self.members[node].append(k)
        self._fill_order: Optional[List[int]] = None

    def _spread(self, flags) -> np.ndarray:
        """Per ``d`` variable, the flag of its Eq. 12 ``e_ij`` (0 when
        ``relaxed.e`` has no such key)."""
        on = np.zeros(len(self.polytope.e_keys))
        on[self.slot] = np.asarray(flags)[self.known]
        return on[self.polytope.enabler]

    def draw(
        self, rng: random.Random, max_trials: int = 100
    ) -> Tuple[Dict[EKey, int], np.ndarray, int]:
        """Rounded ``ê``, the unscaled ``d̂`` as a vector, trials used.

        Each trial draws one ``rng.random()`` per key in ``relaxed.e``
        order; the TCAM repair then draws its victims.
        """
        random_draw = rng.random
        hits = None
        trials = 0
        while trials < max_trials:
            trials += 1
            hits = np.array([random_draw() for _ in self.keys]) < self.chance
            if _violation_factor(self.polytope, self.eps * self._spread(hits)) <= self.threshold:
                break
        if hits is None:  # no trial at all
            return {}, self.eps * self._spread(np.zeros(len(self.keys))), trials
        flags = hits.astype(np.intp).tolist()
        self._repair_cam(flags, rng)
        return dict(zip(self.keys, flags)), self.eps * self._spread(flags), trials

    def _repair_cam(self, flags: List[int], rng: random.Random) -> None:
        """Zero ``ê`` entries until every node's TCAM constraint holds.

        The paper drops entries "arbitrarily"; we drop uniformly at random
        among the node's enabled rules, which keeps the repair unbiased.
        """
        problem = self.polytope.problem
        keys = self.keys
        for node_name, members in self.members.items():
            cap = problem.topology.node(node_name).cam_capacity
            enabled = [k for k in members if flags[k]]
            used = sum(problem.rules[keys[k][0]].cam_req for k in enabled)
            while used > cap + _TINY and enabled:
                victim = enabled.pop(rng.randrange(len(enabled)))
                flags[victim] = 0
                used -= problem.rules[keys[victim][0]].cam_req

    def deploy(self, variant: RoundingVariant, rng: random.Random) -> RoundedSolution:
        """One rounding of *variant*, checked against Eqs. 8–13."""
        polytope = self.polytope
        e_hat, d_hat, trials = self.draw(rng)
        if variant is RoundingVariant.BASIC:
            solution = finish_basic(polytope, dict(zip(polytope.d_keys, d_hat.tolist())), e_hat)
        elif variant is RoundingVariant.LP:
            solution = solve_with_fixed_rules(polytope, e_hat)
        else:
            if self._fill_order is None:
                self._fill_order = _fill_order(polytope)
            solution = solve_with_fixed_rules(
                polytope, _fill(polytope, self._fill_order, e_hat)
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
) -> Tuple[Dict[EKey, int], Dict[DKey, float], int]:
    """Fig. 9 lines 3–10: rounded ``ê``, induced ``d̂``, trials used.

    The returned ``d̂`` is *unscaled* (pre line 11); callers choose
    between conservative scaling (:func:`finish_basic`) and the
    LP-re-solve improvements.
    """
    e_hat, d_hat, trials = _Rounder(polytope, relaxed, alpha, beta).draw(rng, max_trials)
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
    valuable rules first.  The gains are read off the problem's
    polytope (compiled here; the rounding loop reads its own).
    """
    polytope = compile_nips_polytope(problem)
    return _fill(polytope, _fill_order(polytope), e_hat)


def _greedy_gains(polytope: NIPSPolytope) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy's candidates and every ``e`` key's gain.

    A candidate is a rule that matches (``M_ik > 0``) some path through
    the node, even at zero gain.  Candidates are positions in
    ``e_keys`` in first-visit order — by (pair, on-path node) hop, then
    rule — and a gain is the left fold of ``T^items * M_ik * Dist_ikj``
    over its variables in ``d`` order, i.e. in pair order.
    """
    matched = np.flatnonzero(polytope.matched)
    keys = polytope.enabler[matched]
    gains = np.bincount(keys, weights=polytope.value[matched], minlength=len(polytope.e_keys))
    # ``d`` is rule-major, so a key's first variable is its first hop.
    candidates, first = np.unique(keys, return_index=True)
    rules = len(polytope.problem.rules)
    hops = len(polytope.d_keys) // max(rules, 1)
    first = matched[first]
    visit = first % hops * rules + first // hops
    return candidates[np.argsort(visit)], gains


def _fill_order(polytope: NIPSPolytope) -> List[int]:
    """Greedy's candidates by descending gain, ties in first-visit order."""
    candidates, gains = _greedy_gains(polytope)
    return candidates[np.argsort(-gains[candidates], kind="stable")].tolist()


def _fill(polytope: NIPSPolytope, order: List[int], e_hat: Dict[EKey, int]) -> Dict[EKey, int]:
    """:func:`greedy_fill` over the ``e_keys`` positions *order*."""
    problem = polytope.problem
    filled = dict(e_hat)
    cam_used: Dict[str, float] = {}
    for (i, node), value in filled.items():
        if value:
            cam_used[node] = cam_used.get(node, 0.0) + problem.rules[i].cam_req

    for k in order:
        key = polytope.e_keys[k]
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
    if polytope is None or polytope.problem is not problem:
        polytope = compile_nips_polytope(problem)
    rounder = _Rounder(polytope, relaxed, alpha=2.0, beta=2.0)
    rng = random.Random(seed)
    best = rounder.deploy(variant, rng)
    for _ in range(iterations - 1):
        candidate = rounder.deploy(variant, rng)
        if candidate.solution.objective > best.solution.objective:
            best = candidate
    return best
