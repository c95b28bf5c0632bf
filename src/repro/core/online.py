"""Online adaptation of NIPS deployments (paper Section 3.5).

Adversaries control the unwanted-traffic profile: the match rates
``M_ik`` change over time and are revealed only after each epoch's
deployment decision.  Following Kalai–Vempala, the *follow the
perturbed leader* (FPL) strategy feeds a perturbed sum of the observed
state vectors to the offline optimizer ``Λ`` and provably achieves
average regret ``sqrt(D R A / γ) / γ → 0`` against the best static
solution in hindsight.

The decision space here is the TCAM-free NIPS polytope (Eqs. 9–11 and
13, no ``e`` variables), exactly as the paper's preliminary evaluation;
``Λ`` is one LP solve.  State vectors, weights and decisions are
``d`` vectors in the problem's layout: ``S_ikj = T_ik^items × M_ik ×
Dist_ikj``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..lp.solver import solve_or_raise
from .manifest_table import left_sum
from .nips_milp import NIPSPolytope, NIPSProblem, compile_nips_polytope

MatchRates = Dict[Tuple[int, Tuple[str, str]], float]
#: A deployment's ``d`` vector, in the problem's layout.
Decision = np.ndarray


def _rate_columns(problem: NIPSProblem, rates: Mapping) -> np.ndarray:
    """*rates* per (rule, pair), rule-major (0 when absent)."""
    layout = problem.layout
    return np.array(
        [rates.get((i, pair), 0.0) for i in layout.rule_ids for pair in layout.pairs],
        dtype=np.float64,
    )


def state_vector(problem: NIPSProblem, rates: Mapping) -> np.ndarray:
    """``S_t``: per-``d``-entry value of filtering under match rates
    (0 where the rule's rate on the path is not positive)."""
    layout = problem.layout
    rate = _rate_columns(problem, rates)[layout.rule_pair_of]
    return np.where(rate <= 0.0, 0.0, layout.items * rate * layout.dist)


def decision_value(problem: NIPSProblem, state: np.ndarray, decision: np.ndarray) -> float:
    """``O · S``: footprint reduction achieved by *decision* under *state*,
    summed in (pair, rule, path node) order."""
    return left_sum((state * decision)[problem.layout.pair_major])


def solve_best_response(polytope: NIPSPolytope, weights: np.ndarray) -> Decision:
    """``Λ``: the offline optimizer over the TCAM-free polytope.

    Maximizes ``sum(weights * d)`` subject to the node memory/CPU
    capacities (Eqs. 9–10) and the per-(rule, path) sampling bound
    (Eq. 11): the compiled polytope with *weights* as its cost.
    Components with non-positive weight are fixed to zero by their
    upper bound — they can only consume capacity.
    """
    weight = polytope.layout.column("d", weights)
    worth = weight > 0.0
    if not worth.any():
        # Nothing is worth filtering (all weights non-positive).
        return np.zeros(len(weight))
    solution = solve_or_raise(polytope.compiled.with_cost(weight).with_bounds(0.0, worth))
    return solution.values


@dataclass
class FPLConfig:
    """Follow-the-perturbed-leader parameters.

    ``epsilon=None`` applies the theorem's setting
    ``epsilon = sqrt(D / (R A γ))`` with the paper's constants
    ``D = M N L`` and ``R = A = sum_ik T^items × maxdrop``.  That
    theoretical epsilon is extremely conservative (the perturbation
    dominates the signal for small γ); the evaluation driver uses
    ``perturbation_scale`` to shrink it, as recorded in EXPERIMENTS.md.
    """

    epochs: int = 1000
    epsilon: Optional[float] = None
    maxdrop: float = 0.5
    perturbation_scale: float = 1.0
    seed: int = 0


def theoretical_epsilon(problem: NIPSProblem, config: FPLConfig) -> float:
    """``sqrt(D / (R A γ))`` with the paper's constant choices."""
    num_pairs = len(problem.pairs)
    dimension = num_pairs * problem.num_nodes * problem.num_rules
    total_items = sum(problem.items.values()) * problem.num_rules
    bound = total_items * config.maxdrop
    return math.sqrt(dimension / max(1e-12, bound * bound * config.epochs))


class FPLAdapter:
    """The online decision procedure.

    Each epoch: perturb the historical average of observed match rates
    (the paper's ``M_ik = avg(M_obs) + p_t / (t · T^items_ik)``
    estimate), call ``Λ`` on the resulting weights, and deploy.  The
    true rates are revealed afterwards via :meth:`observe`.
    """

    def __init__(self, problem: NIPSProblem, config: FPLConfig):
        self.problem = problem
        self.config = config
        #: Compiled once; every epoch's ``Λ`` is a cost view of it.
        self.polytope = compile_nips_polytope(problem)
        # Larger perturbation_scale => larger epsilon => *smaller*
        # perturbation amplitude 1/epsilon.
        self.epsilon = (
            config.epsilon
            if config.epsilon is not None
            else theoretical_epsilon(problem, config) * config.perturbation_scale
        )
        self._rng = random.Random(config.seed)
        layout = problem.layout
        self._observed_sum = np.zeros(len(layout.rule_ids) * len(layout.pairs))
        self.t = 0

    def decide(self) -> Decision:
        """Choose this epoch's deployment (Kalai–Vempala step 2).

        One ``rng.random()`` per ``d`` entry, drawn in (pair, rule,
        path node) order.
        """
        self.t += 1
        layout = self.problem.layout
        amplitude = 1.0 / self.epsilon
        mean_rate = (
            self._observed_sum / (self.t - 1) if self.t > 1 else np.zeros(len(self._observed_sum))
        )
        draws = np.empty(layout.num_d)
        draws[layout.pair_major] = [self._rng.random() for _ in range(layout.num_d)]
        rate_estimate = mean_rate[layout.rule_pair_of] + draws * amplitude / (self.t * layout.items)
        return solve_best_response(self.polytope, layout.items * rate_estimate * layout.dist)

    def observe(self, rates: Mapping) -> None:
        """Reveal the epoch's true match rates (end of epoch t)."""
        self._observed_sum += _rate_columns(self.problem, rates)


@dataclass
class RegretPoint:
    """Cumulative performance up to epoch ``t``."""

    epoch: int
    fpl_total: float
    static_total: float

    @property
    def normalized_regret(self) -> float:
        """``(static - fpl) / static`` — the Fig. 11 y-axis."""
        if self.static_total <= 0:
            return 0.0
        return (self.static_total - self.fpl_total) / self.static_total


@dataclass
class OnlineRunResult:
    """Full trajectory of one online-adaptation run."""

    points: List[RegretPoint]
    final_regret: float


def run_online_adaptation(
    problem: NIPSProblem,
    rate_process: Callable[[int, Optional[Decision]], MatchRates],
    config: FPLConfig,
    report_every: int = 25,
) -> OnlineRunResult:
    """Run FPL against *rate_process* for ``config.epochs`` epochs.

    *rate_process(t, last_decision)* returns epoch ``t``'s true match
    rates; passing the previous decision lets adaptive adversaries
    react.  At each reporting epoch the best *static* solution in
    hindsight is recomputed (one LP on the summed states) and the
    normalized cumulative regret recorded.
    """
    adapter = FPLAdapter(problem, config)
    fpl_total = 0.0
    state_sum = np.zeros(problem.layout.num_d)
    points: List[RegretPoint] = []
    last_decision: Optional[Decision] = None

    for epoch in range(1, config.epochs + 1):
        decision = adapter.decide()
        rates = rate_process(epoch, last_decision)
        state = state_vector(problem, rates)
        fpl_total += decision_value(problem, state, decision)
        state_sum += state
        adapter.observe(rates)
        last_decision = decision

        if epoch % report_every == 0 or epoch == config.epochs:
            static = solve_best_response(adapter.polytope, state_sum)
            static_total = decision_value(problem, state_sum, static)
            points.append(
                RegretPoint(
                    epoch=epoch, fpl_total=fpl_total, static_total=static_total
                )
            )

    return OnlineRunResult(
        points=points,
        final_regret=points[-1].normalized_regret if points else 0.0,
    )
