"""Dynamic match-rate processes for the online evaluation.

Each process is a callable ``(epoch, last_decision) -> match rates``
compatible with :func:`repro.core.online.run_online_adaptation`.  The
paper's Fig. 11 uses i.i.d. uniform draws revealed at the end of each
epoch; the shifting and adaptive processes exercise the "strategic
adversaries" direction the paper flags as future work.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.nips_milp import NIPSProblem

Pair = Tuple[str, str]
MatchRates = Dict[Tuple[int, Pair], float]
#: A deployment's ``d`` vector, in the problem's layout.
Decision = np.ndarray


class UniformProcess:
    """The paper's setting: ``M_ik ~ U[0, high]`` fresh every epoch."""

    def __init__(self, problem: NIPSProblem, seed: int = 0, high: float = 0.01):
        self.problem = problem
        self.high = high
        self._rng = random.Random(seed)

    def __call__(self, epoch: int, last_decision: Optional[Decision]) -> MatchRates:
        return {
            (rule.index, pair): self._rng.uniform(0.0, self.high)
            for rule in self.problem.rules
            for pair in self.problem.pairs
        }


class ShiftingHotspotProcess:
    """An attack whose hot (rule, path) set moves every ``period`` epochs.

    Models a botnet re-aiming at new victims: a static deployment tuned
    to one phase performs poorly in the next, so adaptation matters.
    """

    def __init__(
        self,
        problem: NIPSProblem,
        seed: int = 0,
        period: int = 50,
        hot_count: int = 5,
        hot_rate: float = 0.02,
        base_rate: float = 0.001,
    ):
        self.problem = problem
        self.period = period
        self.hot_count = hot_count
        self.hot_rate = hot_rate
        self.base_rate = base_rate
        self._rng = random.Random(seed)
        self._hot: List[Tuple[int, Pair]] = []
        self._phase = -1

    def _reshuffle(self) -> None:
        combos = [
            (rule.index, pair)
            for rule in self.problem.rules
            for pair in self.problem.pairs
        ]
        self._hot = self._rng.sample(combos, min(self.hot_count, len(combos)))

    def __call__(self, epoch: int, last_decision: Optional[Decision]) -> MatchRates:
        phase = epoch // self.period
        if phase != self._phase:
            self._phase = phase
            self._reshuffle()
        hot = set(self._hot)
        return {
            (rule.index, pair): (
                self.hot_rate if (rule.index, pair) in hot else self.base_rate
            )
            for rule in self.problem.rules
            for pair in self.problem.pairs
        }


class EvasiveAdversary:
    """Reactive attacker: concentrates unwanted traffic where the
    defender's previous deployment filtered the least.

    Exactly the adversary FPL's perturbation guards against — a
    deterministic follow-the-leader defender is exploited indefinitely,
    while FPL's randomization keeps the achievable evasion bounded.
    """

    def __init__(
        self,
        problem: NIPSProblem,
        seed: int = 0,
        budget_rate: float = 0.01,
    ):
        self.problem = problem
        self.budget_rate = budget_rate
        self._rng = random.Random(seed)

    def _coverage(self, decision: Decision) -> np.ndarray:
        """Per (rule, pair), rule-major: the path mass *decision* samples."""
        layout = self.problem.layout
        return np.bincount(
            layout.rule_pair_of,
            weights=decision,
            minlength=len(layout.rule_ids) * len(layout.pairs),
        )

    def __call__(self, epoch: int, last_decision: Optional[Decision]) -> MatchRates:
        combos = [
            (rule.index, pair)
            for rule in self.problem.rules
            for pair in self.problem.pairs
        ]
        if last_decision is None:
            target = self._rng.choice(combos)
            return {
                combo: (self.budget_rate if combo == target else 0.0)
                for combo in combos
            }
        # Attack the least-covered combination, budget concentrated there.
        target = combos[int(np.argmin(self._coverage(last_decision)))]
        return {
            combo: (self.budget_rate if combo == target else 0.0)
            for combo in combos
        }
