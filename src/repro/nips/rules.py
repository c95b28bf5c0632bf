"""NIPS rule model and match-rate matrices (paper Section 3.1/3.4).

Each NIPS rule (class) ``C_i`` carries three resource requirements:
CPU per packet processed, memory per flow held, and — unlike NIDS
classes — a *per-rule* TCAM footprint ``CamReq_i`` that is consumed on
a node merely by enabling the rule there.

``M_ik`` is the fraction of traffic on path ``P_ik`` that rule ``C_i``
matches (and would drop).  The paper's evaluation draws the ``M_ik``
uniformly from ``[0, 0.01]`` and notes results hold for other
distributions; :class:`MatchRateMatrix` provides the uniform draw plus
exponential and hotspot alternatives used by the ablation benches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

Pair = Tuple[str, str]


@dataclass(frozen=True)
class NIPSRule:
    """One filtering rule with its resource requirements."""

    index: int
    name: str
    cpu_req: float = 1.0  # CPU units per packet
    mem_req: float = 1.0  # memory units per flow
    cam_req: float = 1.0  # TCAM slots per rule


def unit_rules(count: int = 100) -> List[NIPSRule]:
    """The paper's evaluation ruleset: *count* rules with unit
    CPU/memory/TCAM requirements (``CamReq_i = CpuReq_i = MemReq_i = 1``)."""
    return [NIPSRule(index=i, name=f"rule-{i:03d}") for i in range(count)]


class MatchRateMatrix:
    """``M_ik`` values for every (rule, path) combination."""

    def __init__(self, rates: Dict[Tuple[int, Pair], float]):
        for key, rate in rates.items():
            # Written so that NaN fails too: it compares False both ways.
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"match rate {rate!r} for (rule, pair) {key} is not in [0, 1]"
                )
        self._rates = dict(rates)

    def rate(self, rule_index: int, pair: Pair) -> float:
        """``M_ik`` for (rule, path pair); 0 when absent."""
        return self._rates.get((rule_index, pair), 0.0)

    def items(self):
        """Iterate ((rule index, pair), rate) entries."""
        return self._rates.items()

    # -- generators -----------------------------------------------------------
    @classmethod
    def uniform(
        cls,
        rules: Sequence[NIPSRule],
        pairs: Sequence[Pair],
        rng: random.Random,
        high: float = 0.01,
    ) -> "MatchRateMatrix":
        """The paper's default: ``M_ik ~ U[0, high]`` independently."""
        return cls(
            {
                (rule.index, pair): rng.uniform(0.0, high)
                for rule in rules
                for pair in pairs
            }
        )

    @classmethod
    def exponential(
        cls,
        rules: Sequence[NIPSRule],
        pairs: Sequence[Pair],
        rng: random.Random,
        mean: float = 0.005,
        cap: float = 0.05,
    ) -> "MatchRateMatrix":
        """Heavy-tailed rates: a few rule/path combinations dominate."""
        return cls(
            {
                (rule.index, pair): min(cap, rng.expovariate(1.0 / mean))
                for rule in rules
                for pair in pairs
            }
        )

    @classmethod
    def hotspot(
        cls,
        rules: Sequence[NIPSRule],
        pairs: Sequence[Pair],
        rng: random.Random,
        hot_fraction: float = 0.1,
        hot_rate: float = 0.02,
        cold_rate: float = 0.001,
    ) -> "MatchRateMatrix":
        """A small set of hot (rule, path) combinations carries most of
        the unwanted traffic — an attack concentrated on a few targets."""
        rates = {}
        for rule in rules:
            for pair in pairs:
                hot = rng.random() < hot_fraction
                rates[(rule.index, pair)] = (
                    rng.uniform(0.5 * hot_rate, hot_rate)
                    if hot
                    else rng.uniform(0.0, cold_rate)
                )
        return cls(rates)
