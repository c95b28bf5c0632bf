"""Traffic-matrix abstraction.

Wraps the ``{(ingress, egress): fraction}`` maps produced by the
gravity model (or supplied directly) with validation and the volume
bookkeeping the generator and the optimization drivers need.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from ..topology.graph import Topology
from ..topology.gravity import gravity_fractions

Pair = Tuple[str, str]


class TrafficMatrix:
    """Normalized ingress–egress traffic fractions."""

    def __init__(self, fractions: Mapping[Pair, float]):
        if not fractions:
            raise ValueError("empty traffic matrix")
        total = 0.0
        for pair, fraction in fractions.items():
            if fraction < 0:
                raise ValueError(f"negative fraction for pair {pair}")
            total += fraction
        if total <= 0:
            raise ValueError("traffic matrix has zero total volume")
        self._fractions: Dict[Pair, float] = {
            pair: fraction / total for pair, fraction in fractions.items() if fraction > 0
        }

    @classmethod
    def gravity(cls, topology: Topology, include_self_pairs: bool = False) -> "TrafficMatrix":
        """Gravity-model matrix from the topology's city populations."""
        return cls(gravity_fractions(topology.populations, include_self_pairs))

    @classmethod
    def uniform(cls, topology: Topology) -> "TrafficMatrix":
        """Equal volume on every ordered inter-node pair (ablation TM)."""
        names = topology.node_names
        return cls({(s, d): 1.0 for s in names for d in names if s != d})

    # -- access -------------------------------------------------------------
    def fraction(self, ingress: str, egress: str) -> float:
        """Normalized fraction for the ordered pair."""
        return self._fractions.get((ingress, egress), 0.0)

    @property
    def pairs(self) -> List[Pair]:
        """All ordered pairs with positive fraction."""
        return list(self._fractions)

    def items(self) -> Iterable[Tuple[Pair, float]]:
        """Iterate (pair, fraction) entries."""
        return self._fractions.items()

    def __len__(self) -> int:
        return len(self._fractions)

    # -- use ----------------------------------------------------------------
    def volumes(self, total: float) -> Dict[Pair, float]:
        """Split *total* volume across pairs by fraction."""
        return {pair: fraction * total for pair, fraction in self._fractions.items()}

    def session_counts(self, total_sessions: int) -> Dict[Pair, int]:
        """Integer session counts per pair using largest-remainder rounding.

        Guarantees the counts sum exactly to *total_sessions* so traces
        generated per pair have the intended total volume.
        """
        raw = {pair: fraction * total_sessions for pair, fraction in self._fractions.items()}
        counts = {pair: int(value) for pair, value in raw.items()}
        shortfall = total_sessions - sum(counts.values())
        remainders = sorted(
            raw, key=lambda pair: raw[pair] - counts[pair], reverse=True
        )
        for pair in remainders[:shortfall]:
            counts[pair] += 1
        return counts
