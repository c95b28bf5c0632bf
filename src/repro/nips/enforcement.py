"""Path-level NIPS enforcement simulation.

Validates a deployment ``(e, d)`` operationally: takes each node's
share of each path from the hash ranges its sampling manifest installs
(:func:`repro.core.nips_manifest.lay_paths`, the layout
``generate_nips_manifests`` writes), simulates the flows traversing the
network, and measures the footprint actually removed and the load each
node actually bears.

Two sampling layouts are supported:

* ``disjoint=True`` (the system's real behaviour): each node on a path
  gets a non-overlapping hash range, so no flow is inspected twice and
  the realized footprint reduction equals the optimization objective.
* ``disjoint=False`` (independent sampling, the strawman the paper's
  conservative load model corresponds to): nodes sample independently,
  duplicating inspection work and dropping less per unit of load.

In both cases realized node loads never exceed the conservative model
(Eqs. 9–10), which is the safety property the formulation relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..core.nips_manifest import lay_paths
from ..core.nips_milp import NIPSProblem, NIPSSolution

Pair = Tuple[str, str]


@dataclass
class EnforcementReport:
    """Outcome of simulating a deployment."""

    footprint_removed: float
    modeled_objective: float
    flows_dropped: float
    total_unwanted_flows: float
    node_cpu_load: Dict[str, float]
    node_mem_load: Dict[str, float]
    modeled_cpu_load: Dict[str, float]
    modeled_mem_load: Dict[str, float]

    @property
    def drop_rate(self) -> float:
        """Fraction of unwanted flows removed network-wide."""
        if self.total_unwanted_flows <= 0:
            return 0.0
        return self.flows_dropped / self.total_unwanted_flows

    def load_within_model(self, tol: float = 1e-6) -> bool:
        """Realized loads never exceed the conservative LP model."""
        for node, load in self.node_cpu_load.items():
            if load > self.modeled_cpu_load.get(node, 0.0) + tol:
                return False
        for node, load in self.node_mem_load.items():
            if load > self.modeled_mem_load.get(node, 0.0) + tol:
                return False
        return True


def enforce(
    problem: NIPSProblem,
    solution: NIPSSolution,
    disjoint: bool = True,
) -> EnforcementReport:
    """Simulate *solution* over the problem's traffic.

    Flow populations are treated fluidly (fractions of ``T^items``),
    which is exact for the hash-uniformity assumption the paper makes.
    """
    footprint = 0.0
    dropped = 0.0
    total_unwanted = 0.0
    cpu_load: Dict[str, float] = {}
    mem_load: Dict[str, float] = {}
    modeled_cpu: Dict[str, float] = {}
    modeled_mem: Dict[str, float] = {}

    layout, d = problem.layout, solution.d

    def by_path(
        entries: np.ndarray, values: np.ndarray
    ) -> Dict[Tuple[int, Pair], Dict[str, float]]:
        """Each (rule, path)'s ``{node: value}``, in ``d`` order."""
        grouped: Dict[Tuple[int, Pair], Dict[str, float]] = {}
        for t, value in zip(entries.tolist(), values.tolist()):
            i, pair = layout.rule_ids[layout.rule_of[t]], layout.pairs[layout.pair_of[t]]
            grouped.setdefault((i, pair), {})[layout.nodes[layout.node_of[t]]] = value
        return grouped

    held = np.flatnonzero(d > 0.0)
    per_path = by_path(held, d[held])
    # Each node's share is the length of the range its manifest installs.
    laid, lo, hi = lay_paths(layout, d)
    shares = by_path(laid, hi - lo)

    for pair in problem.pairs:
        path = problem.paths[pair]
        items = problem.items[pair]
        pkts = problem.pkts[pair]
        for rule in problem.rules:
            rate = problem.match.rate(rule.index, pair)
            unwanted = items * rate
            total_unwanted += unwanted
            fractions = per_path.get((rule.index, pair), {})
            if not fractions:
                continue

            # Modeled (conservative) load: full T * d at every node.
            for node, fraction in fractions.items():
                modeled_mem[node] = modeled_mem.get(node, 0.0) + (
                    items * rule.mem_req * fraction
                )
                modeled_cpu[node] = modeled_cpu.get(node, 0.0) + (
                    pkts * rule.cpu_req * fraction
                )

            if disjoint:
                for node, share in shares.get((rule.index, pair), {}).items():
                    # Disjoint ranges: flows in this node's range were
                    # never dropped upstream, so realized load = model.
                    cpu_load[node] = cpu_load.get(node, 0.0) + pkts * rule.cpu_req * share
                    mem_load[node] = mem_load.get(node, 0.0) + items * rule.mem_req * share
                    removed = unwanted * share
                    dropped += removed
                    footprint += removed * problem.dist[pair][node]
            else:
                # Independent sampling: each node samples its fraction
                # of whatever unwanted traffic survives upstream.
                surviving = 1.0
                for node in path.nodes:
                    fraction = fractions.get(node, 0.0)
                    if fraction <= 0.0:
                        continue
                    # Unmatched traffic always arrives; matched only if
                    # it survived upstream drops.
                    arriving_matched = surviving
                    cpu_load[node] = cpu_load.get(node, 0.0) + (
                        pkts * rule.cpu_req * fraction
                        * (1.0 - rate + rate * arriving_matched)
                    )
                    mem_load[node] = mem_load.get(node, 0.0) + (
                        items * rule.mem_req * fraction
                        * (1.0 - rate + rate * arriving_matched)
                    )
                    removed = unwanted * arriving_matched * fraction
                    dropped += removed
                    footprint += removed * problem.dist[pair][node]
                    surviving *= 1.0 - fraction

    return EnforcementReport(
        footprint_removed=footprint,
        modeled_objective=problem.objective(solution.d),
        flows_dropped=dropped,
        total_unwanted_flows=total_unwanted,
        node_cpu_load=cpu_load,
        node_mem_load=mem_load,
        modeled_cpu_load=modeled_cpu,
        modeled_mem_load=modeled_mem,
    )
