"""Path-level NIPS enforcement simulation.

Validates a deployment ``(e, d)`` operationally: lays the per-path
sampling fractions out as hash ranges along each path (exactly like the
NIDS manifests of Fig. 2), simulates the flows traversing the network,
and measures the footprint actually removed and the load each node
actually bears.

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

import random
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

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


def _disjoint_ranges(
    path_nodes: Tuple[str, ...], fractions: Mapping[str, float]
) -> Dict[str, Tuple[float, float]]:
    """Lay per-node fractions as consecutive ranges over [0, 1]."""
    ranges = {}
    position = 0.0
    for node in path_nodes:
        fraction = fractions.get(node, 0.0)
        if fraction > 0.0:
            ranges[node] = (position, min(1.0, position + fraction))
            position += fraction
    return ranges


def enforce(
    problem: NIPSProblem,
    solution: NIPSSolution,
    disjoint: bool = True,
    seed: int = 0,
) -> EnforcementReport:
    """Simulate *solution* over the problem's traffic.

    Flow populations are treated fluidly (fractions of ``T^items``),
    which is exact for the hash-uniformity assumption the paper makes;
    *seed* only matters for the independent-sampling strawman.
    """
    rng = random.Random(seed)
    footprint = 0.0
    dropped = 0.0
    total_unwanted = 0.0
    cpu_load: Dict[str, float] = {}
    mem_load: Dict[str, float] = {}
    modeled_cpu: Dict[str, float] = {}
    modeled_mem: Dict[str, float] = {}

    layout = problem.layout
    per_path: Dict[Tuple[int, Pair], Dict[str, float]] = {}
    for t in np.flatnonzero(solution.d > 0.0).tolist():
        i, pair = layout.rule_ids[layout.rule_of[t]], layout.pairs[layout.pair_of[t]]
        per_path.setdefault((i, pair), {})[layout.nodes[layout.node_of[t]]] = float(solution.d[t])

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
                ranges = _disjoint_ranges(path.nodes, fractions)
                for node, (lo, hi) in ranges.items():
                    share = hi - lo
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
