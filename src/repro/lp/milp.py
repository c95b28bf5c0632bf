"""Branch-and-bound for binary MILPs.

The NIPS deployment problem (Section 3.2) is a mixed integer-linear
program whose only integral variables are the binary rule-enablement
indicators ``e_ij``.  The paper proves the problem NP-hard and attacks
it with randomized rounding; to *evaluate* that rounding we still want
exact optima on small instances (our tests compare the rounded solution
to both the true integer optimum and the LP upper bound).

This module implements a plain best-bound branch-and-bound over the
binary variables of a :class:`~repro.lp.model.LinearProgram`: the
program is compiled once and every node is the same rows under other
bounds (a fixed binary has ``lb = ub``), solved with the HiGHS backend.
It is intended for instances with tens of binaries — exactly the scale
of the test fixtures — and exposes a node budget so callers degrade
gracefully.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .model import LinearProgram, Names, Sense
from .solver import LPSolution, SolveStatus, solve

_INTEGRALITY_TOL = 1e-6


@dataclass
class MILPSolution:
    """Result of a branch-and-bound run.

    ``proved_optimal`` is False when the node budget was exhausted
    before the tree closed; ``objective``/``values`` then hold the best
    incumbent found (if any).
    """

    status: SolveStatus
    objective: float
    values: List[float]
    variable_names: Names
    nodes_explored: int
    proved_optimal: bool
    best_bound: float

    @property
    def feasible(self) -> bool:
        """Whether an integral incumbent was found."""
        return self.status is SolveStatus.OPTIMAL

    def value_by_name(self, name: str) -> float:
        """Value of the variable called *name* in the incumbent."""
        return self.values[self.variable_names.index(name)]


def _most_fractional(values: List[float], binaries: List[int]) -> Optional[int]:
    """Index of the binary variable farthest from integrality, if any."""
    best_index = None
    best_distance = _INTEGRALITY_TOL
    for index in binaries:
        distance = abs(values[index] - round(values[index]))
        if distance > best_distance:
            best_distance = distance
            best_index = index
    return best_index


def solve_milp(program: LinearProgram, max_nodes: int = 5000) -> MILPSolution:
    """Solve *program* exactly over its binary variables.

    Best-bound search: nodes are popped in order of their relaxation
    bound, so the first incumbent that matches the frontier bound is
    provably optimal.  Fractional (continuous) variables are left to
    the LP at every node.
    """
    maximize = program.sense is Sense.MAXIMIZE
    sign = -1.0 if maximize else 1.0  # heap orders by sign * bound (min-heap)
    counter = itertools.count()
    compiled = program.compile()
    lower = np.array(program.lower_bounds)
    upper = np.array([np.inf if ub is None else ub for ub in program.upper_bounds])

    def relaxation(fixings: Dict[int, int]) -> LPSolution:
        fixed, values = list(fixings), list(fixings.values())
        node_lower, node_upper = lower.copy(), upper.copy()
        node_lower[fixed] = node_upper[fixed] = values
        return solve(compiled.with_bounds(node_lower, node_upper))

    root = relaxation({})
    if root.status is not SolveStatus.OPTIMAL:
        return MILPSolution(
            status=root.status,
            objective=float("nan"),
            values=[],
            variable_names=compiled.variable_names,
            nodes_explored=1,
            proved_optimal=False,
            best_bound=float("nan"),
        )

    heap: List[Tuple[float, int, Dict[int, int], LPSolution]] = [
        (sign * root.objective, next(counter), {}, root)
    ]
    incumbent: Optional[LPSolution] = None
    incumbent_objective = float("-inf") if maximize else float("inf")
    nodes = 1
    best_bound = root.objective

    def better(candidate: float) -> bool:
        if maximize:
            return candidate > incumbent_objective + _INTEGRALITY_TOL
        return candidate < incumbent_objective - _INTEGRALITY_TOL

    tree_closed = False
    while heap:
        if nodes >= max_nodes:
            break
        keyed_bound, _, fixings, relaxed = heapq.heappop(heap)
        best_bound = keyed_bound * sign  # key = sign * bound, sign in {+1, -1}
        if incumbent is not None and not better(best_bound):
            tree_closed = True  # frontier can no longer improve on the incumbent
            break

        branch_index = _most_fractional(relaxed.values, program.binary_indices)
        if branch_index is None:
            if better(relaxed.objective):
                incumbent = relaxed
                incumbent_objective = relaxed.objective
            continue

        for branch_value in (0, 1):
            child_fixings = dict(fixings)
            child_fixings[branch_index] = branch_value
            child = relaxation(child_fixings)
            nodes += 1
            if child.status is not SolveStatus.OPTIMAL:
                continue
            if incumbent is not None and not better(child.objective):
                continue
            heapq.heappush(
                heap, (sign * child.objective, next(counter), child_fixings, child)
            )

    proved = incumbent is not None and (tree_closed or not heap)
    if incumbent is None:
        return MILPSolution(
            status=SolveStatus.INFEASIBLE,
            objective=float("nan"),
            values=[],
            variable_names=compiled.variable_names,
            nodes_explored=nodes,
            proved_optimal=False,
            best_bound=best_bound,
        )
    return MILPSolution(
        status=SolveStatus.OPTIMAL,
        objective=incumbent.objective,
        values=list(incumbent.values),
        variable_names=compiled.variable_names,
        nodes_explored=nodes,
        proved_optimal=proved,
        best_bound=best_bound,
    )
