"""LP solver backend over ``scipy.optimize.linprog`` (HiGHS).

The paper solved its linear programs with CPLEX; HiGHS solves the same
programs to optimality, so every downstream quantity (optimal loads,
``d*`` fractions, LP upper bounds for the rounding analysis) is
preserved.  This module is the only place solver specifics live.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Dict, List, Union

import numpy as np
from scipy.optimize import linprog

from ..obs import COUNT_BUCKETS, get_registry
from .model import CompiledLP, LinearProgram, Names


class SolveStatus(enum.Enum):
    """Normalized solver outcome."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


class SolverError(RuntimeError):
    """Raised when a solve that must succeed does not."""


@dataclass
class LPSolution:
    """Result of one LP solve.

    ``objective`` is reported in the model's own sense (a maximization
    model reports the maximum), regardless of the internal sign flip
    used to feed ``linprog``.

    ``ineq_duals`` / ``eq_duals`` are the constraint marginals (dual
    values) in the order the model's inequality/equality constraints
    were added — the sensitivity of the objective to relaxing each
    constraint, used by the provisioning analyses.  Signs follow the
    model's own sense.
    """

    status: SolveStatus
    objective: float
    values: List[float]
    variable_names: Names
    solve_seconds: float
    message: str = ""
    ineq_duals: List[float] = field(default_factory=list)
    eq_duals: List[float] = field(default_factory=list)
    ineq_names: Names = field(default_factory=Names)
    eq_names: Names = field(default_factory=Names)

    def dual_by_name(self, name: str) -> float:
        """Dual value of the (uniquely) named constraint.

        Inequalities are consulted first, so asking for a ``cpu-max``
        dual never renders the equality blocks' names.
        """
        for names, duals in (
            (self.ineq_names, self.ineq_duals),
            (self.eq_names, self.eq_duals),
        ):
            try:
                return duals[names.index(name)]
            except ValueError:
                continue
        raise KeyError(f"no constraint named {name!r}")

    @property
    def optimal(self) -> bool:
        """Whether the solve reached proven optimality."""
        return self.status is SolveStatus.OPTIMAL

    def value_by_name(self, name: str) -> float:
        """Value of the variable called *name*."""
        return self.values[self.variable_names.index(name)]

    def as_dict(self) -> Dict[str, float]:
        """Full assignment as ``{name: value}`` (for logs and tests)."""
        return dict(zip(self.variable_names, self.values))


def solve(program: Union[LinearProgram, CompiledLP]) -> LPSolution:
    """Solve *program* and return an :class:`LPSolution`.

    *program* is a model, compiled here, or an already compiled one
    (typically a ``with_bounds`` / ``with_cost`` view of a program that
    is solved many times; the columns such a view fixes at zero are
    not handed to the backend and read back as 0).  The objective is
    evaluated by the program itself: term by term in stated order for
    a :class:`LinearProgram`, ``cost · x`` for a :class:`CompiledLP`.

    Never raises for infeasible/unbounded models — callers branch on
    ``solution.status``.  Use :func:`solve_or_raise` when the model is
    known-feasible by construction (e.g. the NIDS coverage LP, which
    always admits ``d_ikj = 1/|P_ik|``).
    """
    compiled = program if isinstance(program, CompiledLP) else program.compile()
    started = time.perf_counter()
    cost, a_ub, a_eq, bounds = compiled.cost, compiled.a_ub, compiled.a_eq, compiled.bounds
    kept = None
    if isinstance(bounds, np.ndarray):
        # A bounds view usually fixes most columns at zero (a rounding
        # enables a few rules per node): they contribute nothing, and
        # the backend's per-column costs are paid for the others only.
        kept = np.flatnonzero(bounds.any(axis=1))
        cost, bounds = cost[kept], bounds[kept]
        a_ub = None if a_ub is None else a_ub[:, kept]
        a_eq = None if a_eq is None else a_eq[:, kept]
    try:
        result = linprog(
            c=cost,
            A_ub=a_ub,
            b_ub=compiled.b_ub if len(compiled.b_ub) else None,
            A_eq=a_eq,
            b_eq=compiled.b_eq if len(compiled.b_eq) else None,
            bounds=bounds,
            method="highs",
        )
    except ValueError as exc:
        elapsed = time.perf_counter() - started
        _record_solve(program, SolveStatus.ERROR, elapsed, None)
        return LPSolution(
            status=SolveStatus.ERROR,
            objective=float("nan"),
            values=[],
            variable_names=compiled.variable_names,
            solve_seconds=elapsed,
            message=str(exc),
        )
    elapsed = time.perf_counter() - started

    if result.status == 0:
        status = SolveStatus.OPTIMAL
    elif result.status == 2:
        status = SolveStatus.INFEASIBLE
    elif result.status == 3:
        status = SolveStatus.UNBOUNDED
    else:
        status = SolveStatus.ERROR

    objective = float("nan")
    values: List[float] = []
    if result.x is not None:
        x = result.x
        if kept is not None:
            x = np.zeros(compiled.num_variables)
            x[kept] = result.x
        values = x.tolist()
        objective = program.objective_value(values)

    # HiGHS reports marginals for the *internal* (sign-flipped for
    # maximization) problem; flip back so duals follow the model sense.
    sign = -1.0 if compiled.maximize else 1.0
    ineq_duals: List[float] = []
    eq_duals: List[float] = []
    ineqlin = getattr(result, "ineqlin", None)
    if ineqlin is not None and getattr(ineqlin, "marginals", None) is not None:
        ineq_duals = (sign * np.asarray(ineqlin.marginals, dtype=float)).tolist()
    eqlin = getattr(result, "eqlin", None)
    if eqlin is not None and getattr(eqlin, "marginals", None) is not None:
        eq_duals = (sign * np.asarray(eqlin.marginals, dtype=float)).tolist()

    _record_solve(program, status, elapsed, getattr(result, "nit", None))

    return LPSolution(
        status=status,
        objective=objective,
        values=values,
        variable_names=compiled.variable_names,
        solve_seconds=elapsed,
        message=getattr(result, "message", ""),
        ineq_duals=ineq_duals,
        eq_duals=eq_duals,
        ineq_names=compiled.ineq_names,
        eq_names=compiled.eq_names,
    )


def _record_solve(
    program: Union[LinearProgram, CompiledLP], status: SolveStatus, elapsed: float, nit
) -> None:
    """Record one solve into the ambient telemetry registry.

    This backend is the single funnel every LP in the system flows
    through (NIDS assignment, NIPS relaxation/rounding, MILP node
    relaxations), so recording here gives the unified snapshot its
    solver section without threading a registry down the call chain.
    A no-op under the default null registry.
    """
    registry = get_registry()
    registry.counter(
        "lp_solves_total",
        "LP solves by backend outcome",
        labels=("status",),
    ).inc(status=status.value)
    registry.histogram(
        "lp_solve_seconds", "wall-clock seconds per LP solve"
    ).observe(elapsed)
    registry.histogram(
        "lp_variables", "decision variables per solved program",
        buckets=COUNT_BUCKETS,
    ).observe(program.num_variables)
    if nit is not None:
        registry.histogram(
            "lp_iterations", "simplex/IPM iterations per solve",
            buckets=COUNT_BUCKETS,
        ).observe(float(nit))


def solve_or_raise(program: Union[LinearProgram, CompiledLP]) -> LPSolution:
    """Solve *program*, raising :class:`SolverError` unless optimal."""
    solution = solve(program)
    if not solution.optimal:
        raise SolverError(
            f"LP {program.name!r} not solved to optimality: "
            f"{solution.status.value} ({solution.message})"
        )
    return solution
