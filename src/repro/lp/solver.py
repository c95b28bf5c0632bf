"""LP solver backend: HiGHS, through the bindings SciPy ships.

The paper solved its linear programs with CPLEX; HiGHS solves the same
programs to optimality, so every downstream quantity (optimal loads,
``d*`` fractions, LP upper bounds for the rounding analysis) is
preserved.  This module is the only place solver specifics live.

A solve hands HiGHS exactly what ``scipy.optimize.linprog(method=
"highs")`` would — the same column-wise matrix, bounds and options —
and maps the outcome the way ``linprog`` does, without ``linprog``'s
per-call option checks and per-column result repacking.  The bindings
are private to SciPy (``scipy.optimize._highspy``); where they do not
import, ``linprog`` itself is the backend.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_matrix, vstack

from ..obs import COUNT_BUCKETS, get_registry
from .model import CompiledLP, LinearProgram, Names

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError:  # a SciPy without the bundled bindings
    _highs = None

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
        result = backend(cost, a_ub, compiled.b_ub, a_eq, compiled.b_eq, bounds)
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
    if result.ineq_duals is not None:
        ineq_duals = (sign * result.ineq_duals).tolist()
    if result.eq_duals is not None:
        eq_duals = (sign * result.eq_duals).tolist()

    _record_solve(program, result.status, elapsed, result.iterations)

    return LPSolution(
        status=result.status,
        objective=objective,
        values=values,
        variable_names=compiled.variable_names,
        solve_seconds=elapsed,
        message=result.message,
        ineq_duals=ineq_duals,
        eq_duals=eq_duals,
        ineq_names=compiled.ineq_names,
        eq_names=compiled.eq_names,
    )


@dataclass
class _BackendResult:
    """What :func:`solve` reads from a backend: the status mapped the
    way ``linprog`` maps it, and the point and row marginals of the
    minimisation it was handed (``None`` where HiGHS gave none)."""

    status: SolveStatus
    message: str
    x: Optional[np.ndarray]
    ineq_duals: Optional[np.ndarray]
    eq_duals: Optional[np.ndarray]
    iterations: int


#: ``linprog``'s status codes: 0 optimal, 2 infeasible, 3 unbounded;
#: everything else (1 iteration limit, 4 numerical trouble) is an error.
_LINPROG_STATUS = {
    0: SolveStatus.OPTIMAL,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}

#: ``linprog`` accepts an optimum only if it satisfies the rows and
#: bounds to this tolerance (``sqrt(1e-9) * 10``), else reports status 4.
_FEASIBILITY_TOL = np.sqrt(1e-9) * 10


def _solve_linprog(cost, a_ub, b_ub, a_eq, b_eq, bounds) -> _BackendResult:
    """One solve through ``scipy.optimize.linprog`` (the fallback, and
    the reference the direct path is tested against)."""
    result = linprog(
        c=cost,
        A_ub=a_ub,
        b_ub=b_ub if len(b_ub) else None,
        A_eq=a_eq,
        b_eq=b_eq if len(b_eq) else None,
        bounds=bounds,
        method="highs",
    )
    return _BackendResult(
        status=_LINPROG_STATUS.get(result.status, SolveStatus.ERROR),
        message=result.message,
        x=result.x,
        ineq_duals=result.ineqlin.marginals,
        eq_duals=result.eqlin.marginals,
        iterations=result.nit,
    )


def _finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must not contain values inf or nan")


def _solve_highs(cost, a_ub, b_ub, a_eq, b_eq, bounds) -> _BackendResult:
    """One solve through SciPy's HiGHS bindings, as ``linprog`` runs it.

    The same input checks (a ``ValueError`` for what ``linprog`` would
    refuse), the same ``HighsLp`` (column-wise ``[A_ub; A_eq]``, rows
    ``-inf <= A_ub x <= b_ub`` and ``b_eq <= A_eq x <= b_eq``, a NaN
    bound read as no bound), the same options and the same status
    mapping, including the post-solve feasibility check.
    """
    cost = np.asarray(cost, dtype=np.float64)
    num_cols = len(cost)
    if num_cols == 0:
        raise ValueError("the program has no columns to solve for")
    _finite("the cost", cost)
    matrices = [m for m in (a_ub, a_eq) if m is not None]
    for matrix in matrices:
        if matrix.shape[1] != num_cols:
            raise ValueError("a constraint matrix's width differs from the cost's")
        _finite("a constraint matrix", matrix.data)
    _finite("b_ub", b_ub)
    _finite("b_eq", b_eq)
    matrix = (
        vstack(matrices, format="csc") if matrices else csc_matrix((0, num_cols))
    )
    if matrix.shape[0] != len(b_ub) + len(b_eq):
        raise ValueError("a right-hand side's length differs from its rows'")
    bounds = np.array(bounds, dtype=np.float64).reshape(num_cols, 2)
    lower = np.where(np.isnan(bounds[:, 0]), -np.inf, bounds[:, 0])
    upper = np.where(np.isnan(bounds[:, 1]), np.inf, bounds[:, 1])
    row_upper = np.concatenate((b_ub, b_eq))
    row_lower = np.concatenate((np.full(len(b_ub), -np.inf), b_eq))

    lp = _highs.HighsLp()
    lp.num_col_ = num_cols
    lp.num_row_ = matrix.shape[0]
    lp.a_matrix_.num_col_ = num_cols
    lp.a_matrix_.num_row_ = matrix.shape[0]
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.col_cost_ = cost
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.a_matrix_.start_ = matrix.indptr
    lp.a_matrix_.index_ = matrix.indices
    lp.a_matrix_.value_ = matrix.data
    highs = _highs._Highs()
    highs.passOptions(_OPTIONS)
    failed = _highs.HighsStatus.kError
    iterations = 0
    if highs.passModel(lp) == failed:
        model_status = _highs.HighsModelStatus.kModelError
    elif highs.run() == failed:
        model_status = highs.getModelStatus()
    else:
        model_status = highs.getModelStatus()
        info = highs.getInfo()
        iterations = info.simplex_iteration_count or info.ipm_iteration_count
    message = highs.modelStatusToString(model_status)
    if model_status != _highs.HighsModelStatus.kOptimal:
        return _BackendResult(
            status=_HIGHS_STATUS.get(model_status, SolveStatus.ERROR),
            message=message,
            x=None,
            ineq_duals=None,
            eq_duals=None,
            iterations=iterations,
        )
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    row_duals = np.array(solution.row_dual)
    slack = row_upper - np.array(solution.row_value)
    tol = _FEASIBILITY_TOL
    feasible = not (
        np.isnan(x).any()
        or np.isnan(info.objective_function_value)
        or np.isnan(slack).any()
        or (x < lower - tol).any()
        or (x > upper + tol).any()
        or (slack[: len(b_ub)] < -tol).any()
        or (np.abs(slack[len(b_ub):]) > tol).any()
    )
    return _BackendResult(
        status=SolveStatus.OPTIMAL if feasible else SolveStatus.ERROR,
        message=message if feasible else "the optimum violates its constraints",
        x=x,
        ineq_duals=row_duals[: len(b_ub)],
        eq_duals=row_duals[len(b_ub):],
        iterations=iterations,
    )


if _highs is not None:
    #: The options ``linprog(method="highs")`` sets; the rest default.
    _OPTIONS = _highs.HighsOptions()
    _OPTIONS.presolve = "on"
    _OPTIONS.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    _OPTIONS.log_to_console = False
    _OPTIONS.output_flag = False
    _OPTIONS.simplex_strategy = (
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    )
    #: ``linprog``'s mapping of the HiGHS model status (a model HiGHS
    #: refuses to load counts as infeasible); the rest are errors.
    _HIGHS_STATUS = {
        _highs.HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
        _highs.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
        _highs.HighsModelStatus.kModelError: SolveStatus.INFEASIBLE,
        _highs.HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
    }

#: The backend every solve goes through.
backend = _solve_linprog if _highs is None else _solve_highs


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
