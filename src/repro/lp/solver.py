"""LP and MILP solver backend: HiGHS, through the bindings SciPy ships.

The paper solved its programs with CPLEX; HiGHS solves the same
programs to optimality, so every downstream quantity (optimal loads,
``d*`` fractions, LP upper bounds for the rounding analysis, exact
integer optima) is preserved.  This module is the only place solver
specifics live.  A program with binary columns is handed to HiGHS with
those columns integral, in the same call, and HiGHS's own
branch-and-bound solves it to a relative gap of zero.

A solve hands HiGHS exactly what ``scipy.optimize.linprog(method=
"highs")`` would, with presolve as the program states — the same
column-wise matrix, bounds and options — and maps the outcome the way
``linprog`` does, without ``linprog``'s
per-call option checks and per-column result repacking.  The program
crosses into HiGHS as arrays (cost, bounds, row bounds and the CSC
``start`` / ``index`` / ``value`` through ``passModel``'s array
overload), with no per-entry conversion.  The bindings are private to
SciPy (``scipy.optimize._highspy``); where they do not import,
``linprog`` itself is the backend.

An LP solve can start from a :class:`Basis` — typically one read back
from an earlier solve of a similar program — and hand back its own
final basis.  HiGHS then skips presolve and runs its dual simplex from
that start.  ``linprog`` takes no start: the fallback solves cold and
reads back none.
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


#: HiGHS's basis status codes (``HighsBasisStatus``): a nonbasic column
#: or row at its lower bound, basic, at its upper bound, free at zero.
BASIS_LOWER, BASIS_BASIC, BASIS_UPPER, BASIS_ZERO = 0, 1, 2, 3


@dataclass(frozen=True)
class Basis:
    """A simplex basis: one HiGHS status code (``BASIS_*``) per column,
    and per row in the order the backend holds them — the program's
    inequality rows, then its equality rows.

    A start handed to :func:`solve` may be *alien*: any codes of the
    right lengths.  HiGHS repairs a start whose basic count is wrong
    before it iterates.
    """

    col_status: np.ndarray
    row_status: np.ndarray


@dataclass
class LPSolution:
    """Result of one LP or MILP solve.

    ``objective`` is reported in the model's own sense (a maximization
    model reports the maximum), regardless of the internal sign flip
    used to feed ``linprog``.

    ``ineq_duals`` / ``eq_duals`` are the constraint marginals (dual
    values) in the order the model's inequality/equality constraints
    were added — the sensitivity of the objective to relaxing each
    constraint, used by the provisioning analyses.  Signs follow the
    model's own sense.  A MILP has none: both lists are empty.

    ``values`` is the float64 point the backend returned, one entry per
    variable (empty when the solve found none).

    ``basis`` is the final simplex basis, read back only when the solve
    asked for it (and only from HiGHS, for an LP it solved to optimality).
    """

    status: SolveStatus
    objective: float
    values: np.ndarray
    variable_names: Names
    solve_seconds: float
    message: str = ""
    ineq_duals: List[float] = field(default_factory=list)
    eq_duals: List[float] = field(default_factory=list)
    ineq_names: Names = field(default_factory=Names)
    eq_names: Names = field(default_factory=Names)
    basis: Optional[Basis] = None

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
        return float(self.values[self.variable_names.index(name)])

    def as_dict(self) -> Dict[str, float]:
        """Full assignment as ``{name: value}`` (for logs and tests)."""
        return dict(zip(self.variable_names, self.values.tolist()))


def solve(
    program: Union[LinearProgram, CompiledLP],
    *,
    start: Optional[Basis] = None,
    read_basis: bool = False,
) -> LPSolution:
    """Solve *program* and return an :class:`LPSolution`.

    *program* is a model, compiled here, or an already compiled one
    (typically a ``with_bounds`` / ``with_cost`` view of a program that
    is solved many times; the columns such a view fixes at zero are
    not handed to the backend and read back as 0).  The objective is
    evaluated by the program itself: term by term in stated order for
    a :class:`LinearProgram`, ``cost · x`` for a :class:`CompiledLP`.

    A program with ``binary_indices`` is a MILP: those columns are
    integral, and ``OPTIMAL`` means HiGHS proved the integer optimum.
    HiGHS presolves the program unless its ``presolve`` is off.

    *start* is a simplex basis of the program's columns and rows
    (:class:`Basis`) to start an LP from; with *read_basis* the
    solution carries the final one.  A MILP or a bounds view takes no
    start and reads back no basis.

    Never raises for infeasible/unbounded models — callers branch on
    ``solution.status``.  Use :func:`solve_or_raise` when the model is
    known-feasible by construction (e.g. the NIDS coverage LP, which
    always admits ``d_ikj = 1/|P_ik|``).
    """
    compiled = program if isinstance(program, CompiledLP) else program.compile()
    started = time.perf_counter()
    cost, a_ub, a_eq, bounds = compiled.cost, compiled.a_ub, compiled.a_eq, compiled.bounds
    kept = None
    if compiled.bounds_view:
        # A bounds view usually fixes most columns at zero (a rounding
        # enables a few rules per node): they contribute nothing, and
        # the backend's per-column costs are paid for the others only.
        kept = np.flatnonzero(bounds.any(axis=1))
        cost, bounds = cost[kept], bounds[kept]
        a_ub = None if a_ub is None else a_ub[:, kept]
        a_eq = None if a_eq is None else a_eq[:, kept]
    args = (cost, a_ub, compiled.b_ub, a_eq, compiled.b_eq, bounds)
    integral = len(compiled.binary_indices) > 0
    if integral:  # an LP's call carries no integrality argument
        integrality = np.zeros(compiled.num_variables, dtype=np.int32)
        integrality[list(compiled.binary_indices)] = 1
        args += (integrality if kept is None else integrality[kept],)
    if integral or kept is not None:
        start, read_basis = None, False
    try:
        result = backend(
            *args, presolve=compiled.presolve, start=start, read_basis=read_basis
        )
    except ValueError as exc:
        elapsed = time.perf_counter() - started
        _record_solve(program, SolveStatus.ERROR, elapsed, None)
        return LPSolution(
            status=SolveStatus.ERROR,
            objective=float("nan"),
            values=np.empty(0),
            variable_names=compiled.variable_names,
            solve_seconds=elapsed,
            message=str(exc),
        )
    elapsed = time.perf_counter() - started

    objective = float("nan")
    values = np.empty(0)
    if result.x is not None:
        values = result.x
        if kept is not None:
            values = np.zeros(compiled.num_variables)
            values[kept] = result.x
        objective = program.objective_value(values)

    # HiGHS reports marginals for the *internal* (sign-flipped for
    # maximization) problem; flip back so duals follow the model sense.
    sign = -1.0 if compiled.maximize else 1.0
    ineq_duals: List[float] = []
    eq_duals: List[float] = []
    if result.ineq_duals is not None and not integral:
        ineq_duals = (sign * result.ineq_duals).tolist()
    if result.eq_duals is not None and not integral:
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
        basis=result.basis,
    )


@dataclass
class _BackendResult:
    """What :func:`solve` reads from a backend: the status mapped the
    way ``linprog`` maps it, and the point, row marginals and final
    basis of the minimisation it was handed (``None`` where HiGHS gave
    none, or no basis was asked for)."""

    status: SolveStatus
    message: str
    x: Optional[np.ndarray]
    ineq_duals: Optional[np.ndarray]
    eq_duals: Optional[np.ndarray]
    iterations: int
    basis: Optional[Basis] = None


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


#: HiGHS stops its branch-and-bound only on a proved optimum.
_MIP_REL_GAP = 0.0


def _solve_linprog(
    cost, a_ub, b_ub, a_eq, b_eq, bounds, integrality=None, presolve=True,
    start=None, read_basis=False,
) -> _BackendResult:
    """One solve through ``scipy.optimize.linprog`` (the fallback, and
    the reference the direct path is tested against).  *integrality*
    marks integral columns with 1; ``None`` is an LP.  ``linprog``
    takes no start basis and returns none: *start* is ignored (the
    solve is cold) and so is *read_basis*."""
    options = {} if integrality is None else {"mip_rel_gap": _MIP_REL_GAP}
    if not presolve:
        options["presolve"] = False
    result = linprog(
        c=cost,
        A_ub=a_ub,
        b_ub=b_ub if len(b_ub) else None,
        A_eq=a_eq,
        b_eq=b_eq if len(b_eq) else None,
        bounds=bounds,
        method="highs",
        integrality=integrality,
        options=options or None,
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


def _solve_highs(
    cost, a_ub, b_ub, a_eq, b_eq, bounds, integrality=None, presolve=True,
    start=None, read_basis=False,
) -> _BackendResult:
    """One solve through SciPy's HiGHS bindings, as ``linprog`` runs it.

    The same input checks (a ``ValueError`` for what ``linprog`` would
    refuse), the same model (column-wise ``[A_ub; A_eq]``, rows
    ``-inf <= A_ub x <= b_ub`` and ``b_eq <= A_eq x <= b_eq``, a NaN
    bound read as no bound, *integrality* 1 on integral columns), the
    same options (``presolve`` off when *presolve* is false) and the
    same status mapping, including the post-solve feasibility check.

    A *start* basis is handed to HiGHS as alien (HiGHS repairs its
    basic count); HiGHS then runs no presolve.  With *read_basis* the
    result carries the final basis.
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
    bounds = np.asarray(bounds, dtype=np.float64).reshape(num_cols, 2)
    lower = np.where(np.isnan(bounds[:, 0]), -np.inf, bounds[:, 0])
    upper = np.where(np.isnan(bounds[:, 1]), np.inf, bounds[:, 1])
    row_upper = np.concatenate((b_ub, b_eq))
    row_lower = np.concatenate((np.full(len(b_ub), -np.inf), b_eq))
    if start is not None and (
        len(start.col_status) != num_cols or len(start.row_status) != len(row_upper)
    ):
        raise ValueError("a start basis's length differs from the program's")

    highs = _highs._Highs()
    highs.passOptions(_OPTIONS[presolve])
    failed = _highs.HighsStatus.kError
    iterations = 0
    # The array overload: HiGHS copies the buffers, no per-entry
    # conversion.  Indices are int32; ``integrality`` must hold one
    # entry per column (0 continuous), an empty one is refused.
    if integrality is None:
        integrality = np.zeros(num_cols, dtype=np.int32)
    passed = highs.passModel(
        num_cols,
        matrix.shape[0],
        matrix.nnz,
        _COLWISE,
        _MINIMIZE,
        0.0,
        cost,
        lower,
        upper,
        row_lower,
        row_upper,
        matrix.indptr.astype(np.int32, copy=False),
        matrix.indices.astype(np.int32, copy=False),
        matrix.data,
        integrality,
    )
    if passed != failed and start is not None:
        passed = highs.setBasis(_highs_basis(start))
    if passed == failed:
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
    row_value = np.array(solution.row_value)
    slack = row_upper - row_value
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
        basis=(
            _read_basis(highs, (x, lower, upper), (row_value, row_lower, row_upper))
            if read_basis and feasible
            else None
        ),
    )


def _highs_basis(start: Basis):
    """*start* as the bindings' ``HighsBasis``, marked alien."""
    basis = _highs.HighsBasis()
    basis.col_status = list(map(_STATUSES.__getitem__, start.col_status.tolist()))
    basis.row_status = list(map(_STATUSES.__getitem__, start.row_status.tolist()))
    basis.alien = True
    return basis


def _read_basis(highs, cols, rows) -> Basis:
    """The final basis: HiGHS's basic set (``getBasicVariables``, a
    row ``r`` as ``-1 - r``), every other column and row nonbasic at
    the bound its value is nearer (the lower one on a tie, as for a
    fixed row) or at zero when it is free.  *cols* and *rows* are
    (value, lower, upper) columns.  Read so, not through ``getBasis``,
    whose one status object per entry cost about 2 ms a solve at
    pop100's size against 0.2 ms."""
    statuses = [_nonbasic(*cols), _nonbasic(*rows)]
    basic = highs.getBasicVariables()[1]
    statuses[0][basic[basic >= 0]] = BASIS_BASIC
    statuses[1][-1 - basic[basic < 0]] = BASIS_BASIC
    return Basis(*statuses)


def _nonbasic(value: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    status = np.where(
        np.abs(upper - value) < np.abs(value - lower), BASIS_UPPER, BASIS_LOWER
    ).astype(np.int8)
    status[np.isinf(lower) & np.isinf(upper)] = BASIS_ZERO
    return status


def _highs_options(presolve: str):
    """The options ``linprog(method="highs")`` sets, and the MIP gap
    :func:`_solve_linprog` hands it; the rest default."""
    options = _highs.HighsOptions()
    options.mip_rel_gap = _MIP_REL_GAP
    options.presolve = presolve
    options.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = (
        _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    )
    return options


if _highs is not None:
    #: By whether the program is presolved.
    _OPTIONS = {True: _highs_options("on"), False: _highs_options("off")}
    #: ``HighsBasisStatus`` by code.
    _STATUSES = [_highs.HighsBasisStatus(code) for code in range(5)]
    _COLWISE = int(_highs.MatrixFormat.kColwise)
    _MINIMIZE = int(_highs.ObjSense.kMinimize)
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

    This backend is the single funnel every program in the system
    flows through (NIDS assignment, NIPS relaxation/rounding, the exact
    NIPS MILP), so recording here gives the unified snapshot its solver
    section without threading a registry down the call chain.
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


def solve_or_raise(
    program: Union[LinearProgram, CompiledLP],
    *,
    start: Optional[Basis] = None,
    read_basis: bool = False,
) -> LPSolution:
    """Solve *program* (as :func:`solve`), raising :class:`SolverError`
    unless optimal."""
    solution = solve(program, start=start, read_basis=read_basis)
    if not solution.optimal:
        raise SolverError(
            f"LP {program.name!r} not solved to optimality: "
            f"{solution.status.value} ({solution.message})"
        )
    return solution
