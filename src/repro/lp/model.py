"""A small linear-programming modeling layer.

The paper's formulations (the NIDS load-balancing LP of Section 2.2 and
the NIPS MILP of Section 3.2) are written against named variables like
``d[i,k,j]`` and ``e[i,j]``.  This module provides that vocabulary —
variables, linear expressions, and constraints assembled by operator
overloading — and compiles a finished model into the sparse matrix form
consumed by :mod:`repro.lp.solver`.

The paper used CPLEX; we target ``scipy.optimize.linprog`` (HiGHS),
which solves the identical programs to optimality.  Only construction
lives here — solving is the backend's job, keeping the model inspectable
and the backend swappable.

Two ways to state a model, freely mixed in one program:

* **expressions** — ``add_variable`` / ``add_constraint`` with operator
  overloading, one Python object per variable and per term.  Right for
  the handful of rows that read like the paper (``CpuLoad >=
  CpuLoad[j]``) and for small programs;
* **index blocks** — :meth:`LinearProgram.add_variables` reserves a
  contiguous variable range, :meth:`LinearProgram.add_constraints`
  adds many rows at once as a COO triple ``(rows, cols, data)`` plus a
  right-hand side.  Right for the ``d_ikj`` family, where a 50-node
  program has ~32k variables and ~64k load-definition terms: the layout
  is "variables ``[0, D)`` are ``d``, rows ``[0, U)`` cover the units",
  stated with arrays instead of 64k ``LinExpr`` allocations.  A block's
  names are rendered only if somebody reads them (:class:`Names`).

:meth:`LinearProgram.compile` lowers both, in insertion order, to the
same sparse matrices — a block and the expressions it replaces compile
to identical arrays (``tests/test_planning_columns.py``).

Example
-------
>>> lp = LinearProgram("toy")
>>> x = lp.add_variable("x", ub=4.0)
>>> y = lp.add_variable("y", ub=4.0)
>>> lp.add_constraint(x + y <= 5.0, name="budget")
>>> lp.set_objective(3.0 * x + 2.0 * y, sense=Sense.MAXIMIZE)
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

Number = Union[int, float]


class Sense(enum.Enum):
    """Optimization direction."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


class Relation(enum.Enum):
    """Constraint relation."""

    LE = "<="
    GE = ">="
    EQ = "=="


class LinExpr:
    """An affine expression ``sum(coef * var) + constant``.

    Immutable from the caller's perspective: every operator returns a
    new expression.  Variables are referenced by integer index into the
    owning :class:`LinearProgram`.
    """

    __slots__ = ("coefficients", "constant")

    def __init__(self, coefficients: Optional[Mapping[int, float]] = None, constant: float = 0.0):
        self.coefficients: Dict[int, float] = dict(coefficients or {})
        self.constant = float(constant)

    def copy(self) -> "LinExpr":
        """Shallow copy (fresh coefficient dict)."""
        return LinExpr(self.coefficients, self.constant)

    # -- arithmetic -------------------------------------------------------
    def _added(self, other: Union["LinExpr", "Variable", Number], sign: float) -> "LinExpr":
        result = self.copy()
        if isinstance(other, Variable):
            other = other.as_expr()
        if isinstance(other, LinExpr):
            for index, coef in other.coefficients.items():
                result.coefficients[index] = result.coefficients.get(index, 0.0) + sign * coef
            result.constant += sign * other.constant
        elif isinstance(other, (int, float)):
            result.constant += sign * other
        else:
            return NotImplemented
        return result

    def __add__(self, other):
        return self._added(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._added(other, -1.0)

    def __rsub__(self, other):
        return (-self)._added(other, 1.0)

    def __neg__(self) -> "LinExpr":
        return LinExpr({i: -c for i, c in self.coefficients.items()}, -self.constant)

    def __mul__(self, factor: Number) -> "LinExpr":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return LinExpr(
            {i: c * factor for i, c in self.coefficients.items()}, self.constant * factor
        )

    __rmul__ = __mul__

    def __truediv__(self, divisor: Number) -> "LinExpr":
        if not isinstance(divisor, (int, float)):
            return NotImplemented
        return self * (1.0 / divisor)

    # -- relations --------------------------------------------------------
    def __le__(self, other) -> "Constraint":
        return Constraint(self - other, Relation.LE)

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - other, Relation.GE)

    def equals(self, other) -> "Constraint":
        """Build an equality constraint (``==`` is kept for identity)."""
        return Constraint(self - other, Relation.EQ)

    def evaluate(self, values: Sequence[float]) -> float:
        """Value of the expression under a variable assignment."""
        return self.constant + sum(coef * values[index] for index, coef in self.coefficients.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = " + ".join(f"{c:g}*v{i}" for i, c in sorted(self.coefficients.items()))
        return f"LinExpr({terms or '0'} + {self.constant:g})"


@dataclass(frozen=True)
class Variable:
    """Handle to a decision variable inside a :class:`LinearProgram`."""

    program: "LinearProgram" = field(repr=False, compare=False)
    index: int
    name: str

    def as_expr(self) -> LinExpr:
        """This variable as a one-term expression."""
        return LinExpr({self.index: 1.0})

    # Delegate arithmetic/relations to LinExpr so formulas read naturally.
    def __add__(self, other):
        return self.as_expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self.as_expr() - other

    def __rsub__(self, other):
        return other - self.as_expr()

    def __neg__(self):
        return -self.as_expr()

    def __mul__(self, factor):
        return self.as_expr() * factor

    __rmul__ = __mul__

    def __truediv__(self, divisor):
        return self.as_expr() / divisor

    def __le__(self, other):
        return self.as_expr() <= other

    def __ge__(self, other):
        return self.as_expr() >= other

    def equals(self, other):
        return self.as_expr().equals(other)


@dataclass
class Constraint:
    """A normalized constraint ``expr (<=|>=|==) 0``."""

    expression: LinExpr
    relation: Relation
    name: str = ""

    def slack(self, values: Sequence[float]) -> float:
        """Signed slack; non-negative iff the constraint is satisfied.

        ``LE``: slack = -lhs; ``GE``: slack = lhs; ``EQ``: slack =
        -|lhs| (zero exactly at feasibility).
        """
        lhs = self.expression.evaluate(values)
        if self.relation is Relation.LE:
            return -lhs
        if self.relation is Relation.GE:
            return lhs
        return -abs(lhs)


def linear_sum(terms: Iterable[Union[LinExpr, Variable, Number]]) -> LinExpr:
    """Sum an iterable of expressions/variables/numbers into one LinExpr.

    Builds the accumulator in place, so summing the thousands of
    ``d_ikj`` terms in a load constraint stays linear-time.
    """
    total = LinExpr()
    for term in terms:
        if isinstance(term, Variable):
            index = term.index
            total.coefficients[index] = total.coefficients.get(index, 0.0) + 1.0
        elif isinstance(term, LinExpr):
            for index, coef in term.coefficients.items():
                total.coefficients[index] = total.coefficients.get(index, 0.0) + coef
            total.constant += term.constant
        else:
            total.constant += float(term)
    return total


NameSource = Union[Sequence[str], Callable[[], Sequence[str]]]


class Names(_SequenceABC):
    """Variable or row names in index order; block names render on demand.

    Single names are appended eagerly.  A block's names may be given as
    a zero-argument function, called the first time a name inside the
    block is read — so the ~32k ``d[...]`` strings of a NIDS program
    are never built unless somebody prints them.  :meth:`index`
    resolves through one name→position dict and consults the eager
    names before it renders any block: looking up ``"MaxLoad"`` or a
    ``cpu-max[...]`` dual does not pay for the block it does not ask
    about.  Names are assumed unique, as in the program they describe.
    """

    __slots__ = ("_parts", "_starts", "_size", "_lookup", "_unindexed")

    def __init__(self) -> None:
        self._parts: List[NameSource] = []
        self._starts: List[int] = []
        self._size = 0
        self._lookup: Optional[Dict[str, int]] = None
        self._unindexed: List[int] = []

    def append(self, name: str) -> None:
        """Add one name at the end."""
        if self._parts and isinstance(self._parts[-1], list):
            self._parts[-1].append(name)
        else:
            self._starts.append(self._size)
            self._parts.append([name])
        self._size += 1
        self._lookup = None

    def add_block(self, count: int, names: NameSource) -> None:
        """Add *count* names at the end: a sequence, or a function
        returning one when first needed."""
        if not callable(names):
            names = list(names)
            if len(names) != count:
                raise ValueError(f"{len(names)} names for a block of {count}")
        self._starts.append(self._size)
        self._parts.append(names)
        self._size += count
        self._lookup = None

    def copy(self) -> "Names":
        """A snapshot that later appends to this object do not reach."""
        twin = Names()
        twin._parts = [p if callable(p) else list(p) for p in self._parts]
        twin._starts = list(self._starts)
        twin._size = self._size
        return twin

    def _part(self, k: int) -> List[str]:
        part = self._parts[k]
        if callable(part):
            part = list(part())
            stop = self._starts[k + 1] if k + 1 < len(self._starts) else self._size
            if len(part) != stop - self._starts[k]:
                raise ValueError(
                    f"{len(part)} names rendered for a block of {stop - self._starts[k]}"
                )
            self._parts[k] = part
        return part

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i: int) -> str:
        if i < 0:
            i += self._size
        if not 0 <= i < self._size:
            raise IndexError("name index out of range")
        k = bisect_right(self._starts, i) - 1
        return self._part(k)[i - self._starts[k]]

    def __iter__(self) -> Iterator[str]:
        for k in range(len(self._parts)):
            yield from self._part(k)

    def index(self, name: str) -> int:  # type: ignore[override]
        """Position of *name* (``ValueError`` when absent)."""
        if self._lookup is None:
            self._lookup = {}
            # Eager parts first; a block is rendered only on a miss.
            self._unindexed = sorted(
                range(len(self._parts)), key=lambda k: callable(self._parts[k])
            )
        while True:
            position = self._lookup.get(name)
            if position is not None:
                return position
            if not self._unindexed:
                raise ValueError(f"{name!r} is not a name here")
            k = self._unindexed.pop(0)
            start = self._starts[k]
            for offset, known in enumerate(self._part(k)):
                self._lookup.setdefault(known, start + offset)


@dataclass
class ConstraintBlock:
    """Many rows of one relation, stated as a COO triple.

    Row ``r`` reads ``sum(data[t] * x[cols[t]] for t where rows[t] == r)
    (<=|>=|==) rhs[r]``; ``rows`` are local to the block (``0 ..
    len(rhs) - 1``), ``cols`` are variable indices of the program.
    """

    relation: Relation
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    rhs: np.ndarray
    names: NameSource

    def __len__(self) -> int:
        return len(self.rhs)

    def slack(self, values: Sequence[float]) -> np.ndarray:
        """Per-row signed slack, as :meth:`Constraint.slack`."""
        x = np.asarray(values, dtype=np.float64)
        lhs = np.bincount(
            self.rows, weights=self.data * x[self.cols], minlength=len(self.rhs)
        ) - self.rhs
        if self.relation is Relation.LE:
            return -lhs
        if self.relation is Relation.GE:
            return lhs
        return -np.abs(lhs)


def _broadcast(value: Union[float, Sequence[float]], count: int) -> List[float]:
    return np.broadcast_to(np.asarray(value, dtype=np.float64), (count,)).tolist()


class LinearProgram:
    """A named LP: variables with bounds, constraints, and an objective."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self.variable_names = Names()
        self.lower_bounds: List[float] = []
        self.upper_bounds: List[Optional[float]] = []
        #: Expression rows and row blocks, in insertion order.
        self.constraints: List[Union[Constraint, ConstraintBlock]] = []
        self.objective: LinExpr = LinExpr()
        self.sense: Sense = Sense.MINIMIZE
        self.binary_indices: List[int] = []
        self._names: Dict[str, int] = {}
        self._num_constraints = 0

    # -- construction -----------------------------------------------------
    def add_variable(
        self,
        name: str,
        lb: float = 0.0,
        ub: Optional[float] = None,
        binary: bool = False,
    ) -> Variable:
        """Add a decision variable and return its handle.

        ``binary=True`` marks the variable integral-in-{0,1}; the pure
        LP backend treats it as ``0 <= x <= 1`` (the LP relaxation) and
        :mod:`repro.lp.milp` enforces integrality by branch and bound.
        """
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        index = len(self.variable_names)
        self.variable_names.append(name)
        if binary:
            lb, ub = 0.0, 1.0
            self.binary_indices.append(index)
        self.lower_bounds.append(float(lb))
        self.upper_bounds.append(None if ub is None else float(ub))
        self._names[name] = index
        return Variable(self, index, name)

    def add_variables(
        self,
        count: int,
        names: NameSource,
        lb: Union[float, Sequence[float]] = 0.0,
        ub: Union[None, float, Sequence[float]] = None,
    ) -> range:
        """Add *count* continuous variables as one contiguous index block.

        Returns their index range.  *lb* / *ub* are scalars or arrays of
        length *count*; *names* is the block's names or a function
        rendering them on demand (see :class:`Names`) and is the
        caller's to keep distinct from every other name.
        """
        start = len(self.variable_names)
        self.variable_names.add_block(count, names)
        self.lower_bounds.extend(_broadcast(lb, count))
        if ub is None:
            self.upper_bounds.extend([None] * count)
        else:
            self.upper_bounds.extend(_broadcast(ub, count))
        return range(start, start + count)

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built via expression relations."""
        if not isinstance(constraint, Constraint):
            raise TypeError("add_constraint expects a Constraint (use <=, >= or .equals)")
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        self._num_constraints += 1
        return constraint

    def add_constraints(
        self,
        relation: Relation,
        rows,
        cols,
        data,
        rhs,
        names: NameSource,
    ) -> ConstraintBlock:
        """Register ``len(rhs)`` rows of *relation* from a COO triple.

        See :class:`ConstraintBlock` for the reading of the arrays.
        """
        block = ConstraintBlock(
            relation=relation,
            rows=np.asarray(rows, dtype=np.intp),
            cols=np.asarray(cols, dtype=np.intp),
            data=np.asarray(data, dtype=np.float64),
            rhs=np.asarray(rhs, dtype=np.float64),
            names=names,
        )
        if not len(block.rows) == len(block.cols) == len(block.data):
            raise ValueError("rows, cols and data must have one length")
        if len(block.rows) and not (
            0 <= block.rows.min()
            and block.rows.max() < len(block.rhs)
            and 0 <= block.cols.min()
            and block.cols.max() < self.num_variables
        ):
            raise ValueError("constraint block indexes outside its rows or the variables")
        self.constraints.append(block)
        self._num_constraints += len(block)
        return block

    def set_objective(self, expression: Union[LinExpr, Variable], sense: Sense) -> None:
        """Set the objective expression and direction."""
        if isinstance(expression, Variable):
            expression = expression.as_expr()
        self.objective = expression
        self.sense = sense

    # -- introspection ----------------------------------------------------
    @property
    def num_variables(self) -> int:
        """Number of decision variables."""
        return len(self.variable_names)

    @property
    def num_constraints(self) -> int:
        """Number of registered constraint rows."""
        return self._num_constraints

    def variable_by_name(self, name: str) -> Variable:
        """Look up a previously added variable."""
        index = self._names.get(name)
        if index is None:
            try:
                index = self.variable_names.index(name)
            except ValueError:
                raise KeyError(name) from None
        return Variable(self, index, name)

    def is_feasible(self, values: Sequence[float], tol: float = 1e-6) -> bool:
        """Check a candidate point against bounds and all constraints."""
        if len(values) != self.num_variables:
            return False
        for index, value in enumerate(values):
            if value < self.lower_bounds[index] - tol:
                return False
            upper = self.upper_bounds[index]
            if upper is not None and value > upper + tol:
                return False
        return all(np.all(c.slack(values) >= -tol) for c in self.constraints)

    def objective_value(self, values: Sequence[float]) -> float:
        """Objective at a candidate point (in the model's own sense)."""
        return self.objective.evaluate(values)

    def compile(self) -> "CompiledLP":
        """Lower the model to sparse matrix form for the solver backend."""
        num_vars = self.num_variables
        cost = [0.0] * num_vars
        sign = 1.0 if self.sense is Sense.MINIMIZE else -1.0
        for index, coef in self.objective.coefficients.items():
            cost[index] = sign * coef

        ub, eq = _Rows(), _Rows()
        for constraint in self.constraints:
            side = eq if constraint.relation is Relation.EQ else ub
            # ``>=`` rows are stored negated: the solver takes ``A_ub x <= b_ub``.
            negate = constraint.relation is Relation.GE
            if isinstance(constraint, ConstraintBlock):
                side.add_block(constraint, negate)
            else:
                side.add_expression(constraint, negate)

        return CompiledLP(
            cost=cost,
            a_ub=ub.matrix(num_vars),
            b_ub=ub.rhs(),
            a_eq=eq.matrix(num_vars),
            b_eq=eq.rhs(),
            bounds=list(zip(self.lower_bounds, self.upper_bounds)),
            maximize=self.sense is Sense.MAXIMIZE,
            variable_names=self.variable_names.copy(),
            ineq_names=ub.names,
            eq_names=eq.names,
            name=self.name,
        )


class _Rows:
    """The rows of one matrix (``A_ub`` or ``A_eq``) while compiling.

    Expression rows collect in Python lists, blocks as array chunks
    offset to their first row; COO entry order is immaterial, only row
    numbers are, so the two kinds concatenate at the end.
    """

    def __init__(self) -> None:
        self.count = 0
        self.names = Names()
        self._rows: List[int] = []
        self._cols: List[int] = []
        self._data: List[float] = []
        self._rhs: List[float] = []
        self._chunks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def add_expression(self, constraint: Constraint, negate: bool) -> None:
        expr = constraint.expression
        coefficients = expr.coefficients
        self._rows.extend([self.count] * len(coefficients))
        self._cols.extend(coefficients)
        if negate:
            self._data.extend([-coef for coef in coefficients.values()])
            self._rhs.append(expr.constant)
        else:
            self._data.extend(coefficients.values())
            self._rhs.append(-expr.constant)
        self.names.append(constraint.name)
        self.count += 1

    def add_block(self, block: ConstraintBlock, negate: bool) -> None:
        sign = -1.0 if negate else 1.0
        self._chunks.append((block.rows + self.count, block.cols, sign * block.data))
        self._rhs.extend((sign * block.rhs).tolist())
        self.names.add_block(len(block), block.names)
        self.count += len(block)

    def rhs(self) -> np.ndarray:
        return np.array(self._rhs, dtype=np.float64)

    def matrix(self, num_vars: int):
        """``csr_matrix`` of the rows, ``None`` when there are none."""
        from scipy.sparse import csr_matrix  # deferred: keep model importable alone

        if self.count == 0:
            return None
        chunks = self._chunks + [
            (
                np.array(self._rows, dtype=np.intp),
                np.array(self._cols, dtype=np.intp),
                np.array(self._data, dtype=np.float64),
            )
        ]
        rows, cols, data = (np.concatenate(column) for column in zip(*chunks))
        return csr_matrix((data, (rows, cols)), shape=(self.count, num_vars))


@dataclass
class CompiledLP:
    """Sparse matrix form of a :class:`LinearProgram` (solver input).

    ``cost`` is the vector the backend *minimizes* (negated for a
    maximization model); ``bounds`` is whatever ``linprog`` accepts — the
    ``(lb, ub)`` pairs :meth:`LinearProgram.compile` emits, ``None``
    for unbounded, or an ``(n, 2)`` array.

    A compiled program is solved as it stands
    (:func:`repro.lp.solver.solve` accepts one) and is never mutated:
    "the same rows under other bounds" or "under another objective" is
    a derived object that shares the matrices and names —
    :meth:`with_bounds`, :meth:`with_cost`.
    """

    cost: Sequence[float]
    a_ub: object
    b_ub: np.ndarray
    a_eq: object
    b_eq: np.ndarray
    bounds: Union[List[Tuple[float, Optional[float]]], np.ndarray]
    maximize: bool
    variable_names: Names
    ineq_names: Names
    eq_names: Names
    name: str = "lp"

    @property
    def num_variables(self) -> int:
        """Number of decision variables."""
        return len(self.cost)

    def objective_value(self, values: Sequence[float]) -> float:
        """Objective at a candidate point (in the model's own sense)."""
        internal = float(np.dot(self.cost, values))
        return (-internal if self.maximize else internal) + 0.0  # no -0.0

    def with_bounds(self, lower, upper) -> "CompiledLP":
        """The same rows and objective under other variable bounds
        (scalars or one value per variable; ``np.inf`` for unbounded)."""
        bounds = np.empty((self.num_variables, 2))
        bounds[:, 0] = lower
        bounds[:, 1] = upper
        return replace(self, bounds=bounds)

    def with_cost(self, cost) -> "CompiledLP":
        """The same rows and bounds under another objective, *cost* one
        coefficient per variable in the model's own sense."""
        cost = np.asarray(cost, dtype=np.float64)
        return replace(self, cost=-cost if self.maximize else cost)
