"""Programs written one term at a time: the reference for the index blocks.

This is the expression half of ``repro.lp.model`` as it stood before the
product stated every program as index blocks — ``LinExpr``,
``Variable``, ``Constraint``, ``linear_sum`` and the ``add_variable`` /
``add_constraint`` / ``variable_by_name`` / ``is_feasible`` surface,
moved here verbatim as :class:`ExpressionProgram` — with its own
lowering to a :class:`~repro.lp.model.CompiledLP` (one Python list entry
per term).  ``tests/planning_oracle.py`` writes the paper's programs
with it the way the paper prints them (``cpu_max >= cpu_j``), and
``tests/test_planning_columns.py`` / ``tests/test_nips_layout.py``
compare the product's block layouts against the result with ``==``.  It
shares the vocabulary (``Sense``, ``Relation``) and the lowering target
(``CompiledLP``, ``Names``) with the product, and no lowering code.

An :class:`ExpressionProgram` offers what ``repro.lp.solver.solve``
reads of a program (``name``, ``num_variables``, ``compile()`` — which
carries ``binary_indices`` and ``presolve``, so a MILP is solved as one
and a program states its presolve choice — ``objective_value()``), so
it is solved by handing it over, and the objective it reports is its
own term-by-term evaluation.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np
from scipy.sparse import csr_matrix

from repro.lp.model import CompiledLP, Names, Relation, Sense
from repro.lp.solver import LPSolution

Number = Union[int, float]


class LinExpr:
    """An affine expression ``sum(coef * var) + constant``.

    Immutable from the caller's perspective: every operator returns a
    new expression.  Variables are referenced by integer index into the
    owning :class:`ExpressionProgram`.
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
        # A left fold, not builtin ``sum``: that is compensated from
        # Python 3.12 on, and the reference must not depend on the interpreter.
        total = 0.0
        for index, coef in self.coefficients.items():
            total += coef * values[index]
        return self.constant + total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = " + ".join(f"{c:g}*v{i}" for i, c in sorted(self.coefficients.items()))
        return f"LinExpr({terms or '0'} + {self.constant:g})"


@dataclass(frozen=True)
class Variable:
    """Handle to a decision variable inside an :class:`ExpressionProgram`."""

    program: "ExpressionProgram" = field(repr=False, compare=False)
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


class ExpressionProgram:
    """A named LP: variables with bounds, constraints, and an objective."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self.variable_names: List[str] = []
        self.lower_bounds: List[float] = []
        self.upper_bounds: List[Optional[float]] = []
        self.constraints: List[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self.sense: Sense = Sense.MINIMIZE
        self.binary_indices: List[int] = []
        #: Whether HiGHS presolves the program (``LinearProgram.presolve``).
        self.presolve = True
        self._names: Dict[str, int] = {}

    # -- construction -----------------------------------------------------
    def add_variable(
        self,
        name: str,
        lb: float = 0.0,
        ub: Optional[float] = None,
        binary: bool = False,
    ) -> Variable:
        """Add a decision variable and return its handle.

        ``binary=True`` marks the variable integral-in-{0,1}: the
        solver keeps it integral, with the bounds ``0 <= x <= 1``.
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

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built via expression relations."""
        if not isinstance(constraint, Constraint):
            raise TypeError("add_constraint expects a Constraint (use <=, >= or .equals)")
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

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
        return len(self.constraints)

    def variable_by_name(self, name: str) -> Variable:
        """Look up a previously added variable."""
        return Variable(self, self._names[name], name)

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
        return all(c.slack(values) >= -tol for c in self.constraints)

    def objective_value(self, values: Sequence[float]) -> float:
        """Objective at a candidate point (in the model's own sense)."""
        return self.objective.evaluate(values)

    def compile(self) -> CompiledLP:
        """Lower the model to sparse matrix form, one term at a time."""
        num_vars = self.num_variables
        cost = [0.0] * num_vars
        sign = 1.0 if self.sense is Sense.MINIMIZE else -1.0
        for index, coef in self.objective.coefficients.items():
            cost[index] = sign * coef

        ub, eq = _Rows(), _Rows()
        for constraint in self.constraints:
            side = eq if constraint.relation is Relation.EQ else ub
            # ``>=`` rows are stored negated: the solver takes ``A_ub x <= b_ub``.
            side.add(constraint, negate=constraint.relation is Relation.GE)

        variable_names = Names()
        variable_names.add_block(num_vars, self.variable_names)
        return CompiledLP(
            cost=np.array(cost, dtype=np.float64),
            a_ub=ub.matrix(num_vars),
            b_ub=np.array(ub.rhs, dtype=np.float64),
            a_eq=eq.matrix(num_vars),
            b_eq=np.array(eq.rhs, dtype=np.float64),
            bounds=list(zip(self.lower_bounds, self.upper_bounds)),
            maximize=self.sense is Sense.MAXIMIZE,
            variable_names=variable_names,
            ineq_names=ub.names(),
            eq_names=eq.names(),
            name=self.name,
            binary_indices=tuple(self.binary_indices),
            presolve=self.presolve,
        )


class _Rows:
    """The rows of one matrix (``A_ub`` or ``A_eq``), as Python lists."""

    def __init__(self) -> None:
        self.rows: List[int] = []
        self.cols: List[int] = []
        self.data: List[float] = []
        self.rhs: List[float] = []
        self.row_names: List[str] = []

    def add(self, constraint: Constraint, negate: bool) -> None:
        expr = constraint.expression
        coefficients = expr.coefficients
        self.rows.extend([len(self.rhs)] * len(coefficients))
        self.cols.extend(coefficients)
        if negate:
            self.data.extend([-coef for coef in coefficients.values()])
            self.rhs.append(expr.constant)
        else:
            self.data.extend(coefficients.values())
            self.rhs.append(-expr.constant)
        self.row_names.append(constraint.name)

    def names(self) -> Names:
        names = Names()
        names.add_block(len(self.row_names), self.row_names)
        return names

    def matrix(self, num_vars: int):
        """``csr_matrix`` of the rows, ``None`` when there are none."""
        if not self.rhs:
            return None
        return csr_matrix(
            (self.data, (self.rows, self.cols)), shape=(len(self.rhs), num_vars)
        )


def value(solution: LPSolution, variable: Variable) -> float:
    """Value of *variable* in *solution* (was ``LPSolution.value``)."""
    return float(solution.values[variable.index])
