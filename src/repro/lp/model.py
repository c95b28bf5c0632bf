"""A small linear-programming modeling layer: index blocks.

The paper's formulations (the NIDS load-balancing LP of Section 2.2 and
the NIPS MILP of Section 3.2) are families of variables and rows —
``d[i,k,j]``, one coverage row per unit, one capacity row per node.
This module states a program the way those families are laid out,
"variables ``[0, D)`` are ``d``, rows ``[0, U)`` cover the units", and
compiles it into the sparse matrix form consumed by
:mod:`repro.lp.solver`.

The paper used CPLEX; we target HiGHS through SciPy's bindings (with
``scipy.optimize.linprog`` as the fallback), which solves the identical
programs to optimality.  Only construction lives here — solving is the
backend's job, keeping the model inspectable and the backend swappable.

A model is stated in three calls:

* :meth:`LinearProgram.add_variables` reserves a contiguous variable
  range with its bounds;
* :meth:`LinearProgram.add_constraints` adds many rows of one relation
  at once as a COO triple ``(rows, cols, data)`` plus a right-hand side;
* :meth:`LinearProgram.set_objective` takes the objective's columns and
  coefficients.

A block's names are rendered only if somebody reads them
(:class:`Names`).  :meth:`LinearProgram.compile` concatenates the
blocks in insertion order.  The operator-overloading way to write the
same programs one term at a time is ``tests/lp_expressions.py``, the
reference the block layouts are compared against
(``tests/test_planning_columns.py``, ``tests/test_nips_layout.py``).

Example
-------
>>> lp = LinearProgram("toy")
>>> x, y = lp.add_variables(2, ["x", "y"], ub=4.0)
>>> _ = lp.add_constraints(Relation.LE, [0, 0], [x, y], [1.0, 1.0], [5.0], ["budget"])
>>> lp.set_objective([x, y], [3.0, 2.0], Sense.MAXIMIZE)
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np


class Sense(enum.Enum):
    """Optimization direction."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


class Relation(enum.Enum):
    """Constraint relation."""

    LE = "<="
    GE = ">="
    EQ = "=="


NameSource = Union[Sequence[str], Callable[[], Sequence[str]]]


class Names(_SequenceABC):
    """Variable or row names in index order; block names render on demand.

    A block's names are a sequence or a zero-argument function, called
    the first time a name inside the block is read — so the ~32k
    ``d[...]`` strings of a NIDS program are never built unless
    somebody prints them.  :meth:`index` resolves through one
    name→position dict and consults the blocks given as sequences
    before it renders any other: looking up ``"MaxLoad"`` or a
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
            # Sequences first; a function is called only on a miss.
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


def _broadcast(value: Union[float, Sequence[float]], count: int) -> List[float]:
    return np.broadcast_to(np.asarray(value, dtype=np.float64), (count,)).tolist()


class LinearProgram:
    """A named LP: variable blocks with bounds, row blocks, and an objective."""

    def __init__(self, name: str = "lp"):
        self.name = name
        self.variable_names = Names()
        self.lower_bounds: List[float] = []
        self.upper_bounds: List[Optional[float]] = []
        #: Row blocks, in insertion order.
        self.constraints: List[ConstraintBlock] = []
        self.objective_cols = np.empty(0, dtype=np.intp)
        self.objective_coefficients = np.empty(0, dtype=np.float64)
        self.sense: Sense = Sense.MINIMIZE
        #: Variables the solver keeps integral (binary by their ``[0, 1]``
        #: bounds); a program without any is an LP.
        self.binary_indices: List[int] = []
        #: Whether HiGHS presolves the program before solving it; the
        #: builder of a program that presolve does not shrink turns it off.
        self.presolve = True

    # -- construction -----------------------------------------------------
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
        return block

    def set_objective(self, cols, coefficients, sense: Sense) -> None:
        """Set the objective ``sum(coefficients[t] * x[cols[t]])`` and
        its direction."""
        cols = np.asarray(cols, dtype=np.intp)
        coefficients = np.asarray(coefficients, dtype=np.float64)
        if cols.shape != coefficients.shape or cols.ndim != 1:
            raise ValueError("cols and coefficients must have one length")
        if len(cols) and not (0 <= cols.min() and cols.max() < self.num_variables):
            raise ValueError("objective indexes outside the variables")
        self.objective_cols = cols
        self.objective_coefficients = coefficients
        self.sense = sense

    # -- introspection ----------------------------------------------------
    @property
    def num_variables(self) -> int:
        """Number of decision variables."""
        return len(self.variable_names)

    @property
    def num_constraints(self) -> int:
        """Number of registered constraint rows."""
        return sum(len(block) for block in self.constraints)

    def objective_value(self, values: Sequence[float]) -> float:
        """Objective at a candidate point (in the model's own sense).

        A left fold over the terms in stated order.  Builtin ``sum`` is
        compensated from Python 3.12 on and ``np.sum`` is pairwise, so
        either would make the last bits of a reported optimum depend on
        the interpreter or the term count.
        """
        x = np.asarray(values, dtype=np.float64)
        total = 0.0
        for term in (self.objective_coefficients * x[self.objective_cols]).tolist():
            total += term
        return total

    def compile(self) -> "CompiledLP":
        """Lower the model to sparse matrix form for the solver backend."""
        num_vars = self.num_variables
        sign = 1.0 if self.sense is Sense.MINIMIZE else -1.0
        cost = np.bincount(
            self.objective_cols,
            weights=sign * self.objective_coefficients,
            minlength=num_vars,
        )
        equalities = [b for b in self.constraints if b.relation is Relation.EQ]
        inequalities = [b for b in self.constraints if b.relation is not Relation.EQ]
        a_ub, b_ub, ineq_names = _stack(inequalities, num_vars)
        a_eq, b_eq, eq_names = _stack(equalities, num_vars)
        return CompiledLP(
            cost=cost,
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=a_eq,
            b_eq=b_eq,
            bounds=_bounds(self.lower_bounds, self.upper_bounds),
            maximize=self.sense is Sense.MAXIMIZE,
            variable_names=self.variable_names.copy(),
            ineq_names=ineq_names,
            eq_names=eq_names,
            name=self.name,
            binary_indices=tuple(self.binary_indices),
            presolve=self.presolve,
        )


def _bounds(lower: Sequence[float], upper: Sequence[Optional[float]]) -> np.ndarray:
    """The ``(n, 2)`` bounds array, an absent (``None``) upper bound as
    ``+inf``; the backend reads a NaN bound as no bound either way."""
    bounds = np.empty((len(lower), 2))
    bounds[:, 0] = lower
    bounds[:, 1] = np.array(upper, dtype=np.float64)  # None -> NaN
    bounds[np.isnan(bounds[:, 1]), 1] = np.inf
    return bounds


def _stack(blocks: Sequence[ConstraintBlock], num_vars: int):
    """The rows of one matrix (``A_ub`` or ``A_eq``): *blocks* one under
    the other, as ``(csr_matrix or None when there are no rows, rhs,
    names)``."""
    from scipy.sparse import csr_matrix  # deferred: keep model importable alone

    names = Names()
    rows, cols, data, rhs = [], [], [], []
    count = 0
    for block in blocks:
        # ``>=`` rows are stored negated: the solver takes ``A_ub x <= b_ub``.
        sign = -1.0 if block.relation is Relation.GE else 1.0
        rows.append(block.rows + count)
        cols.append(block.cols)
        data.append(sign * block.data)
        rhs.append(sign * block.rhs + 0.0)  # no -0.0
        names.add_block(len(block), block.names)
        count += len(block)
    if count == 0:
        return None, np.empty(0), names
    matrix = csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(count, num_vars),
    )
    return matrix, np.concatenate(rhs), names


@dataclass
class CompiledLP:
    """Sparse matrix form of a :class:`LinearProgram` (solver input).

    ``cost`` is the vector the backend *minimizes* (negated for a
    maximization model); ``bounds`` is whatever ``linprog`` accepts —
    the ``(n, 2)`` float array :meth:`LinearProgram.compile` emits
    (``+inf`` for unbounded), or ``(lb, ub)`` pairs with ``None`` for
    unbounded.

    A compiled program is solved as it stands
    (:func:`repro.lp.solver.solve` accepts one) and is never mutated:
    "the same rows under other bounds" or "under another objective" is
    a derived object that shares the matrices and names —
    :meth:`with_bounds`, :meth:`with_cost`, which keep the program's
    ``presolve`` choice.
    """

    cost: np.ndarray
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
    #: Columns the solver keeps integral; empty for an LP.
    binary_indices: Tuple[int, ...] = ()
    #: Whether HiGHS presolves the program (:attr:`LinearProgram.presolve`).
    presolve: bool = True
    #: Set by :meth:`with_bounds`: the solver leaves the columns these
    #: bounds fix at zero out of what it hands the backend.
    bounds_view: bool = False

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
        return replace(self, bounds=bounds, bounds_view=True)

    def with_cost(self, cost) -> "CompiledLP":
        """The same rows and bounds under another objective, *cost* one
        coefficient per variable in the model's own sense."""
        cost = np.asarray(cost, dtype=np.float64)
        return replace(self, cost=-cost if self.maximize else cost)
