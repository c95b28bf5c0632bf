"""Linear/mixed-integer programming substrate.

A small modeling layer (programs stated as index blocks: variable
ranges, COO row blocks, an objective over columns) solved by HiGHS
through the bindings SciPy ships (``scipy.optimize.linprog`` where they
do not import).  A program's ``binary_indices`` are integral in the
same solve: HiGHS's branch-and-bound gives the exact optimum of a
binary MILP, as an :class:`LPSolution` like any other.
"""

from .model import LinearProgram, Relation, Sense
from .solver import LPSolution, SolveStatus, SolverError, solve, solve_or_raise

__all__ = [
    "LPSolution",
    "LinearProgram",
    "Relation",
    "Sense",
    "SolveStatus",
    "SolverError",
    "solve",
    "solve_or_raise",
]
