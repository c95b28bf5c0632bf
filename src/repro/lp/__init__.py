"""Linear/mixed-integer programming substrate.

A small modeling layer (programs stated as index blocks: variable
ranges, COO row blocks, an objective over columns) compiled to
``scipy.optimize.linprog`` (HiGHS), plus a branch-and-bound exact
solver for the small binary MILPs used as baselines in tests.
"""

from .milp import MILPSolution, solve_milp
from .model import LinearProgram, Relation, Sense
from .solver import LPSolution, SolveStatus, SolverError, solve, solve_or_raise

__all__ = [
    "LPSolution",
    "LinearProgram",
    "MILPSolution",
    "Relation",
    "Sense",
    "SolveStatus",
    "SolverError",
    "solve",
    "solve_milp",
    "solve_or_raise",
]
