"""Generic sparse LP/MILP kernel: simplex, branch and bound, verification."""

from .branch_bound import solve_milp
from .mps import export_mps
from .presolve import fits, map_basis
from .problem import EQ, GE, LE, ProblemError, RowBlock, SparseProblem
from .simplex import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    Basis,
    SolveResult,
    solve_lp,
)
from .verify import VerificationReport, verify_solution
from .warmstart import WarmStartError, warm_start_solve

__all__ = [
    "EQ",
    "GE",
    "LE",
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
    "ITERATION_LIMIT",
    "Basis",
    "ProblemError",
    "RowBlock",
    "SolveResult",
    "SparseProblem",
    "VerificationReport",
    "WarmStartError",
    "export_mps",
    "fits",
    "map_basis",
    "solve_lp",
    "solve_milp",
    "verify_solution",
    "warm_start_solve",
]
