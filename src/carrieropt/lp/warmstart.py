"""Staged warm starting: fix prior sizes, then release in three steps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .branch_bound import solve_milp
from .problem import SparseProblem
from .simplex import INFEASIBLE, OPTIMAL, SolveOptions, SolveResult


class WarmStartError(RuntimeError):
    """Stage-1 fixing produced an infeasible problem."""

    def __init__(self, message: str, rows: list[str]):
        super().__init__(message)
        self.rows = rows


@dataclass
class WarmStartResult:
    stages: list[SolveResult]

    @property
    def final(self) -> SolveResult:
        return self.stages[-1]


def warm_start_solve(
    problem: SparseProblem,
    base_solution: Mapping[str, float],
    new_size_names: Sequence[str],
    options: SolveOptions | None = None,
) -> WarmStartResult:
    """Three-stage solve seeded from a prior solution.

    Stage 1 fixes the columns named in ``base_solution`` to their prior values
    and the columns in ``new_size_names`` to zero; a feasible solve here
    certifies the starting point. Stage 2 releases the new columns, stage 3
    releases everything; stages 2 and 3 resume from the previous stage's
    basis, which stays primal feasible because bounds are only relaxed.

    Objectives are monotone: stage3 <= stage2 <= stage1 (+1e-9).
    """
    options = options or SolveOptions()
    prior_cols = {problem.column_index(name): value for name, value in base_solution.items()}
    new_cols = [problem.column_index(name) for name in new_size_names]
    overlap = set(prior_cols) & set(new_cols)
    if overlap:
        names = [problem._col_name(j) for j in sorted(overlap)]
        raise WarmStartError(f"columns appear as both prior and new: {names}", names)

    for col, value in prior_cols.items():
        if value < problem.lower[col] - 1e-9 or value > problem.upper[col] + 1e-9:
            name = problem._col_name(col)
            raise WarmStartError(
                f"base value {value} for {name} violates its bounds", [name])

    stage1 = problem.copy()
    for col, value in prior_cols.items():
        stage1.lower[col] = stage1.upper[col] = value
    for col in new_cols:
        stage1.lower[col] = stage1.upper[col] = 0.0
    res1 = solve_milp(stage1, options)
    if res1.status == INFEASIBLE:
        raise WarmStartError("stage-1 fixing is infeasible", res1.infeasible_rows)
    if res1.status != OPTIMAL:
        raise WarmStartError(f"stage-1 solve ended with status {res1.status}", [])

    stage2 = problem.copy()
    for col, value in prior_cols.items():
        stage2.lower[col] = stage2.upper[col] = value
    res2 = solve_milp(stage2, options, start=res1.basis)
    if res2.status != OPTIMAL:
        raise WarmStartError(f"stage-2 solve ended with status {res2.status}", [])

    res3 = solve_milp(problem, options, start=res2.basis)
    if res3.status != OPTIMAL:
        raise WarmStartError(f"stage-3 solve ended with status {res3.status}", [])

    return WarmStartResult(stages=[res1, res2, res3])
