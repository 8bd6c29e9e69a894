"""Staged warm starting: fix prior sizes, then release in three steps."""

from __future__ import annotations

from typing import Mapping, Sequence

from .branch_bound import solve_milp
from .problem import SparseProblem
from .simplex import INFEASIBLE, OPTIMAL, SolveResult


class WarmStartError(RuntimeError):
    """Stage-1 fixing produced an infeasible problem."""

    def __init__(self, message: str, rows: list[str]):
        super().__init__(message)
        self.rows = rows


def warm_start_solve(
    problem: SparseProblem,
    base_solution: Mapping[str, float],
    new_size_names: Sequence[str],
) -> list[SolveResult]:
    """Three-stage solve seeded from a prior solution.

    Stage 1 fixes the columns named in ``base_solution`` to their prior values
    and the columns in ``new_size_names`` to zero; a feasible solve here
    certifies the starting point. Stage 2 releases the new columns, stage 3
    releases everything; stages 2 and 3 resume from the previous stage's
    basis, which stays primal feasible because bounds are only relaxed. Each
    stage solves :meth:`SparseProblem.with_bounds` of ``problem``. Without
    new columns stage 2 has stage 1's bounds, so it is skipped.

    Returns the results of the stages solved, three or two; the last is the
    answer.

    Objectives are monotone: each stage's is at most the one before's (+1e-9).
    """
    prior_cols = {problem.column_index(name): value for name, value in base_solution.items()}
    new_cols = [problem.column_index(name) for name in new_size_names]
    overlap = set(prior_cols) & set(new_cols)
    if overlap:
        names = [problem._col_name(j) for j in sorted(overlap)]
        raise WarmStartError(f"columns appear as both prior and new: {names}", names)

    for col, value in prior_cols.items():
        # worded so that NaN fails the test
        if not problem.lower[col] - 1e-9 <= value <= problem.upper[col] + 1e-9:
            name = problem._col_name(col)
            raise WarmStartError(
                f"base value {value} for {name} violates its bounds", [name])

    # columns each stage fixes: prior and new sizes, then prior sizes, then none;
    # without new sizes stage 2 would repeat stage 1
    fixings = {1: {**prior_cols, **dict.fromkeys(new_cols, 0.0)}, 2: prior_cols, 3: {}}
    if not new_cols:
        del fixings[2]
    stages: list[SolveResult] = []
    for number, fixed in fixings.items():
        stage = problem.with_bounds({col: (value, value) for col, value in fixed.items()})
        res = solve_milp(stage, start=stages[-1].basis if stages else None)
        if number == 1 and res.status == INFEASIBLE:
            raise WarmStartError("stage-1 fixing is infeasible", res.infeasible_rows)
        if res.status != OPTIMAL:
            raise WarmStartError(f"stage-{number} solve ended with status {res.status}", [])
        stages.append(res)
    return stages
