"""Best-bound branch-and-bound over integer-marked columns."""

from __future__ import annotations

import heapq

import numpy as np

from .problem import SparseProblem
from .simplex import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    Basis,
    SolveOptions,
    SolveResult,
    solve_lp,
)

MIP_GAP = 1e-6          # absolute branch-and-bound gap
INTEGRALITY_TOL = 1e-6  # largest distance to an integer accepted as integral


def _fractionality(x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    frac = x[cols] - np.floor(x[cols])
    return np.minimum(frac, 1.0 - frac)


def _solve_with_bounds(problem: SparseProblem, patch: dict[int, tuple[float, float]],
                       options: SolveOptions) -> SolveResult:
    node = problem.copy()
    for col, (lo, up) in patch.items():
        node.lower[col] = lo
        node.upper[col] = up
    return solve_lp(node, options)


def solve_milp(problem: SparseProblem, options: SolveOptions | None = None,
               start: Basis | None = None) -> SolveResult:
    """Solve ``problem``: the single solve entry for LPs and MILPs alike.

    The root LP relaxation is solved from ``start`` when given. Without
    integer columns, or when the root is not optimal, that result is returned
    as is. Otherwise branch and bound runs with best-bound node selection.

    Branching variable: most fractional integer column, ties broken by lowest
    column index. Nodes are explored in (bound, insertion order), which makes
    the search reproducible. Incumbents are polished by re-solving with the
    integer columns fixed, so reported solutions are exactly integral.

    Returns the incumbent with ``bound_gap <= MIP_GAP`` when optimal;
    on hitting the node limit the best incumbent is returned with its gap and
    status ``iteration_limit``.
    """
    options = options or SolveOptions()
    problem.validate()
    int_cols = np.flatnonzero(problem.integer)
    root = solve_lp(problem, options, start=start)
    if int_cols.size == 0 or root.status != OPTIMAL:
        return root

    inc: SolveResult | None = None
    inc_obj = np.inf
    counter = 0
    heap: list[tuple[float, int, dict]] = [(root.objective, counter, {})]
    nodes = 0
    best_bound = root.objective

    while heap:
        bound, _, patch = heapq.heappop(heap)
        best_bound = bound
        if inc is not None and bound >= inc_obj - MIP_GAP:
            break
        if nodes >= options.max_nodes:
            break
        nodes += 1
        # only the root node has no patch, and its LP is already solved
        res = _solve_with_bounds(problem, patch, options) if patch else root
        if res.status in (INFEASIBLE, ITERATION_LIMIT):
            continue
        if res.status == UNBOUNDED:
            return SolveResult(status=UNBOUNDED, nodes=nodes)
        if res.objective >= inc_obj - MIP_GAP:
            continue

        frac = _fractionality(res.x, int_cols)
        worst = int(np.argmax(frac))
        if frac[worst] <= INTEGRALITY_TOL:
            fixed = dict(patch)
            for col in int_cols:
                v = float(np.round(res.x[col]))
                fixed[int(col)] = (v, v)
            polished = _solve_with_bounds(problem, fixed, options)
            if polished.status == OPTIMAL and polished.objective < inc_obj:
                inc = polished
                inc_obj = polished.objective
            continue

        col = int(int_cols[worst])
        value = res.x[col]
        down = dict(patch)
        down[col] = (problem.lower[col] if col not in patch else patch[col][0],
                     float(np.floor(value)))
        up = dict(patch)
        up[col] = (float(np.ceil(value)),
                   problem.upper[col] if col not in patch else patch[col][1])
        for child in (down, up):
            lo, hi = child[col]
            if lo <= hi:
                counter += 1
                heapq.heappush(heap, (res.objective, counter, child))

    if inc is None:
        if nodes >= options.max_nodes:
            return SolveResult(status=ITERATION_LIMIT, nodes=nodes, bound_gap=float("inf"))
        return SolveResult(status=INFEASIBLE, nodes=nodes)

    gap = max(0.0, inc_obj - min(best_bound, inc_obj))
    exhausted = not heap or best_bound >= inc_obj - MIP_GAP
    inc.status = OPTIMAL if exhausted else ITERATION_LIMIT
    inc.bound_gap = 0.0 if exhausted else gap
    inc.nodes = nodes
    inc.duals = None  # duals are meaningful for the LP relaxation only
    inc.reduced_costs = None
    return inc
