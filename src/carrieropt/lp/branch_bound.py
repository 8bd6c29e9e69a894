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
    SolveResult,
    solve_lp,
)

MIP_GAP = 1e-6          # absolute branch-and-bound gap
INTEGRALITY_TOL = 1e-6  # largest distance to an integer accepted as integral
MAX_NODES = 100_000     # nodes explored before the search stops with ``iteration_limit``


def _fractionality(x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    frac = x[cols] - np.floor(x[cols])
    return np.minimum(frac, 1.0 - frac)


def solve_milp(problem: SparseProblem, start: Basis | None = None) -> SolveResult:
    """Solve ``problem``: the single solve entry for LPs and MILPs alike.

    The root LP relaxation is solved from ``start`` when given. Without
    integer columns, or when the root is not optimal, that result is returned
    as is. Otherwise branch and bound runs with best-bound node selection.

    Branching variable: most fractional integer column, ties broken by lowest
    column index. Nodes are explored in (bound, insertion order), which makes
    the search reproducible. A child differs from its parent in one column's
    bounds only, so it is solved from its parent's optimal basis on
    :meth:`SparseProblem.with_bounds` of ``problem``. Incumbents are polished
    by re-solving, from the node's basis, with the integer columns fixed, so
    reported solutions are exactly integral.

    Returns the incumbent with ``bound_gap <= MIP_GAP`` when optimal;
    on hitting ``MAX_NODES`` the best incumbent is returned with its gap and
    status ``iteration_limit``. Its ``iterations`` counts every LP the search
    solved, the root and the polishes included.
    """
    int_cols = np.flatnonzero(problem.integer)
    root = solve_lp(problem, start=start)
    if int_cols.size == 0 or root.status != OPTIMAL:
        return root

    inc: SolveResult | None = None
    inc_obj = np.inf
    counter = 0
    # (bound, insertion order, bound patch, parent's basis)
    heap: list[tuple[float, int, dict, Basis | None]] = [(root.objective, counter, {}, None)]
    nodes = 0
    iterations = root.iterations
    best_bound = root.objective

    while heap:
        bound, _, patch, parent = heapq.heappop(heap)
        best_bound = bound
        if inc is not None and bound >= inc_obj - MIP_GAP:
            break
        if nodes >= MAX_NODES:
            break
        nodes += 1
        # only the root node has no patch, and its LP is already solved
        if patch:
            res = solve_lp(problem.with_bounds(patch), start=parent)
            iterations += res.iterations
        else:
            res = root
        if res.status in (INFEASIBLE, ITERATION_LIMIT):
            continue
        if res.status == UNBOUNDED:
            return SolveResult(status=UNBOUNDED, iterations=iterations, nodes=nodes)
        if res.objective >= inc_obj - MIP_GAP:
            continue

        frac = _fractionality(res.x, int_cols)
        worst = int(np.argmax(frac))
        if frac[worst] <= INTEGRALITY_TOL:
            fixed = dict(patch)
            for col in int_cols:
                v = float(np.round(res.x[col]))
                fixed[int(col)] = (v, v)
            polished = solve_lp(problem.with_bounds(fixed), start=res.basis)
            iterations += polished.iterations
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
                heapq.heappush(heap, (res.objective, counter, child, res.basis))

    if inc is None:
        if nodes >= MAX_NODES:
            return SolveResult(status=ITERATION_LIMIT, iterations=iterations, nodes=nodes,
                               bound_gap=float("inf"))
        return SolveResult(status=INFEASIBLE, iterations=iterations, nodes=nodes)

    gap = max(0.0, inc_obj - min(best_bound, inc_obj))
    exhausted = not heap or best_bound >= inc_obj - MIP_GAP
    inc.status = OPTIMAL if exhausted else ITERATION_LIMIT
    inc.bound_gap = 0.0 if exhausted else gap
    inc.nodes = nodes
    inc.iterations = iterations
    inc.warm_started = root.warm_started
    inc.duals = None  # duals are meaningful for the LP relaxation only
    inc.reduced_costs = None
    return inc
