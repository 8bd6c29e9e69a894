"""Presolve: free rows, fixed columns and the rows they leave empty, and the
way back.

These are the first and cheapest reductions of Andersen & Andersen
("Presolving in linear programming", Math. Prog. 71, 1995). A free row (a
``<=`` row with rhs ``+inf``, a ``>=`` row with ``-inf``) leaves the problem.
Every structural column with ``lower == upper`` leaves, and
``A[:, j] * lower[j]`` moves into the rhs. A row left without a nonzero in a
kept column leaves too. Its rhs must then satisfy its sense (``0 <= rhs``
for ``<=``, ``0 >= rhs`` for ``>=``, ``0 == rhs`` for ``==``) to within
``EMPTY_ROW_TOL * (1 + |rhs|)``; otherwise the problem is infeasible and
that row is named.

A ``start`` fitting the problem first exchanges each free row's nonbasic
slack (a cap that bound) into the basis for the basic at the largest entry
of its column of the basis inverse, which stays nonbasic at its value. A
fixed column that is basic in it stays. An emptied row then has no nonzero
in any basic structural, so a nonsingular start has that row's slack basic,
and it maps onto the reduced problem exactly: the dropped columns (all
nonbasic), the dropped rows and their slacks are deleted. Branch-and-bound
children and polishes fix integer columns that may be basic in their
parent's basis, and this keeps them warm.

:func:`postsolve` returns a result in the original space. Dropped columns sit
at their bound with reduced cost ``c_j - a_j^T y``, and dropped rows have
dual 0. The objective is ``c.x`` on the original data. In the basis, dropped
columns are nonbasic at their bound and dropped rows' slacks are basic, and
its fingerprint is the original matrix's, so it can start any later solve of
that matrix.

:func:`map_basis` carries an optimal basis over to another problem by column
and row name: an advanced basis in the sense of Bixby (1992). A problem that
adds columns and rows to another, less its free rows, and only relaxes its
bounds starts from the other's optimum, primal feasible, with the new
columns nonbasic and the new rows' slacks basic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .problem import GE, LE, SparseProblem
from .simplex import AT_LOWER, AT_UPPER, AT_VALUE, BASIC, OPTIMAL, Basis, SolveResult

EMPTY_ROW_TOL = 1e-9  # relative amount by which an emptied row's rhs may break its sense


@dataclass
class Presolved:
    """A problem reduced by :func:`presolve`, with what maps its results back.

    ``reduced`` is None when an emptied row is infeasible; ``infeasible_rows``
    then names those rows. When nothing is dropped, ``reduced`` is the
    original problem itself and ``start`` the given start.
    """

    original: SparseProblem
    reduced: SparseProblem | None
    cols: np.ndarray      # mask of the kept structural columns
    rows: np.ndarray      # mask of the kept rows
    x_fixed: np.ndarray   # the dropped columns' values, 0 on kept columns
    rhs: np.ndarray       # the original rows' rhs with the dropped columns moved in
    start: Basis | None = None  # the start, mapped onto ``reduced``
    infeasible_rows: list[str] = field(default_factory=list)


def _fits(problem: SparseProblem, start: Basis) -> bool:
    m, n = problem.a.shape
    return (start.fingerprint == problem.fingerprint() and len(start.basis) == m
            and len(start.vstat) == len(start.x) == n + m
            and start.basis.max(initial=-1) < n + m)


def presolve(problem: SparseProblem, start: Basis | None = None) -> Presolved:
    """Drop the free rows, the fixed columns and the rows they empty; map
    ``start`` onto the rest."""
    problem.validate()
    a = problem.a
    m, n = a.shape
    free = problem.free_rows()
    fits = start is not None and _fits(problem, start)
    start = _free_slacks_basic(start, problem, np.flatnonzero(free)) if fits else None
    basic = np.zeros(n + m, dtype=bool)
    if start is not None:
        basic[start.basis] = True
    fixed = (problem.lower == problem.upper) & np.isfinite(problem.lower) & ~basic[:n]
    x_fixed = np.where(fixed, problem.lower, 0.0)
    rhs = problem.rhs - a @ x_fixed
    cols = ~fixed
    rows = (abs(a) @ cols.astype(float) > 0) & ~free
    if cols.all() and rows.all():
        return Presolved(problem, problem, cols, rows, x_fixed, rhs, start)

    empty = np.flatnonzero(~rows)  # a free row's excess is -inf
    r, senses = rhs[empty], problem.senses[empty]
    excess = np.where(senses == LE, -r, np.where(senses == GE, r, np.abs(r)))
    bad = empty[excess > EMPTY_ROW_TOL * (1.0 + np.abs(r))]
    if bad.size:
        return Presolved(problem, None, cols, rows, x_fixed, rhs,
                         infeasible_rows=[problem._row_name(i) for i in bad.tolist()])

    ci, ri = np.flatnonzero(cols), np.flatnonzero(rows)
    names = _row_names(problem)
    reduced = SparseProblem(
        a=a[ri] if cols.all() else a[ri][:, ci], senses=problem.senses[ri], rhs=rhs[ri],
        lower=problem.lower[ci], upper=problem.upper[ci],
        objective=problem.objective[ci], integer=problem.integer[ci],
        row_names=[names[i] for i in ri.tolist()])
    mapped = None
    # a start with an emptied row's slack nonbasic is singular and starts nothing
    if start is not None and basic[n:][~rows].all():
        keep = np.concatenate([cols, rows])
        index = np.cumsum(keep) - 1
        mapped = Basis(basis=index[start.basis[keep[start.basis]]],
                       vstat=start.vstat[keep], x=start.x[keep],
                       fingerprint=reduced.fingerprint())
    return Presolved(problem, reduced, cols, rows, x_fixed, rhs, mapped)


def _free_slacks_basic(start: Basis, problem: SparseProblem, free: np.ndarray) -> Basis | None:
    """``start`` with the nonbasic slack of each ``free`` row i exchanged into
    the basis at the position p with the largest ``|(B^-1 e_i)_p|`` (ties to
    the lowest p) that holds no free row's slack, its column nonbasic at its
    value; None when ``start`` is singular.

    The exchanges keep B nonsingular when ``(B^-1)[P, I]`` is (Jacobi's
    complementary minor), so P is chosen by partial pivoting, row by row.
    """
    n = problem.num_cols
    binding = free[start.vstat[n + free] != BASIC]
    if not binding.size:
        return start
    m = problem.num_rows
    try:
        lu = splu(sp.hstack([problem.a, sp.identity(m)], format="csc")[:, start.basis])
    except RuntimeError:
        return None
    unit = np.zeros((m, binding.size))
    unit[binding, np.arange(binding.size)] = 1.0
    w = lu.solve(unit)  # the columns of B^-1 at the binding rows
    w[np.isin(start.basis, n + free)] = 0.0  # those slacks leave with their rows
    basis, vstat = start.basis.copy(), start.vstat.copy()
    lower = np.concatenate([problem.lower, np.where(problem.senses == GE, -np.inf, 0.0)])
    upper = np.concatenate([problem.upper, np.where(problem.senses == LE, np.inf, 0.0)])
    for k, i in enumerate(binding.tolist()):
        p = int(np.argmax(np.abs(w[:, k])))
        if w[p, k] == 0.0:
            return None
        out, basis[p], vstat[n + i] = basis[p], n + i, BASIC
        x = start.x[out]
        vstat[out] = AT_LOWER if x == lower[out] else AT_UPPER if x == upper[out] else AT_VALUE
        w[:, k + 1:] -= np.outer(w[:, k] / w[p, k], w[p, k + 1:])  # zeroes row p there
    return replace(start, basis=basis, vstat=vstat)


def map_basis(start: Basis, source: SparseProblem, target: SparseProblem) -> Basis | None:
    """``start``, an optimal basis of ``source``, as a basis of ``target``,
    matched by column and row name.

    ``source``'s free rows count as absent. Shared columns and rows keep
    their status and value. Target columns that ``source`` lacks are
    nonbasic at their lower bound (at 0 when it is infinite), and target
    rows that it lacks get a basic slack, so the basis matrix stays
    block-triangular over ``source``'s. The result carries ``target``'s
    fingerprint. When ``target``'s shared block has ``source``'s
    coefficients and only relaxes its bounds, the mapped basis is
    nonsingular and primal feasible. None when ``start`` does not fit
    ``source``, when a free row of ``source`` has a nonbasic slack in it, or
    when ``target`` lacks a column or another row of ``source``.
    """
    m, n = target.a.shape
    ns = source.num_cols
    free = source.free_rows()
    if not _fits(source, start) or (start.vstat[ns:][free] != BASIC).any():
        return None
    col_at = dict(zip(_col_names(target), range(n)))
    row_at = dict(zip(_row_names(target), range(n, n + m)))
    try:
        where = np.array([col_at[name] for name in _col_names(source)]
                         + [-1 if is_free else row_at[name]
                            for name, is_free in zip(_row_names(source), free.tolist())],
                         dtype=np.intp)  # a source position's target position, -1 if free
    except KeyError:
        return None
    kept = where >= 0
    vstat = np.full(n + m, AT_LOWER, dtype=start.vstat.dtype)
    vstat[n:] = BASIC
    vstat[where[kept]] = start.vstat[kept]
    x = np.zeros(n + m)
    x[:n] = np.where(np.isfinite(target.lower), target.lower, 0.0)
    x[where[kept]] = start.x[kept]
    new_rows = np.setdiff1d(np.arange(n, n + m), where[ns:])
    x[new_rows] = target.rhs[new_rows - n] - target.a[new_rows - n] @ x[:n]
    return Basis(basis=np.concatenate([where[start.basis[kept[start.basis]]], new_rows]),
                 vstat=vstat, x=x, fingerprint=target.fingerprint())


def _col_names(problem: SparseProblem) -> list[str]:
    return problem.col_names or [f"x{j}" for j in range(problem.num_cols)]


def _row_names(problem: SparseProblem) -> list[str]:
    return problem.row_names or [f"r{i}" for i in range(problem.num_rows)]


def postsolve(pre: Presolved, result: SolveResult) -> SolveResult:
    """``result``, a solve of ``pre.reduced``, in the original problem's space."""
    problem = pre.original
    if pre.reduced is problem:
        return result
    m, n = problem.a.shape
    changes = {}
    if result.x is not None:
        x = pre.x_fixed.copy()
        x[pre.cols] = result.x
        changes["x"] = x
    if result.status == OPTIMAL:
        duals = np.zeros(m)
        duals[pre.rows] = result.duals
        if pre.cols.all():  # no column dropped: the reduced costs are the reduced problem's
            reduced_costs = result.reduced_costs.copy()
        else:
            y = np.zeros(m)
            y[pre.rows] = np.where(pre.reduced.senses == LE, -result.duals, result.duals)
            reduced_costs = problem.objective - problem.a.T @ y
            reduced_costs[pre.cols] = result.reduced_costs
        keep = np.concatenate([pre.cols, pre.rows])
        dropped_rows = n + np.flatnonzero(~pre.rows)
        basis = result.basis
        vstat = np.full(n + m, AT_LOWER, dtype=basis.vstat.dtype)
        vstat[keep] = basis.vstat
        vstat[dropped_rows] = BASIC
        values = np.concatenate([pre.x_fixed, pre.rhs])  # a dropped row's slack is its rhs
        values[keep] = basis.x
        changes.update(
            objective=float(problem.objective @ x), duals=duals, reduced_costs=reduced_costs,
            basis=Basis(basis=np.concatenate([np.flatnonzero(keep)[basis.basis], dropped_rows]),
                        vstat=vstat, x=values, fingerprint=problem.fingerprint()))
    return replace(result, **changes)
