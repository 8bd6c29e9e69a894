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

Presolve only reduces: it maps a ``start`` as it is or drops it, and never
changes a basis. A start fits when it is a basis of this matrix in which
every free row's slack is basic (a start in which a free row binds is
dropped; choosing one that fits is the caller's part). A fixed column that
is basic in it stays. An emptied row then has no nonzero in any basic
structural, so a nonsingular start has that row's slack basic, and it maps
onto the reduced problem exactly: the dropped columns (all nonbasic), the
dropped rows and their slacks are deleted. Branch-and-bound children and
polishes fix integer columns that may be basic in their parent's basis, and
this keeps them warm.

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

from .problem import GE, LE, SparseProblem
from .simplex import AT_LOWER, BASIC, OPTIMAL, Basis, SolveResult

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


def fits(problem: SparseProblem, start: Basis) -> bool:
    """Whether ``start`` is a basis of ``problem``'s matrix with every free
    row's slack basic."""
    m, n = problem.a.shape
    return (start.fingerprint == problem.fingerprint() and len(start.basis) == m
            and len(start.vstat) == len(start.x) == n + m
            and start.basis.max(initial=-1) < n + m
            and (start.vstat[n:][problem.free_rows()] == BASIC).all())


def presolve(problem: SparseProblem, start: Basis | None = None) -> Presolved:
    """Drop the free rows, the fixed columns and the rows they empty; map
    ``start`` onto the rest."""
    problem.validate()
    a = problem.a
    m, n = a.shape
    free = problem.free_rows()
    if start is not None and not fits(problem, start):
        start = None
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
    ``source`` (a free row of ``source`` with a nonbasic slack in it does
    not), or when ``target`` lacks a column or another row of ``source``.
    """
    if not fits(source, start):
        return None
    m, n = target.a.shape
    ns = source.num_cols
    free = source.free_rows()
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
