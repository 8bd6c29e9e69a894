"""Bounded-variable primal simplex on sparse data.

The solver works on the equality form ``A x + s = b`` where each row's slack
carries bounds encoding the row sense (``<=``: s in [0, inf), ``>=``:
s in (-inf, 0], ``==``: s fixed at 0). The basis inverse is a sparse LU
factorization with tight supernodes plus the sparse product-form etas of the
pivots since; it is refactorized every ``REFACTOR_EVERY`` pivots. The basics'
values, bounds, costs and bound flags are kept in basis order, and the ratio
test and their update run over the nonzero rows of the entering column only.
Columns are read straight from the CSC arrays of the scaled matrix, and
pricing multiplies by its transpose through the same arrays read as CSR, then
weighs the reduced costs by two masks of the directions each nonbasic column
may move in; this product and those with the etas call scipy's CSR/CSC kernels
on the stored arrays, not sparse ``@``. A bound flip (a step that ends on the
entering column's own bound, with no pivot) leaves the basis as it was, so the
next pass keeps the duals and reduced costs when its pricing costs are those
of the last. Pricing is Dantzig (largest reduced-cost violation, ties broken
by lowest column index) with an automatic switch to Bland's rule after a run
of degenerate steps, which guarantees termination.

Phase 1 needs no artificial columns: since every row has a bounded slack, it
minimizes the sum of the basic variables' bound violations directly (the
composite phase 1 of Maros, *Computational Techniques of the Simplex Method*,
ch. 9), and one loop switches to the true cost once the basis is feasible.
Cold and warm starts share that loop, so a warm basis whose basic values
violate new bounds runs phase 1 from where it is instead of starting cold.
A cold start is a triangular crash basis (Bixby, "Implementing the simplex
method: the initial basis", 1992): before the first pivot, structural columns
replace the fixed slacks of equality rows wherever that keeps the basis
triangular, which saves the pivots that would otherwise move those slacks out
one at a time.

:func:`solve_lp` presolves every problem first (:mod:`.presolve`): free
rows are dropped, fixed columns move into the rhs and the rows they leave
empty are dropped too, so the scaling, the crash and the iterations run on
what is left. Postsolve then
returns the solution, the duals, the reduced costs and the basis in the
original problem's space.

A sweep or a change of mode re-solves one matrix under other bounds, rhs or
costs, so what depends on the matrix alone is kept between solves, one
:class:`_Kernel` per thread: the scale factors and the scaled ``[A | I]`` as
CSC and as CSR. A solve whose presolved matrix equals the kept one (equal
shape, equal ``data`` dtype and equal ``indptr``, ``indices`` and ``data``;
never a fingerprint, which only compares sums) uses the kernel; any other
matrix replaces it, the old one going first. The kernel is a pure function
of the matrix, so every pivot and every bit stays as a fresh set-up would
give them. No LU is kept, though a re-solve from the last optimum factors
the basis the last solve ended on once more: SuperLU sizes a factorization's
storage from a fill guess (about 720 bytes per basis nonzero), not from its
factors, so one kept between solves would hold megabytes of memory.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dtrtrs
# the kernels behind sparse @ and splu, private to scipy: the tests pin them
# to @ and to splu bit for bit
from scipy.sparse._sparsetools import csc_matvec, csr_matvec
from scipy.sparse.linalg._dsolve._superlu import gstrf

from .problem import GE, LE, SparseProblem

BASIC = 0
AT_LOWER = 1
AT_UPPER = 2
AT_VALUE = 3  # nonbasic strictly between its bounds (fixed-then-relaxed or free columns)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"


# Numerical constants, absolute on the scaled problem.
OPT_TOL = 1e-9         # dual feasibility threshold for pricing
PIVOT_TOL = 1e-9       # smallest acceptable pivot magnitude
REFACTOR_EVERY = 100   # eta-file length that triggers a refactorization
BLAND_AFTER = 400      # consecutive degenerate steps before Bland's rule
# Bound violation that puts a basic value into phase 1; above the ~1e-10
# round-off that feasible basic values pick up from incremental updates.
PRIMAL_TOL = 1e-9
INFEASIBILITY_TOL = 1e-7  # phase-1 residual, relative to 1 + max|b|, that proves infeasibility
# Work limit: a solve of m rows and n columns stops with ``iteration_limit``
# after ITERATIONS_BASE + ITERATIONS_PER_LINE * (m + n) iterations.
ITERATIONS_BASE = 20_000
ITERATIONS_PER_LINE = 40


@dataclass
class Basis:
    """Snapshot of a simplex basis for warm starts on the same matrix.

    ``x`` holds every column's value and then every row's slack, in problem
    units, not in the scaled units of one solve: problems with different
    fixed columns presolve to different reduced problems, which scale
    differently.
    """

    basis: np.ndarray
    vstat: np.ndarray
    x: np.ndarray
    fingerprint: tuple


@dataclass
class SolveResult:
    """Outcome of an LP or MILP solve.

    ``duals`` follow the tightening convention: for a binding ``<=`` row the
    dual is the objective increase per unit decrease of the rhs (nonnegative
    at optimum), for ``>=`` rows per unit increase of the rhs (nonnegative),
    and for ``==`` rows it is d(objective)/d(rhs) with free sign.

    Every optimal solve carries a ``basis`` that can start a solve of the same
    matrix under any bounds or rhs; ``warm_started`` is true when the solve
    began from the ``start`` it was given rather than from the crash basis
    (for a MILP: when its root LP did). On ``infeasible``,
    ``infeasible_rows`` names the rows of the Farkas ray that ends phase 1:
    the rows with a nonzero phase-1 dual, whose combination proves that no
    point satisfies them together. Rows with a nonzero rhs come first, since
    a row whose rhs is 0 adds nothing to the contradiction ``y.b`` the ray
    proves; within each group they are ordered by decreasing magnitude of
    that dual in the problem's own row units, ties by row index, so the rows
    that weigh most in the proof come first.
    """

    status: str
    objective: float = float("nan")
    x: np.ndarray | None = None
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    bound_gap: float | None = None
    iterations: int = 0
    nodes: int = 0
    infeasible_rows: list[str] = field(default_factory=list)
    basis: Basis | None = None
    warm_started: bool = False


def _power_of_two(values: np.ndarray) -> np.ndarray:
    out = np.ones_like(values)
    pos = values > 0
    out[pos] = np.exp2(np.round(np.log2(values[pos])))
    return out


def _geometric_scaling(a: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Geometric-mean row/column scale factors over four passes, rounded to powers
    of two, from the nonzero entries; a row or column without one keeps 1."""
    m, n = a.shape
    row_scale = np.ones(m)
    col_scale = np.ones(n)
    coo = a.tocoo()
    nonzero = coo.data != 0
    row, col = coo.row[nonzero], coo.col[nonzero]
    mag = np.abs(coo.data[nonzero]).astype(float)
    for _ in range(4):
        for scale, line in ((row_scale, row), (col_scale, col)):
            # the factors are powers of two, so this product is exact
            work = mag * row_scale[row] * col_scale[col]
            mx, mn = np.zeros(scale.size), np.full(scale.size, np.inf)
            np.maximum.at(mx, line, work)
            # the reciprocal is correctly rounded and monotone: 1/min is max(1/work)
            np.minimum.at(mn, line, work)
            used = mx > 0
            factor = np.ones_like(mx)
            factor[used] = 1.0 / np.sqrt(mx[used] / (1.0 / mn[used]))
            scale *= _power_of_two(factor)
    return row_scale, col_scale


class _Factorization:
    """Basis inverse as a sparse LU of a snapshot plus sparse product-form etas.

    The LU uses tight supernodes (``relax=1``, ``panel_size=1``): simplex bases
    are close to triangular, and relaxed supernodes only pad every solve with
    dense blocks of explicit zeros. After k pivots since the refactorization
    the basis is ``B = B0 E_1 ... E_k`` with ``E_i = I + eta_i e_{r_i}^T``,
    where ``d_i`` is the entering column in terms of the basis before pivot i,
    ``r_i`` its pivot row and ``eta_i = d_i - e_{r_i}``. Eta i keeps the rows
    where ``d_i`` is nonzero, as entries ``ptr[i]:ptr[i + 1]`` of ``idx`` and
    ``val``: the CSC arrays of the m x k matrix ``eta`` with the etas as
    columns, which read as CSR are those of ``eta^T``. ``by_row`` holds them
    again by row, ``by_row[r, i] = eta_i[r]``, so a pivot on row r reads its
    row of ``T`` without a search; a refactorization clears only the entries
    the etas wrote. ``rows[i]`` is ``r_i``, and ``tri`` holds
    ``T[i, j] = eta_j[r_i]`` (j < i), ``T[i, i] = d_i[r_i]``, lower-triangular
    and in Fortran order so that LAPACK reads its first k columns in place. Then

    * ``E_k^-1 ... E_1^-1 w = w - eta @ alpha`` with ``T alpha = w[rows]``;
    * ``E_1^-T ... E_k^-T c = c - sum_i beta_i e_{r_i}`` with
      ``T^T beta = eta^T c``,

    so ftran and btran take one triangular solve of order k and one sparse
    product each, whose work follows the etas' nonzeros instead of m x k.
    """

    def __init__(self, a_csc: sp.csc_matrix):
        self.m = m = a_csc.shape[0]
        self.a_csc = a_csc
        self.lu = None
        # room for m entries per eta; pages past the entries in use stay
        # untouched. Only ``by_row`` is read where no eta wrote, so the rest
        # need no zeroing.
        self.idx = np.empty(m * REFACTOR_EVERY, dtype=np.int32)
        self.val = np.empty(self.idx.size)
        self.ptr = np.zeros(REFACTOR_EVERY + 1, dtype=np.int32)
        self.by_row = np.zeros((m, REFACTOR_EVERY))
        self.alpha = np.empty(REFACTOR_EVERY)
        self.tri = np.zeros((REFACTOR_EVERY, REFACTOR_EVERY), order="F")
        self.rows = np.empty(REFACTOR_EVERY, dtype=np.intp)
        self.k = 0

    def refactor(self, basis: np.ndarray) -> None:
        """Factor the ``basis`` columns as ``splu(a_csc[:, basis], relax=1,
        panel_size=1)`` does, bit for bit: the columns are gathered straight
        from the CSC arrays and SuperLU is called without splu's checks and
        conversions, which a canonical float matrix such as the kernel's does
        not need."""
        a = self.a_csc
        start = a.indptr[basis]
        count = a.indptr[basis + 1] - start
        indptr = np.zeros(self.m + 1, dtype=np.intc)
        np.cumsum(count, out=indptr[1:])
        take = np.repeat(start - indptr[:-1], count) + np.arange(indptr[-1])
        indices = a.indices[take].astype(np.intc, copy=False)
        self.lu = gstrf(self.m, indices.size, a.data[take], indices, indptr,
                        csc_construct_func=sp.csc_array, ilu=False,
                        options=dict(DiagPivotThresh=None, ColPerm=None, PanelSize=1, Relax=1))
        k, ptr = self.k, self.ptr
        self.by_row[self.idx[:ptr[k]], np.repeat(np.arange(k), np.diff(ptr[:k + 1]))] = 0.0
        self.k = 0

    def push_eta(self, pos: int, nz: np.ndarray, values: np.ndarray) -> None:
        """Add a pivot on row ``nz[pos]``; ``d`` is ``values`` on the ascending rows
        ``nz``, else 0."""
        k, start = self.k, self.ptr[self.k]
        end, row, at = start + nz.size, nz[pos], start + pos
        self.tri[k, :k] = self.by_row[row, :k]
        self.idx[start:end] = nz
        self.val[start:end] = values
        self.tri[k, k] = self.val[at]
        self.val[at] -= 1.0
        self.by_row[nz, k] = self.val[start:end]
        self.ptr[k + 1:] = end
        self.rows[k] = row
        self.k = k + 1

    def ftran(self, v: np.ndarray) -> np.ndarray:
        w = self.lu.solve(v)
        k = self.k
        if k:
            self.alpha[:k], _ = dtrtrs(self.tri[:, :k], w[self.rows[:k]], lower=1)
            product = np.zeros(self.m)
            csc_matvec(self.m, k, self.ptr, self.idx, self.val, self.alpha, product)
            w -= product
        return w

    def btran(self, c: np.ndarray) -> np.ndarray:
        u = c.astype(float, copy=True)
        k = self.k
        if k:
            product = np.zeros(k)
            csr_matvec(k, self.m, self.ptr, self.idx, self.val, u, product)
            beta, _ = dtrtrs(self.tri[:, :k], product, lower=1, trans=1)
            np.subtract.at(u, self.rows[:k], beta)  # a row may be pivoted more than once
        return self.lu.solve(u, trans="T")


class _Kernel:
    """What a solve sets up from its matrix alone, kept for the next solve of an
    equal one: the scale factors and the scaled ``[A | I]`` as CSC and as CSR.
    ``indptr``, ``indices`` and ``data`` are copies of the matrix's arrays, so
    that a caller writing into its matrix later cannot make an unequal matrix
    look equal."""

    def __init__(self, a: sp.csr_matrix):
        self.shape = m, n = a.shape
        self.indptr, self.indices, self.data = a.indptr.copy(), a.indices.copy(), a.data.copy()
        self.row_scale, self.col_scale = _geometric_scaling(a)

        # [diag(row_scale) A diag(col_scale) | I], exact: the factors are powers of two
        a = a.tocsc()
        data = a.data * self.row_scale[a.indices] * np.repeat(self.col_scale, np.diff(a.indptr))
        keep = data != 0.0  # no stored zeros
        indptr = np.concatenate([[0], np.cumsum(keep)])[a.indptr]
        self.a = sp.csc_matrix((np.concatenate([data[keep], np.ones(m)]),
                                np.concatenate([a.indices[keep], np.arange(m)]),
                                np.concatenate([indptr, indptr[-1] + np.arange(1, m + 1)])),
                               shape=(m, n + m))
        self.a_csr = self.a.tocsr()

    def matches(self, a: sp.csr_matrix) -> bool:
        """Whether ``a`` is this kernel's matrix: equal shape, equal ``data``
        dtype and equal arrays (sums, as in a fingerprint, would not tell two
        swapped coefficients apart)."""
        return (a.shape == self.shape and a.data.dtype == self.data.dtype
                and np.array_equal(a.indptr, self.indptr)
                and np.array_equal(a.indices, self.indices)
                and np.array_equal(a.data, self.data))


_kept = threading.local()  # per thread, ``kernel``: the last solve's _Kernel


def _kernel(a: sp.csr_matrix) -> _Kernel:
    """This thread's kernel for matrix ``a``: the kept one when it matches, else a
    new one, which replaces it after the old one is let go of."""
    kernel = getattr(_kept, "kernel", None)
    if kernel is None or not kernel.matches(a):
        _kept.kernel = None
        kernel = _kept.kernel = _Kernel(a)
    return kernel


class _Simplex:
    def __init__(self, problem: SparseProblem):
        self.problem = problem
        m, n = problem.a.shape
        self.m, self.n_struct = m, n

        kernel = _kernel(problem.a)
        self.row_scale, self.col_scale = kernel.row_scale, kernel.col_scale
        self.a, self.a_csr = kernel.a, kernel.a_csr
        self.ncol = n + m

        self.b = problem.rhs * self.row_scale
        self.lower = np.concatenate([problem.lower / self.col_scale, np.zeros(m)])
        self.upper = np.concatenate([problem.upper / self.col_scale, np.zeros(m)])
        self.upper[n:][problem.senses == LE] = np.inf
        self.lower[n:][problem.senses == GE] = -np.inf
        self.fixed = self.upper == self.lower
        self.c = np.concatenate([problem.objective * self.col_scale, np.zeros(m)])

        self.x = np.zeros(self.ncol)
        self.vstat = np.full(self.ncol, AT_LOWER, dtype=np.int8)
        self.basis = np.arange(n, n + m)
        self.fact = _Factorization(self.a)
        self.iterations = 0
        self._degenerate_run = 0
        self._bland = False
        self.farkas: np.ndarray | None = None  # phase-1 duals when infeasible

    # -- start handling -----------------------------------------------------

    def fingerprint(self) -> tuple:
        return self.problem.fingerprint()

    def cold_start(self) -> None:
        """Nonbasic structurals on their bound nearest zero (or at 0 when free),
        then the triangular crash of Bixby (1992): columns that are neither
        fixed nor empty, by increasing ``(upper bound finite) + c_j / max(1,
        max|c|)``, ties by index, replace the fixed slack of an equality row in
        which they hold at least 0.99 of their largest magnitude, provided none
        of their nonzeros lies in a row crashed before. Each crashed column is
        zero on the rows crashed before it, so the basis is triangular after
        permutation and nonsingular."""
        n, m = self.n_struct, self.m
        lo, up = self.lower[:n], self.upper[:n]
        at_lower = np.isfinite(lo) & (~np.isfinite(up) | (np.abs(lo) <= np.abs(up)))
        at_upper = ~at_lower & np.isfinite(up)
        self.vstat[:n] = np.where(at_lower, AT_LOWER, np.where(at_upper, AT_UPPER, AT_VALUE))
        self.x[:n] = np.where(at_lower, lo, np.where(at_upper, up, 0.0))

        a = self.a[:, :n]  # no stored zeros: the scaling products drop them
        col = np.repeat(np.arange(n), np.diff(a.indptr))
        mag = np.abs(a.data)
        col_max = np.zeros(n)
        np.maximum.at(col_max, col, mag)
        ok = (mag >= 0.99 * col_max[col]) & self.fixed[n + a.indices] & ~self.fixed[col]
        cand, first = np.unique(col[ok], return_index=True)  # first such row in CSC order
        pivot_row = a.indices[ok][first]
        c_max = max(1.0, np.abs(self.c[:n]).max(initial=0.0))
        penalty = np.isfinite(up[cand]) + self.c[cand] / c_max
        order = np.lexsort((cand, penalty))
        basis, rows, ptr = list(range(n, n + m)), a.indices.tolist(), a.indptr.tolist()
        for j, r in zip(cand[order].tolist(), pivot_row[order].tolist()):
            if all(basis[i] >= n for i in rows[ptr[j]:ptr[j + 1]]):
                basis[r] = j
        self.basis = np.array(basis, dtype=np.intp)
        crashed = np.flatnonzero(self.basis < n)
        self.vstat[n:n + m] = BASIC
        self.vstat[self.basis[crashed]] = BASIC
        self.vstat[n + crashed], self.x[n + crashed] = AT_LOWER, 0.0
        self.fact.refactor(self.basis)
        self._recompute_basics()

    def warm_start(self, start: Basis) -> bool:
        """Install ``start``, a basis of this matrix (:func:`~.presolve.presolve`
        checks that and maps it); basic values may violate bounds. False when
        the basis is singular."""
        n = self.n_struct
        self.basis = start.basis.copy()
        self.vstat = start.vstat.copy()
        self.x = np.concatenate([start.x[:n] / self.col_scale, start.x[n:] * self.row_scale])
        nonbasic = np.flatnonzero(self.vstat != BASIC)
        lo, up = self.lower[nonbasic], self.upper[nonbasic]
        value = self.x[nonbasic]
        value = np.where(lo > value, lo, value)
        value = np.where(up < value, up, value)
        self.x[nonbasic] = value
        self.vstat[nonbasic] = np.where(value == lo, AT_LOWER,
                                        np.where(value == up, AT_UPPER, AT_VALUE))
        try:
            self.fact.refactor(self.basis)
        except RuntimeError:
            return False
        self._recompute_basics()
        return True

    def _recompute_basics(self) -> None:
        """Basic values, and the state kept in basis order: ``xb`` (``x`` of the
        basics is stale until :meth:`finish` writes ``xb`` back), ``lo_b``,
        ``up_b``, ``c_b`` and the ``below``/``above`` flags. ``inc`` is -1 on the
        nonbasic columns that may increase, ``dec`` 1 on those that may decrease."""
        x_nb = self.x.copy()
        x_nb[self.basis] = 0.0
        self.xb = self.fact.ftran(self.b - self.a_csr @ x_nb)
        self.x[self.basis] = self.xb
        self.lo_b, self.up_b = self.lower[self.basis], self.upper[self.basis]
        self.c_b = self.c[self.basis]
        self.below, self.above = self.xb < self.lo_b - PRIMAL_TOL, self.xb > self.up_b + PRIMAL_TOL
        vstat, free = self.vstat, ~self.fixed
        at_value = vstat == AT_VALUE
        self.inc = -(((vstat == AT_LOWER) | at_value) & free).astype(float)
        self.dec = (((vstat == AT_UPPER) | at_value) & free).astype(float)

    def _flag(self, rows) -> None:
        xb = self.xb[rows]
        self.below[rows] = xb < self.lo_b[rows] - PRIMAL_TOL
        self.above[rows] = xb > self.up_b[rows] + PRIMAL_TOL

    def _set_status(self, j: int, status: int) -> None:
        """Set ``vstat[j]`` to ``BASIC``, ``AT_LOWER`` or ``AT_UPPER`` and its masks."""
        self.vstat[j] = status
        free = not self.fixed[j]
        self.inc[j] = -float(free and status == AT_LOWER)
        self.dec[j] = float(free and status == AT_UPPER)

    # -- core iteration -----------------------------------------------------

    def _iterate(self) -> str:
        """Pivot until optimal, infeasible, unbounded or out of iterations.

        Every pass takes its cost from the basis: while a basic value violates
        its bounds (phase 1) the cost is -1 on basics below their lower bound
        and +1 on basics above their upper bound; once none does (phase 2) it
        is the true cost.
        """
        limit = ITERATIONS_BASE + ITERATIONS_PER_LINE * (self.m + self.n_struct)
        infeasibility_tol = INFEASIBILITY_TOL * (1.0 + np.abs(self.b).max(initial=0.0))
        flipped, priced = False, None  # priced: the phase-1 costs y and z belong to, or None
        while True:
            if self.iterations >= limit:
                return ITERATION_LIMIT
            self.iterations += 1

            below, above = self.below, self.above
            phase1 = below.any() or above.any()
            if phase1:
                # nonbasic columns cost nothing in phase 1; pricing skips basic ones
                cost, cost_b = 0.0, np.subtract(above, below, dtype=float)
                same = priced is not None and np.array_equal(cost_b, priced)
            else:
                cost, cost_b = self.c, self.c_b
                same = priced is None
            # a bound flip leaves the basis as it was: under the same costs y and z stand
            if not (flipped and same):
                y = self.fact.btran(cost_b)
                z = self._reduced_costs(cost, y)
                priced = cost_b if phase1 else None
            j = self._price(z)
            if j < 0:
                if not phase1:
                    return OPTIMAL
                xb, lo_b, up_b = self.xb, self.lo_b, self.up_b
                violation = (lo_b - xb)[below].sum() + (xb - up_b)[above].sum()
                if violation > infeasibility_tol:
                    self.farkas = y
                    return INFEASIBLE
                # round-off, not infeasibility: put those basics on their bounds
                self.xb = np.clip(xb, lo_b, up_b)
                self._flag(slice(None))
                continue
            # pricing takes a column at its lower bound only for z < 0, at its upper for z > 0
            direction = -1.0 if z[j] > 0 else 1.0

            d = self.fact.ftran(self._column(j))
            rows = np.flatnonzero(d != 0.0)
            d_rows = d[rows]
            delta = direction * d_rows
            xb, lo_stop, up_stop = self.xb[rows], self.lo_b[rows], self.up_b[rows]

            # An infeasible basic value stops at the bound where it becomes
            # feasible and is unlimited moving further out.
            dec, inc = delta > PIVOT_TOL, delta < -PIVOT_TOL
            if phase1:
                row_below, row_above = below[rows], above[rows]
                lo_stop, up_stop = (np.where(row_above, up_stop, lo_stop),
                                    np.where(row_below, lo_stop, up_stop))
                dec &= ~row_below
                inc &= ~row_above
            lim = np.full(rows.size, np.inf)
            np.divide(xb - lo_stop, delta, out=lim, where=dec)
            np.divide(up_stop - xb, -delta, out=lim, where=inc)
            min_basic = np.maximum(lim, 0.0, out=lim).min(initial=np.inf)

            own = self.upper[j] - self.x[j] if direction > 0 else self.x[j] - self.lower[j]
            step = min(min_basic, own)
            if not math.isfinite(step):
                return UNBOUNDED

            pivot = min_basic <= own
            if pivot:
                ties = np.flatnonzero(lim <= min_basic + 1e-10)
                if ties.size == 1:
                    t = ties[0]
                elif self._bland:
                    t = ties[np.argmin(self.basis[rows[ties]])]
                else:
                    t = ties[np.argmax(np.abs(delta[ties]))]
                r = rows[t]
                to_lower = bool(delta[t] > 0) != bool(below[r] or above[r])
            self.x[j] += direction * step
            self.xb[rows] = xb - step * delta
            if pivot:
                self._pivot(j, t, rows, d_rows, to_lower)
            else:
                self._set_status(j, AT_UPPER if direction > 0 else AT_LOWER)
            flipped = not pivot
            self._flag(rows)

            if step <= 1e-10:
                self._degenerate_run += 1
                if self._degenerate_run > BLAND_AFTER:
                    self._bland = True
            else:
                self._degenerate_run = 0
                self._bland = False

    def _price(self, z: np.ndarray) -> int:
        viol = np.maximum(z * self.inc, z * self.dec)
        if self._bland:
            eligible = np.flatnonzero(viol > OPT_TOL)
            return int(eligible[0]) if eligible.size else -1
        if not viol.size:  # presolve may leave no column
            return -1
        j = int(np.argmax(viol))
        return j if viol[j] > OPT_TOL else -1

    def _reduced_costs(self, cost, y: np.ndarray) -> np.ndarray:
        """``cost - A^T y``; the CSC arrays of A are the CSR arrays of A^T."""
        a, a_t_y = self.a, np.zeros(self.ncol)
        csr_matvec(self.ncol, self.m, a.indptr, a.indices, a.data, y, a_t_y)
        return cost - a_t_y

    def _column(self, j: int) -> np.ndarray:
        a = self.a
        start, end = a.indptr[j], a.indptr[j + 1]
        col = np.zeros(self.m)
        col[a.indices[start:end]] = a.data[start:end]
        return col

    def _pivot(self, entering: int, t: int, rows: np.ndarray, d_rows: np.ndarray,
               to_lower: bool) -> None:
        """Swap ``entering``, already at its new value, into row ``r = rows[t]``;
        the leaving variable lands on its lower bound when ``to_lower``, else on
        its upper bound. ``d_rows`` is the entering column on its nonzero ``rows``."""
        r = rows[t]
        leaving = self.basis[r]
        self.x[leaving] = self.lower[leaving] if to_lower else self.upper[leaving]
        self._set_status(leaving, AT_LOWER if to_lower else AT_UPPER)
        self.basis[r] = entering
        self._set_status(entering, BASIC)
        self.xb[r] = self.x[entering]
        self.lo_b[r], self.up_b[r] = self.lower[entering], self.upper[entering]
        self.c_b[r] = self.c[entering]
        self.fact.push_eta(t, rows, d_rows)
        if self.fact.k >= REFACTOR_EVERY:
            self.fact.refactor(self.basis)

    # -- result extraction ---------------------------------------------------

    def finish(self, status: str, warm_started: bool) -> SolveResult:
        problem = self.problem
        n = self.n_struct
        self.x[self.basis] = self.xb
        if status != OPTIMAL:
            res = SolveResult(status=status, iterations=self.iterations,
                              warm_started=warm_started)
            if status == ITERATION_LIMIT:
                res.x = self.x[:n] * self.col_scale
            elif status == INFEASIBLE:
                rows = np.flatnonzero(np.abs(self.farkas) > OPT_TOL)
                weight = np.abs(self.farkas[rows] * self.row_scale[rows])
                rows = rows[np.lexsort((rows, -weight, problem.rhs[rows] == 0))]
                res.infeasible_rows = [problem._row_name(int(i)) for i in rows]
            return res

        if self.fact.k:  # with no pivot since the last refactorization its LU stands
            self.fact.refactor(self.basis)
        self._recompute_basics()  # bound flips moved xb incrementally
        # round-off, not values: basics within PRIMAL_TOL of a finite bound sit on it
        xb, lo_b, up_b = self.xb, self.lo_b, self.up_b
        xb = np.where(np.abs(xb - lo_b) <= PRIMAL_TOL, lo_b,
                      np.where(np.abs(xb - up_b) <= PRIMAL_TOL, up_b, xb))
        self.x[self.basis] = xb
        x = self.x[:n] * self.col_scale
        objective = float(problem.objective @ x)

        y = self.fact.btran(self.c[self.basis])
        z = self._reduced_costs(self.c, y)
        y_orig = y * self.row_scale
        duals = np.where(problem.senses == LE, -y_orig, y_orig)

        return SolveResult(
            status=OPTIMAL,
            objective=objective,
            x=x,
            duals=duals,
            reduced_costs=z[:n] / self.col_scale,
            iterations=self.iterations,
            warm_started=warm_started,
            basis=Basis(
                basis=self.basis.copy(),
                vstat=self.vstat.copy(),
                x=np.concatenate([x, self.x[n:] / self.row_scale]),
                fingerprint=self.fingerprint(),
            ),
        )


def solve_lp(problem: SparseProblem, start: Basis | None = None) -> SolveResult:
    """Solve the continuous relaxation of ``problem``.

    Integrality marks are ignored. The returned status is one of ``optimal``,
    ``infeasible``, ``unbounded`` or ``iteration_limit``; on ``optimal`` the
    primal/dual pair satisfies the residual contract that
    :func:`carrieropt.lp.verify.verify_solution` checks. Identical inputs
    produce identical results.

    ``start`` is used when it fits this matrix and is nonsingular, whatever
    its basic values, and the result's ``warm_started`` says so; otherwise
    the solve starts from the triangular crash basis of :meth:`_Simplex.cold_start`.

    The solve always runs on the problem :func:`~.presolve.presolve` leaves:
    free rows are dropped, and so are columns with ``lower == upper``, except
    those basic in a fitting ``start``, and the rows they leave empty. An emptied row
    whose rhs breaks its sense makes the result ``infeasible`` after no
    iteration, with ``infeasible_rows`` naming that row. The result is
    postsolved to this problem: dropped columns at their bound, dropped rows
    with dual 0 and a basic slack. Basic values within ``PRIMAL_TOL`` of a
    finite bound are reported on that bound, so round-off does not show as
    a value.
    """
    from .presolve import postsolve, presolve  # presolve maps this module's Basis and results

    pre = presolve(problem, start)
    if pre.reduced is None:
        return SolveResult(status=INFEASIBLE, infeasible_rows=pre.infeasible_rows)
    sx = _Simplex(pre.reduced)
    warm = pre.start is not None and sx.warm_start(pre.start)
    if not warm:
        sx.cold_start()
    return postsolve(pre, sx.finish(sx._iterate(), warm))
