"""Bounded-variable primal simplex on sparse data.

The solver works on the equality form ``A x + s = b`` where each row's slack
carries bounds encoding the row sense (``<=``: s in [0, inf), ``>=``:
s in (-inf, 0], ``==``: s fixed at 0). The basis inverse is represented by a
sparse LU factorization plus a product-form eta file, refactorized
periodically. Pricing is Dantzig (largest reduced-cost violation, ties broken
by lowest column index) with an automatic switch to Bland's rule after a run
of degenerate steps, which guarantees termination.

Phase 1 needs no artificial columns: since every row has a bounded slack, it
minimizes the sum of the basic variables' bound violations directly (the
composite phase 1 of Maros, *Computational Techniques of the Simplex Method*,
ch. 9), and one loop switches to the true cost once the basis is feasible.
Cold and warm starts share that loop, so a warm basis whose basic values
violate new bounds runs phase 1 from where it is instead of starting cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

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


@dataclass
class SolveOptions:
    """Work limits of a solve.

    Tolerances and pivoting rules are constants, not options: ``OPT_TOL``,
    ``PIVOT_TOL``, ``PRIMAL_TOL``, ``INFEASIBILITY_TOL``, ``REFACTOR_EVERY`` and
    ``BLAND_AFTER`` in this module, and ``MIP_GAP`` and ``INTEGRALITY_TOL`` in
    :mod:`carrieropt.lp.branch_bound`.
    """

    max_iterations: int = 0        # 0: derived from problem size
    max_nodes: int = 100_000


@dataclass
class Basis:
    """Snapshot of a simplex basis for warm starts on the same matrix."""

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
    matrix under any bounds or rhs. On ``infeasible``, ``infeasible_rows``
    names the rows whose slack still violates its bounds when phase 1 stalls.
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


def _power_of_two(values: np.ndarray) -> np.ndarray:
    out = np.ones_like(values)
    pos = values > 0
    out[pos] = np.exp2(np.round(np.log2(values[pos])))
    return out


def _geometric_scaling(a: sp.csr_matrix, passes: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Geometric-mean row/column scale factors, rounded to powers of two."""
    m, n = a.shape
    row_scale = np.ones(m)
    col_scale = np.ones(n)
    if a.nnz == 0:
        return row_scale, col_scale
    work = a.copy().astype(float)
    for _ in range(passes):
        for axis in (1, 0):
            absw = abs(work)
            mx = absw.max(axis=axis).toarray().ravel()
            recip = absw.copy()
            recip.data = 1.0 / recip.data
            mn_inv = recip.max(axis=axis).toarray().ravel()
            nonzero = (mx > 0) & (mn_inv > 0)
            factor = np.ones_like(mx)
            factor[nonzero] = 1.0 / np.sqrt(mx[nonzero] / mn_inv[nonzero])
            factor = _power_of_two(factor)
            if axis == 1:
                row_scale *= factor
                work = sp.diags(factor) @ work
            else:
                col_scale *= factor
                work = work @ sp.diags(factor)
    return row_scale, col_scale


class _Factorization:
    """Basis inverse as LU of a snapshot plus a product-form eta file."""

    def __init__(self, a_csc: sp.csc_matrix):
        self.a_csc = a_csc
        self.lu = None
        self.etas: list[tuple[int, np.ndarray]] = []

    def refactor(self, basis: np.ndarray) -> None:
        b = sp.csc_matrix(self.a_csc[:, basis])
        self.lu = splu(b)
        self.etas = []

    def push_eta(self, row: int, column: np.ndarray) -> None:
        self.etas.append((row, column))

    def ftran(self, v: np.ndarray) -> np.ndarray:
        w = self.lu.solve(v)
        for r, d in self.etas:
            wr = w[r] / d[r]
            w -= d * wr
            w[r] = wr
        return w

    def btran(self, c: np.ndarray) -> np.ndarray:
        u = c.astype(float, copy=True)
        for r, d in reversed(self.etas):
            u[r] = (u[r] - (d @ u - d[r] * u[r])) / d[r]
        return self.lu.solve(u, trans="T")


class _Simplex:
    def __init__(self, problem: SparseProblem, options: SolveOptions):
        problem.validate()
        self.problem = problem
        self.opts = options
        m, n = problem.a.shape
        self.m, self.n_struct = m, n

        self.row_scale, self.col_scale = _geometric_scaling(problem.a)

        a_scaled = sp.diags(self.row_scale) @ problem.a @ sp.diags(self.col_scale)
        slack = sp.identity(m, format="csr")
        self.a = sp.hstack([a_scaled, slack], format="csc")
        self.a_csr = self.a.tocsr()
        self.ncol = n + m

        self.b = problem.rhs * self.row_scale
        self.lower = np.concatenate([problem.lower / self.col_scale, np.zeros(m)])
        self.upper = np.concatenate([problem.upper / self.col_scale, np.zeros(m)])
        for i, sense in enumerate(problem.senses):
            if sense == LE:
                self.upper[n + i] = np.inf
            elif sense == GE:
                self.lower[n + i] = -np.inf
        self.c = np.concatenate([problem.objective * self.col_scale, np.zeros(m)])

        self.x = np.zeros(self.ncol)
        self.vstat = np.full(self.ncol, AT_LOWER, dtype=np.int8)
        self.basis = np.arange(n, n + m)
        self.fact = _Factorization(self.a)
        self.iterations = 0
        self._degenerate_run = 0
        self._bland = False

    # -- start handling -----------------------------------------------------

    def fingerprint(self) -> tuple:
        a = self.problem.a
        return (self.m, self.n_struct, a.nnz,
                float(a.data.sum()), float(np.abs(a.data).sum()))

    def cold_start(self) -> None:
        n, m = self.n_struct, self.m
        for j in range(n):
            lo, up = self.lower[j], self.upper[j]
            if np.isfinite(lo) and (not np.isfinite(up) or abs(lo) <= abs(up)):
                self.vstat[j], self.x[j] = AT_LOWER, lo
            elif np.isfinite(up):
                self.vstat[j], self.x[j] = AT_UPPER, up
            else:
                self.vstat[j], self.x[j] = AT_VALUE, 0.0
        self.basis = np.arange(n, n + m)
        self.vstat[n:n + m] = BASIC
        self.fact.refactor(self.basis)
        self._recompute_basics()

    def warm_start(self, start: Basis) -> bool:
        """Install ``start`` if it fits this matrix; basic values may violate bounds."""
        if start.fingerprint != self.fingerprint():
            return False
        if len(start.basis) != self.m or len(start.vstat) != self.ncol:
            return False
        if start.basis.max(initial=0) >= self.ncol:
            return False
        self.basis = start.basis.copy()
        self.vstat = start.vstat.copy()
        self.x = start.x.copy()
        for j in np.flatnonzero(self.vstat != BASIC):
            value = min(max(self.x[j], self.lower[j]), self.upper[j])
            self.x[j] = value
            if value == self.lower[j]:
                self.vstat[j] = AT_LOWER
            elif value == self.upper[j]:
                self.vstat[j] = AT_UPPER
            else:
                self.vstat[j] = AT_VALUE
        try:
            self.fact.refactor(self.basis)
        except RuntimeError:
            return False
        self._recompute_basics()
        return True

    def _recompute_basics(self) -> None:
        x_nb = self.x.copy()
        x_nb[self.basis] = 0.0
        resid = self.b - self.a_csr @ x_nb
        self.x[self.basis] = self.fact.ftran(resid)

    # -- core iteration -----------------------------------------------------

    def _iterate(self) -> str:
        """Pivot until optimal, infeasible, unbounded or out of iterations.

        Every pass takes its cost from the basis: while a basic value violates
        its bounds (phase 1) the cost is -1 on basics below their lower bound
        and +1 on basics above their upper bound; once none does (phase 2) it
        is the true cost.
        """
        limit = self.opts.max_iterations or 20_000 + 40 * (self.m + self.n_struct)
        infeasibility_tol = INFEASIBILITY_TOL * (1.0 + np.abs(self.b).max(initial=0.0))
        while True:
            if self.iterations >= limit:
                return ITERATION_LIMIT
            self.iterations += 1

            xb = self.x[self.basis]
            lo_b, up_b = self.lower[self.basis], self.upper[self.basis]
            below = xb < lo_b - PRIMAL_TOL
            above = xb > up_b + PRIMAL_TOL
            violated = below | above
            phase1 = violated.any()
            if phase1:
                # nonbasic columns cost nothing in phase 1; pricing skips basic ones
                cost, cost_b = 0.0, np.subtract(above, below, dtype=float)
            else:
                cost, cost_b = self.c, self.c[self.basis]

            y = self.fact.btran(cost_b)
            z = cost - self.a.T @ y
            j = self._price(z)
            if j < 0:
                if not phase1:
                    return OPTIMAL
                violation = (lo_b - xb)[below].sum() + (xb - up_b)[above].sum()
                if violation > infeasibility_tol:
                    return INFEASIBLE
                # round-off, not infeasibility: put those basics on their bounds
                self.x[self.basis] = np.clip(xb, lo_b, up_b)
                continue
            direction = 1.0
            if self.vstat[j] == AT_UPPER or (self.vstat[j] == AT_VALUE and z[j] > 0):
                direction = -1.0

            d = self.fact.ftran(self.a[:, j].toarray().ravel())
            delta = direction * d

            # An infeasible basic value stops at the bound where it becomes
            # feasible and is unlimited moving further out.
            lo_stop, up_stop = lo_b, up_b
            dec = delta > PIVOT_TOL
            inc = delta < -PIVOT_TOL
            if phase1:
                lo_stop, up_stop = np.where(above, up_b, lo_b), np.where(below, lo_b, up_b)
                dec &= ~below
                inc &= ~above
            lim = np.full(self.m, np.inf)
            lim[dec] = (xb[dec] - lo_stop[dec]) / delta[dec]
            lim[inc] = (up_stop[inc] - xb[inc]) / (-delta[inc])
            lim = np.maximum(lim, 0.0)
            min_basic = lim.min() if self.m else np.inf

            if direction > 0:
                own = self.upper[j] - self.x[j]
            else:
                own = self.x[j] - self.lower[j]

            step = min(min_basic, own)
            if not np.isfinite(step):
                return UNBOUNDED

            if min_basic <= own:
                ties = np.flatnonzero(lim <= min_basic + 1e-10)
                if self._bland:
                    r = int(ties[np.argmin(self.basis[ties])])
                else:
                    r = int(ties[np.argmax(np.abs(delta[ties]))])
                to_lower = bool(delta[r] > 0) != bool(violated[r])
                self._pivot(j, r, d, delta, step, direction, to_lower)
            else:
                self.x[self.basis] = xb - step * delta
                self.x[j] += direction * step
                self.vstat[j] = AT_UPPER if direction > 0 else AT_LOWER

            if step <= 1e-10:
                self._degenerate_run += 1
                if self._degenerate_run > BLAND_AFTER:
                    self._bland = True
            else:
                self._degenerate_run = 0
                self._bland = False

    def _price(self, z: np.ndarray) -> int:
        viol = np.zeros(self.ncol)
        at_lower = self.vstat == AT_LOWER
        at_upper = self.vstat == AT_UPPER
        at_value = self.vstat == AT_VALUE
        viol[at_lower] = np.maximum(-z[at_lower], 0.0)
        viol[at_upper] = np.maximum(z[at_upper], 0.0)
        viol[at_value] = np.abs(z[at_value])
        viol[(self.upper == self.lower) & (self.vstat != BASIC)] = 0.0
        if self._bland:
            eligible = np.flatnonzero(viol > OPT_TOL)
            return int(eligible[0]) if eligible.size else -1
        j = int(np.argmax(viol))
        return j if viol[j] > OPT_TOL else -1

    def _pivot(self, entering: int, r: int, d: np.ndarray, delta: np.ndarray,
               step: float, direction: float, to_lower: bool) -> None:
        """Swap ``entering`` into row ``r``; the leaving variable lands on its lower
        bound when ``to_lower``, else on its upper bound."""
        leaving = self.basis[r]
        self.x[self.basis] = self.x[self.basis] - step * delta
        self.x[entering] += direction * step
        self.x[leaving] = self.lower[leaving] if to_lower else self.upper[leaving]
        self.vstat[leaving] = AT_LOWER if to_lower else AT_UPPER
        self.basis[r] = entering
        self.vstat[entering] = BASIC
        self.fact.push_eta(r, d)
        if len(self.fact.etas) >= REFACTOR_EVERY:
            self.fact.refactor(self.basis)

    # -- result extraction ---------------------------------------------------

    def finish(self, status: str) -> SolveResult:
        problem = self.problem
        n = self.n_struct
        if status != OPTIMAL:
            res = SolveResult(status=status, iterations=self.iterations)
            if status == ITERATION_LIMIT:
                res.x = self.x[:n] * self.col_scale
            elif status == INFEASIBLE:
                xb = self.x[self.basis]
                out = ((xb < self.lower[self.basis] - PRIMAL_TOL)
                       | (xb > self.upper[self.basis] + PRIMAL_TOL))
                rows = self.basis[out & (self.basis >= n)] - n
                res.infeasible_rows = [problem._row_name(int(i)) for i in np.sort(rows)]
            return res

        self.fact.refactor(self.basis)
        self._recompute_basics()
        x = self.x[:n] * self.col_scale
        objective = float(problem.objective @ x)

        y = self.fact.btran(self.c[self.basis])
        z = self.c - self.a.T @ y
        y_orig = y * self.row_scale
        duals = np.empty(self.m)
        for i, sense in enumerate(problem.senses):
            duals[i] = -y_orig[i] if sense == LE else y_orig[i]

        return SolveResult(
            status=OPTIMAL,
            objective=objective,
            x=x,
            duals=duals,
            reduced_costs=z[:n] / self.col_scale,
            iterations=self.iterations,
            basis=Basis(
                basis=self.basis.copy(),
                vstat=self.vstat.copy(),
                x=self.x.copy(),
                fingerprint=self.fingerprint(),
            ),
        )


def solve_lp(problem: SparseProblem, options: SolveOptions | None = None,
             start: Basis | None = None) -> SolveResult:
    """Solve the continuous relaxation of ``problem``.

    Integrality marks are ignored. The returned status is one of ``optimal``,
    ``infeasible``, ``unbounded`` or ``iteration_limit``; on ``optimal`` the
    primal/dual pair satisfies the residual contract that
    :func:`carrieropt.lp.verify.verify_solution` checks. Identical inputs and
    options produce identical results.

    ``start`` is used when it fits this matrix and is nonsingular, whatever
    its basic values; otherwise the solve starts from the slack basis.
    """
    options = options or SolveOptions()
    sx = _Simplex(problem, options)
    if start is None or not sx.warm_start(start):
        sx.cold_start()
    return sx.finish(sx._iterate())
