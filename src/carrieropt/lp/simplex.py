"""Bounded-variable primal simplex on sparse data.

The solver works on the equality form ``A x + s = b`` where each row's slack
carries bounds encoding the row sense (``<=``: s in [0, inf), ``>=``:
s in (-inf, 0], ``==``: s fixed at 0). The basis inverse is represented by a
sparse LU factorization plus a product-form eta file, refactorized
periodically. Pricing is Dantzig (largest reduced-cost violation, ties broken
by lowest column index) with an automatic switch to Bland's rule after a run
of degenerate steps, which guarantees termination.

Infeasibility is decided by a phase-1 subproblem with signed artificial
columns on the violated rows. A warm-started basis whose basic point violates
its bounds silently falls back to a cold start; pure bound relaxations
between solves therefore resume in phase 2.
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


@dataclass
class SolveOptions:
    """Work limits of a solve.

    Tolerances and pivoting rules are constants, not options: ``OPT_TOL``,
    ``PIVOT_TOL``, ``REFACTOR_EVERY`` and ``BLAND_AFTER`` in this module, and
    ``MIP_GAP`` and ``INTEGRALITY_TOL`` in :mod:`carrieropt.lp.branch_bound`.
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
        self.art_start = self.ncol  # no artificials yet
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
        xb = self.x[self.basis]
        tol = 1e-7 * (1.0 + np.abs(xb).max(initial=0.0))
        if (xb < self.lower[self.basis] - tol).any() or (xb > self.upper[self.basis] + tol).any():
            return False
        return True

    def _recompute_basics(self) -> None:
        x_nb = self.x.copy()
        x_nb[self.basis] = 0.0
        resid = self.b - self.a_csr @ x_nb
        self.x[self.basis] = self.fact.ftran(resid)

    # -- phase 1 ------------------------------------------------------------

    def ensure_feasible(self) -> tuple[bool, list[str]]:
        """Install signed artificials on violated rows and minimize their sum.

        Only reached with the cold slack basis (warm starts with violated
        basics are rejected earlier), so ``basis[i]`` is the slack of row i.
        """
        xb = self.x[self.basis]
        lo_b, up_b = self.lower[self.basis], self.upper[self.basis]
        bad = np.flatnonzero((xb < lo_b - 1e-11) | (xb > up_b + 1e-11))
        if bad.size == 0:
            return True, []

        # clamp each violated slack to its nearest bound; it leaves the basis
        for i in bad:
            j = self.basis[i]
            target = lo_b[i] if xb[i] < lo_b[i] else up_b[i]
            self.x[j] = target
            self.vstat[j] = AT_LOWER if target == self.lower[j] else AT_UPPER

        # residuals with every prospective basic value zeroed
        x_nb = self.x.copy()
        keep = np.setdiff1d(np.arange(self.m), bad)
        x_nb[self.basis[keep]] = 0.0
        resid = self.b - self.a_csr @ x_nb

        n_art = bad.size
        self.art_start = self.ncol
        signs = np.where(resid[bad] >= 0, 1.0, -1.0)
        art_block = sp.csc_matrix((signs, (bad, np.arange(n_art))), shape=(self.m, n_art))
        self.a = sp.hstack([self.a, art_block], format="csc")
        self.a_csr = self.a.tocsr()
        self.fact.a_csc = self.a
        self.lower = np.concatenate([self.lower, np.zeros(n_art)])
        self.upper = np.concatenate([self.upper, np.full(n_art, np.inf)])
        self.c = np.concatenate([self.c, np.zeros(n_art)])
        self.x = np.concatenate([self.x, np.abs(resid[bad])])
        self.vstat = np.concatenate([self.vstat, np.full(n_art, BASIC, dtype=np.int8)])
        self.basis[bad] = self.art_start + np.arange(n_art)
        self.ncol += n_art
        self.fact.refactor(self.basis)
        self._recompute_basics()

        phase1_cost = np.zeros(self.ncol)
        phase1_cost[self.art_start:] = 1.0
        status = self._iterate(phase1_cost)
        if status == ITERATION_LIMIT:
            return False, ["phase-1 iteration limit"]
        art_total = float(np.abs(self.x[self.art_start:]).sum())
        if art_total > 1e-7 * (1.0 + np.abs(self.b).max(initial=0.0)):
            rows_bad = [self.problem._row_name(int(i)) for i in range(self.m)
                        if self.basis[i] >= self.art_start and self.x[self.basis[i]] > 1e-9]
            return False, rows_bad or ["unidentified rows"]

        self._expel_artificials()
        self.upper[self.art_start:] = 0.0  # artificials never re-enter
        return True, []

    def _expel_artificials(self) -> None:
        for i in range(self.m):
            j = self.basis[i]
            if j < self.art_start:
                continue
            e = np.zeros(self.m)
            e[i] = 1.0
            w = self.fact.btran(e)
            alphas = self.a.T @ w
            alphas[self.art_start:] = 0.0
            alphas[self.vstat == BASIC] = 0.0
            candidates = np.flatnonzero(np.abs(alphas) > 1e-7)
            if candidates.size == 0:
                continue  # structurally dependent row; artificial stays pinned at 0
            enter = int(candidates[0])
            d = self.fact.ftran(self.a[:, enter].toarray().ravel())
            if abs(d[i]) < PIVOT_TOL:
                continue
            self.vstat[enter] = BASIC
            self.vstat[j] = AT_LOWER
            self.x[j] = 0.0
            self.upper[j] = 0.0
            self.basis[i] = enter
            self.fact.push_eta(i, d)
            self._maybe_refactor()

    # -- core iteration -----------------------------------------------------

    def _max_iterations(self) -> int:
        if self.opts.max_iterations:
            return self.opts.max_iterations
        return 20_000 + 40 * (self.m + self.n_struct)

    def _maybe_refactor(self) -> None:
        if len(self.fact.etas) >= REFACTOR_EVERY:
            self.fact.refactor(self.basis)

    def _iterate(self, cost: np.ndarray) -> str:
        limit = self._max_iterations()
        self._degenerate_run = 0
        self._bland = False
        while True:
            if self.iterations >= limit:
                return ITERATION_LIMIT
            self.iterations += 1

            y = self.fact.btran(cost[self.basis])
            z = cost - self.a.T @ y
            j = self._price(z)
            if j < 0:
                return OPTIMAL
            direction = 1.0
            if self.vstat[j] == AT_UPPER or (self.vstat[j] == AT_VALUE and z[j] > 0):
                direction = -1.0

            d = self.fact.ftran(self.a[:, j].toarray().ravel())
            delta = direction * d
            xb = self.x[self.basis]
            lo_b, up_b = self.lower[self.basis], self.upper[self.basis]

            lim = np.full(self.m, np.inf)
            dec = delta > PIVOT_TOL
            lim[dec] = (xb[dec] - lo_b[dec]) / delta[dec]
            inc = delta < -PIVOT_TOL
            lim[inc] = (up_b[inc] - xb[inc]) / (-delta[inc])
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
                self._pivot(j, r, d, delta, step, direction)
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
               step: float, direction: float) -> None:
        leaving = self.basis[r]
        self.x[self.basis] = self.x[self.basis] - step * delta
        self.x[entering] += direction * step
        hit_lower = delta[r] > 0
        self.x[leaving] = self.lower[leaving] if hit_lower else self.upper[leaving]
        self.vstat[leaving] = AT_LOWER if hit_lower else AT_UPPER
        if leaving >= self.art_start:
            self.upper[leaving] = 0.0
            self.x[leaving] = 0.0
            self.vstat[leaving] = AT_LOWER
        self.basis[r] = entering
        self.vstat[entering] = BASIC
        self.fact.push_eta(r, d)
        self._maybe_refactor()

    # -- result extraction ---------------------------------------------------

    def finish(self, status: str) -> SolveResult:
        problem = self.problem
        n = self.n_struct
        if status != OPTIMAL:
            res = SolveResult(status=status, iterations=self.iterations)
            res.x = self.x[:n] * self.col_scale
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

        basis = None
        core = self.n_struct + self.m
        if not (self.basis >= core).any():
            basis = Basis(
                basis=self.basis.copy(),
                vstat=self.vstat[:core].copy(),
                x=self.x[:core].copy(),
                fingerprint=self.fingerprint(),
            )
        return SolveResult(
            status=OPTIMAL,
            objective=objective,
            x=x,
            duals=duals,
            reduced_costs=z[:n] / self.col_scale,
            iterations=self.iterations,
            basis=basis,
        )


def solve_lp(problem: SparseProblem, options: SolveOptions | None = None,
             start: Basis | None = None) -> SolveResult:
    """Solve the continuous relaxation of ``problem``.

    Integrality marks are ignored. The returned status is one of ``optimal``,
    ``infeasible``, ``unbounded`` or ``iteration_limit``; on ``optimal`` the
    primal/dual pair satisfies the residual contract that
    :func:`carrieropt.lp.verify.verify_solution` checks. Identical inputs and
    options produce identical results.
    """
    options = options or SolveOptions()
    sx = _Simplex(problem, options)
    started = start is not None and sx.warm_start(start)
    if not started:
        sx.cold_start()
    feasible, bad_rows = sx.ensure_feasible()
    if not feasible:
        res = SolveResult(status=INFEASIBLE, iterations=sx.iterations)
        res.infeasible_rows = bad_rows
        return res
    status = sx._iterate(sx.c)
    if status == UNBOUNDED:
        return SolveResult(status=UNBOUNDED, iterations=sx.iterations)
    return sx.finish(status)
