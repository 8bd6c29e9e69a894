"""LP kernel tests against brute-force vertex enumeration."""

import itertools
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg.lapack import dtrtrs
from scipy.optimize import linprog
from scipy.sparse.linalg import splu

from carrieropt.lp import (
    EQ,
    GE,
    LE,
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    ProblemError,
    RowBlock,
    SolveResult,
    SparseProblem,
    solve_lp,
    verify_solution,
)
from carrieropt.lp import simplex
from carrieropt.lp.simplex import (
    AT_LOWER,
    AT_UPPER,
    AT_VALUE,
    BASIC,
    OPT_TOL,
    PRIMAL_TOL,
    REFACTOR_EVERY,
    Basis,
    _Factorization,
    _Simplex,
)


def make_problem(a, senses, b, c, lower=None, upper=None, integer=None, names=None):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    m, n = a.shape
    rows, cols = np.nonzero(a)
    block = RowBlock(rows=rows, cols=cols, coefs=a[rows, cols], senses=list(senses),
                     rhs=np.asarray(b, dtype=float), names=[f"r{i}" for i in range(m)])
    return SparseProblem.from_block(
        num_cols=n,
        block=block,
        lower=np.zeros(n) if lower is None else np.asarray(lower, dtype=float),
        upper=np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float),
        objective=np.asarray(c, dtype=float),
        integer=integer,
        col_names=names or [f"x{j}" for j in range(n)],
    )


def enumerate_vertices(a, b, c):
    """Oracle: visit every basis of [A I], keep feasible ones, return min cost.

    Expects the standard form min c.x, A x <= b, x >= 0 with b >= 0 so the
    polytope has vertices exactly at the basic feasible solutions.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = a.shape
    full = np.hstack([a, np.eye(m)])
    cost_full = np.concatenate([c, np.zeros(m)])
    best = np.inf
    best_x = None
    for cols in itertools.combinations(range(n + m), m):
        sub = full[:, cols]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        xb = np.linalg.solve(sub, b)
        if (xb < -1e-9).any():
            continue
        value = cost_full[list(cols)] @ xb
        if value < best - 1e-12:
            best = value
            x = np.zeros(n + m)
            x[list(cols)] = xb
            best_x = x[:n]
    return best, best_x


class TestBasics:
    def test_single_variable(self):
        # min -x, x <= 5  ->  x = 5, obj -5
        p = make_problem([[1.0]], [LE], [5.0], [-1.0])
        res = solve_lp(p)
        assert res.status == OPTIMAL
        assert_allclose(res.objective, -5.0, atol=1e-12)
        assert_allclose(res.x, [5.0], atol=1e-12)

    def test_equality_row(self):
        # min x+y s.t. x+y == 3, x <= 1 -> x=1, y=2 has same cost as x=0,y=3
        p = make_problem([[1.0, 1.0]], [EQ], [3.0], [1.0, 1.0], upper=[1.0, np.inf])
        res = solve_lp(p)
        assert res.status == OPTIMAL
        assert_allclose(res.objective, 3.0, atol=1e-12)

    def test_ge_row_with_duals(self):
        # min 2x + 3y s.t. x + y >= 4 -> x = 4, dual = 2
        p = make_problem([[1.0, 1.0]], [GE], [4.0], [2.0, 3.0])
        res = solve_lp(p)
        assert res.status == OPTIMAL
        assert_allclose(res.objective, 8.0, atol=1e-12)
        assert_allclose(res.duals, [2.0], atol=1e-9)

    def test_infeasible_names_rows(self):
        p = make_problem([[1.0], [1.0]], [LE, GE], [1.0, 2.0], [1.0])
        res = solve_lp(p)
        assert res.status == INFEASIBLE
        assert res.infeasible_rows

    def test_infeasibility_threshold(self):
        # x <= 1 and x >= 1 + eps: a gap below 1e-7 * (1 + max|b|) is round-off
        near = make_problem([[1.0], [1.0]], [LE, GE], [1.0, 1.0 + 1e-8], [1.0])
        res = solve_lp(near)
        assert res.status == OPTIMAL
        assert_allclose(res.x, [1.0], atol=1e-7)
        far = make_problem([[1.0], [1.0]], [LE, GE], [1.0, 1.0 + 1e-6], [1.0])
        res = solve_lp(far)
        assert res.status == INFEASIBLE
        assert res.infeasible_rows == ["r0", "r1"]  # the two rows conflict

    def test_infeasible_rows_ordered_by_farkas_multiplier(self):
        # 1000 x >= 2000 against x <= 1: the ray weighs x <= 1 a thousand times
        # more in the problem's own units, although scaling makes the rows alike;
        # x <= 5 plays no part in the proof
        p = make_problem([[1000.0], [1.0], [1.0]], [GE, LE, LE], [2000.0, 1.0, 5.0], [1.0])
        res = solve_lp(p)
        assert res.status == INFEASIBLE
        assert res.infeasible_rows == ["r1", "r0"]

    def test_unbounded(self):
        p = make_problem([[1.0, -1.0]], [LE], [1.0], [-1.0, 0.0])
        res = solve_lp(p)
        assert res.status == UNBOUNDED

    def test_degenerate_redundant_rows_terminate(self):
        # duplicated constraints create degeneracy; Bland fallback terminates
        a = [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0], [1.0, 0.0]]
        p = make_problem(a, [LE] * 4, [2.0, 2.0, 1.0, 1.0], [-1.0, -1.0])
        res = solve_lp(p)
        assert res.status == OPTIMAL
        assert_allclose(res.objective, -2.0, atol=1e-10)

    def test_bounded_variables_upper(self):
        # min -x - 2y, x <= 3 (bound), y <= 2 (bound), x + y <= 4
        p = make_problem([[1.0, 1.0]], [LE], [4.0], [-1.0, -2.0], upper=[3.0, 2.0])
        res = solve_lp(p)
        assert_allclose(res.objective, -6.0, atol=1e-12)
        assert_allclose(res.x, [2.0, 2.0], atol=1e-12)

    def test_negative_lower_bounds(self):
        # min x, -5 <= x <= 5, x >= -2 (row)
        p = make_problem([[1.0]], [GE], [-2.0], [1.0], lower=[-5.0], upper=[5.0])
        res = solve_lp(p)
        assert_allclose(res.objective, -2.0, atol=1e-12)

    def test_fixed_variable(self):
        p = make_problem([[1.0, 1.0]], [LE], [10.0], [1.0, -1.0],
                         lower=[2.0, 0.0], upper=[2.0, np.inf])
        res = solve_lp(p)
        assert_allclose(res.x[0], 2.0, atol=1e-12)
        assert_allclose(res.objective, 2.0 - 8.0, atol=1e-12)


class TestOracleEquivalence:
    def test_random_lps_match_vertex_enumeration(self):
        rng = np.random.default_rng(20300501)
        solved = 0
        attempts = 0
        while solved < 200 and attempts < 400:
            attempts += 1
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 8))
            a = np.round(rng.uniform(-2.0, 4.0, size=(m, n)), 3)
            b = np.round(rng.uniform(1.0, 10.0, size=m), 3)
            c = np.round(rng.uniform(-5.0, 5.0, size=n), 3)
            # cap the polytope so every instance is bounded (counts as a row)
            a = np.vstack([a, np.ones(n)])
            b = np.append(b, round(float(rng.uniform(5.0, 20.0)), 3))
            oracle_obj, _ = enumerate_vertices(a, b, c)
            assert np.isfinite(oracle_obj)  # x=0 is feasible by construction
            p = make_problem(a, [LE] * (m + 1), b, c)
            res = solve_lp(p)
            assert res.status == OPTIMAL
            assert_allclose(res.objective, oracle_obj, atol=1e-8)
            solved += 1
        assert solved == 200

    def test_oracle_problems_verify_cleanly(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 6))
            a = rng.uniform(-1.0, 3.0, size=(m, n))
            a = np.vstack([a, np.ones(n)])
            b = np.append(rng.uniform(1.0, 8.0, size=m), 12.0)
            c = rng.uniform(-4.0, 4.0, size=n)
            p = make_problem(a, [LE] * (m + 1), b, c)
            res = solve_lp(p)
            assert res.status == OPTIMAL
            report = verify_solution(p, res)
            assert report.ok(1e-7), vars(report)


class TestDeterminismAndInvariants:
    def _random_problem(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 6, 5
        a = np.vstack([rng.uniform(-1, 3, size=(m, n)), np.ones(n)])
        b = np.append(rng.uniform(1, 9, size=m), 15.0)
        c = rng.uniform(-4, 4, size=n)
        return make_problem(a, [LE] * (m + 1), b, c)

    def test_bitwise_determinism(self):
        p = self._random_problem(99)
        simplex._kept.kernel = None  # two fresh set-ups, not one kept kernel
        r1 = solve_lp(p)
        simplex._kept.kernel = None
        r2 = solve_lp(replace(p, a=p.a.copy()))
        assert r1.objective == r2.objective
        assert (r1.x == r2.x).all()
        assert (r1.duals == r2.duals).all()
        assert r1.iterations == r2.iterations

    def test_objective_scaling_leaves_argmin_unchanged(self):
        p = self._random_problem(123)
        base = solve_lp(p)
        scaled = replace(p, objective=p.objective * 2.0)
        res = solve_lp(scaled)
        assert (res.x == base.x).all()
        assert_allclose(res.objective, 2.0 * base.objective, rtol=1e-12)

    def test_strong_duality_on_random_instances(self):
        for seed in range(5):
            p = self._random_problem(seed)
            res = solve_lp(p)
            report = verify_solution(p, res)
            assert report.duality_gap <= 1e-7
            assert report.complementarity_residual <= 1e-7

    def test_tampered_solution_is_flagged(self):
        p = self._random_problem(5)
        res = solve_lp(p)
        res.x = res.x.copy()
        res.x[0] += 1.0
        report = verify_solution(p, res)
        assert not report.ok(1e-6)

    def test_equality_residual_is_not_a_complementarity_violation(self):
        # min 1e5 x s.t. x == 1: the dual is 1e5 and a 1e-11 residual on the
        # equality row is primal feasible to 5e-12, not a slack
        p = make_problem([[1.0]], [EQ], [1.0], [1e5])
        x = np.array([1.0 + 1e-11])
        res = SolveResult(status=OPTIMAL, objective=float(1e5 * x[0]), x=x,
                          duals=np.array([1e5]), reduced_costs=np.zeros(1))
        report = verify_solution(p, res)
        assert report.max_row_violation <= 1e-11
        assert report.complementarity_residual <= 1e-7
        assert report.ok()

    def test_inequality_slack_times_dual_is_flagged(self):
        # x <= 2 with x = 1 leaves slack 1, so a nonzero dual is not optimal
        p = make_problem([[1.0]], [LE], [2.0], [-1.0])
        res = SolveResult(status=OPTIMAL, objective=-1.0, x=np.array([1.0]),
                          duals=np.array([1.0]), reduced_costs=np.zeros(1))
        assert verify_solution(p, res).complementarity_residual > 0.3


class TestFactorization:
    """The sparse eta store against dense solves on the explicitly updated basis."""

    @staticmethod
    def _pivot_rounds(rng, m, rounds):
        """Pivot ``rounds[i]`` times in round i, refactorizing between rounds.

        Returns the factorization and the dense basis it should represent.
        """
        total = sum(rounds)
        entering = rng.uniform(-0.5, 0.5, size=(m, total))
        rows = rng.integers(0, m, size=total)
        if total > 1:
            rows[1] = rows[0]  # the same row pivoted twice in a row
        entering[rows, np.arange(total)] += 4.0
        pool = np.hstack([4.0 * np.eye(m) + rng.uniform(-0.5, 0.5, size=(m, m)), entering])
        fact = _Factorization(sp.csc_matrix(pool))
        basis, col = np.arange(m), m
        for count in rounds:
            fact.refactor(basis)
            for r in rows[col - m:col - m + count]:
                d = np.linalg.solve(pool[:, basis], pool[:, col])
                nz = np.flatnonzero(d)
                fact.push_eta(int(np.searchsorted(nz, r)), nz, d[nz])
                basis[r], col = col, col + 1
        assert fact.k == rounds[-1]
        return fact, pool[:, basis]

    def _assert_solves(self, rng, fact, basis):
        v = rng.uniform(-1.0, 1.0, size=basis.shape[0])
        assert_allclose(fact.ftran(v), np.linalg.solve(basis, v), rtol=0, atol=1e-10)
        assert_allclose(fact.btran(v), np.linalg.solve(basis.T, v), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("pivots", [1, 2, REFACTOR_EVERY - 1])
    def test_ftran_btran_match_dense_solves(self, pivots):
        rng = np.random.default_rng(pivots)
        self._assert_solves(rng, *self._pivot_rounds(rng, 12, [pivots]))

    def test_refactorization_starts_a_clean_eta_file(self):
        # a full eta file, a refactorization on the updated basis, then more
        # etas whose rows the earlier ones hit: nothing stale may leak in
        rng = np.random.default_rng(5)
        self._assert_solves(rng, *self._pivot_rounds(rng, 12, [REFACTOR_EVERY - 1, 6]))

    @staticmethod
    def _dense_etas(fact):
        """The etas as the columns of a dense m x REFACTOR_EVERY matrix."""
        etas = np.zeros((fact.m, REFACTOR_EVERY))
        for i in range(fact.k):
            entries = slice(fact.ptr[i], fact.ptr[i + 1])
            etas[fact.idx[entries], i] = fact.val[entries]
        return etas

    @pytest.mark.parametrize("rounds", [[3], [REFACTOR_EVERY - 1, 6], [REFACTOR_EVERY]])
    def test_row_store_holds_the_etas_and_refactor_clears_it(self, rounds):
        # repeated pivot rows, and a refactorization between rounds
        rng = np.random.default_rng(len(rounds))
        fact, basis = self._pivot_rounds(rng, 12, rounds)
        assert np.unique(fact.rows[:fact.k]).size < fact.k  # a row pivoted more than once
        assert fact.by_row.tobytes() == self._dense_etas(fact).tobytes()
        fact.refactor(np.arange(12))
        assert fact.k == 0 and not fact.by_row.any()

    @staticmethod
    def _by_matmul(fact, v, transpose):
        """ftran (btran when ``transpose``) with the eta products taken by sparse ``@``."""
        k, ptr = fact.k, fact.ptr
        eta = sp.csc_matrix((fact.val[:ptr[k]], fact.idx[:ptr[k]], ptr[:k + 1]), shape=(fact.m, k))
        if not transpose:
            w = fact.lu.solve(v)
            if k:
                alpha, _ = dtrtrs(fact.tri[:, :k], w[fact.rows[:k]], lower=1)
                w -= eta @ alpha
            return w
        u = v.copy()
        if k:
            beta, _ = dtrtrs(fact.tri[:, :k], eta.T @ u, lower=1, trans=1)
            np.subtract.at(u, fact.rows[:k], beta)
        return fact.lu.solve(u, trans="T")

    @pytest.mark.parametrize("pivots", [0, 1, REFACTOR_EVERY])
    def test_eta_products_match_sparse_matmul_bitwise(self, pivots):
        rng = np.random.default_rng(40 + pivots)
        fact, _ = self._pivot_rounds(rng, 12, [pivots])
        v = rng.uniform(-1.0, 1.0, size=12)
        assert fact.ftran(v).tobytes() == self._by_matmul(fact, v, False).tobytes()
        assert fact.btran(v).tobytes() == self._by_matmul(fact, v, True).tobytes()


class TestDirectKernels:
    """scipy's CSR/CSC kernels and SuperLU, called as the solver calls them,
    against sparse ``@`` and ``splu``."""

    @staticmethod
    def _assert_lu_matches_splu(a_csc, basis, rng):
        fact = _Factorization(a_csc)
        fact.refactor(basis)
        lu = splu(sp.csc_matrix(a_csc[:, basis]), relax=1, panel_size=1)
        assert fact.lu.perm_r.tobytes() == lu.perm_r.tobytes()
        assert fact.lu.perm_c.tobytes() == lu.perm_c.tobytes()
        for factor in ("L", "U"):
            mine, theirs = getattr(fact.lu, factor), getattr(lu, factor)
            for part in ("indptr", "indices", "data"):
                assert getattr(mine, part).tobytes() == getattr(theirs, part).tobytes()
        v = rng.uniform(-1.0, 1.0, size=basis.size)
        for trans in ("N", "T"):
            assert fact.lu.solve(v, trans=trans).tobytes() == lu.solve(v, trans=trans).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(1, 25), extra=st.integers(0, 25), seed=st.integers(0, 2**32 - 1))
    def test_refactor_matches_splu(self, m, extra, seed):
        # [A | I] with a random nonsingular basis: slack columns where a random
        # structural pick would be singular
        rng = np.random.default_rng(seed)
        dense = rng.uniform(-3.0, 3.0, size=(m, extra)) * (rng.random((m, extra)) < 0.3)
        a_csc = sp.csc_matrix(np.hstack([dense, np.eye(m)]))
        basis = rng.permutation(extra + m)[:m]
        assume(np.linalg.matrix_rank(a_csc[:, basis].toarray()) == m)
        self._assert_lu_matches_splu(a_csc, basis, rng)

    def test_seed0_synergies_optimal_basis_matches_splu(self):
        problem = _synergies_24()
        sx = _Simplex(problem)
        self._assert_lu_matches_splu(sx.a, solve_lp(problem).basis.basis, np.random.default_rng(1))

    def test_a_singular_basis_raises(self):
        fact = _Factorization(sp.csc_matrix(np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 0.0]])))
        with pytest.raises(RuntimeError):
            fact.refactor(np.array([0, 1]))

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 30), n=st.integers(1, 30), density=st.sampled_from([0.0, 0.1, 0.5]),
           seed=st.integers(0, 2**32 - 1))
    def test_kernels_match_sparse_matmul(self, m, n, density, seed):
        rng = np.random.default_rng(seed)
        dense = rng.uniform(-3.0, 3.0, size=(m, n)) * (rng.random((m, n)) < density)
        dense[rng.integers(m)] = 0.0  # an empty row and an empty column
        dense[:, rng.integers(n)] = 0.0
        x = rng.uniform(-1.0, 1.0, size=n)
        for a, kernel in ((sp.csc_matrix(dense), simplex.csc_matvec),
                          (sp.csr_matrix(dense), simplex.csr_matvec)):
            out = np.zeros(m)
            kernel(m, n, a.indptr, a.indices, a.data, x, out)
            assert out.tobytes() == (a @ x).tobytes()

    def test_seed0_synergies_pricing_matches_sparse_matmul(self):
        sx = _Simplex(_synergies_24())
        y = np.random.default_rng(0).uniform(-1.0, 1.0, size=sx.m)
        a_t = sp.csr_matrix((sx.a.data, sx.a.indices, sx.a.indptr), shape=(sx.ncol, sx.m))
        assert sx._reduced_costs(sx.c, y).tobytes() == (sx.c - a_t @ y).tobytes()
        assert sx._reduced_costs(0.0, y).tobytes() == (0.0 - a_t @ y).tobytes()


class TestStartsMatchLoops:
    """The vectorized start handling against the per-column loops it replaced."""

    def _simplex(self):
        inf = np.inf
        lower = [0.0, -inf, -inf, -3.0, -5.0, 2.0, -0.0, 1.0]
        upper = [inf, 5.0, inf, 2.0, 1.0, 2.0, 0.0, 4.0]
        a = np.ones((3, len(lower)))
        return _Simplex(make_problem(a, [LE, GE, EQ], [1.0, 2.0, 3.0], np.ones(len(lower)),
                                     lower=lower, upper=upper))

    def test_cold_start_and_slack_bounds(self):
        sx = self._simplex()
        sx.cold_start()
        n = sx.n_struct
        # the crash: columns 0 and 2 have the lowest penalty, as the only
        # ones without a finite upper bound; the lower index replaces the
        # slack of the == row, and the slacks of the <= and >= rows stay basic
        assert sx.basis.tolist() == [n, n + 1, 0]
        assert sx.vstat[n:].tolist() == [BASIC, BASIC, AT_LOWER]
        assert sx.x[n + 2] == 0.0
        for j in range(1, n):
            lo, up = sx.lower[j], sx.upper[j]
            if np.isfinite(lo) and (not np.isfinite(up) or abs(lo) <= abs(up)):
                expected = AT_LOWER, lo
            elif np.isfinite(up):
                expected = AT_UPPER, up
            else:
                expected = AT_VALUE, 0.0
            assert (sx.vstat[j], np.float64(sx.x[j]).tobytes()) == (
                expected[0], np.float64(expected[1]).tobytes())
        assert sx.lower[n:].tolist() == [0.0, -np.inf, 0.0]
        assert sx.upper[n:].tolist() == [np.inf, 0.0, 0.0]

    def test_warm_start_clamps_nonbasics(self):
        sx = self._simplex()
        n, m = sx.n_struct, sx.m
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.uniform(-8.0, 8.0, size=n), np.zeros(m)])
        x[[1, 5, 6]] = [5.0, 2.0, 0.0]  # on a bound already
        vstat = np.full(n + m, AT_VALUE, dtype=np.int8)
        vstat[n:] = BASIC
        start = Basis(basis=np.arange(n, n + m), vstat=vstat, x=x, fingerprint=sx.fingerprint())
        assert sx.warm_start(start)
        for j in range(n):
            value = min(max(x[j], sx.lower[j]), sx.upper[j])
            if value == sx.lower[j]:
                status = AT_LOWER
            elif value == sx.upper[j]:
                status = AT_UPPER
            else:
                status = AT_VALUE
            assert (sx.vstat[j], np.float64(sx.x[j]).tobytes()) == (
                status, np.float64(value).tobytes())


class TestWarmRestart:
    def test_bound_relaxation_resumes_from_basis(self):
        p = self._chain_problem()
        tight = p.with_bounds({0: (p.lower[0], 0.0)})
        first = solve_lp(tight)
        relaxed = solve_lp(p, start=first.basis)
        cold = solve_lp(p)
        assert relaxed.status == OPTIMAL
        assert_allclose(relaxed.objective, cold.objective, atol=1e-9)
        assert relaxed.iterations <= cold.iterations + 5

    def test_warm_start_into_tightened_bounds_repairs_in_place(self):
        # min x0 + 3 x1, x0 + x1 >= 4: x0 = 4. Capping x0 at 1 makes the old
        # basic value infeasible; phase 1 repairs it from the old basis.
        p = make_problem([[1.0, 1.0]], [GE], [4.0], [1.0, 3.0])
        first = solve_lp(p)
        tight = p.with_bounds({0: (p.lower[0], 1.0)})
        cold = solve_lp(tight)
        warm = solve_lp(tight, start=first.basis)
        assert warm.status == cold.status == OPTIMAL
        assert warm.objective == cold.objective == 10.0
        assert warm.iterations < cold.iterations
        assert warm.basis is not None

    def test_warm_started_tells_a_used_start_from_a_fallback(self):
        p = make_problem([[1.0, 1.0]], [GE], [4.0], [1.0, 3.0])
        first = solve_lp(p)
        assert not first.warm_started
        assert solve_lp(p, start=first.basis).warm_started
        other = make_problem([[1.0, 2.0]], [GE], [4.0], [1.0, 3.0])
        fallback = solve_lp(other, start=first.basis)  # another matrix: cold
        assert fallback.status == OPTIMAL and not fallback.warm_started
        # x0 + x1 >= 9 with x0 <= 5 and x1 <= 1: infeasible
        tight = replace(p, rhs=np.array([9.0]), upper=np.array([5.0, 1.0]))
        res = solve_lp(tight, start=first.basis)
        assert res.status == INFEASIBLE and res.warm_started

    def _chain_problem(self):
        rng = np.random.default_rng(11)
        n, m = 8, 6
        a = np.vstack([rng.uniform(0, 2, size=(m, n)), np.ones(n)])
        b = np.append(rng.uniform(2, 9, size=m), 14.0)
        c = rng.uniform(-3, 1, size=n)
        return make_problem(a, [LE] * (m + 1), b, c)


def _limit_iterations(monkeypatch, limit: int) -> None:
    """Make every solve stop after ``limit`` iterations, whatever its size."""
    monkeypatch.setattr(simplex, "ITERATIONS_BASE", limit)
    monkeypatch.setattr(simplex, "ITERATIONS_PER_LINE", 0)


class TestOptionsSurface:
    def test_iteration_limit_status(self, monkeypatch):
        _limit_iterations(monkeypatch, 1)
        p = make_problem([[1.0, 1.0]], [LE], [4.0], [-1.0, -2.0], upper=[3.0, 2.0])
        res = solve_lp(p)
        assert res.status == "iteration_limit"

    def test_phase1_iteration_limit_status(self, monkeypatch):
        # x0 + x1 >= 4 and x0 - x1 == 1 both start violated; one pass cannot
        # reach feasibility, and running out is a limit, not infeasibility
        p = make_problem([[1.0, 1.0], [1.0, -1.0]], [GE, EQ], [4.0, 1.0], [1.0, 1.0])
        with monkeypatch.context() as patch:
            _limit_iterations(patch, 1)
            res = solve_lp(p)
        assert res.status == ITERATION_LIMIT
        assert res.infeasible_rows == []
        assert solve_lp(p).status == OPTIMAL

    def test_nan_rejected(self):
        p = make_problem([[1.0]], [LE], [1.0], [1.0])
        p.rhs[0] = np.nan
        with pytest.raises(Exception):
            solve_lp(p)

    def test_unknown_sense_rejected_by_one_validation(self):
        p = make_problem([[1.0], [1.0]], [LE, GE], [1.0, 0.0], [1.0])
        with mock.patch.object(SparseProblem, "validate", autospec=True,
                               side_effect=SparseProblem.validate) as validate:
            assert solve_lp(p).status == OPTIMAL
        assert validate.call_count == 1
        p.senses[1] = "=<"
        with pytest.raises(ProblemError, match="^unknown row sense '=<'$"):
            solve_lp(p)

    @pytest.mark.parametrize("sense, rhs", [(LE, -np.inf), (GE, np.inf), (EQ, np.inf),
                                            (EQ, -np.inf)],
                             ids=["le-minus-inf", "ge-plus-inf", "eq-plus-inf", "eq-minus-inf"])
    def test_an_infinite_rhs_no_point_meets_names_its_row(self, sense, rhs):
        p = make_problem([[1.0], [1.0]], [LE, sense], [1.0, 0.0], [1.0])
        p.rhs[1] = rhs
        with pytest.raises(ProblemError, match=f"^row r1: no point meets {sense} {rhs}$"):
            solve_lp(p)

    @pytest.mark.parametrize("sense, rhs", [(LE, np.inf), (GE, -np.inf)], ids=["le", "ge"])
    def test_a_free_row_is_accepted_and_constrains_nothing(self, sense, rhs):
        # min -x s.t. x <= 2 and the free row x (sense) rhs
        p = make_problem([[1.0], [1.0]], [LE, sense], [2.0, rhs], [-1.0])
        assert p.free_rows().tolist() == [False, True]
        res = solve_lp(p)
        assert res.status == OPTIMAL and res.x.tolist() == [2.0]
        assert res.duals[1] == 0.0 and verify_solution(p, res).ok()


class _Checked(_Simplex):
    """A simplex that checks its incrementally kept state before every pricing,
    which comes after every pivot and bound flip. ``reused`` counts the passes
    that priced with the previous pass's ``z``, per phase."""

    pivots = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.reused, self._last_z = {True: 0, False: 0}, None

    def _pivot(self, *args):
        self.pivots += 1
        super()._pivot(*args)

    def _price(self, z):
        basis, vstat, x = self.basis, self.vstat, self.x
        assert (vstat[basis] == BASIC).all() and np.count_nonzero(vstat == BASIC) == self.m
        x_nb = x.copy()
        x_nb[basis] = 0.0
        xb = np.linalg.solve(self.a[:, basis].toarray(), self.b - self.a @ x_nb)
        assert_allclose(self.xb, xb, rtol=1e-9, atol=1e-9 * (1.0 + np.abs(xb).max()))
        assert (self.lo_b == self.lower[basis]).all() and (self.up_b == self.upper[basis]).all()
        assert (self.c_b == self.c[basis]).all()
        assert (self.below == (self.xb < self.lo_b - PRIMAL_TOL)).all()
        assert (self.above == (self.xb > self.up_b + PRIMAL_TOL)).all()
        free = ~self.fixed
        may_increase = free & ((vstat == AT_LOWER) | (vstat == AT_VALUE))
        may_decrease = free & ((vstat == AT_UPPER) | (vstat == AT_VALUE))
        assert (self.inc == np.where(may_increase, -1.0, 0.0)).all()
        assert (self.dec == np.where(may_decrease, 1.0, 0.0)).all()
        # a kept z is what pricing afresh would give, bit for bit
        phase1 = self.below.any() or self.above.any()
        cost, cost_b = ((0.0, np.subtract(self.above, self.below, dtype=float)) if phase1
                        else (self.c, self.c_b))
        assert z.tobytes() == (cost - self.a.T @ self.fact.btran(cost_b)).tobytes()
        if z is self._last_z:
            self.reused[phase1] += 1
        self._last_z = z
        # the reference: pricing by one masked pass per status, as before the masks
        viol = np.zeros(self.ncol)
        at_lower, at_upper, at_value = vstat == AT_LOWER, vstat == AT_UPPER, vstat == AT_VALUE
        viol[at_lower] = np.maximum(-z[at_lower], 0.0)
        viol[at_upper] = np.maximum(z[at_upper], 0.0)
        viol[at_value] = np.abs(z[at_value])
        viol[self.fixed & (vstat != BASIC)] = 0.0
        eligible = np.flatnonzero(viol > OPT_TOL)
        expected = int(eligible[0] if self._bland else np.argmax(viol)) if eligible.size else -1
        j = super()._price(z)
        assert j == expected
        return j


@st.composite
def bounded_lps(draw):
    """Small LPs, some with free columns; most have a feasible point x0 by construction."""
    m = draw(st.integers(3, 8))
    n = draw(st.integers(3, 8))
    coefficient = st.sampled_from([-2.0, -1.0, 0.0, 0.0, 0.5, 1.0, 3.0])
    a = np.array(draw(st.lists(coefficient, min_size=m * n, max_size=m * n))).reshape(m, n)
    senses = draw(st.lists(st.sampled_from([LE, GE, EQ]), min_size=m, max_size=m))
    c = draw(st.lists(st.integers(-5, 5).map(float), min_size=n, max_size=n))
    lower = np.array(draw(st.lists(st.integers(-3, 0).map(float), min_size=n, max_size=n)))
    width = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, 6.0, np.inf]),
                                   min_size=n, max_size=n)))
    share = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n)))
    free = np.isinf(width)  # a free column starts nonbasic strictly inside its bounds
    x0 = np.where(free, share, lower + np.where(free, 0.0, width) * share)
    lower, upper = np.where(free, -np.inf, lower), np.where(free, np.inf, lower + width)
    gap = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 3.0, -2.0]), min_size=m, max_size=m)))
    sign = np.select([np.array(senses) == LE, np.array(senses) == GE], [1.0, -1.0], 0.0)
    rhs = a @ x0 + sign * gap  # a negative gap may leave the LP infeasible
    return make_problem(a, senses, rhs, c, lower=lower, upper=upper)


class TestKernelInvariants:
    def test_kept_state_matches_recompute_and_highs(self):
        reusing = []

        @settings(max_examples=150, deadline=None)
        @given(problem=bounded_lps())
        def check(problem):
            # a short eta file so that these small LPs refactorize mid-solve
            with mock.patch.object(simplex, "REFACTOR_EVERY", 3):
                sx = _Checked(problem)
                sx.cold_start()
                res = sx.finish(sx._iterate(), False)
            assume(sx.pivots >= 3)
            reusing.append(sum(sx.reused.values()) > 0)
            sign = np.where(problem.senses == GE, -1.0, 1.0)
            a, b, eq = sign[:, None] * problem.a.toarray(), sign * problem.rhs, problem.senses == EQ
            ref = linprog(problem.objective, A_ub=a[~eq], b_ub=b[~eq], A_eq=a[eq], b_eq=b[eq],
                          bounds=np.column_stack([problem.lower, problem.upper]), method="highs")
            assert (res.status == OPTIMAL) == (ref.status == 0)
            if res.status == OPTIMAL:
                assert abs(res.objective - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))

        check()
        # bound flips happen, so the reuse that _Checked verifies is exercised
        assert sum(reusing) >= 5, (sum(reusing), len(reusing))

    def test_passes_after_bound_flips_reuse_y_and_z_in_both_phases(self):
        # x0 + x1 + x2 + x3 >= 3.5 on [0, 1] boxes starts violated: x0, x1 and
        # x2 flip to 1 under unchanged phase-1 costs, and x3 pivots into the
        # row; then x4 and x5, the two boxes that pay, flip in phase 2
        p = make_problem([[1.0, 1.0, 1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0, 1.0]],
                         [GE, LE], [3.5, 5.0], [0.0, 0.0, 0.0, 0.0, -1.0, -2.0],
                         upper=np.ones(6))
        sx = _Checked(p)
        sx.cold_start()
        res = sx.finish(sx._iterate(), False)
        assert res.status == OPTIMAL and res.objective == -3.0
        assert sx.reused[True] >= 1 and sx.reused[False] >= 1, sx.reused

    @pytest.mark.parametrize("a, c, objective", [
        # row 1 is still violated: the phase-1 costs change
        ([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0),
        # no row is violated any more: phase 2 begins, and x1 pays
        ([[1.0, 0.0], [0.0, 0.0]], [0.0, -1.0], -2.0),
    ])
    def test_a_flip_that_clears_a_phase1_flag_prices_afresh(self, a, c, objective):
        # x0 flips to 1 - 5e-10, which leaves row 0 within PRIMAL_TOL of
        # feasible: the kept z would be stale (_Checked compares it with a fresh one)
        p = make_problem(a, [GE, GE], [1.0, a[1][1]], c, upper=[1.0 - 5e-10, 2.0])
        sx = _Checked(p)
        sx.cold_start()
        res = sx.finish(sx._iterate(), False)
        assert res.status == OPTIMAL and res.objective == objective
        assert sx.reused[True] == 0


def _problem_with_stored_zeros(a, senses, rhs, c, lower, upper):
    """A problem whose matrix keeps the explicit zeros of the dense ``a``."""
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    matrix = sp.csr_matrix((a.ravel(), np.tile(np.arange(n), m), np.arange(0, m * n + 1, n)),
                           shape=(m, n))
    return SparseProblem(a=matrix, senses=np.array(senses, dtype=object),
                         rhs=np.asarray(rhs, dtype=float), lower=np.asarray(lower, dtype=float),
                         upper=np.asarray(upper, dtype=float), objective=np.asarray(c, dtype=float),
                         integer=np.zeros(n, dtype=bool))


def _assert_crash_basis(sx: _Simplex) -> None:
    """The crash contract: each basic structural replaced the slack of an == row
    on an entry of at least 0.99 of its largest magnitude, the crashed block
    is triangular after permutation, and the nonbasics sit where the all-slack
    start put them."""
    n, m = sx.n_struct, sx.m
    a = sx.a[:, :n].toarray()
    rows = np.flatnonzero(sx.basis < n)
    cols = sx.basis[rows]
    assert sx.basis[~np.isin(np.arange(m), rows)].tolist() == [n + i for i in range(m)
                                                               if i not in rows]
    assert sx.fixed[n + rows].all() and not sx.fixed[cols].any()
    pivots = np.abs(a[rows, cols])
    assert (pivots > 0).all() and (pivots >= 0.99 * np.abs(a[:, cols]).max(axis=0)).all()
    assert (sx.vstat[cols] == BASIC).all()
    assert (sx.vstat[n + rows] == AT_LOWER).all() and (sx.x[n + rows] == 0.0).all()
    # peel row singletons: a triangular block empties completely
    block = a[np.ix_(rows, cols)] != 0
    while block.size:
        singles = np.flatnonzero(block.sum(axis=1) == 1)
        assert singles.size, "crashed block is not triangular"
        i = singles[0]
        j = np.flatnonzero(block[i])[0]
        block = np.delete(np.delete(block, i, axis=0), j, axis=1)
    lo, up = sx.lower[:n], sx.upper[:n]
    nonbasic = np.flatnonzero(sx.vstat[:n] != BASIC)
    at_lower = np.isfinite(lo) & (~np.isfinite(up) | (np.abs(lo) <= np.abs(up)))
    at_upper = ~at_lower & np.isfinite(up)
    expected = np.where(at_lower, lo, np.where(at_upper, up, 0.0))
    assert sx.x[nonbasic].tobytes() == expected[nonbasic].tobytes()


class TestCrash:
    def test_fixed_and_empty_columns_never_enter(self):
        # x0 (fixed) and x1 (empty) have the lowest penalty; x2 and x3 take
        # the two == rows
        p = make_problem([[4.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]], [EQ, EQ], [5.0, 2.0],
                         [-5.0, -5.0, 1.0, 1.0], lower=[1.0, 0.0, 0.0, 0.0],
                         upper=[1.0, 2.0, np.inf, np.inf])
        sx = _Simplex(p)
        sx.cold_start()
        assert sx.basis.tolist() == [2, 3]
        _assert_crash_basis(sx)
        res = sx.finish(sx._iterate(), False)
        assert res.status == OPTIMAL and res.objective == -5.0 - 10.0 + 1.0 + 2.0

    def test_penalty_orders_the_columns(self):
        # penalties (upper bound finite) + c_j / 3: x0 1 - 1/3, x1 1, x2 0.5;
        # the three share one == row, so only the first of them enters
        p = make_problem([[1.0, 1.0, 1.0]], [EQ], [1.0], [-1.0, 3.0, 1.5],
                         upper=[1.0, np.inf, np.inf])
        sx = _Simplex(p)
        sx.cold_start()
        assert sx.basis.tolist() == [2]

    def test_stored_zero_is_never_a_pivot(self):
        # x0 holds only a stored zero, in row 0, and costs least; x2's stored
        # zero lies in the row x1 takes and does not keep x2 out of row 1
        p = _problem_with_stored_zeros([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]], [EQ, EQ],
                                       [3.0, 4.0], [-10.0, -5.0, 0.0],
                                       lower=[0.0, 0.0, 0.0], upper=[5.0, np.inf, np.inf])
        sx = _Simplex(p)
        sx.cold_start()
        assert sx.basis.tolist() == [1, 2]
        _assert_crash_basis(sx)
        res = solve_lp(p)
        assert res.status == OPTIMAL and res.objective == -50.0 - 15.0
        assert verify_solution(p, res).ok()

    @settings(max_examples=150, deadline=None)
    @given(problem=bounded_lps())
    def test_crash_contract_on_random_lps(self, problem):
        sx = _Simplex(problem)
        sx.cold_start()
        _assert_crash_basis(sx)

    def test_cold_synergies_solve_takes_at_most_700_iterations(self):
        # 1,061 iterations from the all-slack basis, 567 from the crash basis
        res = solve_lp(_synergies_24())
        assert res.status == OPTIMAL and not res.warm_started
        assert res.iterations <= 700


def _synergies_24() -> SparseProblem:
    """The seed-0 synergies min-cost LP at 24 steps."""
    from carrieropt.builder import build_problem
    from carrieropt.costing import ObjectiveMode
    from carrieropt.scenarios import apply_scenario, standard_scenario
    from carrieropt.system import build_miniature_system

    system = apply_scenario(build_miniature_system(0, step_count=24),
                            standard_scenario("synergies"))
    return build_problem(system, ObjectiveMode.min_cost()).problem


class TestScaling:
    @staticmethod
    def _by_sparse_copies(a):
        """The scaling as first written: whole sparse copies per pass."""
        row_scale, col_scale = np.ones(a.shape[0]), np.ones(a.shape[1])
        if a.nnz == 0:
            return row_scale, col_scale
        work = a.copy().astype(float)
        for _ in range(4):
            for axis in (1, 0):
                absw = abs(work)
                mx = absw.max(axis=axis).toarray().ravel()
                recip = absw.copy()
                recip.data = 1.0 / recip.data
                mn_inv = recip.max(axis=axis).toarray().ravel()
                nonzero = (mx > 0) & (mn_inv > 0)
                factor = np.ones_like(mx)
                factor[nonzero] = 1.0 / np.sqrt(mx[nonzero] / mn_inv[nonzero])
                factor = simplex._power_of_two(factor)
                if axis == 1:
                    row_scale *= factor
                    work = sp.diags(factor) @ work
                else:
                    col_scale *= factor
                    work = work @ sp.diags(factor)
        return row_scale, col_scale

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 7), n=st.integers(1, 7), data=st.data())
    def test_matches_sparse_copies_and_ignores_stored_zeros(self, m, n, data):
        entry = st.sampled_from([0.0, 0.0, 0.0, -1e-3, 0.02, -0.5, 1.0, 3.0, -7.5, 250.0, 4e4])
        dense = np.array(data.draw(st.lists(entry, min_size=m * n, max_size=m * n))).reshape(m, n)
        a = sp.csr_matrix(dense)  # no stored zeros
        rows, cols = simplex._geometric_scaling(a)
        ref_rows, ref_cols = self._by_sparse_copies(a)
        assert rows.tobytes() == ref_rows.tobytes() and cols.tobytes() == ref_cols.tobytes()
        stored = _problem_with_stored_zeros(dense, [LE] * m, np.zeros(m), np.zeros(n),
                                            np.zeros(n), np.ones(n)).a
        assert stored.nnz == m * n
        rows_z, cols_z = simplex._geometric_scaling(stored)
        assert rows_z.tobytes() == rows.tobytes() and cols_z.tobytes() == cols.tobytes()
        assert np.isfinite(rows).all() and np.isfinite(cols).all()

    @staticmethod
    def _assert_scaled_matrix_by_products(problem):
        """``[diag(row_scale) A diag(col_scale) | I]`` against scipy's products and hstack."""
        sx = _Simplex(problem)
        a = sp.diags(sx.row_scale) @ problem.a @ sp.diags(sx.col_scale)
        ref = sp.hstack([a, sp.identity(sx.m, format="csr")], format="csc")
        assert sx.a.format == "csc" and sx.a.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            ours, theirs = getattr(sx.a, name), getattr(ref, name)
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 7), n=st.integers(1, 7), data=st.data())
    def test_scaled_matrix_matches_products_and_hstack(self, m, n, data):
        entry = st.sampled_from([0.0, 0.0, 0.0, -1e-3, 0.02, -0.5, 1.0, 3.0, -7.5, 250.0, 4e4])
        dense = np.array(data.draw(st.lists(entry, min_size=m * n, max_size=m * n))).reshape(m, n)
        # stored zeros included: the products drop them
        self._assert_scaled_matrix_by_products(
            _problem_with_stored_zeros(dense, [LE] * m, np.zeros(m), np.zeros(n),
                                       np.zeros(n), np.ones(n)))

    def test_seed0_synergies_scaled_matrix_matches_products_and_hstack(self):
        self._assert_scaled_matrix_by_products(_synergies_24())
