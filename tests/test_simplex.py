"""LP kernel tests against brute-force vertex enumeration."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from carrieropt.lp import (
    EQ,
    GE,
    LE,
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    Row,
    SolveOptions,
    SolveResult,
    SparseProblem,
    solve_lp,
    verify_solution,
)


def make_problem(a, senses, b, c, lower=None, upper=None, integer=None, names=None):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    m, n = a.shape
    rows = [Row(coeffs=[(j, a[i, j]) for j in range(n) if a[i, j] != 0.0],
                sense=senses[i], rhs=b[i], label=f"r{i}")
            for i in range(m)]
    return SparseProblem.from_rows(
        num_cols=n,
        rows=rows,
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
        r1 = solve_lp(p)
        r2 = solve_lp(p.copy())
        assert r1.objective == r2.objective
        assert (r1.x == r2.x).all()
        assert (r1.duals == r2.duals).all()
        assert r1.iterations == r2.iterations

    def test_objective_scaling_leaves_argmin_unchanged(self):
        p = self._random_problem(123)
        base = solve_lp(p)
        scaled = p.copy()
        scaled.objective = scaled.objective * 2.0
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


class TestWarmRestart:
    def test_bound_relaxation_resumes_from_basis(self):
        p = self._chain_problem()
        tight = p.copy()
        tight.upper[0] = 0.0
        first = solve_lp(tight)
        relaxed = solve_lp(p, start=first.basis)
        cold = solve_lp(p)
        assert relaxed.status == OPTIMAL
        assert_allclose(relaxed.objective, cold.objective, atol=1e-9)
        assert relaxed.iterations <= cold.iterations + 5

    def _chain_problem(self):
        rng = np.random.default_rng(11)
        n, m = 8, 6
        a = np.vstack([rng.uniform(0, 2, size=(m, n)), np.ones(n)])
        b = np.append(rng.uniform(2, 9, size=m), 14.0)
        c = rng.uniform(-3, 1, size=n)
        return make_problem(a, [LE] * (m + 1), b, c)


class TestOptionsSurface:
    def test_iteration_limit_status(self):
        p = make_problem([[1.0, 1.0]], [LE], [4.0], [-1.0, -2.0], upper=[3.0, 2.0])
        res = solve_lp(p, SolveOptions(max_iterations=1))
        assert res.status == "iteration_limit"

    def test_nan_rejected(self):
        p = make_problem([[1.0]], [LE], [1.0], [1.0])
        p.rhs[0] = np.nan
        with pytest.raises(Exception):
            solve_lp(p)
