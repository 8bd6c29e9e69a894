"""Branch-and-bound tests against exhaustive enumeration of integer values."""

import itertools

import numpy as np
from numpy.testing import assert_allclose

from carrieropt.lp import LE, OPTIMAL, SolveOptions, branch_bound, solve_lp, solve_milp

from .test_simplex import make_problem


def enumerate_integer_optima(problem, int_cols):
    """Oracle: fix every integer assignment, solve the continuous rest."""
    ranges = [range(int(problem.lower[j]), int(problem.upper[j]) + 1) for j in int_cols]
    best = np.inf
    best_assign = None
    for assign in itertools.product(*ranges):
        fixed = problem.copy()
        for j, v in zip(int_cols, assign):
            fixed.lower[j] = fixed.upper[j] = float(v)
        res = solve_lp(fixed)
        if res.status == OPTIMAL and res.objective < best - 1e-12:
            best = res.objective
            best_assign = assign
    return best, best_assign


class TestBranchAndBound:
    def test_all_continuous_equals_lp(self):
        p = make_problem([[1.0, 1.0]], [LE], [4.0], [-1.0, -2.0], upper=[3.0, 2.0])
        lp = solve_lp(p)
        milp = solve_milp(p)
        assert milp.status == OPTIMAL
        assert_allclose(milp.objective, lp.objective, atol=1e-12)

    def test_single_integer_fractional_relaxation(self):
        # max 5x ~ min -5x with x <= 1.4 -> LP at 1.4, integer optimum 1
        p = make_problem([[1.0]], [LE], [1.4], [-5.0],
                         upper=[10.0], integer=np.array([True]))
        res = solve_milp(p)
        assert res.status == OPTIMAL
        assert_allclose(res.x, [1.0], atol=1e-9)
        assert_allclose(res.objective, -5.0, atol=1e-9)

    def test_two_integer_columns_match_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(3, 6))
            m = int(rng.integers(2, 5))
            a = np.vstack([rng.uniform(-1, 3, size=(m, n)), np.ones(n)])
            b = np.append(rng.uniform(2, 9, size=m), 12.0)
            c = rng.uniform(-5, 3, size=n)
            integer = np.zeros(n, dtype=bool)
            integer[:2] = True
            upper = np.full(n, np.inf)
            upper[:2] = 4.0  # <= 4 blocks each
            p = make_problem(a, [LE] * (m + 1), b, c, upper=upper, integer=integer)
            oracle, _ = enumerate_integer_optima(p, [0, 1])
            res = solve_milp(p)
            if np.isfinite(oracle):
                assert res.status == OPTIMAL
                assert_allclose(res.objective, oracle, atol=1e-9)
                frac = np.abs(res.x[:2] - np.round(res.x[:2]))
                assert frac.max() <= 1e-9  # polished incumbents are integral
            else:
                assert res.status != OPTIMAL

    def test_incumbent_never_beats_relaxation(self):
        p = make_problem([[2.0, 1.0], [1.0, 3.0]], [LE, LE], [7.3, 8.9],
                         [-3.0, -4.0], upper=[5.0, 5.0],
                         integer=np.array([True, True]))
        lp = solve_lp(p)
        milp = solve_milp(p)
        assert milp.objective >= lp.objective - 1e-9
        assert milp.bound_gap == 0.0

    def test_no_lp_solved_twice_with_same_bounds(self, monkeypatch):
        p = make_problem([[2.0, 1.0], [1.0, 3.0]], [LE, LE], [7.3, 8.9],
                         [-3.0, -4.0], upper=[5.0, 5.0],
                         integer=np.array([True, True]))
        solved = []

        def recording_solve_lp(problem, *args, **kwargs):
            solved.append((problem.lower.tobytes(), problem.upper.tobytes()))
            return solve_lp(problem, *args, **kwargs)

        monkeypatch.setattr(branch_bound, "solve_lp", recording_solve_lp)
        res = solve_milp(p)
        assert res.status == OPTIMAL and res.nodes > 1
        assert len(solved) == len(set(solved))

    def test_deterministic_node_order(self):
        p = make_problem([[2.0, 1.0], [1.0, 3.0]], [LE, LE], [7.3, 8.9],
                         [-3.0, -4.0], upper=[5.0, 5.0],
                         integer=np.array([True, True]))
        r1 = solve_milp(p)
        r2 = solve_milp(p.copy())
        assert r1.objective == r2.objective
        assert (r1.x == r2.x).all()
        assert r1.nodes == r2.nodes

    def test_node_limit_reports_gap(self):
        rng = np.random.default_rng(3)
        n = 8
        a = np.vstack([rng.uniform(0.1, 2, size=(4, n)), np.ones(n)])
        b = np.append(rng.uniform(6, 14, size=4), 17.5)
        c = rng.uniform(-5, -1, size=n)
        p = make_problem(a, [LE] * 5, b, c, upper=np.full(n, 3.0),
                         integer=np.ones(n, dtype=bool))
        res = solve_milp(p, SolveOptions(max_nodes=2))
        assert res.status in (OPTIMAL, "iteration_limit")
        if res.status == "iteration_limit":
            assert res.bound_gap is not None and res.bound_gap >= 0.0
