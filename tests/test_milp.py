"""Branch-and-bound tests against exhaustive enumeration of integer values."""

import itertools
from dataclasses import replace

import numpy as np
from numpy.testing import assert_allclose
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as highs_milp

from carrieropt.builder import build_problem
from carrieropt.costing import ObjectiveMode
from carrieropt.lp import (GE, LE, OPTIMAL, branch_bound, simplex, solve_lp, solve_milp,
                           warm_start_solve)
from carrieropt.scenarios import apply_scenario, standard_scenario
from carrieropt.system import build_miniature_system

from .test_simplex import make_problem


def highs_milp_reference(problem):
    """``scipy.optimize.milp`` (HiGHS) on ``problem`` at a zero gap."""
    lo = np.where(problem.senses == LE, -np.inf, problem.rhs)
    hi = np.where(problem.senses == GE, np.inf, problem.rhs)
    return highs_milp(problem.objective, constraints=LinearConstraint(problem.a, lo, hi),
                      integrality=problem.integer.astype(np.uint8),
                      bounds=Bounds(problem.lower, problem.upper),
                      options={"mip_rel_gap": 0.0})


def enumerate_integer_optima(problem, int_cols):
    """Oracle: fix every integer assignment, solve the continuous rest."""
    ranges = [range(int(problem.lower[j]), int(problem.upper[j]) + 1) for j in int_cols]
    best = np.inf
    best_assign = None
    for assign in itertools.product(*ranges):
        fixed = problem.with_bounds({j: (float(v), float(v)) for j, v in zip(int_cols, assign)})
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
        simplex._kept.kernel = None  # two fresh set-ups, not one kept kernel
        r1 = solve_milp(p)
        simplex._kept.kernel = None
        r2 = solve_milp(replace(p, a=p.a.copy()))
        assert r1.objective == r2.objective
        assert (r1.x == r2.x).all()
        assert r1.nodes == r2.nodes

    def test_node_limit_reports_gap(self, monkeypatch):
        rng = np.random.default_rng(3)
        n = 8
        a = np.vstack([rng.uniform(0.1, 2, size=(4, n)), np.ones(n)])
        b = np.append(rng.uniform(6, 14, size=4), 17.5)
        c = rng.uniform(-5, -1, size=n)
        p = make_problem(a, [LE] * 5, b, c, upper=np.full(n, 3.0),
                         integer=np.ones(n, dtype=bool))
        monkeypatch.setattr(branch_bound, "MAX_NODES", 2)
        res = solve_milp(p)
        assert res.status in (OPTIMAL, "iteration_limit")
        if res.status == "iteration_limit":
            assert res.bound_gap is not None and res.bound_gap >= 0.0


class TestWarmChildren:
    """Children start from their parent's basis, polishes from their node's."""

    def test_dc_blocks_match_highs_and_start_warm(self, monkeypatch):
        system = build_miniature_system(0, 24, dc_blocks_mw=10.0)
        gated = apply_scenario(system, standard_scenario("t-all"))
        problem = build_problem(gated, ObjectiveMode.min_cost()).problem
        assert problem.integer.any()
        calls = []

        def recording_solve_lp(problem, *args, start=None, **kwargs):
            res = solve_lp(problem, *args, start=start, **kwargs)
            # copied now: solve_milp rewrites the incumbent's fields at the end
            calls.append((start, res.basis, res.warm_started, res.iterations))
            return res

        monkeypatch.setattr(branch_bound, "solve_lp", recording_solve_lp)
        res = solve_milp(problem)
        assert res.status == OPTIMAL and res.nodes > 1
        assert res.iterations == sum(iterations for *_, iterations in calls)
        # 438 before presolve; children and polishes keep the integer
        # columns their start has basic, so none of them starts cold
        assert res.iterations <= 438
        (root_start, root_basis, root_warm, _), *rest = calls
        assert root_start is None and not root_warm
        bases = [root_basis]
        for start, basis, warm, _ in rest:
            assert any(start is earlier for earlier in bases)  # shared, not copied
            assert warm
            bases.append(basis)

        ref = highs_milp_reference(problem)
        assert ref.status == 0
        assert abs(res.objective - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))


def _arrays(problem) -> dict[str, np.ndarray]:
    """Every array ``problem`` holds, the matrix's and the names included."""
    return {"a.data": problem.a.data, "a.indices": problem.a.indices,
            "a.indptr": problem.a.indptr, "senses": problem.senses, "rhs": problem.rhs,
            "lower": problem.lower, "upper": problem.upper, "objective": problem.objective,
            "integer": problem.integer, "col_names": np.array(problem.col_names),
            "row_names": np.array(problem.row_names)}


class TestSolvesLeaveTheirProblem:
    """No solve writes into the problem it is given: ``BuiltProblem.for_mode``
    shares arrays between the problems it derives, and relies on this."""

    @staticmethod
    def _solve_unchanged(problem, solve):
        before = {name: array.copy() for name, array in _arrays(problem).items()}
        result = solve()
        for name, array in _arrays(problem).items():
            assert array.dtype == before[name].dtype and np.array_equal(array, before[name]), name
        return result

    def test_lp_milp_and_warm_start(self, monkeypatch):
        system = build_miniature_system(0, 24, dc_blocks_mw=10.0)
        built = build_problem(apply_scenario(system, standard_scenario("t-all")),
                              ObjectiveMode.min_cost())
        problem = built.problem
        node_matrices = []

        def recording_solve_lp(node, *args, **kwargs):
            node_matrices.append(node.a)
            return solve_lp(node, *args, **kwargs)

        monkeypatch.setattr(branch_bound, "solve_lp", recording_solve_lp)
        assert self._solve_unchanged(problem, lambda: solve_lp(problem)).status == OPTIMAL
        res = self._solve_unchanged(problem, lambda: solve_milp(problem))
        assert res.status == OPTIMAL and res.nodes == 3
        sizes = {name: float(res.x[col]) for name, col in built.index.size_columns().items()}
        stages = self._solve_unchanged(problem, lambda: warm_start_solve(problem, sizes, []))
        assert [stage.status for stage in stages] == [OPTIMAL] * 2  # no new sizes: no stage 2
        # every node, polish and stage solves a problem derived from this one's bounds
        assert len(node_matrices) > 4
        assert all(a is problem.a for a in node_matrices)
