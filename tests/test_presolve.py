"""Presolve of free rows, fixed columns and the rows they empty, and its postsolve."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from carrieropt.builder import build_problem
from carrieropt.costing import ObjectiveMode
from carrieropt.lp import (
    EQ, GE, INFEASIBLE, LE, OPTIMAL, UNBOUNDED, solve_lp, verify_solution,
)
from carrieropt.lp.presolve import map_basis, presolve
from carrieropt.lp.simplex import AT_LOWER, BASIC
from carrieropt.scenarios import (
    STANDARD_SCENARIO_IDS,
    ScenarioRunner,
    apply_scenario,
    standard_scenario,
)
from carrieropt.system import build_miniature_system
from carrieropt.system_io import parse_system_files

from .test_highs_oracle import highs
from .test_simplex import bounded_lps, make_problem


def _fixed_problem():
    """min 5 x0 - x1 - 2 x2 + x3 s.t. x0 <= 3, x1 + x2 + x3 <= 4, x1 <= 3, with
    x0 fixed at 2 and x3 at -1: dropping x0 empties r0, and x3 moves into
    r1's rhs, which becomes 5."""
    a = [[1.0, 0.0, 0.0, 0.0],
         [0.0, 1.0, 1.0, 1.0],
         [0.0, 1.0, 0.0, 0.0]]
    return make_problem(a, [LE, LE, LE], [3.0, 4.0, 3.0], [5.0, -1.0, -2.0, 1.0],
                        lower=[2.0, 0.0, 0.0, -1.0], upper=[2.0, 4.0, 3.0, -1.0])


class TestReduction:
    def test_drops_fixed_columns_and_the_rows_they_empty(self):
        p = _fixed_problem()
        pre = presolve(p)
        assert pre.cols.tolist() == [False, True, True, False]
        assert pre.rows.tolist() == [False, True, True]
        assert pre.reduced.a.toarray().tolist() == [[1.0, 1.0], [1.0, 0.0]]
        assert pre.reduced.rhs.tolist() == [5.0, 3.0]
        assert pre.reduced.row_names == ["r1", "r2"]

    def test_postsolve_fills_the_original_space(self):
        p = _fixed_problem()
        res = solve_lp(p)
        assert res.status == OPTIMAL
        assert res.x.tolist() == [2.0, 2.0, 3.0, -1.0]
        assert res.objective == 10.0 - 2.0 - 6.0 - 1.0
        assert res.duals[0] == 0.0
        # reduced costs of the dropped columns are c_j - a_j^T y
        y = np.where(p.senses == LE, -res.duals, res.duals)
        assert_allclose(res.reduced_costs, p.objective - p.a.T @ y, atol=1e-12)
        assert verify_solution(p, res).ok()
        n, m = p.num_cols, p.num_rows
        basis = res.basis
        assert basis.fingerprint == p.fingerprint()
        assert basis.vstat[[0, 3]].tolist() == [AT_LOWER, AT_LOWER]
        assert basis.vstat[n] == BASIC and n in basis.basis
        assert len(basis.basis) == m and (basis.vstat[basis.basis] == BASIC).all()
        # x in problem units: the structurals are the solution, the slacks rhs - A x
        assert basis.x[:n].tobytes() == res.x.tobytes()
        assert_allclose(basis.x[n:], p.rhs - p.a @ res.x, atol=1e-12)

    def test_nothing_to_drop_keeps_the_problem(self):
        p = make_problem([[1.0, 1.0]], [GE], [4.0], [1.0, 3.0])
        pre = presolve(p)
        assert pre.reduced is p


class TestWarmRestart:
    def test_returned_basis_restarts_the_original_problem(self):
        p = _fixed_problem()
        first = solve_lp(p)
        again = solve_lp(p, start=first.basis)
        assert again.warm_started and again.iterations <= 1
        assert again.objective == first.objective

    @pytest.mark.parametrize("scenario_id", ["reference", "t-all", "h-2"])
    def test_scenario_basis_restarts_warm(self, scenario_id):
        system = apply_scenario(build_miniature_system(0, step_count=24),
                                standard_scenario(scenario_id))
        p = build_problem(system, ObjectiveMode.min_cost()).problem
        assert presolve(p).reduced.num_cols < p.num_cols
        first = solve_lp(p)
        again = solve_lp(p, start=first.basis)
        assert again.status == OPTIMAL and again.warm_started
        assert again.iterations <= 1
        assert again.objective == first.objective

    def test_a_basic_column_fixed_afterwards_stays_and_starts_warm(self):
        # min -x0 - x1, x0 + 2 x1 <= 4, x0 <= 3: x0 = 3 and x1 = 0.5, both
        # basic. Fixing x1 at 0, as branch and bound fixes an integer column,
        # keeps x1 when the start is given, so the start maps exactly and
        # phase 1 moves x1 onto its new bound.
        p = make_problem([[1.0, 2.0], [1.0, 0.0]], [LE, LE], [4.0, 3.0], [-1.0, -1.0])
        first = solve_lp(p)
        assert first.x.tolist() == [3.0, 0.5] and 1 in first.basis.basis
        child = p.with_bounds({1: (p.lower[1], 0.0)})
        assert presolve(child).cols.tolist() == [True, False]
        pre = presolve(child, first.basis)
        assert pre.cols.all() and pre.start is not None
        res = solve_lp(child, start=first.basis)
        assert res.status == OPTIMAL and res.warm_started
        assert res.objective == solve_lp(child).objective == -3.0

    def test_fixed_sets_differ_between_start_and_solve(self):
        # the start drops x0 and x3; the next solve frees x0 and keeps x3 fixed
        p = _fixed_problem()
        first = solve_lp(p)
        freed = p.with_bounds({0: (0.0, p.upper[0])})
        res = solve_lp(freed, start=first.basis)
        assert res.status == OPTIMAL and res.warm_started
        assert res.objective == pytest.approx(solve_lp(freed).objective, abs=1e-12)
        assert verify_solution(freed, res).ok()


class TestEdgeShapes:
    @pytest.mark.parametrize("sense, rhs", [(LE, 1.0), (GE, 3.0), (EQ, 2.5)])
    def test_emptied_row_breaking_its_sense_is_infeasible(self, sense, rhs):
        # x0 fixed at 2 leaves r1 as 2 {sense} rhs, which fails
        p = make_problem([[1.0, 1.0], [1.0, 0.0]], [LE, sense], [5.0, rhs], [1.0, 1.0],
                         lower=[2.0, 0.0], upper=[2.0, 9.0])
        res = solve_lp(p)
        assert res.status == INFEASIBLE
        assert res.infeasible_rows == ["r1"]
        assert res.iterations == 0

    def test_emptied_row_within_round_off_is_feasible(self):
        p = make_problem([[1.0, 1.0], [1.0, 0.0]], [LE, LE], [5.0, 2.0 - 1e-10],
                         [1.0, 1.0], lower=[2.0, 0.0], upper=[2.0, 9.0])
        res = solve_lp(p)
        assert res.status == OPTIMAL and res.objective == 2.0

    def test_no_column_left(self):
        p = make_problem([[1.0, 1.0], [1.0, -1.0]], [LE, EQ], [5.0, 1.0], [1.0, 2.0],
                         lower=[2.0, 1.0], upper=[2.0, 1.0])
        pre = presolve(p)
        assert pre.reduced.num_cols == 0 and pre.reduced.num_rows == 0
        res = solve_lp(p)
        assert res.status == OPTIMAL and res.objective == 4.0
        assert res.x.tolist() == [2.0, 1.0] and res.duals.tolist() == [0.0, 0.0]
        assert res.reduced_costs.tolist() == [1.0, 2.0]
        assert verify_solution(p, res).ok()
        again = solve_lp(p, start=res.basis)
        assert again.warm_started and again.iterations <= 1

    def test_no_row_left(self):
        # x0 fixed empties the only row; x1 and x2 are in no row and go to
        # the bound their costs favour
        p = make_problem([[1.0, 0.0, 0.0]], [LE], [4.0], [1.0, -1.0, 2.0],
                         lower=[3.0, 0.0, -1.0], upper=[3.0, 5.0, 1.0])
        pre = presolve(p)
        assert pre.reduced.num_cols == 2 and pre.reduced.num_rows == 0
        res = solve_lp(p)
        assert res.status == OPTIMAL
        assert res.x.tolist() == [3.0, 5.0, -1.0] and res.objective == 3.0 - 5.0 - 2.0
        assert verify_solution(p, res).ok()
        unbounded = p.with_bounds({1: (p.lower[1], np.inf)})
        assert solve_lp(unbounded).status == UNBOUNDED


class TestRandomLps:
    @settings(max_examples=150, deadline=None)
    @given(problem=bounded_lps())
    def test_matches_highs_verifies_and_restarts(self, problem):
        # a fifth of bounded_lps' columns are fixed (width 0)
        res = solve_lp(problem)
        status, objective = highs(problem)
        assert res.status == (status if status in (OPTIMAL, INFEASIBLE) else UNBOUNDED)
        if res.status == OPTIMAL:
            assert abs(res.objective - objective) <= 1e-9 * max(1.0, abs(objective))
            assert verify_solution(problem, res).ok()
            again = solve_lp(problem, start=res.basis)
            assert again.warm_started and again.iterations <= 1
            assert again.objective == res.objective


def _mapping_pair():
    """A source LP and a target that adds column z and row rz and lists its
    columns and rows in another order; the shared block is the source's.

    source: min -2x - y  s.t.  ra: x + y <= 4,  rb: x <= 3
    target: min -3z - 2x - y  s.t.  rz: x + z <= 5,  ra,  rb,  z <= 1
    """
    source = make_problem([[1.0, 1.0], [1.0, 0.0]], [LE, LE], [4.0, 3.0], [-2.0, -1.0],
                          names=["x", "y"])
    source.row_names = ["ra", "rb"]
    target = make_problem([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 0.0]],
                          [LE, LE, LE], [5.0, 4.0, 3.0], [-3.0, -2.0, -1.0],
                          upper=[1.0, np.inf, np.inf], names=["z", "x", "y"])
    target.row_names = ["rz", "ra", "rb"]
    return source, target


class TestMapBasis:
    def test_shared_entries_keep_status_and_value(self):
        source, target = _mapping_pair()
        res = solve_lp(source)
        mapped = map_basis(res.basis, source, target)
        # target positions of x, y, ra's and rb's slacks
        where = [1, 2, 3 + 1, 3 + 2]
        assert mapped.vstat[where].tolist() == res.basis.vstat.tolist()
        assert mapped.x[where].tolist() == res.basis.x.tolist()
        assert sorted(mapped.basis.tolist()) == sorted(
            [where[j] for j in res.basis.basis.tolist()] + [3])

    def test_extra_column_is_nonbasic_at_its_lower_bound(self):
        source, target = _mapping_pair()
        mapped = map_basis(solve_lp(source).basis, source, target)
        assert 0 not in mapped.basis.tolist()
        assert mapped.vstat[0] == AT_LOWER and mapped.x[0] == 0.0

    def test_extra_row_has_its_slack_basic(self):
        source, target = _mapping_pair()
        res = solve_lp(source)
        assert res.x.tolist() == [3.0, 1.0]
        mapped = map_basis(res.basis, source, target)
        assert 3 in mapped.basis.tolist() and mapped.vstat[3] == BASIC
        assert mapped.x[3] == 5.0 - 3.0  # rz's slack at the mapped point

    def test_carries_the_target_fingerprint_and_starts_it_warm(self):
        source, target = _mapping_pair()
        mapped = map_basis(solve_lp(source).basis, source, target)
        assert mapped.fingerprint == target.fingerprint() != source.fingerprint()
        warm, cold = solve_lp(target, start=mapped), solve_lp(target)
        assert warm.warm_started and warm.status == OPTIMAL
        assert warm.objective == cold.objective
        assert warm.iterations <= cold.iterations

    def test_none_when_the_target_lacks_a_source_column(self):
        source, target = _mapping_pair()
        basis = solve_lp(source).basis
        no_y = replace(target, col_names=["z", "x", "w"])
        assert map_basis(basis, source, no_y) is None
        # nor does a source row the target lacks, unless it is free
        no_rb = replace(target, row_names=["rz", "ra", "rc"])
        assert map_basis(basis, source, no_rb) is None
        free_rb = replace(source, rhs=np.array([4.0, np.inf]))  # optimum x = 4, y = 0
        loose_rc = replace(no_rb, rhs=np.array([5.0, 4.0, 10.0]))
        mapped = map_basis(solve_lp(free_rb).basis, free_rb, loose_rc)
        assert mapped is not None and mapped.fingerprint == loose_rc.fingerprint()
        assert _is_start(loose_rc, mapped)
        # nor does a basis that does not fit its source map
        assert map_basis(basis, target, source) is None

    def test_reference_basis_starts_every_seed0_scenario(self):
        # every standard scenario only relaxes reference's bounds: its optimal
        # basis maps onto each min-cost problem, nonsingular and primal feasible
        system = build_miniature_system(seed=0)
        min_cost = ObjectiveMode.min_cost()

        def problem(scenario_id):
            return build_problem(apply_scenario(system, standard_scenario(scenario_id)),
                                 min_cost).problem

        source = problem("reference")
        root = solve_lp(source)
        iterations = 0
        for scenario_id in STANDARD_SCENARIO_IDS[1:]:
            target = problem(scenario_id)
            warm = solve_lp(target, start=map_basis(root.basis, source, target))
            cold = solve_lp(target)
            assert warm.warm_started and warm.status == OPTIMAL, scenario_id
            assert abs(warm.objective - cold.objective) <= 1e-9 * abs(cold.objective), scenario_id
            iterations += warm.iterations
        assert STANDARD_SCENARIO_IDS[0] == "reference" and len(STANDARD_SCENARIO_IDS) == 15
        assert iterations <= 1300  # 6,307 cold


def _freed(problem, names):
    """``problem`` with the rows named in ``names`` free: rhs ``+inf`` on a
    ``<=`` row, ``-inf`` on a ``>=`` row."""
    rhs = problem.rhs.copy()
    for i, name in enumerate(problem.row_names):
        if name in names:
            rhs[i] = np.inf if problem.senses[i] == LE else -np.inf
    return replace(problem, rhs=rhs)


def _bounds(problem):
    """The bounds of every column and then every row's slack, as the simplex
    sees them: ``A x + s = b`` with ``s >= 0`` on ``<=`` rows, ``s <= 0`` on
    ``>=`` rows and ``s = 0`` on ``==`` rows."""
    return (np.concatenate([problem.lower, np.where(problem.senses == GE, -np.inf, 0.0)]),
            np.concatenate([problem.upper, np.where(problem.senses == LE, np.inf, 0.0)]))


def _is_start(target, mapped, tol=1e-9):
    """Whether ``mapped`` is a nonsingular, primal-feasible basis of ``target``:
    its basic values are what its nonbasic values give, within every bound."""
    m, n = target.a.shape
    full = sp.hstack([target.a, sp.identity(m)], format="csc")
    b = full[:, mapped.basis].toarray()
    nonbasic = np.setdiff1d(np.arange(n + m), mapped.basis)
    if (len(mapped.basis) != m or np.linalg.matrix_rank(b) < m
            or (mapped.vstat[mapped.basis] != BASIC).any()
            or (mapped.vstat[nonbasic] == BASIC).any()):
        return False
    xb = np.linalg.solve(b, target.rhs - full[:, nonbasic] @ mapped.x[nonbasic])
    lower, upper = _bounds(target)
    scale = 1.0 + np.abs(mapped.x)
    return bool(np.all(np.abs(xb - mapped.x[mapped.basis]) <= tol * scale[mapped.basis])
                and np.all(mapped.x >= lower - tol * scale)
                and np.all(mapped.x <= upper + tol * scale))


def _capped_triple():
    """min -2x - y  s.t.  cap: x + y <= 4,  rx: x <= 3,  ry: y <= 3.

    The optimum x = 3, y = 1 binds cap and rx; ry's slack (2) is basic. Without
    cap the optimum is x = y = 3."""
    p = make_problem([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [LE, LE, LE], [4.0, 3.0, 3.0],
                     [-2.0, -1.0], names=["x", "y"])
    p.row_names = ["cap", "rx", "ry"]
    return p


class TestRowDrop:
    """``presolve`` drops free rows, and maps a start only where they do not bind."""

    def test_a_row_with_a_basic_slack_leaves_with_it(self):
        source = _capped_triple()
        res = solve_lp(source)
        assert res.basis.vstat[2 + 2] == BASIC  # ry's slack
        freed = _freed(source, {"ry"})
        pre = presolve(freed, res.basis)
        assert pre.reduced.row_names == ["cap", "rx"]
        mapped = pre.start
        assert sorted(mapped.basis.tolist()) == [0, 1]  # x and y, nothing else leaves
        assert mapped.x.tolist() == [3.0, 1.0, 0.0, 0.0]
        assert mapped.vstat.tolist() == res.basis.vstat[[0, 1, 2, 3]].tolist()
        assert _is_start(pre.reduced, mapped)
        warm = solve_lp(freed, start=res.basis)
        assert warm.warm_started and warm.iterations <= 1  # one pricing pass proves it optimal
        assert warm.objective == solve_lp(freed).objective == -7.0

    def test_a_start_in_which_a_freed_row_binds_is_refused(self):
        source = _capped_triple()
        res = solve_lp(source)
        assert res.basis.vstat[2] != BASIC  # cap binds: its slack is nonbasic
        freed = _freed(source, {"cap"})
        pre = presolve(freed, res.basis)
        assert pre.reduced.row_names == ["rx", "ry"] and pre.start is None
        assert map_basis(res.basis, freed, freed) is None
        warm, cold = solve_lp(freed, start=res.basis), solve_lp(freed)
        assert not warm.warm_started and warm.status == OPTIMAL
        assert warm.objective == cold.objective == -9.0 and warm.x.tolist() == [3.0, 3.0]

    def test_a_singular_start_is_refused(self):
        source = _capped_triple()
        freed = _freed(source, {"ry"})
        # x, cap's slack and rx's slack: x is the sum of the two, so B is singular
        vstat = np.array([BASIC, AT_LOWER, BASIC, BASIC, AT_LOWER], dtype=np.int8)
        singular = replace(solve_lp(source).basis, basis=np.array([0, 2, 3]), vstat=vstat,
                           x=np.zeros(5))
        assert presolve(freed, singular).start is None
        res = solve_lp(freed, start=singular)
        assert not res.warm_started and res.status == OPTIMAL and res.objective == -7.0

    @settings(max_examples=100, deadline=None)
    @given(problem=bounded_lps(), data=st.data())
    def test_random_lps_refuse_a_start_whose_freed_row_binds(self, problem, data):
        res = solve_lp(problem)
        assume(res.status == OPTIMAL)
        n = problem.num_cols
        rows = [(name, res.basis.vstat[n + i] != BASIC)
                for i, (name, sense) in enumerate(zip(problem.row_names, problem.senses))
                if sense != EQ]
        binding = [name for name, binds in rows if binds]
        assume(binding)
        drop = {data.draw(st.sampled_from(binding))}
        drop |= set(data.draw(st.lists(st.sampled_from([name for name, _ in rows]),
                                       unique=True)))
        freed = _freed(problem, drop)
        assert presolve(freed, res.basis).start is None
        warm, cold = solve_lp(freed, start=res.basis), solve_lp(freed)
        assert not warm.warm_started
        assert warm.status == cold.status
        if cold.status == OPTIMAL:
            assert warm.objective.hex() == cold.objective.hex()
            assert warm.x.tobytes() == cold.x.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(problem=bounded_lps(), data=st.data())
    def test_presolve_only_restricts_the_bases_it_maps(self, problem, data):
        # free rows whose slack is basic and fix columns at their value: the
        # mapped start is the given one less the dropped columns and rows
        res = solve_lp(problem)
        assume(res.status == OPTIMAL)
        start, n = res.basis, problem.num_cols
        loose = [name for i, (name, sense) in enumerate(zip(problem.row_names, problem.senses))
                 if sense != EQ and start.vstat[n + i] == BASIC]
        drop = set(data.draw(st.lists(st.sampled_from(loose), unique=True))) if loose else set()
        fixed = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        target = _freed(problem, drop).with_bounds({j: (start.x[j], start.x[j]) for j in fixed})
        pre = presolve(target, start)
        assume(pre.reduced is not None)
        keep = np.concatenate([pre.cols, pre.rows])
        mapped = pre.start
        assert mapped is not None and mapped.fingerprint == pre.reduced.fingerprint()
        assert mapped.vstat.tobytes() == start.vstat[keep].tobytes()
        assert mapped.x.tobytes() == start.x[keep].tobytes()
        index = np.cumsum(keep) - 1
        assert mapped.basis.tolist() == index[start.basis[keep[start.basis]]].tolist()
        # what leaves the basis is the slacks of the dropped rows, nothing else
        assert set(start.basis[~keep[start.basis]].tolist()) == set(
            (n + np.flatnonzero(~pre.rows)).tolist())
        assert solve_lp(target, start=start).warm_started


@pytest.fixture(scope="module")
def matrix_outcomes():
    """What ``matrix fixtures/miniature --scenarios all`` solves on its one
    runner: reference min-cost cold as the root, then per scenario min-cost
    from the root's basis and min-emissions from the min-cost one."""
    system = parse_system_files(Path(__file__).parent.parent / "fixtures" / "miniature")
    runner = ScenarioRunner(system)
    runner.run(standard_scenario("reference"), ObjectiveMode.min_cost())
    outcomes = []
    for scenario_id in STANDARD_SCENARIO_IDS:
        for mode in (ObjectiveMode.min_cost(), ObjectiveMode.min_emissions()):
            outcomes.append(runner.run(standard_scenario(scenario_id), mode))
    return outcomes


class TestScenarios:
    def test_postsolved_duals_verify_and_objectives_match_highs(self, matrix_outcomes):
        for outcome in matrix_outcomes:
            problem = outcome.built.problem
            report = verify_solution(problem, outcome.result)
            assert report.ok(), (outcome.scenario_id, outcome.mode.label(), report)
            status, objective = highs(problem)
            assert status == OPTIMAL
            assert abs(outcome.objective - objective) <= 1e-9 * max(1.0, abs(objective))

    def test_no_cost_size_or_hydrogen_figure_is_negative(self, matrix_outcomes):
        # t-2 min-cost reported costs.networks -1.09e-11 and h-all min-cost
        # hydrogen.reconverted -1.36e-12 while round-off stayed in basic values
        for outcome in matrix_outcomes:
            figures = {**vars(outcome.costs), **outcome.size_values(),
                       **outcome.metrics["hydrogen"]}
            figures.update((row["entity"], row["added"]) for row in outcome.new_capacities)
            negative = {name: value for name, value in figures.items() if value < 0.0}
            assert not negative, (outcome.scenario_id, outcome.mode.label(), negative)
