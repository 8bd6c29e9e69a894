"""Scenario gates, dominance orderings, sweeps and metrics."""

import json

import numpy as np
import pytest

import carrieropt.scenarios as scenarios
from carrieropt.builder import BuiltProblem, build_problem
from carrieropt.cli import outcome_to_json
from carrieropt.costing import (
    EMISSION_CAP_LABEL,
    ObjectiveMode,
    cost_breakdown,
    cost_table,
    total_emissions,
)
from carrieropt.lp import INFEASIBLE, OPTIMAL, map_basis, solve_milp, verify_solution
from carrieropt.lp.presolve import presolve
from carrieropt.scenarios import (
    InfeasibleCapError,
    ScenarioRunner,
    abatement_sweep,
    apply_scenario,
    standard_scenario,
    STANDARD_SCENARIO_IDS,
)
from carrieropt.system import (
    Carrier,
    assemble_variable_index,
    build_miniature_system,
    validate_system,
)

from .test_highs_oracle import REL_TOL, highs
from .test_milp import highs_milp_reference

TOL = 1e-6


@pytest.fixture(scope="module")
def mini():
    return build_miniature_system(seed=0)


@pytest.fixture(scope="module")
def runner(mini):
    return ScenarioRunner(mini)


class RunnerWork:
    """What runners build, derive and solve while installed on ``patch``.

    ``builds`` holds the mode of every ``build_problem`` call; ``derived``
    the mode of every :meth:`BuiltProblem.for_mode` call made outside a
    build (the problems a runner derives from its cached build); ``solved``
    the mode of every derived problem passed to ``solve_milp``, in order.
    """

    def __init__(self, patch):
        self.builds, self.derived, self.solved = [], [], []
        # id of a derived problem -> (that problem, kept so the id stays unique; its mode)
        self._problems = {}
        self._building = False
        build, solve = scenarios.build_problem, scenarios.solve_milp
        for_mode = BuiltProblem.for_mode

        def recording_build(system, mode):
            self.builds.append(mode)
            self._building = True
            try:
                return build(system, mode)
            finally:
                self._building = False

        def recording_for_mode(built, mode):
            out = for_mode(built, mode)
            if not self._building:
                self.derived.append(mode)
                self._problems[id(out.problem)] = (out.problem, mode)
            return out

        def recording_solve(problem, *args, **kwargs):
            if id(problem) in self._problems:
                self.solved.append(self._problems[id(problem)][1])
            return solve(problem, *args, **kwargs)

        patch.setattr(scenarios, "build_problem", recording_build)
        patch.setattr(BuiltProblem, "for_mode", recording_for_mode)
        patch.setattr(scenarios, "solve_milp", recording_solve)


def record_starts(patch):
    """The ``start`` of every ``solve_milp`` call a runner makes while ``patch`` is active."""
    starts, solve = [], scenarios.solve_milp

    def recording_solve(problem, start=None):
        starts.append(start)
        return solve(problem, start=start)

    patch.setattr(scenarios, "solve_milp", recording_solve)
    return starts


def same_basis(a, b):
    """Whether two bases, neither None, hold equal statuses and values."""
    return a is not None and b is not None and all(
        np.array_equal(getattr(a, field), getattr(b, field)) for field in ("basis", "vstat", "x"))


def capped(problem) -> bool:
    """Whether ``problem``'s emission-cap row holds a finite cap, not ``+inf``."""
    return bool(np.isfinite(problem.rhs[problem.row_names.index(EMISSION_CAP_LABEL)]))


def kinds(modes):
    return [mode.kind for mode in modes]


def expandable_ids(system):
    return ({t.id for t in system.technologies if t.expandable}
            | {b.id for b in system.branches if b.expandable})


class TestGates:
    def test_reference_gates_everything(self, mini):
        gated = apply_scenario(mini, standard_scenario("reference"))
        assert expandable_ids(gated) == set()
        index = assemble_variable_index(gated)
        assert index.size_columns() == {}

    def test_t1_blocks_offshore_corridors(self, mini):
        gated = apply_scenario(mini, standard_scenario("t-1"))
        assert expandable_ids(gated) == {"ac1", "ac2"}

    def test_t2_keeps_only_offshore(self, mini):
        gated = apply_scenario(mini, standard_scenario("t-2"))
        assert expandable_ids(gated) == {"dc1", "dc2"}

    def test_t3_blocks_cross_border(self, mini):
        gated = apply_scenario(mini, standard_scenario("t-3"))
        # ac2 and dc1 cross the border; dc2 is the domestic park-to-shore cable
        assert expandable_ids(gated) == {"ac1", "dc2"}

    def test_s2_offshore_cap_applied(self, mini):
        gated = apply_scenario(mini, standard_scenario("s-2"))
        assert expandable_ids(gated) == {"batt2"}
        assert gated.technology("batt2").max_size == 140_000.0

    def test_s_all_hpe_rewrites_rates(self, mini):
        gated = apply_scenario(mini, standard_scenario("s-all-hpe"))
        batt = gated.technology("batt1")
        assert batt.performance.max_charge_rate == 1.0
        assert batt.performance.max_discharge_rate == 1.0

    def test_h_gates(self, mini):
        assert expandable_ids(apply_scenario(mini, standard_scenario("h-all"))) == {
            "cav1", "elz1", "elz2", "fc1", "pp1", "pp2"}
        assert expandable_ids(apply_scenario(mini, standard_scenario("h-1"))) == {
            "cav1", "elz1", "fc1", "pp1", "pp2"}
        assert expandable_ids(apply_scenario(mini, standard_scenario("h-2"))) == {
            "cav1", "elz2", "fc1", "pp1", "pp2"}
        assert expandable_ids(apply_scenario(mini, standard_scenario("h-3"))) == {
            "elz1", "elz2", "fc1", "pp1", "pp2"}
        assert expandable_ids(apply_scenario(mini, standard_scenario("h-4"))) == {
            "cav1", "elz1", "fc1"}

    def test_admix_follows_electrolysis_availability(self, mini):
        no_h2 = apply_scenario(mini, standard_scenario("t-all"))
        gas = no_h2.technology("gas1")
        assert Carrier.HYDROGEN not in gas.performance.input_carriers
        with_h2 = apply_scenario(mini, standard_scenario("h-all"))
        gas = with_h2.technology("gas1")
        assert gas.performance.admix_limits[Carrier.HYDROGEN] == 0.05

    def test_vres_gate_2040(self, mini):
        gated_2030 = apply_scenario(mini, standard_scenario("reference"))
        gated_2040 = apply_scenario(mini, standard_scenario("reference", year=2040))
        assert not gated_2030.technology("wind1").expandable
        assert gated_2040.technology("wind1").expandable

    def test_gated_systems_stay_valid(self, mini):
        for sid in STANDARD_SCENARIO_IDS:
            gated = apply_scenario(mini, standard_scenario(sid))
            assert validate_system(gated) == [], sid

    def test_monotone_variable_sets(self, mini):
        base = set(assemble_variable_index(
            apply_scenario(mini, standard_scenario("synergies"))).names())
        for sid in STANDARD_SCENARIO_IDS:
            names = set(assemble_variable_index(
                apply_scenario(mini, standard_scenario(sid))).names())
            assert names <= base, sid


class TestScenarioRuns:
    def test_reference_is_pure_dispatch(self, runner):
        outcome = runner.run(standard_scenario("reference"), ObjectiveMode.min_cost())
        assert outcome.new_capacities == []
        assert outcome.costs.technologies + outcome.costs.networks > 0 or True
        # no size variables at all, so investment terms cannot exist
        assert outcome.built.index.size_columns() == {}

    def test_cost_dominance_chain(self, runner):
        cost = {sid: runner.run(standard_scenario(sid), ObjectiveMode.min_cost()).objective
                for sid in ("reference", "t-1", "t-2", "t-3", "t-all", "synergies")}
        assert cost["synergies"] <= cost["t-all"] + TOL
        for tid in ("t-1", "t-2", "t-3"):
            assert cost["t-all"] <= cost[tid] + TOL
            assert cost[tid] <= cost["reference"] + TOL

    def test_emission_dominance_chain(self, runner):
        em = {sid: runner.run(standard_scenario(sid),
                              ObjectiveMode.min_emissions()).objective
              for sid in ("reference", "s-1", "s-2", "s-all", "synergies")}
        assert em["synergies"] <= em["s-all"] + TOL
        assert em["s-all"] <= em["s-1"] + TOL
        assert em["s-all"] <= em["s-2"] + TOL
        assert em["s-1"] <= em["reference"] + TOL
        assert em["s-2"] <= em["reference"] + TOL

    def test_synergies_beats_every_single_measure(self, runner):
        syn = runner.run(standard_scenario("synergies"), ObjectiveMode.min_cost())
        singles = [runner.run(standard_scenario(sid), ObjectiveMode.min_cost()).objective
                   for sid in ("t-all", "s-all", "h-all")]
        assert syn.objective <= min(singles) + TOL

    def test_gate_soundness_zero_expansion(self, runner):
        for sid in ("t-1", "t-2", "t-3", "s-1", "s-2", "h-1", "h-2", "h-3", "h-4"):
            outcome = runner.run(standard_scenario(sid), ObjectiveMode.min_cost())
            gated = apply_scenario(runner.system, standard_scenario(sid))
            allowed = expandable_ids(gated)
            for rowdict in outcome.new_capacities:
                assert rowdict["entity"] in allowed, (sid, rowdict)

    def test_cap_mode_matches_min_cost_at_own_emissions(self, runner):
        base = runner.run(standard_scenario("s-all"), ObjectiveMode.min_cost())
        capped = runner.run(standard_scenario("s-all"),
                            ObjectiveMode.min_cost_with_cap(base.emissions.total))
        assert capped.objective <= base.objective + TOL * max(1.0, abs(base.objective))
        assert capped.emissions.total <= base.emissions.total + 1e-6

    def test_cost_closure(self, runner):
        for sid in ("reference", "t-all", "synergies"):
            outcome = runner.run(standard_scenario(sid), ObjectiveMode.min_cost())
            rel = abs(outcome.costs.total - outcome.objective) \
                / max(1.0, abs(outcome.objective))
            assert rel <= 1e-6, sid

    def test_emission_totals_match_cap_row(self, runner):
        base = runner.run(standard_scenario("s-all"), ObjectiveMode.min_cost())
        cap = base.emissions.total * 0.99
        capped = runner.run(standard_scenario("s-all"),
                            ObjectiveMode.min_cost_with_cap(cap))
        built, res = capped.built, capped.result
        activity = float(built.table.emissions @ res.x)
        assert abs(activity - capped.emissions.total) <= 1e-9 * max(1.0, activity)
        assert activity <= cap + 1e-6

    def test_infeasible_cap_reports_minimum(self, runner):
        floor = runner.run(standard_scenario("reference"),
                           ObjectiveMode.min_emissions()).objective
        with pytest.raises(InfeasibleCapError) as err:
            runner.run(standard_scenario("reference"),
                       ObjectiveMode.min_cost_with_cap(floor * 0.5))
        assert err.value.minimum_achievable == pytest.approx(floor, rel=1e-6)

    def test_caching_returns_same_object(self, runner):
        a = runner.run(standard_scenario("t-all"), ObjectiveMode.min_cost())
        b = runner.run(standard_scenario("t-all"), ObjectiveMode.min_cost())
        assert a is b


class TestWarmStart:
    @pytest.mark.parametrize("dc_blocks_mw", [None, 10.0])
    def test_warm_from_prior_sizes_matches_cold(self, dc_blocks_mw):
        system = build_miniature_system(0, 24, dc_blocks_mw)
        runner = ScenarioRunner(system)
        base = runner.run(standard_scenario("t-all"), ObjectiveMode.min_cost())
        cold = runner.run(standard_scenario("synergies"), ObjectiveMode.min_cost())
        warm = runner.run(standard_scenario("synergies"), ObjectiveMode.min_cost(),
                          warm_from=base.size_values())
        assert warm.built.problem.integer.any() == (dc_blocks_mw is not None)
        assert warm.solver["warm_start"] is True
        assert "warm_start" not in cold.solver
        assert warm.objective == pytest.approx(cold.objective, rel=1e-6)

    @pytest.mark.parametrize("dc_blocks_mw", [None, 10.0])
    def test_solver_counts_every_stage(self, dc_blocks_mw, monkeypatch):
        runner = ScenarioRunner(build_miniature_system(0, 24, dc_blocks_mw))
        prior = runner.run(standard_scenario("t-all"), ObjectiveMode.min_cost())
        stages, solve = [], scenarios.warm_start_solve

        def recording(*args):
            stages.extend(solve(*args))
            return stages

        monkeypatch.setattr(scenarios, "warm_start_solve", recording)
        warm = runner.run(standard_scenario("synergies"), ObjectiveMode.min_cost(),
                          warm_from=prior.size_values())
        assert len(stages) == 3
        # at seed 0 without blocks: 543 + 91 + 40 iterations
        assert warm.solver["iterations"] == sum(s.iterations for s in stages)
        assert warm.solver["iterations"] > stages[-1].iterations
        assert warm.solver["nodes"] == sum(s.nodes for s in stages)


class TestWarmRuns:
    """``ScenarioRunner.run(..., warm_from=)`` beside the runner's cold runs."""

    def test_warm_run_leaves_cache_and_basis_chain(self, mini):
        runner = ScenarioRunner(mini)
        synergies = standard_scenario("synergies")
        base = runner.run(standard_scenario("t-all"), ObjectiveMode.min_cost())
        cap = ObjectiveMode.min_cost_with_cap(base.emissions.total)
        cold = runner.run(synergies, cap)
        for mode in (ObjectiveMode.min_cost(), cap):
            warm = runner.run(synergies, mode, warm_from=base.size_values())
            assert warm.solver["warm_start"] is True
        assert warm is not cold
        assert warm.objective == pytest.approx(cold.objective, rel=1e-6)
        assert runner.run(synergies, cap) is cold
        with pytest.MonkeyPatch.context() as patch:
            starts = record_starts(patch)
            tighter = runner.run(synergies,
                                 ObjectiveMode.min_cost_with_cap(0.99 * base.emissions.total))
            uncapped = runner.run(synergies, ObjectiveMode.min_cost())
        # the next cap starts from the cold one, and the uncapped run from that
        # cap, as is: the warm runs added nothing to the chain
        assert len(starts) == 2
        assert starts[0] is cold.result.basis
        assert starts[1] is tighter.result.basis
        assert uncapped.solver["warm_start"] is True

    def _unreachable(self, runner):
        """A warm reference run under a 10 t cap, from t-all sizes."""
        prior = runner.run(standard_scenario("t-all"), ObjectiveMode.min_cost())
        with pytest.raises(InfeasibleCapError) as err:
            runner.run(standard_scenario("reference"), ObjectiveMode.min_cost_with_cap(10.0),
                       warm_from=prior.size_values())
        return err.value

    def test_unreachable_cap_reports_the_runners_floor(self, mini):
        runner = ScenarioRunner(mini)
        err = self._unreachable(runner)
        floor = runner.run(standard_scenario("reference"), ObjectiveMode.min_emissions())
        assert err.cap == 10.0
        assert err.minimum_achievable == floor.objective

    def test_floor_built_once_per_runner(self, mini):
        runner = ScenarioRunner(mini)
        reference = standard_scenario("reference")
        with pytest.MonkeyPatch.context() as patch:
            work = RunnerWork(patch)
            self._unreachable(runner)
            self._unreachable(runner)
            with pytest.raises(InfeasibleCapError):
                runner.run(reference, ObjectiveMode.min_cost_with_cap(10.0))
            runner.run(reference, ObjectiveMode.min_emissions())
        # one build per scenario: t-all (the warm start's prior) and reference
        assert len(work.builds) == 2
        assert kinds(work.derived).count("min_emissions") == 1
        assert kinds(work.solved).count("min_emissions") == 1

    def test_only_caps_within_round_off_of_the_cached_floor_are_solved(self, mini):
        runner = ScenarioRunner(mini)
        reference = standard_scenario("reference")
        with pytest.MonkeyPatch.context() as patch:
            work = RunnerWork(patch)
            floor = runner.run(reference, ObjectiveMode.min_emissions()).objective
            near = floor * (1.0 - 5e-10)
            for cap in (floor * (1.0 - 2e-9), near):
                try:
                    runner.run(reference, ObjectiveMode.min_cost_with_cap(cap))
                except InfeasibleCapError as err:
                    assert err.minimum_achievable == floor
        assert len(work.builds) == 1
        modes = [ObjectiveMode.min_emissions(), ObjectiveMode.min_cost_with_cap(near)]
        assert work.derived == work.solved == modes


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


@pytest.fixture(scope="module")
def mode_orders(mini):
    """Per standard scenario, two runners: one runs min-cost then
    min-emissions, the other min-emissions then min-cost. Each runner's first
    run is cold, so it is the cold reference for the other's second run."""
    out = {}
    for sid in STANDARD_SCENARIO_IDS:
        scenario = standard_scenario(sid)
        forward, reverse = ScenarioRunner(mini), ScenarioRunner(mini)
        out[sid] = {
            "forward": [forward.run(scenario, ObjectiveMode.min_cost()),
                        forward.run(scenario, ObjectiveMode.min_emissions())],
            "reverse": [reverse.run(scenario, ObjectiveMode.min_emissions()),
                        reverse.run(scenario, ObjectiveMode.min_cost())],
        }
    return out


class TestBasisChains:
    """One basis chain per scenario: every run starts from its scenario's
    latest cached outcome, mapped by name when only one of them has the cap row."""

    def test_min_emissions_after_min_cost_starts_warm(self, mode_orders):
        warm_total = cold_total = 0
        for sid, runs in mode_orders.items():
            cold_cost, warm = runs["forward"]
            cold, _ = runs["reverse"]
            assert "warm_start" not in cold_cost.solver, sid
            assert "warm_start" not in cold.solver, sid
            assert warm.solver["warm_start"] is True, sid
            assert _rel(warm.objective, cold.objective) <= 1e-9, sid
            warm_total += warm.solver["iterations"]
            cold_total += cold.solver["iterations"]
        assert warm_total < cold_total

    def test_min_cost_after_min_emissions_starts_warm(self, mode_orders):
        for sid, runs in mode_orders.items():
            cold, _ = runs["forward"]
            _, warm = runs["reverse"]
            assert warm.solver["warm_start"] is True, sid
            assert _rel(warm.objective, cold.objective) <= 1e-9, sid
            assert _rel(warm.costs.total, cold.costs.total) <= 1e-9, sid

    def test_milp_objectives_do_not_depend_on_the_order(self):
        system = build_miniature_system(0, 24, dc_blocks_mw=10.0)
        t_all = standard_scenario("t-all")
        modes = (ObjectiveMode.min_cost(), ObjectiveMode.min_emissions())
        orders = []
        for order in (modes, modes[::-1]):
            runner = ScenarioRunner(system)
            orders.append({mode.kind: runner.run(t_all, mode) for mode in order})
        for kind, first in orders[0].items():
            second = orders[1][kind]
            problem = first.built.problem
            assert problem.integer.any()
            ref = highs_milp_reference(problem)
            assert ref.status == 0, kind
            assert _rel(first.objective, ref.fun) <= 1e-9, kind
            assert _rel(second.objective, ref.fun) <= 1e-9, kind
        assert orders[0]["min_emissions"].solver["warm_start"] is True
        assert orders[1]["min_cost"].solver["warm_start"] is True

    def test_a_floor_after_min_cost_starts_warm(self, mini):
        reference = standard_scenario("reference")
        runner = ScenarioRunner(mini)
        runner.run(reference, ObjectiveMode.min_cost())
        with pytest.raises(InfeasibleCapError) as err:
            runner.run(reference, ObjectiveMode.min_cost_with_cap(10.0))
        floor = runner.run(reference, ObjectiveMode.min_emissions())
        cold = ScenarioRunner(mini).run(reference, ObjectiveMode.min_emissions())
        assert floor.solver["warm_start"] is True
        assert "warm_start" not in cold.solver
        assert err.value.minimum_achievable == floor.objective
        assert _rel(floor.objective, cold.objective) <= 1e-9

    def test_capped_and_uncapped_runs_share_one_chain(self, mini):
        synergies = standard_scenario("synergies")
        runner = ScenarioRunner(mini)
        cold = ScenarioRunner(mini).run(synergies, ObjectiveMode.min_cost())
        cold_floor = ScenarioRunner(mini).run(synergies, ObjectiveMode.min_emissions())
        assert 34_000.0 < cold.emissions.total < 38_000.0  # only the 38,000 t cap is loose
        with pytest.MonkeyPatch.context() as patch:
            starts = record_starts(patch)
            first_cap = runner.run(synergies, ObjectiveMode.min_cost_with_cap(34_000.0))
            second_cap = runner.run(synergies, ObjectiveMode.min_cost_with_cap(30_000.0))
            uncapped = runner.run(synergies, ObjectiveMode.min_cost())
            loose_cap = runner.run(synergies, ObjectiveMode.min_cost_with_cap(38_000.0))
            third_cap = runner.run(synergies, ObjectiveMode.min_cost_with_cap(26_000.0))
            floor = runner.run(synergies, ObjectiveMode.min_emissions())
        assert len(starts) == 6
        # the first run has no basis of its own scenario and no root: cold
        assert starts[0] is None and "warm_start" not in first_cap.solver
        # every other run starts from the latest basis as is, capped or not
        for start, before, run in ((starts[1], first_cap, second_cap),
                                   (starts[2], second_cap, uncapped),
                                   (starts[3], uncapped, loose_cap),
                                   (starts[4], loose_cap, third_cap),
                                   (starts[5], third_cap, floor)):
            assert start is before.result.basis
            assert run.solver["warm_start"] is True
        # the floor's presolve drops third_cap's binding cap row, whose slack
        # is nonbasic, with one basic, and keeps the start
        cap_slack = third_cap.built.problem.num_cols + third_cap.built.problem.row_names.index(
            EMISSION_CAP_LABEL)
        assert cap_slack not in third_cap.result.basis.basis.tolist()
        assert presolve(floor.built.problem, starts[5]).start is not None
        assert _rel(uncapped.objective, cold.objective) <= 1e-9
        assert _rel(uncapped.costs.total, cold.costs.total) <= 1e-9
        assert _rel(loose_cap.objective, cold.objective) <= 1e-9
        assert _rel(floor.objective, cold_floor.objective) <= 1e-9
        assert floor.solver["iterations"] < cold_floor.solver["iterations"]

    def test_an_infinite_cap_frees_the_cap_row_and_joins_the_chain(self, mini):
        t_all = standard_scenario("t-all")
        runner = ScenarioRunner(mini)
        cost = runner.run(t_all, ObjectiveMode.min_cost())
        unbounded = runner.run(t_all, ObjectiveMode.min_cost_with_cap(float("inf")))
        problem = unbounded.built.problem
        assert not capped(problem) and problem.free_rows()[-1]
        assert np.array_equal(problem.rhs, cost.built.problem.rhs)
        assert unbounded.solver["warm_start"] is True
        assert unbounded.solver["iterations"] <= 1  # one pricing pass proves min-cost's optimum
        assert unbounded.objective == cost.objective


SWEEP_FRACTIONS = tuple(round(0.1 * i, 1) for i in range(1, 10))


@pytest.fixture(scope="module")
def warm_sweep():
    """synergies at seed 0 under caps 0.1..0.9 of reference emissions, solved
    in order by one runner, beside the same caps solved cold.

    Records every ``solve_milp`` result of the runner (whether its problem has
    the cap row), the start of each, and what it builds, derives and solves as
    a :class:`RunnerWork`.
    """
    system = build_miniature_system(0, step_count=24)
    synergies = standard_scenario("synergies")
    e_ref = ScenarioRunner(system).run(standard_scenario("reference"),
                                       ObjectiveMode.min_cost()).emissions.total
    modes = {f: ObjectiveMode.min_cost_with_cap((1.0 - f) * e_ref) for f in SWEEP_FRACTIONS}
    solves, starts = [], []

    def recording_solve(problem, start=None):
        res = solve_milp(problem, start=start)
        solves.append((capped(problem), res))
        starts.append(start)
        return res

    runner = ScenarioRunner(system)
    warm = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "solve_milp", recording_solve)
        work = RunnerWork(patch)
        for f, mode in modes.items():
            try:
                warm[f] = runner.run(synergies, mode)
            except InfeasibleCapError as err:
                warm[f] = err
    gated = apply_scenario(system, synergies)
    cold = {}
    for f, mode in modes.items():
        problem = build_problem(gated, mode).problem
        cold[f] = (problem, solve_milp(problem))
    floor = ScenarioRunner(system).run(synergies, ObjectiveMode.min_emissions())
    return dict(warm=warm, cold=cold, floor=floor, solves=solves, starts=starts, work=work,
                runner=runner)


class TestWarmSweep:
    def test_statuses_and_floor_match_cold_solves(self, warm_sweep):
        for f in SWEEP_FRACTIONS:
            outcome = warm_sweep["warm"][f]
            _, cold = warm_sweep["cold"][f]
            if isinstance(outcome, InfeasibleCapError):
                assert cold.status == INFEASIBLE, f
                assert outcome.minimum_achievable == warm_sweep["floor"].objective, f
            else:
                assert cold.status == outcome.status == OPTIMAL, f
        statuses = [warm_sweep["cold"][f][1].status for f in SWEEP_FRACTIONS]
        assert OPTIMAL in statuses and INFEASIBLE in statuses

    def test_objectives_match_highs(self, warm_sweep):
        for f in SWEEP_FRACTIONS:
            outcome = warm_sweep["warm"][f]
            if isinstance(outcome, InfeasibleCapError):
                continue
            status, objective = highs(warm_sweep["cold"][f][0])
            assert status == OPTIMAL, f
            assert abs(outcome.objective - objective) <= REL_TOL * max(1.0, abs(objective)), f

    def test_caps_after_the_first_start_warm(self, warm_sweep):
        caps = [res for is_cap, res in warm_sweep["solves"] if is_cap]
        # 0.8 is the first unreachable cap; 0.9 is decided from the floor cached then
        assert len(caps) == len(SWEEP_FRACTIONS) - 1
        assert not caps[0].warm_started
        assert all(res.warm_started for res in caps[1:])
        first, *rest = (warm_sweep["warm"][f] for f in SWEEP_FRACTIONS)
        assert "warm_start" not in first.solver
        assert all(o.solver["warm_start"] is True for o in rest
                   if not isinstance(o, InfeasibleCapError))

    def test_infeasible_caps_name_the_cap_first(self, warm_sweep):
        infeasible = [res for is_cap, res in warm_sweep["solves"]
                      if is_cap and res.status == INFEASIBLE]
        assert infeasible
        for res in infeasible:
            assert res.infeasible_rows[0] == EMISSION_CAP_LABEL

    @pytest.mark.parametrize("seed", range(8))
    def test_infeasible_caps_name_the_cap_first_on_every_seed(self, seed):
        # rows whose rhs is 0 add nothing to the contradiction the Farkas ray
        # proves and come after the cap, however heavily the ray weighs them
        system = build_miniature_system(seed, step_count=24)
        infeasible = []

        def recording_solve(problem, *args, **kwargs):
            res = solve_milp(problem, *args, **kwargs)
            if capped(problem) and res.status == INFEASIBLE:
                infeasible.append(res.infeasible_rows[0])
            return res

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenarios, "solve_milp", recording_solve)
            abatement_sweep(system, standard_scenario("synergies"), SWEEP_FRACTIONS)
        assert infeasible
        assert set(infeasible) == {EMISSION_CAP_LABEL}

    def test_warm_chain_halves_the_iterations(self, warm_sweep):
        warm = sum(res.iterations for is_cap, res in warm_sweep["solves"] if is_cap)
        cold = sum(res.iterations for _, res in warm_sweep["cold"].values())
        assert warm < cold / 2

    def test_floor_built_and_solved_once(self, warm_sweep):
        work = warm_sweep["work"]
        assert len(work.builds) == 1  # synergies, once for every cap and the floor
        assert kinds(work.derived).count("min_emissions") == 1
        assert kinds(work.solved).count("min_emissions") == 1
        assert sum(1 for is_cap, _ in warm_sweep["solves"] if not is_cap) == 1

    def test_caps_below_the_cached_floor_are_not_solved(self, warm_sweep):
        # the derived problems are the caps solved in order, then the floor after
        # the first unreachable cap; every cap after that lies below the floor
        floor = warm_sweep["floor"].objective
        first = next(f for f in SWEEP_FRACTIONS
                     if isinstance(warm_sweep["warm"][f], InfeasibleCapError))
        later = [f for f in SWEEP_FRACTIONS if f > first]
        assert later
        for f in later:
            err = warm_sweep["warm"][f]
            assert isinstance(err, InfeasibleCapError)
            assert err.cap < floor * (1.0 - 1e-9)
            assert err.minimum_achievable == floor
        work = warm_sweep["work"]
        assert kinds(work.derived) == (["min_cost_with_cap"] * SWEEP_FRACTIONS.index(first)
                                       + ["min_cost_with_cap", "min_emissions"])
        assert work.solved == work.derived

    def test_floor_starts_from_the_last_feasible_cap(self, warm_sweep):
        # the floor reoptimizes from the last feasible cap's basis, whose
        # binding cap row presolve drops with one basic, not from a fresh
        # runner's start
        (i,) = [k for k, (is_cap, _) in enumerate(warm_sweep["solves"]) if not is_cap]
        floor_result = warm_sweep["solves"][i][1]
        last = [warm_sweep["warm"][f] for f in SWEEP_FRACTIONS
                if not isinstance(warm_sweep["warm"][f], InfeasibleCapError)][-1]
        floor = warm_sweep["runner"].run(standard_scenario("synergies"),
                                         ObjectiveMode.min_emissions())
        assert floor.result is floor_result
        problem = last.built.problem
        cap_slack = problem.num_cols + problem.row_names.index(EMISSION_CAP_LABEL)
        assert cap_slack not in last.result.basis.basis.tolist()  # the last cap binds
        assert warm_sweep["starts"][i] is last.result.basis
        assert presolve(floor.built.problem, last.result.basis).start is not None
        assert floor_result.warm_started and floor.solver["warm_start"] is True
        cold = warm_sweep["floor"]
        assert "warm_start" not in cold.solver
        assert _rel(floor.objective, cold.objective) <= 1e-9
        # at seed 0: 13 iterations against 842 cold
        assert floor.solver["iterations"] < cold.solver["iterations"] / 10

    @pytest.mark.parametrize("seed", range(3))
    def test_the_sweeps_floor_is_the_cold_floor_in_fewer_iterations(self, seed):
        system = build_miniature_system(seed, step_count=24)
        synergies = standard_scenario("synergies")
        runner = ScenarioRunner(system)
        rows = abatement_sweep(system, synergies, SWEEP_FRACTIONS, runner=runner)
        floor = runner.run(synergies, ObjectiveMode.min_emissions())  # cached by the sweep
        cold = ScenarioRunner(system).run(synergies, ObjectiveMode.min_emissions())
        assert any(not row["feasible"] for row in rows)
        assert floor.solver["warm_start"] is True and "warm_start" not in cold.solver
        assert _rel(floor.objective, cold.objective) <= 1e-9
        assert floor.solver["iterations"] < cold.solver["iterations"]
        for row in rows:
            if not row["feasible"]:
                assert row["minimum_achievable"] == floor.objective


class TestRoot:
    """A run with an empty chain starts from the runner's root: its first
    cached reference min-cost basis, mapped onto the run's problem."""

    def test_sweep_starts_its_first_cap_from_reference(self, warm_sweep):
        system = build_miniature_system(0, step_count=24)
        solves = []

        def recording_solve(problem, start=None):
            res = solve_milp(problem, start=start)
            solves.append((problem, start, res))
            return res

        runner = ScenarioRunner(system)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scenarios, "solve_milp", recording_solve)
            rows = abatement_sweep(system, standard_scenario("synergies"), SWEEP_FRACTIONS,
                                   runner=runner)
        root = runner.run(standard_scenario("reference"), ObjectiveMode.min_cost())
        (_, start, reference), *rest = solves
        assert start is None and not reference.warm_started
        assert root.result is reference  # cached: the sweep solved it first
        assert [res.warm_started for _, _, res in rest] == [True] * len(rest)
        previous = None  # the latest optimal synergies solve and its problem
        for problem, start, res in rest:
            if previous is None:  # the first cap
                assert same_basis(start, map_basis(root.result.basis, root.built.problem,
                                                   problem))
            else:  # a cap after it, and the floor, as is
                assert start is previous[1].basis
            if res.status == OPTIMAL:
                previous = (problem, res)
        floors = [res for problem, _, res in rest if not capped(problem)]
        assert len(floors) == 1 and floors[0].objective == pytest.approx(
            warm_sweep["floor"].objective, rel=1e-9)
        for row, f in zip(rows, SWEEP_FRACTIONS):
            rootless = warm_sweep["warm"][f]
            if isinstance(rootless, InfeasibleCapError):
                assert not row["feasible"]
            else:
                assert row["cost"] == pytest.approx(rootless.objective, rel=1e-9)
        # at seed 0 the caps and the floor take 666 iterations; without the root, 1,064
        rootless = sum(res.iterations for _, res in warm_sweep["solves"])
        assert sum(res.iterations for _, _, res in rest) < rootless * 0.7

    def test_only_a_reference_min_cost_run_becomes_the_root(self, mini):
        runner = ScenarioRunner(mini)
        min_cost = ObjectiveMode.min_cost()
        with pytest.MonkeyPatch.context() as patch:
            starts = record_starts(patch)
            runner.run(standard_scenario("t-1"), min_cost)
            runner.run(standard_scenario("reference"), ObjectiveMode.min_emissions())
            runner.run(standard_scenario("h-all"), min_cost)
            root = runner.run(standard_scenario("reference"), min_cost)
            later = runner.run(standard_scenario("reference", 2040), min_cost)
            s_1 = runner.run(standard_scenario("s-1"), min_cost)
        # neither t-1's nor reference's min-emissions basis starts h-all
        assert starts[:3] == [None, None, None]
        assert starts[3] is runner.run(standard_scenario("reference"),
                                       ObjectiveMode.min_emissions()).result.basis
        # the first reference min-cost run is the root: s-1 starts from the 2030
        # basis, which the 2040 reference's extra size columns would not map onto
        assert same_basis(starts[4], map_basis(root.result.basis, root.built.problem,
                                               later.built.problem))
        assert same_basis(starts[5], map_basis(root.result.basis, root.built.problem,
                                               s_1.built.problem))

    def test_given_root_starts_a_scenario_warm_at_the_cold_objective(self, mini):
        runner = ScenarioRunner(mini)
        runner.run(standard_scenario("reference"), ObjectiveMode.min_cost())
        h_all = standard_scenario("h-all")
        warm = runner.run(h_all, ObjectiveMode.min_cost())
        cold = ScenarioRunner(mini).run(h_all, ObjectiveMode.min_cost())
        assert warm.solver["warm_start"] is True and "warm_start" not in cold.solver
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
        assert warm.costs.total == pytest.approx(cold.costs.total, rel=1e-9)
        assert warm.solver["iterations"] < cold.solver["iterations"]

    def test_scenarios_sharing_a_runner_get_their_outcomes_alone(self, mini):
        # what matrix relies on to run every scenario, in any order, on one runner
        reference = standard_scenario("reference")
        modes = (ObjectiveMode.min_cost(), ObjectiveMode.min_emissions())
        trio = [standard_scenario(sid) for sid in ("t-1", "t-all", "synergies")]

        def files(runner, scenario):
            return [json.dumps(outcome_to_json(runner.run(scenario, mode)), sort_keys=True)
                    for mode in modes]

        def rooted():
            runner = ScenarioRunner(mini)
            runner.run(reference, modes[0])
            return runner

        alone = {scenario.id: files(rooted(), scenario) for scenario in trio}
        assert all('"warm_start": true' in text for texts in alone.values() for text in texts)
        for order in (trio, trio[::-1]):
            runner = rooted()
            for scenario in order:
                assert files(runner, scenario) == alone[scenario.id], scenario.id


class TestSweep:
    def test_curve_shape(self, mini, runner):
        rows = abatement_sweep(mini, standard_scenario("s-all"),
                               targets=[0.0, 0.01, 0.05, 0.10], runner=runner)
        assert rows[0]["abatement_cost"] is None  # zero reduction
        feasible = [r for r in rows if r["feasible"]]
        costs = [r["cost"] for r in feasible]
        assert costs == sorted(costs), "cost must not decrease as the cap tightens"
        abatements = [r["abatement_cost"] for r in feasible
                      if r["abatement_cost"] is not None]
        assert abatements == sorted(abatements), "abatement cost must not decrease"

    def test_every_cached_outcome_keeps_the_problem_it_solved(self, mini):
        # every cap of the sweep is derived from one cached build; none may
        # write into what another outcome solved
        runner = ScenarioRunner(mini)
        rows = abatement_sweep(mini, standard_scenario("synergies"), SWEEP_FRACTIONS,
                               runner=runner)
        assert any(r["feasible"] for r in rows) and not all(r["feasible"] for r in rows)
        caps = 0
        for (scenario_id, label), outcome in runner._cache.items():
            problem, mode = outcome.built.problem, outcome.mode
            assert verify_solution(problem, outcome.result).ok(), (scenario_id, label)
            assert problem.row_names[-1] == EMISSION_CAP_LABEL
            if mode.kind == "min_cost_with_cap":
                caps += 1
                assert problem.rhs[-1] == mode.emission_cap, label
            else:
                assert problem.rhs[-1] == np.inf, label
        assert caps == sum(r["feasible"] for r in rows) > 1

    def test_unreachable_target_marked_infeasible(self, mini, runner):
        rows = abatement_sweep(mini, standard_scenario("reference"),
                               targets=[0.95], runner=runner)
        assert rows[0]["feasible"] is False
        assert rows[0]["minimum_achievable"] > 0

    def test_zero_reference_emissions_refused(self, mini):
        import dataclasses
        clean = dataclasses.replace(
            mini,
            technologies=tuple(t for t in mini.technologies if t.id == "hydro1"),
            branches=(),
            demands=(),
            renewable_profiles={},
        )
        with pytest.raises(ValueError, match="reference emissions are zero"):
            abatement_sweep(clean, standard_scenario("s-all"), targets=[0.1])


CLOSURE_MODES = [ObjectiveMode.min_cost(), ObjectiveMode.min_emissions()]


@pytest.mark.parametrize("mode", CLOSURE_MODES, ids=lambda mode: mode.label())
@pytest.mark.parametrize("scenario_id", STANDARD_SCENARIO_IDS)
def test_reported_totals_close_on_the_objective(runner, scenario_id, mode):
    """Costs and emissions recomputed from x meet the solver's objective."""
    outcome = runner.run(standard_scenario(scenario_id), mode)
    built, x = outcome.built, outcome.result.x

    def close(value, target):
        return abs(value - target) <= 1e-9 * max(1.0, abs(target))

    table = cost_table(built.system, built.index)  # rebuilt, not the build's own
    emissions = total_emissions(table, x).total
    assert close(float(built.table.emissions @ x), emissions)
    if mode.kind == "min_cost":
        assert close(cost_breakdown(table, x).total, outcome.objective)
    else:
        assert close(emissions, outcome.objective)


class TestMetrics:
    def test_supply_shares_sum_to_one(self, runner):
        outcome = runner.run(standard_scenario("t-all"), ObjectiveMode.min_cost())
        for country, shares in outcome.metrics["supply_shares_by_country"].items():
            assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9), country

    def test_curtailment_definition(self, runner):
        outcome = runner.run(standard_scenario("reference"), ObjectiveMode.min_cost())
        mini = runner.system
        available = sum(mini.renewable_profiles["wind1"])
        dispatched = sum(
            outcome.result.x[outcome.built.index.columns("wind1", "out")[t]]
            for t in range(mini.horizon.step_count))
        expected = 1.0 - dispatched / available
        assert outcome.metrics["curtailment_share"] == pytest.approx(expected, abs=1e-9)
        assert 0.0 <= outcome.metrics["curtailment_share"] < 1.0

    def test_capacity_factors_bounded(self, runner):
        outcome = runner.run(standard_scenario("reference"), ObjectiveMode.min_cost())
        for tech, cf in outcome.metrics["capacity_factors"].items():
            assert -1e-9 <= cf <= 1.0 + 1e-9, tech

    def test_hydrogen_accounting(self, runner):
        outcome = runner.run(standard_scenario("h-all"), ObjectiveMode.min_cost())
        h2 = outcome.metrics["hydrogen"]
        mini = runner.system
        demand_h2 = sum(sum(d.values) for d in mini.demands
                        if d.carrier == Carrier.HYDROGEN)
        # production plus blue backstop covers demand, reconversion and losses
        assert h2["produced"] + h2["blue_import"] >= demand_h2 - 1e-6
        assert h2["produced"] > 0  # electrolysis is economic in this setup

    def test_emission_reduction_is_real(self, runner):
        ref = runner.run(standard_scenario("reference"), ObjectiveMode.min_emissions())
        syn = runner.run(standard_scenario("synergies"), ObjectiveMode.min_emissions())
        assert syn.objective < ref.objective - 1e-3
