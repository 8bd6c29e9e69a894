"""Scenario gates, dominance orderings, sweeps and metrics."""


import pytest

from carrieropt.costing import ObjectiveMode
from carrieropt.scenarios import (
    InfeasibleCapError,
    ScenarioRunner,
    abatement_sweep,
    apply_scenario,
    run,
    standard_scenario,
    STANDARD_SCENARIO_IDS,
)
from carrieropt.system import (
    Carrier,
    assemble_variable_index,
    build_miniature_system,
    validate_system,
)

TOL = 1e-6


@pytest.fixture(scope="module")
def mini():
    return build_miniature_system(seed=0)


@pytest.fixture(scope="module")
def runner(mini):
    return ScenarioRunner(mini)


def expandable_ids(system):
    return ({t.id for t in system.technologies if t.expandable}
            | {b.id for b in system.branches if b.expandable})


class TestGates:
    def test_reference_gates_everything(self, mini):
        gated = apply_scenario(mini, standard_scenario("reference"))
        assert expandable_ids(gated) == set()
        index = assemble_variable_index(gated)
        assert not any(k.step is None for k in index.keys())

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
        assert not any(k.step is None for k in outcome.built.index.keys())

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
        activity = float(built.emissions @ res.x)
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
        warm = run(system, standard_scenario("synergies"), ObjectiveMode.min_cost(),
                   warm_from=base.size_values())
        assert warm.built.problem.integer.any() == (dc_blocks_mw is not None)
        assert warm.solver["warm_start"] is True
        assert "warm_start" not in cold.solver
        assert warm.objective == pytest.approx(cold.objective, rel=1e-6)


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
            outcome.result.x[outcome.built.index.column("wind1", "out", t)]
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
