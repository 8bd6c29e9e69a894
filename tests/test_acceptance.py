"""Acceptance suite: ten numbered criteria, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
from numpy.testing import assert_allclose

from carrieropt.builder import build_problem
from carrieropt.costing import ObjectiveMode, cost_breakdown, cost_table, total_emissions
from carrieropt.lp import (
    LE,
    OPTIMAL,
    solve_lp,
    solve_milp,
    verify_solution,
    warm_start_solve,
)
from carrieropt.network import pipeline_compression_factor
from carrieropt.pipeline import (
    flat_profiles,
    split_industrial_demand,
    wind_height_correction,
)
from carrieropt.scenarios import (
    ScenarioRunner,
    abatement_sweep,
    apply_scenario,
    standard_scenario,
)
from carrieropt.system import (
    Carrier,
    CompressionParams,
    Conversion2Params,
    CostParams,
    DemandSeries,
    EnergySystem,
    NetworkBranch,
    Node,
    StorageParams,
    TechnologyInstance,
    TechnologyKind,
    TimeHorizon,
    build_miniature_system,
)

from .oracles import simulate_state_of_charge
from .test_milp import enumerate_integer_optima
from .test_simplex import enumerate_vertices, make_problem

MINI = build_miniature_system(seed=0)
RUNNER = ScenarioRunner(MINI)
SOLVE_TIMES: list[tuple[str, float]] = []


def _timed(scenario_id: str, mode: ObjectiveMode):
    t0 = time.time()
    outcome = RUNNER.run(standard_scenario(scenario_id), mode)
    SOLVE_TIMES.append((f"{scenario_id}/{mode.label()}", time.time() - t0))
    return outcome


def _ok(criterion: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: PASS" + (f" ({detail})" if detail else ""))


class TestCriterion01BalanceResiduals:
    def test_balance_residuals_all_solved_instances(self):
        """Every nodal per-carrier balance holds to 1e-9 relative, solves <= 10 s."""
        outcomes = [
            _timed("reference", ObjectiveMode.min_cost()),
            _timed("synergies", ObjectiveMode.min_cost()),
            _timed("s-all", ObjectiveMode.min_emissions()),
        ]
        # a longer-horizon instance exercises the same contract
        long_system = build_miniature_system(seed=1, step_count=48)
        gated = apply_scenario(long_system, standard_scenario("synergies"))
        built = build_problem(gated, ObjectiveMode.min_cost())
        t0 = time.time()
        res = solve_lp(built.problem)
        long_elapsed = time.time() - t0
        assert res.status == OPTIMAL
        checked = 0
        for built_i, x in [(o.built, o.result.x) for o in outcomes] + [(built, res.x)]:
            ax = built_i.problem.a @ x
            for i, name in enumerate(built_i.problem.row_names):
                if not name.startswith("balance["):
                    continue
                rel = abs(ax[i] - built_i.problem.rhs[i]) / max(1.0, abs(built_i.problem.rhs[i]))
                assert rel <= 1e-9, (name, rel)
                checked += 1
        slowest = max([t for _, t in SOLVE_TIMES] + [long_elapsed])
        assert slowest <= 10.0, SOLVE_TIMES
        _ok("1 balance residuals",
            f"{checked} balance rows, slowest solve {slowest:.2f}s")


class TestCriterion02LpOracle:
    def test_random_lps_match_vertex_enumeration(self):
        rng = np.random.default_rng(18811968)
        solved = 0
        while solved < 200:
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 8))
            a = np.vstack([np.round(rng.uniform(-2.0, 4.0, size=(m, n)), 3),
                           np.ones(n)])
            b = np.append(np.round(rng.uniform(1.0, 10.0, size=m), 3), 15.0)
            c = np.round(rng.uniform(-5.0, 5.0, size=n), 3)
            oracle_obj, _ = enumerate_vertices(a, b, c)
            res = solve_lp(make_problem(a, [LE] * (m + 1), b, c))
            assert res.status == OPTIMAL
            assert_allclose(res.objective, oracle_obj, atol=1e-8)
            solved += 1
        _ok("2a LP vertex-enumeration equivalence", "200 instances at 1e-8")

    def test_small_milps_match_exhaustive_enumeration(self):
        rng = np.random.default_rng(404)
        cases = 0
        while cases < 20:
            n = int(rng.integers(3, 6))
            m = int(rng.integers(2, 5))
            a = np.vstack([rng.uniform(-1, 3, size=(m, n)), np.ones(n)])
            b = np.append(rng.uniform(2, 9, size=m), 12.0)
            c = rng.uniform(-5, 3, size=n)
            integer = np.zeros(n, dtype=bool)
            integer[:2] = True
            upper = np.full(n, np.inf)
            upper[:2] = 4.0
            p = make_problem(a, [LE] * (m + 1), b, c, upper=upper, integer=integer)
            oracle, _ = enumerate_integer_optima(p, [0, 1])
            res = solve_milp(p)
            assert np.isfinite(oracle)
            assert res.status == OPTIMAL
            assert abs(res.objective - oracle) <= 1e-9
            cases += 1
        _ok("2b MILP exhaustive equivalence", "20 instances, <=2 int cols x 4 blocks")


def _single_node_battery_system(eta_in, eta_out, lam, profile, demand,
                                size=10.0, rates=1.0):
    horizon = TimeHorizon(step_count=len(profile), hours_per_step=1.0)
    node = Node("solo", "AA", "onshore",
                {Carrier.ELECTRICITY: 100.0}, {Carrier.ELECTRICITY: 1000.0},
                {Carrier.ELECTRICITY: 0.8})
    wind = TechnologyInstance(
        "wind", "solo", TechnologyKind.RENEWABLE, existing_size=50.0,
        expandable=False, max_size=50.0, performance=None, emission_factors={},
        cost=CostParams())
    battery = TechnologyInstance(
        "battery", "solo", TechnologyKind.STORAGE1, existing_size=size,
        expandable=False, max_size=size,
        performance=StorageParams(Carrier.ELECTRICITY, rates, rates,
                                  self_discharge=lam,
                                  charge_efficiency=eta_in,
                                  discharge_efficiency=eta_out),
        emission_factors={}, cost=CostParams())
    return EnergySystem(
        horizon=horizon, nodes=(node,), technologies=(wind, battery), branches=(),
        demands=(DemandSeries("solo", Carrier.ELECTRICITY, tuple(demand)),),
        carbon_price=0.0,
        renewable_profiles={"wind": tuple(profile)},
    )


class TestCriterion03StoragePhysics:
    def test_geometric_decay_closed_form(self):
        params = StorageParams(Carrier.ELECTRICITY, 0.333, 0.333,
                               self_discharge=4.168e-5,
                               charge_efficiency=0.985, discharge_efficiency=0.975)
        soc = simulate_state_of_charge(params, 100.0, [0.0] * 24, [0.0] * 24)
        closed = 100.0 * (1.0 - 4.168e-5) ** 24
        assert abs(soc[-1] - closed) / closed <= 1e-12
        _ok("3a self-discharge decay", f"(1-lambda)^24 within 1e-12")

    def test_cyclic_telescoping_identity(self):
        outcome = _timed("s-all", ObjectiveMode.min_emissions())
        built, res = outcome.built, outcome.result
        system = built.system
        h = system.horizon.hours_per_step
        steps = system.horizon.step_count
        for tech in system.technologies:
            if tech.kind not in (TechnologyKind.STORAGE1, TechnologyKind.STORAGE2_1,
                                 TechnologyKind.STORAGE2_2):
                continue
            p = tech.performance
            decay = (1.0 - p.self_discharge) ** h
            total = 0.0
            scale = 1.0
            for t in range(steps):
                soc_prev = res.x[built.index.columns(tech.id, "soc")[(t - 1) % steps]]
                charge = res.x[built.index.columns(tech.id, "charge")[t]]
                discharge = res.x[built.index.columns(tech.id, "discharge")[t]]
                inflow = system.hydro_inflows.get(tech.id, [0.0] * steps)[t]
                spill = (res.x[built.index.columns(tech.id, "spill")[t]]
                         if built.index.has(tech.id, "spill") else 0.0)
                total += (p.charge_efficiency * charge
                          - discharge / p.discharge_efficiency
                          + inflow - spill - (1.0 - decay) * soc_prev)
                scale = max(scale, abs(charge), abs(discharge), abs(soc_prev))
            assert abs(total) / scale <= 1e-9, tech.id
        _ok("3b cyclic state-of-charge telescoping", "all storages within 1e-9")

    def test_round_trip_efficiency_battery_values(self):
        # surplus wind one step, deficit the next: the battery must cycle
        system = _single_node_battery_system(
            eta_in=0.985, eta_out=0.975, lam=0.0,
            profile=[20.0, 0.0, 20.0, 0.0], demand=[10.0, 14.0, 10.0, 14.0])
        built = build_problem(system, ObjectiveMode.min_cost())
        res = solve_lp(built.problem)
        assert res.status == OPTIMAL
        charges = sum(res.x[built.index.columns("battery", "charge")[t]]
                      for t in range(4))
        discharges = sum(res.x[built.index.columns("battery", "discharge")[t]]
                         for t in range(4))
        assert charges > 1.0  # the cycle actually happened
        ratio = discharges / charges
        assert abs(ratio - 0.985 * 0.975) <= 1e-9
        _ok("3c round-trip efficiency", f"ratio {ratio:.6f} = 0.985*0.975")


class TestCriterion04CompressionFactor:
    def test_si_parameter_row(self):
        k = pipeline_compression_factor(CompressionParams())
        independent = ((0.00398 * 300.0) / (0.65 * 33.32)
                       * (math.exp((1.405 - 1.0) / 1.405 * math.log(140.0 / 30.0))
                          - 1.0))
        assert abs(k - independent) / independent <= 1e-9
        assert pipeline_compression_factor(
            CompressionParams(outlet_pressure_bar=30.0)) == 0.0
        _ok("4 compression factor", f"k = {k:.9f}, exactly 0 at reference pressure")


class TestCriterion05ScenarioDominance:
    def test_cost_and_emission_chains(self):
        tol = 1e-6
        cost_ref = _timed("reference", ObjectiveMode.min_cost()).objective
        cost_tall = _timed("t-all", ObjectiveMode.min_cost()).objective
        cost_syn = _timed("synergies", ObjectiveMode.min_cost()).objective
        assert cost_syn <= cost_tall + tol * max(1.0, abs(cost_tall))
        assert cost_tall <= cost_ref + tol * max(1.0, abs(cost_ref))
        em_ref = _timed("reference", ObjectiveMode.min_emissions()).objective
        em_sall = _timed("s-all", ObjectiveMode.min_emissions()).objective
        em_syn = _timed("synergies", ObjectiveMode.min_emissions()).objective
        assert em_syn <= em_sall + tol
        assert em_sall <= em_ref + tol
        _ok("5a dominance chains",
            f"cost {cost_syn:,.0f} <= {cost_tall:,.0f} <= {cost_ref:,.0f};"
            f" emissions {em_syn:,.0f} <= {em_sall:,.0f} <= {em_ref:,.0f}")

    def test_gates_yield_exactly_zero_expansion(self):
        for sid in ("t-1", "t-2", "t-3", "s-1", "s-2", "h-1", "h-2", "h-3", "h-4"):
            outcome = _timed(sid, ObjectiveMode.min_cost())
            gated = apply_scenario(MINI, standard_scenario(sid))
            allowed = ({t.id for t in gated.technologies if t.expandable}
                       | {b.id for b in gated.branches if b.expandable})
            for row in outcome.new_capacities:
                assert row["entity"] in allowed, (sid, row)
            for name in outcome.built.index.size_columns():
                assert name.split(".")[0] in allowed, (sid, name)
        _ok("5b gate soundness", "no size variable escapes its gate in T/S/H")


class TestCriterion06ParetoAbatement:
    def test_sweep_monotonicity_and_cap_consistency(self):
        rows = abatement_sweep(MINI, standard_scenario("s-all"),
                               targets=[0.0, 0.005, 0.01, 0.02], runner=RUNNER)
        feasible = [r for r in rows if r["feasible"]]
        assert len(feasible) >= 3
        costs = [r["cost"] for r in feasible]
        assert all(b >= a - 1e-6 for a, b in zip(costs, costs[1:])), costs
        abatements = [r["abatement_cost"] for r in feasible
                      if r["abatement_cost"] is not None]
        assert all(b >= a - 1e-6 for a, b in zip(abatements, abatements[1:]))

        base = _timed("s-all", ObjectiveMode.min_cost())
        capped = RUNNER.run(standard_scenario("s-all"),
                            ObjectiveMode.min_cost_with_cap(base.emissions.total))
        rel = abs(capped.objective - base.objective) / max(1.0, abs(base.objective))
        assert rel <= 1e-6
        _ok("6 Pareto and abatement",
            f"{len(feasible)} feasible targets, self-consistency {rel:.1e}")


class TestCriterion07WarmStart:
    def test_three_step_reproduces_cold_synergies(self):
        base = _timed("t-all", ObjectiveMode.min_cost())
        gated = apply_scenario(MINI, standard_scenario("synergies"))
        built = build_problem(gated, ObjectiveMode.min_cost())
        names = set(built.problem.col_names)
        prior = {name: value for name, value in base.size_values().items()
                 if name in names}
        new_sizes = [name for name in built.index.size_columns() if name not in prior]
        ws = warm_start_solve(built.problem, prior, new_sizes)
        s1, s2, s3 = (stage.objective for stage in ws)
        assert all(stage.status == OPTIMAL for stage in ws)
        assert s2 <= s1 + 1e-9 * max(1.0, abs(s1))
        assert s3 <= s2 + 1e-9 * max(1.0, abs(s2))
        cold = _timed("synergies", ObjectiveMode.min_cost())
        rel = abs(s3 - cold.objective) / max(1.0, abs(cold.objective))
        assert rel <= 1e-6
        _ok("7 three-step warm start",
            f"stages {s1:,.0f} >= {s2:,.0f} >= {s3:,.0f}, matches cold at {rel:.1e}")


class TestCriterion08CostClosure:
    def test_decomposition_and_cap_activity(self):
        for sid in ("reference", "t-all", "synergies"):
            outcome = _timed(sid, ObjectiveMode.min_cost())
            gated = outcome.built.system
            again = cost_breakdown(cost_table(gated, outcome.built.index), outcome.result.x)
            rel = abs(again.total - outcome.objective) / max(1.0, abs(outcome.objective))
            assert rel <= 1e-6, sid
        base = _timed("s-all", ObjectiveMode.min_cost())
        cap_value = base.emissions.total * 0.995
        capped = RUNNER.run(standard_scenario("s-all"),
                            ObjectiveMode.min_cost_with_cap(cap_value))
        activity = float(capped.built.table.emissions @ capped.result.x)
        recomputed = total_emissions(cost_table(capped.built.system, capped.built.index),
                                     capped.result.x).total
        assert abs(activity - recomputed) <= 1e-9 * max(1.0, activity)
        assert activity <= cap_value + 1e-6
        _ok("8 cost decomposition closure",
            f"three scenarios at 1e-6; cap activity matches at 1e-9")


class TestCriterion09PipelineConservation:
    def test_demand_split_and_allocation_conserve(self):
        node_keys = {"a": 0.55, "b": 0.25, "c": 0.2}
        employment = {"a": 0.1, "b": 0.6, "c": 0.3}
        series = [80.0 + 30.0 * math.sin(t / 3.0) for t in range(48)]
        out = split_industrial_demand(series, 0.4, node_keys, employment)
        for t, national in enumerate(series):
            total = sum(out[n][t] for n in node_keys)
            assert abs(total - national) <= 1e-9 * max(1.0, national)
        flat = flat_profiles(123456.789, 8760)
        assert abs(math.fsum(flat) - 123456.789) <= 1e-9 * 123456.789

        onshore = wind_height_correction(1.0, 100.0, 110.0, 1.0 / 7.0)
        offshore = wind_height_correction(1.0, 100.0, 120.0, 0.11)
        assert abs(onshore - math.exp(math.log(1.1) / 7.0)) <= 1e-12
        assert abs(offshore - math.exp(0.11 * math.log(1.2))) <= 1e-12
        _ok("9 data pipeline conservation",
            f"split/flat at 1e-9; height factors {onshore:.9f}, {offshore:.9f}")


def _golden_system():
    horizon = TimeHorizon(step_count=4, hours_per_step=1.0)
    imports = {Carrier.NATURAL_GAS: math.inf}
    prices = {Carrier.NATURAL_GAS: 40.0}
    nodes = (
        Node("g1", "AA", "onshore", imports, prices, {}),
        Node("g2", "AA", "onshore", {}, {}, {}),
    )
    gas = TechnologyInstance(
        "gas", "g1", TechnologyKind.CONVERSION2, existing_size=50.0,
        expandable=False, max_size=50.0,
        performance=Conversion2Params(0.61, (Carrier.NATURAL_GAS,),
                                      Carrier.ELECTRICITY),
        emission_factors={("in", Carrier.NATURAL_GAS): 0.302 * 0.61},
        cost=CostParams(variable_opex=4.2))
    wind = TechnologyInstance(
        "wind", "g2", TechnologyKind.RENEWABLE, existing_size=50.0,
        expandable=False, max_size=50.0, performance=None,
        emission_factors={}, cost=CostParams())
    branch = NetworkBranch(
        "link", "electricity_ac", Carrier.ELECTRICITY, "g2", "g1",
        length_km=100.0, existing_capacity=20.0, expandable=False,
        max_capacity=20.0, loss_factor_per_km=7e-5, bidirectional=True,
        cost_poly=(0.0, 43.7, 0.0, 0.4), lifetime=40.0)
    profile = (10.0, 40.0, 25.0, 5.0)
    return EnergySystem(
        horizon=horizon, nodes=nodes, technologies=(gas, wind), branches=(branch,),
        demands=(DemandSeries("g1", Carrier.ELECTRICITY, (30.0, 30.0, 30.0, 30.0)),),
        carbon_price=80.0,
        renewable_profiles={"wind": profile},
    )


class TestCriterion10GoldenCase:
    def test_closed_form_dispatch(self):
        system = _golden_system()
        built = build_problem(system, ObjectiveMode.min_cost())
        res = solve_lp(built.problem)
        assert res.status == OPTIMAL

        transfer = 1.0 - 7e-5 * 100.0
        profile = system.renewable_profiles["wind"]
        sent_expected = [min(p, 20.0) for p in profile]
        gas_expected = [30.0 - transfer * s for s in sent_expected]
        gas_input = [g / 0.61 for g in gas_expected]
        objective_expected = (
            4.2 * sum(gas_expected)
            + 40.0 * sum(gas_input)
            + 80.0 * (0.302 * 0.61) * sum(gas_input)
        )
        rel = abs(res.objective - objective_expected) / objective_expected
        assert rel <= 1e-9

        for t in range(4):
            sent = res.x[built.index.columns("link", "sent[fwd]")[t]]
            recv = res.x[built.index.columns("link", "recv[fwd]")[t]]
            back = res.x[built.index.columns("link", "sent[rev]")[t]]
            wind_out = res.x[built.index.columns("wind", "out")[t]]
            gas_out = res.x[built.index.columns("gas", "out")[t]]
            assert abs(sent - sent_expected[t]) <= 1e-9
            assert abs(recv - transfer * sent_expected[t]) <= 1e-9
            assert abs(back) <= 1e-9
            assert abs(wind_out - sent_expected[t]) <= 1e-9
            assert abs(gas_out - gas_expected[t]) <= 1e-9
        report = verify_solution(built.problem, res)
        assert report.ok(1e-9), vars(report)
        _ok("10 analytic golden case",
            f"objective {res.objective:.6f} and all flows exact at 1e-9")
