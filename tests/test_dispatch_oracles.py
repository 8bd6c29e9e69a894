"""Dispatch-level oracles: enumeration checks on small systems."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from carrieropt.builder import build_problem
from carrieropt.costing import ObjectiveMode
from carrieropt.lp import OPTIMAL, solve_lp, solve_milp
from carrieropt.scenarios import apply_scenario, standard_scenario
from carrieropt.system import (
    Carrier,
    CostParams,
    Conversion2Params,
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

GAS_MC = 4.2 + 40.0 / 0.61 + 80.0 * 0.302  # variable + fuel + carbon per MWh el


def _gas(node, size):
    return TechnologyInstance(
        "gas", node, TechnologyKind.CONVERSION2, existing_size=size,
        expandable=False, max_size=size,
        performance=Conversion2Params(0.61, (Carrier.NATURAL_GAS,),
                                      Carrier.ELECTRICITY),
        emission_factors={("in", Carrier.NATURAL_GAS): 0.302 * 0.61},
        cost=CostParams(variable_opex=4.2))


class TestHydroDispatchOracle:
    """Six-step open-loop hydro against exhaustive turbine schedules."""

    def _system(self):
        horizon = TimeHorizon(step_count=6, hours_per_step=1.0)
        node = Node("solo", "AA", "onshore",
                    {Carrier.NATURAL_GAS: math.inf}, {Carrier.NATURAL_GAS: 40.0}, {})
        hydro = TechnologyInstance(
            "hydro", "solo", TechnologyKind.STORAGE2_1, existing_size=100.0,
            expandable=False, max_size=100.0,
            performance=StorageParams(Carrier.ELECTRICITY, 0.01, 0.04,
                                      charge_efficiency=1.0,
                                      discharge_efficiency=1.0),
            emission_factors={}, cost=CostParams())
        demand = (12.0, 8.0, 12.0, 8.0, 12.0, 8.0)
        return EnergySystem(
            horizon=horizon, nodes=(node,),
            technologies=(_gas("solo", 10.0), hydro), branches=(),
            demands=(DemandSeries("solo", Carrier.ELECTRICITY, demand),),
            carbon_price=80.0,
            hydro_inflows={"hydro": (2.0,) * 6},
        )

    def _oracle(self, demand, gas_cap, budget, turbine_cap):
        """Cheapest dispatch over integer turbine schedules at 1 MWh granularity."""
        best = math.inf
        for schedule in itertools.product(range(int(turbine_cap) + 1), repeat=6):
            if sum(schedule) > budget:
                continue
            cost = 0.0
            feasible = True
            for d_t, need in zip(schedule, demand):
                gas = need - d_t
                if gas < 0 or gas > gas_cap:
                    feasible = False
                    break
                cost += gas * GAS_MC
            if feasible and cost < best:
                best = cost
        return best

    def test_engine_matches_enumeration(self):
        system = self._system()
        built = build_problem(system, ObjectiveMode.min_cost())
        res = solve_lp(built.problem)
        assert res.status == OPTIMAL
        oracle = self._oracle(demand=(12, 8, 12, 8, 12, 8), gas_cap=10.0,
                              budget=12.0, turbine_cap=4)
        assert res.objective == pytest.approx(oracle, rel=1e-9)

    def test_peaks_forced_onto_hydro(self):
        system = self._system()
        built = build_problem(system, ObjectiveMode.min_cost())
        res = solve_lp(built.problem)
        for t in (0, 2, 4):
            discharge = res.x[built.index.columns("hydro", "discharge")[t]]
            assert discharge >= 2.0 - 1e-9

    def test_no_simultaneous_charge_discharge(self):
        # lossless storage: cycling both ways in one step is strictly wasteful
        system = self._system()
        built = build_problem(system, ObjectiveMode.min_cost())
        res = solve_lp(built.problem)
        for t in range(6):
            charge = res.x[built.index.columns("hydro", "charge")[t]]
            discharge = res.x[built.index.columns("hydro", "discharge")[t]]
            assert min(charge, discharge) <= 1e-9


class TestDirectionFlipOracle:
    """Two nodes whose surplus side alternates; flows must alternate too.

    A small per-MWh flow charge makes the optimal flows unique: local wind is
    used first, the corridor carries only what the deficit side needs.
    """

    TRANSFER = 1.0 - 7e-5 * 50.0
    LINK_OPEX = 0.5
    PROFILES = {"a": (18.0, 2.0, 18.0, 2.0), "b": (2.0, 18.0, 2.0, 18.0)}
    DEMANDS = {"a": (5.0, 20.0, 5.0, 20.0), "b": (11.0, 5.0, 11.0, 5.0)}

    def _system(self):
        horizon = TimeHorizon(step_count=4, hours_per_step=1.0)
        imports = {Carrier.NATURAL_GAS: math.inf}
        prices = {Carrier.NATURAL_GAS: 40.0}
        nodes = (Node("a", "AA", "onshore", imports, prices, {}),
                 Node("b", "BB", "onshore", imports, prices, {}))
        wind_a = TechnologyInstance(
            "wind_a", "a", TechnologyKind.RENEWABLE, existing_size=30.0,
            expandable=False, max_size=30.0, performance=None,
            emission_factors={}, cost=CostParams())
        wind_b = TechnologyInstance(
            "wind_b", "b", TechnologyKind.RENEWABLE, existing_size=30.0,
            expandable=False, max_size=30.0, performance=None,
            emission_factors={}, cost=CostParams())
        link = NetworkBranch(
            "link", "electricity_ac", Carrier.ELECTRICITY, "a", "b",
            length_km=50.0, existing_capacity=10.0, expandable=False,
            max_capacity=10.0, loss_factor_per_km=7e-5, bidirectional=True,
            cost_poly=(0.0, 43.7, 0.0, 0.4), lifetime=40.0,
            variable_opex=self.LINK_OPEX)
        demand = (
            DemandSeries("a", Carrier.ELECTRICITY, self.DEMANDS["a"]),
            DemandSeries("b", Carrier.ELECTRICITY, self.DEMANDS["b"]))
        return EnergySystem(
            horizon=horizon, nodes=nodes,
            technologies=(_gas("a", 50.0), wind_a, wind_b), branches=(link,),
            demands=demand, carbon_price=80.0,
            renewable_profiles={"wind_a": self.PROFILES["a"],
                                "wind_b": self.PROFILES["b"]},
        )

    def _step_oracle(self, t) -> float:
        """Exact per-step optimum over the two directions and their breakpoints.

        Node b has no dispatchable source: its balance pins the flow range.
        The cost is piecewise linear, so the optimum sits on a breakpoint.
        """
        transfer = self.TRANSFER
        d_a, d_b = self.DEMANDS["a"][t], self.DEMANDS["b"][t]
        p_a, p_b = self.PROFILES["a"][t], self.PROFILES["b"][t]
        best = math.inf

        def cost_a_to_b(sent):
            if not -1e-12 <= sent <= 10.0 + 1e-12:
                return math.inf
            wind_b = d_b - transfer * sent
            if wind_b < -1e-12 or wind_b > p_b + 1e-12:
                return math.inf
            gen_a = d_a + sent
            gas = max(0.0, gen_a - p_a)
            return gas * GAS_MC + self.LINK_OPEX * sent

        def cost_b_to_a(sent):
            if not -1e-12 <= sent <= 10.0 + 1e-12:
                return math.inf
            wind_b = d_b + sent
            if wind_b > p_b + 1e-12:
                return math.inf
            gen_a = d_a - transfer * sent
            if gen_a < -1e-12:
                return math.inf
            gas = max(0.0, gen_a - p_a)
            return gas * GAS_MC + self.LINK_OPEX * sent

        for sent in (0.0, 10.0, d_b / transfer, (d_b - p_b) / transfer, p_a - d_a):
            best = min(best, cost_a_to_b(sent))
        for sent in (0.0, 10.0, p_b - d_b, (d_a - p_a) / transfer):
            best = min(best, cost_b_to_a(sent))
        return best

    def test_flows_alternate_and_never_overlap(self):
        system = self._system()
        built = build_problem(system, ObjectiveMode.min_cost())
        res = solve_lp(built.problem)
        assert res.status == OPTIMAL
        for t in range(4):
            fwd = res.x[built.index.columns("link", "sent[fwd]")[t]]
            rev = res.x[built.index.columns("link", "sent[rev]")[t]]
            assert min(fwd, rev) <= 1e-9, f"overlapping flows at step {t}"
            if t % 2 == 0:
                # a is surplus: ship exactly b's residual deficit
                expected = (self.DEMANDS["b"][t] - self.PROFILES["b"][t]) / self.TRANSFER
                assert fwd == pytest.approx(expected, abs=1e-9)
                assert rev == pytest.approx(0.0, abs=1e-9)
            else:
                # b is surplus: the corridor runs full toward a
                assert rev == pytest.approx(10.0, abs=1e-9)
                assert fwd == pytest.approx(0.0, abs=1e-9)

    def test_objective_matches_direction_enumeration(self):
        system = self._system()
        built = build_problem(system, ObjectiveMode.min_cost())
        res = solve_lp(built.problem)
        expected = sum(self._step_oracle(t) for t in range(4))
        assert res.objective == pytest.approx(expected, rel=1e-9)


class TestMiniatureDcBlocks:
    """Integer DC blocks on the miniature against exhaustive block assignment."""

    def test_milp_matches_exhaustive(self):
        system = build_miniature_system(seed=0, dc_blocks_mw=20.0)
        gated = apply_scenario(system, standard_scenario("t-all"))
        built = build_problem(gated, ObjectiveMode.min_cost())
        blocks_cols = [built.index.column("dc1", "blocks"),
                       built.index.column("dc2", "blocks")]
        max_blocks = [int(built.problem.upper[col]) for col in blocks_cols]
        assert max_blocks == [3, 2]

        best = math.inf
        for k1 in range(max_blocks[0] + 1):
            for k2 in range(max_blocks[1] + 1):
                fixed = replace(built.problem.with_bounds(
                    {col: (float(value), float(value))
                     for col, value in zip(blocks_cols, (k1, k2))}),
                    integer=np.zeros_like(built.problem.integer))
                res = solve_lp(fixed)
                if res.status == OPTIMAL:
                    best = min(best, res.objective)

        milp = solve_milp(built.problem)
        assert milp.status == OPTIMAL
        assert milp.objective == pytest.approx(best, abs=1e-5)
        for col in blocks_cols:
            value = milp.x[col]
            assert abs(value - round(value)) <= 1e-9


class TestImportLimits:
    def test_electricity_imports_within_node_limits(self):
        import dataclasses
        base = build_miniature_system(seed=0)
        # half the gas fleet: peak deficits must lean on the import backstop
        squeezed = tuple(
            dataclasses.replace(t, existing_size=25.0, max_size=25.0)
            if t.id == "gas1" else t for t in base.technologies)
        system = dataclasses.replace(base, technologies=squeezed)
        built = build_problem(apply_scenario(system, standard_scenario("reference")),
                              ObjectiveMode.min_cost())
        res = solve_lp(built.problem)
        assert res.status == OPTIMAL
        h = system.horizon.hours_per_step
        total = 0.0
        for node in system.nodes:
            limit = node.import_limit.get(Carrier.ELECTRICITY, 0.0)
            for t in range(system.horizon.step_count):
                if built.index.has(node.id, "imp[electricity]"):
                    value = res.x[built.index.columns(node.id, "imp[electricity]")[t]]
                    assert value <= limit * h + 1e-9
                    total += value
        assert total > 0.0  # the reference dispatch actually leans on imports


class TestAbatementHandCalculation:
    """Gas + battery toy whose 10%-reduction abatement cost is hand-solvable.

    Demand 10 every step, wind 14/6 alternating: the reference burns 4 MWh of
    gas in each deficit step. A 10% cap forces the battery to shift 0.8 MWh of
    curtailed wind into the deficit steps; with a unit power-to-energy ratio
    the cheapest build is 0.4 MWh cycled twice. Hence
        abatement = (0.4 * annuity - 0.8 * gas_mc) / (0.1 * E_ref).
    """

    CAPEX = 5.0       # kEUR per MWh, lifetime 10, rate 0 -> 500 EUR/yr
    ANNUITY = 500.0

    def _system(self):
        horizon = TimeHorizon(step_count=4, hours_per_step=1.0)
        node = Node("solo", "AA", "onshore",
                    {Carrier.NATURAL_GAS: math.inf}, {Carrier.NATURAL_GAS: 40.0}, {})
        wind = TechnologyInstance(
            "wind", "solo", TechnologyKind.RENEWABLE, existing_size=20.0,
            expandable=False, max_size=20.0, performance=None,
            emission_factors={}, cost=CostParams())
        battery = TechnologyInstance(
            "battery", "solo", TechnologyKind.STORAGE1, existing_size=0.0,
            expandable=True, max_size=50.0,
            performance=StorageParams(Carrier.ELECTRICITY, 1.0, 1.0,
                                      charge_efficiency=1.0,
                                      discharge_efficiency=1.0),
            emission_factors={},
            cost=CostParams(capex_per_size=self.CAPEX, lifetime=10.0,
                            discount_rate=0.0))
        return EnergySystem(
            horizon=horizon, nodes=(node,),
            technologies=(_gas("solo", 20.0), wind, battery), branches=(),
            demands=(DemandSeries("solo", Carrier.ELECTRICITY,
                                  (10.0, 10.0, 10.0, 10.0)),),
            carbon_price=80.0,
            renewable_profiles={"wind": (14.0, 6.0, 14.0, 6.0)},
        )

    def test_sweep_matches_hand_solution(self):
        from carrieropt.scenarios import ScenarioRunner, ScenarioSpec, abatement_sweep

        system = self._system()
        runner = ScenarioRunner(system)
        battery_only = ScenarioSpec(id="battery-only", storage_onshore=True,
                                    storage_power_to_energy=1.0)
        rows = abatement_sweep(system, battery_only, targets=[0.10], runner=runner)
        row = rows[0]
        assert row["feasible"]

        e_ref = 8.0 * 0.302 * 0.61 / 0.61  # 8 MWh gas at 0.302 t/MWh_el
        saved = 0.1 * e_ref
        expected_abatement = (0.4 * self.ANNUITY - 0.8 * GAS_MC) / saved
        assert row["abatement_cost"] == pytest.approx(expected_abatement, rel=1e-9)
        assert row["emissions"] == pytest.approx(0.9 * e_ref, rel=1e-9)

    def test_curve_non_decreasing_on_toy(self):
        from carrieropt.scenarios import ScenarioRunner, ScenarioSpec, abatement_sweep

        system = self._system()
        runner = ScenarioRunner(system)
        battery_only = ScenarioSpec(id="battery-only", storage_onshore=True,
                                    storage_power_to_energy=1.0)
        rows = abatement_sweep(system, battery_only,
                               targets=[0.05, 0.10, 0.20], runner=runner)
        values = [r["abatement_cost"] for r in rows if r["feasible"]]
        assert len(values) == 3
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


class TestPipelinePairIndependence:
    def test_antiparallel_pipelines_sized_independently(self):
        from carrieropt.system import assemble_variable_index
        system = build_miniature_system(seed=0)
        index = assemble_variable_index(system)
        assert index.has("pp1", "size")
        assert index.has("pp2", "size")
        built = build_problem(system, ObjectiveMode.min_cost())
        coupled = [name for name in built.problem.row_names
                   if name.startswith(("pp1.size_eq", "pp2.size_eq"))]
        assert coupled == []  # only bidirectional branches tie their directions
