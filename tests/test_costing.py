"""Costing and emissions: annuities, polynomial capex, objective coefficients."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from carrieropt.costing import (
    EMISSION_CAP_LABEL,
    ObjectiveMode,
    annualize,
    cost_breakdown,
    cost_table,
    total_emissions,
)
from carrieropt.builder import build_problem
from carrieropt.system import (
    Carrier,
    NetworkBranch,
    assemble_variable_index,
    build_miniature_system,
)

from .oracles import network_branch_capex


@pytest.fixture(scope="module")
def mini():
    return build_miniature_system(seed=0)


@pytest.fixture(scope="module")
def index(mini):
    return assemble_variable_index(mini)


@pytest.fixture(scope="module")
def table(mini, index):
    return cost_table(mini, index)


class TestAnnualize:
    def test_zero_rate_is_straight_line(self):
        assert annualize(100.0, 10.0, 0.0) == 10.0

    def test_battery_example(self):
        assert_allclose(annualize(622.0, 25.0, 0.04), 39.81544085317475, rtol=1e-12)

    def test_long_lifetime_tends_to_interest(self):
        assert_allclose(annualize(100.0, 5000.0, 0.05), 5.0, rtol=1e-9)

    def test_nonpositive_lifetime_rejected(self):
        with pytest.raises(ValueError):
            annualize(10.0, 0.0, 0.04)

    @given(st.floats(1.0, 1e4), st.floats(1.0, 100.0), st.floats(0.0, 0.2))
    def test_annuity_repays_capex(self, capex, lifetime, rate):
        """Discounted sum of the annuity over the lifetime returns the capex."""
        a = annualize(capex, lifetime, rate)
        if rate < 1e-12:
            total = a * lifetime
        else:
            total = a * -math.expm1(-lifetime * math.log1p(rate)) / rate
        assert total == pytest.approx(capex, rel=1e-9)


class TestBranchCapex:
    def _ac(self, existing=0.0):
        return NetworkBranch(
            "x", "electricity_ac", Carrier.ELECTRICITY, "a", "b", length_km=100.0,
            existing_capacity=existing, expandable=True, max_capacity=600.0,
            loss_factor_per_km=7e-5, bidirectional=True,
            cost_poly=(0.0, 43.7, 0.0, 0.4), lifetime=40.0)

    def test_ac_polynomial_example(self):
        assert network_branch_capex(self._ac(), 500.0) == pytest.approx(41850.0)

    def test_zero_size_costs_nothing(self):
        assert network_branch_capex(self._ac(), 0.0) == 0.0

    def test_offshore_pipeline_polynomial(self):
        pipe = NetworkBranch(
            "p", "pipeline_offshore", Carrier.HYDROGEN, "a", "b", length_km=300.0,
            existing_capacity=0.0, expandable=True, max_capacity=2000.0,
            loss_factor_per_km=4e-5, bidirectional=False,
            cost_poly=(337045.7, -33.1, 0.0, 0.5), lifetime=50.0)
        assert network_branch_capex(pipe, 1000.0) == pytest.approx(453945.7)

    def test_negative_region_clamped(self):
        cheap = NetworkBranch(
            "p", "pipeline_onshore_repurposed", Carrier.HYDROGEN, "a", "b",
            length_km=1.0, existing_capacity=0.0, expandable=True,
            max_capacity=2000.0, loss_factor_per_km=4e-5, bidirectional=False,
            cost_poly=(0.0, -3.9, 0.0, 0.1), lifetime=50.0)
        assert network_branch_capex(cheap, 100.0) == 0.0


class TestObjectiveCoefficients:
    def test_electricity_import_effective_price(self, mini, index):
        # 1 MWh imported costs the bare price plus the carbon charge:
        # 1000 + 80 * 0.8 = 1064 EUR
        vec = cost_table(mini, index).costs
        col = index.columns("n1", "imp[electricity]")[0]
        assert vec[col] == pytest.approx(1064.0)

    def test_gas_variable_opex(self, mini, index):
        vec = cost_table(mini, index).costs
        col = index.columns("gas1", "out")[5]
        assert vec[col] == pytest.approx(4.2)

    def test_electrolyzer_size_coefficient_structure(self, mini, index):
        vec = cost_table(mini, index).costs
        col = index.column("elz1", "size")
        tech = mini.technology("elz1")
        expected = annualize(tech.cost.capex_per_size, 30.0, 0.04) * 1.04 * 1000.0
        assert vec[col] == pytest.approx(expected, rel=1e-12)

    def test_zero_size_zero_output_contributes_nothing(self, mini, index):
        vec = cost_table(mini, index).costs
        x = np.zeros(len(index))
        assert float(vec @ x) == 0.0

    def test_min_cost_equals_cap_infinity(self, mini):
        base = build_problem(mini, ObjectiveMode.min_cost())
        capped = base.for_mode(ObjectiveMode.min_cost_with_cap(math.inf))
        assert capped.problem.row_names[-1] == EMISSION_CAP_LABEL
        assert capped.problem.rhs[-1] == base.problem.rhs[-1] == math.inf  # a free row
        assert (capped.problem.rhs == base.problem.rhs).all()
        assert capped.problem.a is base.problem.a
        assert (capped.problem.objective == base.table.costs).all()


class TestEmissionAccounting:
    def test_gas_output_bookkeeping(self, index, table):
        # 100 MWh of gas input at 61% efficiency: 61 MWh out, 18.422 t CO2
        x = np.zeros(len(index))
        x[index.columns("gas1", "in[natural_gas]")[0]] = 100.0
        x[index.columns("gas1", "out")[0]] = 61.0
        report = total_emissions(table, x)
        assert report.technologies == pytest.approx(18.4220, rel=1e-12)
        assert report.imports == 0.0

    def test_import_emission_factor(self, index, table):
        x = np.zeros(len(index))
        x[index.columns("n2", "imp[electricity]")[3]] = 10.0
        report = total_emissions(table, x)
        assert report.imports == pytest.approx(8.0)

    def test_all_renewable_dispatch_is_zero(self, mini, index, table):
        x = np.zeros(len(index))
        for t in range(mini.horizon.step_count):
            x[index.columns("wind1", "out")[t]] = 100.0
            x[index.columns("hydro1", "discharge")[t]] = 5.0
        assert total_emissions(table, x).total == 0.0

    def test_storage2_2_electricity_input_prices_compression(self, mini):
        """``ef_in_electricity`` on a hydrogen cavern prices the electricity
        its compressor draws, the only electricity the cavern takes."""
        from carrieropt.scenarios import ScenarioRunner, standard_scenario
        factor = 0.5
        techs = tuple(dataclasses.replace(t, emission_factors={
            ("in", Carrier.ELECTRICITY): factor} if t.id == "cav1" else {})
            for t in mini.technologies)
        system = dataclasses.replace(mini, technologies=techs)
        # h-all min-emissions charges the cavern
        outcome = ScenarioRunner(system).run(standard_scenario("h-all"),
                                             ObjectiveMode.min_emissions())
        drawn = outcome.result.x[outcome.built.index.columns("cav1", "compress_el")].sum()
        assert drawn > 0
        assert outcome.emissions.technologies == pytest.approx(factor * drawn, rel=1e-9)

    def test_min_emissions_objective_is_emission_vector(self, mini):
        built = build_problem(mini, ObjectiveMode.min_emissions())
        assert built.problem.rhs[-1] == math.inf  # the cap row is free
        assert (built.problem.objective == built.table.emissions).all()


class TestReportedTotals:
    def test_sums_over_no_terms_are_float_zeros(self, mini):
        from carrieropt.scenarios import apply_scenario, standard_scenario
        gated = apply_scenario(mini, standard_scenario("reference"))
        index = assemble_variable_index(gated)
        table = cost_table(gated, index)
        assert not table.networks
        costs = cost_breakdown(table, np.zeros(len(index)))
        assert all(type(v) is float for v in vars(costs).values())
        assert repr(costs.networks) == "0.0"


class TestCapDual:
    def test_binding_cap_has_nonnegative_dual(self, mini):
        from carrieropt.scenarios import ScenarioRunner, standard_scenario
        runner = ScenarioRunner(mini)
        base = runner.run(standard_scenario("s-all"), ObjectiveMode.min_cost())
        cap = base.emissions.total * 0.995
        capped = runner.run(standard_scenario("s-all"),
                            ObjectiveMode.min_cost_with_cap(cap))
        built, res = capped.built, capped.result
        row = built.problem.row_names.index(EMISSION_CAP_LABEL)
        assert row == built.problem.num_rows - 1 and built.problem.rhs[row] == cap
        activity = float(built.table.emissions @ res.x)
        assert activity == pytest.approx(cap, rel=1e-6)  # binding
        dual = res.duals[row]
        assert dual >= -1e-9  # shadow carbon price
        assert dual > 1.0     # strictly positive when the cap really binds
