"""Technology and network constraint emitters: structure and arithmetic."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from carrieropt.builder import build_problem
from carrieropt.costing import ObjectiveMode
from carrieropt.lp import EQ, LE, OPTIMAL, solve_lp, verify_solution
from carrieropt.network import emit_branch, pipeline_compression_factor
from carrieropt.scenarios import apply_scenario, standard_scenario
from carrieropt.system import (
    Carrier,
    CompressionParams,
    StorageParams,
    StructureError,
    assemble_variable_index,
    build_miniature_system,
)
from carrieropt.technologies import (
    DataError,
    emit_conversion1,
    emit_conversion2,
    emit_renewable,
    emit_storage1,
    emit_technology,
)

from .oracles import simulate_state_of_charge


@pytest.fixture(scope="module")
def mini():
    return build_miniature_system(seed=0)


@pytest.fixture(scope="module")
def index(mini):
    return assemble_variable_index(mini)


def rows_named(block, prefix):
    """The numbers of the block's rows whose names start with ``prefix``."""
    return [i for i, name in enumerate(block.names) if name.startswith(prefix)]


def row_terms(block, i):
    """Row ``i``'s ``(column, coefficient)`` entries, in the order the block lists them."""
    return [(col, coef) for row, col, coef in zip(
        block.rows.tolist(), block.cols.tolist(), block.coefs.tolist()) if row == i]


def as_bounds(bounds):
    """Emitted bounds as ``(column, lower, upper)`` triples; lower bounds stay 0."""
    return [(col, 0.0, cap) for cols, caps in bounds
            for col, cap in zip(cols.tolist(), caps.tolist())]


def emitted(block_and_bounds):
    """An emitter's ``(block, bounds)`` as ``(block, bound triples)``."""
    block, bounds = block_and_bounds
    return block, as_bounds(bounds)


class TestRenewable:
    def test_fixed_size_becomes_bounds(self, mini, index):
        wind = dataclasses.replace(mini.technology("wind1"), expandable=False,
                                   cost=dataclasses.replace(
                                       mini.technology("wind1").cost, capex_per_size=0.0))
        fixed = dataclasses.replace(
            mini,
            technologies=tuple(wind if t.id == "wind1" else t for t in mini.technologies),
            renewable_profiles={"wind1": (10.0, 0.0) + (5.0,) * 22},
        )
        idx = assemble_variable_index(fixed)
        block, bounds = emitted(emit_renewable(wind, idx, fixed))
        assert len(block) == 0
        assert bounds[0] == (idx.columns("wind1", "out")[0], 0.0, 10.0)
        assert bounds[1] == (idx.columns("wind1", "out")[1], 0.0, 0.0)

    def test_expandable_scales_with_size(self, mini, index):
        wind = mini.technology("wind1")
        block, bounds = emitted(emit_renewable(wind, index, mini))
        assert bounds == []
        profile = mini.renewable_profiles["wind1"]
        coefs = dict(row_terms(block, 0))
        assert block.rhs[0] == pytest.approx(profile[0])
        assert coefs[index.column("wind1", "size")] == pytest.approx(
            -profile[0] / wind.existing_size)

    def test_missing_profile_is_structure_error(self, mini):
        broken = dataclasses.replace(mini, renewable_profiles={})
        with pytest.raises(StructureError, match="wind1: renewable without a profile"):
            build_problem(broken, ObjectiveMode.min_cost())

    def test_closed_greenfield_renewable_delivers_nothing(self, mini):
        wind2 = dataclasses.replace(mini.technology("wind1"), id="wind2", existing_size=0.0,
                                    max_size=100.0)
        system = dataclasses.replace(
            mini, technologies=mini.technologies + (wind2,),
            renewable_profiles={**mini.renewable_profiles,
                                "wind2": (0.5,) * mini.horizon.step_count})
        built = build_problem(apply_scenario(system, standard_scenario("reference")),
                              ObjectiveMode.min_cost())
        res = solve_lp(built.problem)
        assert res.status == OPTIMAL
        delivered = sum(res.x[built.index.columns("wind2", "out")[t]]
                        for t in range(mini.horizon.step_count))
        assert delivered == 0.0


def _replace_entity(system, entity, **changes):
    """``system`` with the technology or branch ``entity`` changed."""
    return dataclasses.replace(
        system,
        technologies=tuple(dataclasses.replace(t, **changes) if t.id == entity else t
                           for t in system.technologies),
        branches=tuple(dataclasses.replace(b, **changes) if b.id == entity else b
                       for b in system.branches))


def _emit(system, entity):
    """(index, block, bounds) of ``entity``'s emitter in ``system``."""
    index = assemble_variable_index(system)
    if any(b.id == entity for b in system.branches):
        block, bounds = emitted(emit_branch(system.branch(entity), index, system))
    else:
        block, bounds = emitted(emit_technology(system.technology(entity), index, system))
    return index, block, bounds


@pytest.mark.parametrize("open_system, entity, label", [
    pytest.param(lambda m: m, "wind1", "wind1.avail[", id="renewable"),
    pytest.param(lambda m: _replace_entity(m, "wind1", existing_size=0.0), "wind1",
                 "wind1.avail[", id="renewable-greenfield"),
    pytest.param(lambda m: _replace_entity(m, "nuc1", expandable=True, max_size=50.0),
                 "nuc1", "nuc1.cap[", id="conversion1"),
    pytest.param(lambda m: _replace_entity(m, "gas1", expandable=True, max_size=100.0),
                 "gas1", "gas1.cap[", id="conversion2"),
    pytest.param(lambda m: m, "batt1", "batt1.max_charge[", id="storage-charge"),
    pytest.param(lambda m: m, "batt1", "batt1.max_discharge[", id="storage-discharge"),
    pytest.param(lambda m: m, "batt1", "batt1.soc_cap[", id="storage-soc"),
    pytest.param(lambda m: m, "ac1", "ac1.cap[", id="branch"),
    pytest.param(lambda m: build_miniature_system(seed=0, dc_blocks_mw=10.0), "dc1",
                 "dc1.cap[", id="branch-blocks"),
])
def test_fixed_size_bound_equals_row_at_size_zero(mini, open_system, entity, label):
    """A size-limited flow of a fixed asset gets the bound its row reads at size 0."""
    system = open_system(mini)
    index, block, _ = _emit(system, entity)
    limits = rows_named(block, label)
    assert len(limits) >= system.horizon.step_count
    fixed = _replace_entity(system, entity, expandable=False)
    if any(t.id == entity for t in fixed.technologies):
        cost = dataclasses.replace(fixed.technology(entity).cost, capex_per_size=0.0)
        fixed = _replace_entity(fixed, entity, cost=cost)
    fixed_index, fixed_block, bounds = _emit(fixed, entity)
    assert not rows_named(fixed_block, label)
    fixed_names = fixed_index.names()
    bound_of = {fixed_names[col]: (lo, hi) for col, lo, hi in bounds}
    names, sizes = index.names(), index.size_columns()
    for i in limits:
        (flow, one), (size, _) = row_terms(block, i)
        assert (one, block.senses[i], sizes.get(names[size])) == (1.0, LE, size)
        assert names[size].split(".")[0] == entity
        assert bound_of[names[flow]] == (0.0, float(block.rhs[i])), block.names[i]


class TestConversion:
    def test_conversion1_fixed_bounds(self, mini, index):
        nuc = mini.technology("nuc1")
        block, bounds = emitted(emit_conversion1(nuc, index, mini))
        assert len(block) == 0
        h = mini.horizon.hours_per_step
        assert all(b[2] == pytest.approx(nuc.existing_size * h) for b in bounds)
        assert len(bounds) == mini.horizon.step_count

    def test_conversion2_inout_arithmetic(self, mini, index):
        gas = mini.technology("gas1")
        block, _ = emitted(emit_conversion2(gas, index, mini))
        coefs = dict(row_terms(block, rows_named(block, "gas1.inout")[0]))
        # 100 MWh of natural gas in -> 61 MWh electricity out satisfies the row
        x = {index.columns("gas1", "out")[0]: 61.0,
             index.columns("gas1", "in[natural_gas]")[0]: 100.0,
             index.columns("gas1", "in[hydrogen]")[0]: 0.0}
        residual = sum(coefs[c] * x.get(c, 0.0) for c in coefs)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_admix_limits_hydrogen_share(self, mini, index):
        gas = mini.technology("gas1")
        block, _ = emitted(emit_conversion2(gas, index, mini))
        coefs = dict(row_terms(block, rows_named(block, "gas1.admix[hydrogen]")[0]))
        h2 = index.columns("gas1", "in[hydrogen]")[0]
        ng = index.columns("gas1", "in[natural_gas]")[0]
        # total input 100 with hydrogen at exactly 5 sits on the limit
        assert coefs[h2] * 5.0 + coefs[ng] * 95.0 == pytest.approx(0.0, abs=1e-12)
        assert coefs[h2] * 6.0 + coefs[ng] * 94.0 > 0.0


class TestStorageRows:
    def _battery(self, rate=0.333, size=3.0):
        return StorageParams(Carrier.ELECTRICITY, rate, rate,
                             self_discharge=4.168e-5,
                             charge_efficiency=0.985, discharge_efficiency=0.975), size

    def test_rate_limits_from_performance_table(self, mini):
        batt = dataclasses.replace(
            mini.technology("batt1"), existing_size=3.0, expandable=False, max_size=3.0,
            cost=dataclasses.replace(mini.technology("batt1").cost, capex_per_size=0.0))
        one_hour = dataclasses.replace(
            mini,
            horizon=dataclasses.replace(mini.horizon, hours_per_step=1.0),
            technologies=tuple(batt if t.id == "batt1" else t for t in mini.technologies),
            demands=tuple(dataclasses.replace(d, values=tuple(v / 365.0 for v in d.values))
                          for d in mini.demands),
            renewable_profiles={k: tuple(x / 365.0 for x in v)
                                for k, v in mini.renewable_profiles.items()},
            hydro_inflows={k: tuple(x / 365.0 for x in v)
                           for k, v in mini.hydro_inflows.items()},
        )
        idx = assemble_variable_index(one_hour)
        _, bounds = emitted(emit_storage1(batt, idx, one_hour))
        charge_bounds = [b for b in bounds if b[0] == idx.columns("batt1", "charge")[0]]
        assert charge_bounds[0][2] == pytest.approx(0.999)  # 0.333 * 3 MWh

    def test_rows_interleave_by_step(self, mini, index):
        """Every row kind at step 0, then every kind at step 1, ...; a balance
        lists its state of charge, the previous step's (cyclic), charge, discharge
        and, for a compressed store, compression follows the cut."""
        steps = mini.horizon.step_count
        block, bounds = emitted(emit_technology(mini.technology("cav1"), index, mini))
        kinds = ("max_charge", "max_discharge", "soc_cap", "soc_balance", "cut",
                 "compression")
        assert block.names == [f"cav1.{kind}[{t}]" for t in range(steps) for kind in kinds]
        assert bounds == []
        assert block.senses[:6] == [LE, LE, LE, EQ, LE, EQ]
        for t in (0, steps - 1):
            assert [col for col, _ in row_terms(block, 6 * t + 3)] == [
                index.columns("cav1", "soc")[t], index.columns("cav1", "soc")[(t - 1) % steps],
                index.columns("cav1", "charge")[t], index.columns("cav1", "discharge")[t]]

    def test_soc_recursion_matches_reference_simulation(self):
        params, _ = self._battery()
        charges = [1.0, 0.0, 0.5, 0.0]
        discharges = [0.0, 0.4, 0.0, 0.6]
        soc = simulate_state_of_charge(params, 10.0, charges, discharges)
        manual = 10.0
        for t in range(4):
            manual = ((1 - 4.168e-5) * manual + 0.985 * charges[t]
                      - discharges[t] / 0.975)
            assert soc[t] == pytest.approx(manual, rel=1e-15)

    def test_geometric_decay_closed_form(self):
        params, _ = self._battery()
        soc = simulate_state_of_charge(params, 100.0, [0.0] * 24, [0.0] * 24)
        assert soc[-1] == pytest.approx(100.0 * (1 - 4.168e-5) ** 24, rel=1e-12)


class TestCompressionFactor:
    def test_reference_pressure_gives_zero(self):
        params = CompressionParams(outlet_pressure_bar=30.0)
        assert pipeline_compression_factor(params) == 0.0

    def test_si_parameter_row_value(self):
        # independent evaluation via exp/log at high precision froze this value
        k = pipeline_compression_factor(CompressionParams())
        assert_allclose(k, 0.030817379739964508, rtol=1e-9)

    def test_doubling_efficiency_halves_k(self):
        base = pipeline_compression_factor(CompressionParams())
        double = pipeline_compression_factor(CompressionParams(efficiency=1.30))
        assert_allclose(base, 2.0 * double, rtol=1e-12)

    def test_pressure_below_reference_rejected(self):
        with pytest.raises(DataError):
            pipeline_compression_factor(CompressionParams(outlet_pressure_bar=10.0))


@pytest.fixture(scope="module")
def solved(mini):
    built = build_problem(mini, ObjectiveMode.min_cost())
    res = solve_lp(built.problem)
    assert res.status == OPTIMAL
    return built, res


class TestMiniatureSolve:
    """Ungated miniature system solves cleanly and satisfies all physics."""

    def test_residual_contract(self, solved):
        built, res = solved
        report = verify_solution(built.problem, res)
        assert report.ok(1e-7), vars(report)

    def test_balance_residuals_tiny(self, solved):
        built, res = solved
        ax = built.problem.a @ res.x
        for i, name in enumerate(built.problem.row_names):
            if name.startswith("balance["):
                rel = abs(ax[i] - built.problem.rhs[i]) / max(1.0, abs(built.problem.rhs[i]))
                assert rel <= 1e-9, name

    def test_branch_loss_conservation(self, solved, mini, index):
        built, res = solved
        for b in mini.branches:
            transfer = 1.0 - b.loss_factor_per_km * b.length_km
            roles = [("sent[fwd]", "recv[fwd]"), ("sent[rev]", "recv[rev]")] \
                if b.bidirectional else [("sent", "recv")]
            for sent_role, recv_role in roles:
                for t in range(mini.horizon.step_count):
                    sent = res.x[built.index.columns(b.id, sent_role)[t]]
                    recv = res.x[built.index.columns(b.id, recv_role)[t]]
                    assert recv == pytest.approx(transfer * sent, abs=1e-7)

    def test_storage_telescoping_identity(self, solved, mini):
        built, res = solved
        h = mini.horizon.hours_per_step
        for tech in mini.technologies:
            if tech.id not in ("batt1", "batt2", "cav1", "hydro1"):
                continue
            p = tech.performance
            decay = (1.0 - p.self_discharge) ** h
            steps = mini.horizon.step_count
            total = 0.0
            for t in range(steps):
                soc_prev = res.x[built.index.columns(tech.id, "soc")[(t - 1) % steps]]
                charge = res.x[built.index.columns(tech.id, "charge")[t]]
                discharge = res.x[built.index.columns(tech.id, "discharge")[t]]
                inflow = mini.hydro_inflows.get(tech.id, [0.0] * steps)[t]
                spill = (res.x[built.index.columns(tech.id, "spill")[t]]
                         if built.index.has(tech.id, "spill") else 0.0)
                total += (p.charge_efficiency * charge - discharge / p.discharge_efficiency
                          + inflow - spill - (1.0 - decay) * soc_prev)
            scale = max(1.0, sum(mini.hydro_inflows.get(tech.id, [1.0] * steps)))
            assert abs(total) / scale <= 1e-9, tech.id

    def test_conversion_ratio_exact(self, solved, mini):
        built, res = solved
        for tech_id in ("gas1", "elz1", "elz2", "fc1"):
            tech = mini.technology(tech_id)
            alpha = tech.performance.efficiency
            for t in range(mini.horizon.step_count):
                total_in = sum(
                    res.x[built.index.columns(tech_id, f"in[{c.value}]")[t]]
                    for c in tech.performance.input_carriers)
                out = res.x[built.index.columns(tech_id, "out")[t]]
                if total_in > 1e-9:
                    assert out / total_in == pytest.approx(alpha, rel=1e-9)

    def test_compression_electricity_proportional(self, solved, mini):
        built, res = solved
        gamma = mini.technology("cav1").performance.compression_electricity
        total_charge = sum(res.x[built.index.columns("cav1", "charge")[t]]
                           for t in range(mini.horizon.step_count))
        total_el = sum(res.x[built.index.columns("cav1", "compress_el")[t]]
                       for t in range(mini.horizon.step_count))
        assert total_el == pytest.approx(gamma * total_charge, abs=1e-9)
