"""System model: validation, variable indexing, miniature builder."""

import dataclasses
import math

import pytest

from carrieropt.builder import build_problem
from carrieropt.costing import ObjectiveMode
from carrieropt.system import (
    CARRIERS,
    Carrier,
    StructureError,
    TechnologyKind,
    VariableIndex,
    assemble_variable_index,
    build_miniature_system,
    node_carrier_participants,
    tech_flows,
    validate_system,
)


@pytest.fixture(scope="module")
def mini():
    return build_miniature_system(seed=0)


class TestValidation:
    def test_miniature_is_clean(self, mini):
        assert validate_system(mini) == []

    def test_loss_factor_violation_names_branch(self, mini):
        bad_branch = dataclasses.replace(mini.branches[0], loss_factor_per_km=0.5)
        bad = dataclasses.replace(mini, branches=(bad_branch,) + mini.branches[1:])
        messages = validate_system(bad)
        assert any("ac1" in m and "loss factor" in m for m in messages)

    def test_wrong_demand_length_names_series(self, mini):
        short = dataclasses.replace(mini.demands[0], values=(1.0, 2.0))
        bad = dataclasses.replace(mini, demands=(short,) + mini.demands[1:])
        messages = validate_system(bad)
        assert any("n1/electricity" in m and "expected 24" in m for m in messages)

    def test_existing_asset_with_capex_flagged(self, mini):
        gas = mini.technology("gas1")
        bad_gas = dataclasses.replace(gas, cost=dataclasses.replace(gas.cost,
                                                                    capex_per_size=5.0,
                                                                    lifetime=20.0))
        techs = tuple(bad_gas if t.id == "gas1" else t for t in mini.technologies)
        messages = validate_system(dataclasses.replace(mini, technologies=techs))
        assert any("gas1" in m and "capex" in m for m in messages)

    def test_expandable_needs_finite_max(self, mini):
        wind = mini.technology("wind1")
        bad_wind = dataclasses.replace(wind, max_size=math.inf)
        techs = tuple(bad_wind if t.id == "wind1" else t for t in mini.technologies)
        messages = validate_system(dataclasses.replace(mini, technologies=techs))
        assert any("wind1" in m and "finite max_size" in m for m in messages)

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_existing_size_flagged(self, mini, value):
        """An existing size or capacity enters every limit of its asset, so it
        must be finite even where the maximum may be infinite."""
        techs = tuple(dataclasses.replace(t, existing_size=value, max_size=math.inf)
                      if t.id == "nuc1" else t for t in mini.technologies)
        assert validate_system(dataclasses.replace(mini, technologies=techs)) == [
            "technology nuc1: existing_size must be finite"]
        branches = tuple(dataclasses.replace(b, expandable=False, existing_capacity=value,
                                             max_capacity=math.inf)
                         if b.id == "ac1" else b for b in mini.branches)
        bad = dataclasses.replace(mini, branches=branches)
        assert validate_system(bad) == ["branch ac1: existing_capacity must be finite"]
        with pytest.raises(StructureError, match="ac1: existing_capacity must be finite"):
            build_problem(bad, ObjectiveMode.min_cost())

    def test_outlet_pressure_below_reference_flagged(self, mini):
        pp1 = mini.branch("pp1")
        bad_pp1 = dataclasses.replace(pp1, compression=dataclasses.replace(
            pp1.compression, outlet_pressure_bar=10.0))
        branches = tuple(bad_pp1 if b.id == "pp1" else b for b in mini.branches)
        messages = validate_system(dataclasses.replace(mini, branches=branches))
        assert messages == ["branch pp1: outlet pressure below the reference pressure"]

    def test_series_on_the_wrong_kind_of_technology_flagged(self, mini):
        # neither series would enter the problem
        steps = mini.horizon.step_count
        bad = dataclasses.replace(
            mini, renewable_profiles={**mini.renewable_profiles, "nuc1": (1.0,) * steps},
            hydro_inflows={**mini.hydro_inflows, "batt1": (1.0,) * steps})
        assert validate_system(bad) == [
            "profile nuc1: technology is conversion1, not renewable",
            "inflow batt1: technology is storage1, not storage2_1"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("series, negative, message", [
        ("demand", "demand n1/electricity: negative values",
         "demand n1/electricity: step 1 must be finite"),
        ("profile", "technology wind1: profile has negative values",
         "technology wind1: profile: step 1 must be finite"),
        ("inflow", "technology hydro1: inflow has negative values",
         "technology hydro1: inflow: step 1 must be finite"),
    ])
    def test_non_finite_series_step_flagged(self, mini, series, negative, message, value):
        """A non-finite demand, profile or inflow step is a violation, and the
        builder refuses the system instead of dropping a limit or an equation."""
        def at_step_1(values):
            return (values[0], value, *values[2:])
        if series == "demand":
            changed = {"demands": tuple(
                dataclasses.replace(d, values=at_step_1(d.values))
                if (d.node, d.carrier) == ("n1", Carrier.ELECTRICITY) else d
                for d in mini.demands)}
        elif series == "profile":
            changed = {"renewable_profiles": {
                **mini.renewable_profiles, "wind1": at_step_1(mini.renewable_profiles["wind1"])}}
        else:
            changed = {"hydro_inflows": {
                **mini.hydro_inflows, "hydro1": at_step_1(mini.hydro_inflows["hydro1"])}}
        bad = dataclasses.replace(mini, **changed)
        flagged_negative = [negative] if negative and value < 0 else []
        assert validate_system(bad) == flagged_negative + [message]
        with pytest.raises(StructureError, match=message):
            build_problem(bad, ObjectiveMode.min_cost())


def count_variables_independently(system) -> int:
    """Counting oracle: per-entity closed-form variable counts."""
    steps = system.horizon.step_count
    participants = node_carrier_participants(system)
    total = 0
    for node in system.nodes:
        for carrier in CARRIERS:
            if (node.id, carrier) in participants and node.import_limit.get(carrier, 0) > 0:
                total += steps
    per_kind = {
        TechnologyKind.RENEWABLE: 1,
        TechnologyKind.CONVERSION1: 1,
        TechnologyKind.STORAGE1: 3,
        TechnologyKind.STORAGE2_1: 4,
        TechnologyKind.STORAGE2_2: 4,
    }
    for tech in system.technologies:
        if tech.kind == TechnologyKind.CONVERSION2:
            roles = len(tech.performance.input_carriers) + 1
        else:
            roles = per_kind[tech.kind]
        total += roles * steps + (1 if tech.expandable else 0)
    for branch in system.branches:
        if branch.bidirectional:
            total += 4 * steps
        else:
            total += (3 if branch.carrier == Carrier.HYDROGEN else 2) * steps
        if branch.expandable:
            total += 1  # size or blocks
            if branch.integer_block_mw is not None and (
                    branch.cost_poly[0] + branch.cost_poly[2] * branch.length_km) > 0:
                total += 1  # build indicator
            if branch.bidirectional:
                total += 1  # reverse size
    return total


def roles_of(index):
    """``(entity, role, per_step)`` of every role of ``index``, read from its
    names: a per-step column's name ends in ``[step]``."""
    roles = {}
    for name in index.names():
        entity, role = name.split(".", 1)
        base, _, step = role.rpartition("[")
        per_step = step[:-1].isdigit()
        roles[entity, base if per_step else role] = per_step
    return [(entity, role, per_step) for (entity, role), per_step in roles.items()]


class TestVariableIndex:
    def test_column_count_matches_counting_oracle(self, mini):
        index = assemble_variable_index(mini)
        assert len(index) == count_variables_independently(mini)

    def test_bijection_round_trip(self, mini):
        """The columns of every role, per-step or single, cover each column
        of the index exactly once."""
        index = assemble_variable_index(mini)
        cols = []
        for entity, role, per_step in roles_of(index):
            cols += index.columns(entity, role).tolist() if per_step else [
                index.column(entity, role)]
        assert sorted(cols) == list(range(len(index)))

    def test_roles_per_kind(self, mini):
        gas = mini.technology("gas1")
        assert [role for role, _, _ in tech_flows(gas)] == [
            "in[hydrogen]", "in[natural_gas]", "out"]
        cavern = mini.technology("cav1")
        assert [role for role, _, _ in tech_flows(cavern)] == [
            "charge", "discharge", "soc", "compress_el"]

    def test_names_match_roles(self, mini):
        index = assemble_variable_index(mini)
        assert index.names()[index.columns("wind1", "out")[3]] == "wind1.out[3]"
        assert index.names()[index.column("batt1", "size")] == "batt1.size"

    def test_names_line_up_with_column_and_columns(self, mini):
        """``names()`` reads ``entity.role[t]`` at ``columns(entity, role)[t]``
        and ``entity.role`` at ``column(entity, role)``."""
        index = assemble_variable_index(mini)
        names = index.names()
        assert len(names) == len(index)
        for entity, role, per_step in roles_of(index):
            if per_step:
                assert [names[c] for c in index.columns(entity, role)] == [
                    f"{entity}.{role}[{t}]" for t in range(mini.horizon.step_count)]
            else:
                assert names[index.column(entity, role)] == f"{entity}.{role}"

    def test_column_raises_on_a_per_step_role(self, mini):
        index = assemble_variable_index(mini)
        assert index.has("wind1", "out")
        with pytest.raises(StructureError, match="no single-column variable 'wind1.out'"):
            index.column("wind1", "out")

    def test_columns_raises_on_a_single_column_role(self, mini):
        index = assemble_variable_index(mini)
        assert index.has("batt1", "size")
        with pytest.raises(StructureError, match="no per-step variable 'batt1.size'"):
            index.columns("batt1", "size")

    def test_role_declared_per_step_and_single_is_a_duplicate(self):
        with pytest.raises(StructureError, match="duplicate variable keys"):
            VariableIndex(24, [("wind1", "out", True), ("wind1", "out", False)])
        with pytest.raises(StructureError, match="duplicate variable keys"):
            VariableIndex(24, [("batt1", "size", False), ("batt1", "size", True)])

    def test_gap_free_and_deterministic(self, mini):
        a = assemble_variable_index(mini)
        b = assemble_variable_index(build_miniature_system(seed=0))
        assert a.names() == b.names()

    def test_per_step_roles_are_contiguous(self, mini):
        """Each per-step role's columns are consecutive; names, ``has`` and
        ``size_columns`` agree with ``column`` and ``columns``."""
        index = assemble_variable_index(mini)
        steps = mini.horizon.step_count
        names = index.names()
        singles = {}
        for entity, role, per_step in roles_of(index):
            assert index.has(entity, role)
            if per_step:
                cols = index.columns(entity, role)
                first = names.index(f"{entity}.{role}[0]")
                assert cols.tolist() == list(range(first, first + steps))
            else:
                singles[f"{entity}.{role}"] = index.column(entity, role)
        assert index.size_columns() == singles
        assert not index.has("wind1", "spill") and not index.has("nowhere", "out")
        with pytest.raises(StructureError, match="no per-step variable 'wind1.spill'"):
            index.columns("wind1", "spill")


class TestMiniature:
    def test_contract_topology(self, mini):
        kinds = {t.id: t.kind for t in mini.technologies}
        assert kinds["gas1"] == TechnologyKind.CONVERSION2
        assert kinds["wind1"] == TechnologyKind.RENEWABLE
        assert kinds["batt1"] == TechnologyKind.STORAGE1
        assert kinds["hydro1"] == TechnologyKind.STORAGE2_1
        assert kinds["cav1"] == TechnologyKind.STORAGE2_2
        onshore = [n for n in mini.nodes if not n.offshore]
        offshore = [n for n in mini.nodes if n.offshore]
        assert len(onshore) == 3 and len(offshore) == 1
        assert {b.network_kind for b in mini.branches} >= {
            "electricity_ac", "electricity_dc", "pipeline_onshore_repurposed"}
        pipes = [b for b in mini.branches if b.is_pipeline]
        assert {(p.from_node, p.to_node) for p in pipes} == {("n1", "n2"), ("n2", "n1")}
        assert 24 <= mini.horizon.step_count <= 168

    def test_determinism_in_seed(self):
        assert build_miniature_system(seed=0) == build_miniature_system(seed=0)

    def test_seed_changes_series_not_topology(self, mini):
        other = build_miniature_system(seed=1)
        assert other.demands[0].values != mini.demands[0].values
        assert [b.id for b in other.branches] == [b.id for b in mini.branches]
        assert [t.id for t in other.technologies] == [t.id for t in mini.technologies]
        assert other.nodes == mini.nodes

    def test_representative_year(self, mini):
        assert mini.horizon.hours_total == pytest.approx(8760.0)
