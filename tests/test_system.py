"""System model: validation, variable indexing, miniature builder."""

import dataclasses
import math
import re

import pytest

from carrieropt.builder import build_problem
from carrieropt.costing import ObjectiveMode
from carrieropt.scenarios import ScenarioRunner, standard_scenario
from carrieropt.system import (
    CARRIERS,
    Carrier,
    CompressionParams,
    Conversion2Params,
    CostParams,
    EnergySystem,
    NetworkBranch,
    Node,
    StorageParams,
    StructureError,
    TechnologyInstance,
    TimeHorizon,
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

    @pytest.mark.parametrize("change, message", [
        ({"branch": "ac1", "length_km": math.nan}, "branch ac1: length_km must be finite"),
        ({"branch": "ac1", "loss_factor_per_km": math.nan},
         "branch ac1: loss_factor_per_km must be finite"),
        ({"branch": "ac1", "expandable": False, "max_capacity": math.nan},
         "branch ac1: max_capacity must be >= 0"),
        ({"technology": "gas1", "max_size": math.nan}, "technology gas1: max_size must be >= 0"),
    ], ids=["length", "loss", "fixed-max-capacity", "fixed-max-size"])
    def test_nan_fields_flagged_before_the_solve(self, mini, change, message):
        """NaN fails every comparison, so ``nan <= 0`` and ``nan * L >= 1``
        once let these through: the LP kernel then found NaN in its matrix,
        or the solve ran on without the limit."""
        change = dict(change)
        if "branch" in change:
            bad = _with_branch(mini, change.pop("branch"), **change)
        else:
            bad = _with_tech(mini, change.pop("technology"), **change)
        assert validate_system(bad) == [message]
        with pytest.raises(ValueError, match=f"^invalid system: {message}$"):
            ScenarioRunner(bad).run(standard_scenario("synergies"), ObjectiveMode.min_cost())


def _swap(entities, new):
    return tuple(new if e.id == new.id else e for e in entities)


def _with_tech(system, name, **changes):
    new = dataclasses.replace(system.technology(name), **changes)
    return dataclasses.replace(system, technologies=_swap(system.technologies, new))


def _with_branch(system, name, **changes):
    new = dataclasses.replace(system.branch(name), **changes)
    return dataclasses.replace(system, branches=_swap(system.branches, new))


# where an object of each class that declares domains sits in the miniature
# system: its messages' prefix, the object, and the system with it replaced
HOLDERS = {
    EnergySystem: ("", lambda s: s, lambda s, h: h),
    TimeHorizon: ("horizon: ", lambda s: s.horizon,
                  lambda s, h: dataclasses.replace(s, horizon=h)),
    Node: ("node n1: ", lambda s: s.node("n1"),
           lambda s, h: dataclasses.replace(s, nodes=_swap(s.nodes, h))),
    TechnologyInstance: ("technology gas1: ", lambda s: s.technology("gas1"),
                         lambda s, h: dataclasses.replace(
                             s, technologies=_swap(s.technologies, h))),
    CostParams: ("technology batt1: ", lambda s: s.technology("batt1").cost,
                 lambda s, h: _with_tech(s, "batt1", cost=h)),
    Conversion2Params: ("technology gas1: ", lambda s: s.technology("gas1").performance,
                        lambda s, h: _with_tech(s, "gas1", performance=h)),
    StorageParams: ("technology batt1: ", lambda s: s.technology("batt1").performance,
                    lambda s, h: _with_tech(s, "batt1", performance=h)),
    NetworkBranch: ("branch ac1: ", lambda s: s.branch("ac1"),
                    lambda s, h: dataclasses.replace(s, branches=_swap(s.branches, h))),
    CompressionParams: ("branch pp1: ", lambda s: s.branch("pp1").compression,
                        lambda s, h: _with_branch(s, "pp1", compression=h)),
}

DECLARED = [(cls, f) for cls in HOLDERS for f in dataclasses.fields(cls) if "domain" in f.metadata]


def _probes(domain) -> list[float]:
    """Each bound, the floats just either side of it, NaN and both infinities."""
    probes = [math.nan, math.inf, -math.inf]
    for bound in (domain.low, domain.high):
        probes += [bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
    return probes


def _inside(domain, value) -> bool:
    above = domain.low < value or (domain.low_closed and value == domain.low)
    below = value < domain.high or (domain.high_closed and value == domain.high)
    return above and below


class TestDeclaredDomains:
    """Every numeric field declares its domain once, and validation flags a
    value exactly when it lies outside that domain."""

    def test_every_numeric_field_declares_a_domain(self):
        series = {"renewable_profiles", "hydro_inflows"}  # per step, checked by hand
        undeclared = [f"{cls.__name__}.{f.name}" for cls in HOLDERS
                      for f in dataclasses.fields(cls)
                      if re.search(r"\b(float|int)\b", str(f.type))
                      and "domain" not in f.metadata and f.name not in series]
        assert undeclared == []

    @pytest.mark.parametrize("cls, declared", DECLARED,
                             ids=[f"{cls.__name__}.{f.name}" for cls, f in DECLARED])
    def test_one_message_exactly_outside_the_domain(self, mini, cls, declared):
        """At each bound, just inside and just outside it, NaN and +-inf, the
        field's own message appears once or not at all; messages of rules
        that relate it to other fields may come alongside."""
        where, get, put = HOLDERS[cls]
        holder = get(mini)
        domain = declared.metadata["domain"]
        label = declared.metadata["label"] or declared.name
        current = getattr(holder, declared.name)
        if declared.metadata["each"] and isinstance(current, tuple):
            label = label.format(1)
        elif declared.metadata["each"]:
            key = next(iter(current))
            label = label.format(*key if isinstance(key, tuple) else (key,))
        own = re.compile(re.escape(where + label) + r" must be (finite|[<>]=? \S+)$")
        for value in _probes(domain):
            if declared.metadata["each"] and isinstance(current, tuple):
                new = (value, *current[1:])
            elif declared.metadata["each"]:
                new = {**current, key: value}
            else:
                new = value
            messages = validate_system(put(mini, dataclasses.replace(
                holder, **{declared.name: new})))
            flagged = [m for m in messages if own.match(m)]
            assert len(flagged) == (0 if _inside(domain, value) else 1), (value, messages)


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
