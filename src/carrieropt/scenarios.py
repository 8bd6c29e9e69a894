"""Scenario gates, runs, emission-cap sweeps and reported metrics.

A scenario is a set of booleans saying which asset classes may expand:
grid corridors by location and border crossing, batteries by location (with
an energy cap per offshore node and a configurable power-to-energy ratio),
and the hydrogen chain (electrolysis by location, storage, fuel cells,
pipelines). Renewables expand only in the medium-term variants. Applying a
scenario clears the ``expandable`` flag (and the then-inert capex) on
everything the scenario disallows, so gated entities cannot receive size
variables at all.

Hydrogen admixture into gas plants is available whenever the scenario
enables electrolysis somewhere; without carbon-free production the admix
input is removed so that reference runs stay pure dispatch problems.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from .builder import BuiltProblem, build_problem
from .costing import (
    CostBreakdown,
    EmissionsReport,
    ObjectiveMode,
    cost_breakdown,
    total_emissions,
)
from .lp import INFEASIBLE, OPTIMAL, SolveOptions, SolveResult, solve_milp, warm_start_solve
from .lp import solve_lp  # unused here; perfbench/tracing.py wraps this module attribute
from .system import (
    Carrier,
    EnergySystem,
    TechnologyInstance,
    TechnologyKind,
    is_electrolyzer,
    is_fuel_cell,
    is_gas_plant,
    validate_system,
)
from .system_io import system_digest


@dataclass(frozen=True)
class ScenarioSpec:
    id: str
    grid_onshore: bool = False
    grid_offshore: bool = False
    grid_cross_border: bool = False
    storage_onshore: bool = False
    storage_offshore: bool = False
    storage_power_to_energy: float = 0.333
    offshore_storage_cap_mwh: float = 140_000.0
    h2_electrolysis_onshore: bool = False
    h2_electrolysis_offshore: bool = False
    h2_storage: bool = False
    h2_fuel_cell: bool = False
    h2_pipelines: bool = False
    vres_expandable: bool = False

    @property
    def h2_production(self) -> bool:
        return self.h2_electrolysis_onshore or self.h2_electrolysis_offshore


_H2_FULL = dict(h2_electrolysis_onshore=True, h2_electrolysis_offshore=True,
                h2_storage=True, h2_fuel_cell=True, h2_pipelines=True)

_TABLE: dict[str, dict] = {
    "reference": {},
    "t-all": dict(grid_onshore=True, grid_offshore=True, grid_cross_border=True),
    "t-1": dict(grid_onshore=True, grid_cross_border=True),
    "t-2": dict(grid_offshore=True, grid_cross_border=True),
    "t-3": dict(grid_onshore=True, grid_offshore=True),
    "s-all": dict(storage_onshore=True, storage_offshore=True),
    "s-1": dict(storage_onshore=True),
    "s-2": dict(storage_offshore=True),
    "s-all-hpe": dict(storage_onshore=True, storage_offshore=True,
                      storage_power_to_energy=1.0),
    "h-all": dict(_H2_FULL),
    "h-1": dict(h2_electrolysis_onshore=True, h2_storage=True, h2_fuel_cell=True,
                h2_pipelines=True),
    "h-2": dict(h2_electrolysis_offshore=True, h2_storage=True, h2_fuel_cell=True,
                h2_pipelines=True),
    "h-3": dict(h2_electrolysis_onshore=True, h2_electrolysis_offshore=True,
                h2_fuel_cell=True, h2_pipelines=True),
    "h-4": dict(h2_electrolysis_onshore=True, h2_storage=True, h2_fuel_cell=True),
    "synergies": dict(grid_onshore=True, grid_offshore=True, grid_cross_border=True,
                      storage_onshore=True, storage_offshore=True, **_H2_FULL),
}

STANDARD_SCENARIO_IDS = tuple(_TABLE)


def standard_scenario(scenario_id: str, year: int = 2030) -> ScenarioSpec:
    """Named scenario rows; the 2040 variants additionally let renewables expand."""
    key = scenario_id.strip().lower().replace("_", "-")
    if key not in _TABLE:
        raise KeyError(f"unknown scenario {scenario_id!r};"
                       f" known: {', '.join(STANDARD_SCENARIO_IDS)}")
    if year not in (2030, 2040):
        raise ValueError("year must be 2030 or 2040")
    spec = ScenarioSpec(id=key, **_TABLE[key])
    if year == 2040:
        spec = replace(spec, id=f"{key}-2040", vres_expandable=True)
    return spec


def _strip_capex(tech: TechnologyInstance) -> TechnologyInstance:
    if tech.cost.capex_per_size == 0:
        return tech
    return replace(tech, cost=replace(tech.cost, capex_per_size=0.0))


def _tech_permitted(tech: TechnologyInstance, offshore: bool, spec: ScenarioSpec) -> bool:
    if tech.kind == TechnologyKind.RENEWABLE:
        return spec.vres_expandable
    if tech.kind == TechnologyKind.CONVERSION2:
        if is_electrolyzer(tech):
            return (spec.h2_electrolysis_offshore if offshore
                    else spec.h2_electrolysis_onshore)
        if is_fuel_cell(tech):
            return spec.h2_fuel_cell
        return False
    if tech.kind == TechnologyKind.STORAGE1:
        return spec.storage_offshore if offshore else spec.storage_onshore
    if tech.kind == TechnologyKind.STORAGE2_2:
        return spec.h2_storage
    return False  # conversion1 and hydro are part of the starting fleet only


def apply_scenario(system: EnergySystem, spec: ScenarioSpec) -> EnergySystem:
    """Return a copy of ``system`` with expansion gated per ``spec``."""
    offshore_nodes = {n.id for n in system.nodes if n.offshore}
    countries = {n.id: n.country for n in system.nodes}

    technologies = []
    for tech in system.technologies:
        offshore = tech.node in offshore_nodes
        new = tech
        if tech.expandable and not _tech_permitted(tech, offshore, spec):
            new = _strip_capex(replace(new, expandable=False))
        if new.expandable and tech.kind == TechnologyKind.STORAGE1:
            ratio = spec.storage_power_to_energy
            new = replace(new, performance=replace(
                new.performance, max_charge_rate=ratio, max_discharge_rate=ratio))
            if offshore:
                capped = max(new.existing_size,
                             min(new.max_size, spec.offshore_storage_cap_mwh))
                new = replace(new, max_size=capped)
        if is_gas_plant(tech) and not spec.h2_production:
            p = new.performance
            if Carrier.HYDROGEN in p.input_carriers:
                new = replace(new, performance=replace(
                    p,
                    input_carriers=tuple(c for c in p.input_carriers
                                         if c != Carrier.HYDROGEN),
                    admix_limits={c: s for c, s in p.admix_limits.items()
                                  if c != Carrier.HYDROGEN}))
        technologies.append(new)

    branches = []
    for branch in system.branches:
        new = branch
        if branch.expandable:
            if branch.carrier == Carrier.HYDROGEN:
                allowed = spec.h2_pipelines
            else:
                offshore = (branch.from_node in offshore_nodes
                            or branch.to_node in offshore_nodes)
                cross = countries[branch.from_node] != countries[branch.to_node]
                allowed = (spec.grid_offshore if offshore else spec.grid_onshore)
                if cross:
                    allowed = allowed and spec.grid_cross_border
            if not allowed:
                new = replace(new, expandable=False)
        branches.append(new)

    return dataclasses.replace(system, technologies=tuple(technologies),
                               branches=tuple(branches))


# -- outcomes ------------------------------------------------------------------


class InfeasibleCapError(RuntimeError):
    """The emission cap is below what the gated system can reach."""

    def __init__(self, cap: float, minimum_achievable: float):
        super().__init__(f"emission cap {cap:.6g} t below achievable minimum"
                         f" {minimum_achievable:.6g} t")
        self.cap = cap
        self.minimum_achievable = minimum_achievable


@dataclass
class ScenarioOutcome:
    scenario_id: str
    mode: ObjectiveMode
    status: str
    objective: float
    emissions: EmissionsReport
    costs: CostBreakdown
    metrics: dict
    new_capacities: list[dict]
    solver: dict
    built: BuiltProblem
    result: SolveResult

    def size_values(self) -> dict[str, float]:
        """Final size-variable values by column name (for warm starts)."""
        out = {}
        for col, key in enumerate(self.built.index.keys()):
            if key.step is None:
                out[key.name()] = float(self.result.x[col])
        return out


def run(system: EnergySystem, scenario: ScenarioSpec, mode: ObjectiveMode,
        options: SolveOptions | None = None,
        warm_from: Mapping[str, float] | None = None) -> ScenarioOutcome:
    """Gate, build, solve and post-process one scenario/mode combination.

    ``warm_from`` maps size-column names to values, usually a prior outcome's
    :meth:`ScenarioOutcome.size_values`. When given, the solve follows the
    three-stage protocol of :func:`carrieropt.lp.warm_start_solve`: the
    named sizes this problem has start fixed at their values, its other
    sizes start at zero, and the outcome's ``solver`` block records
    ``"warm_start": True``.

    Raises :class:`InfeasibleCapError` for caps below the achievable minimum
    (reporting that minimum), and ``RuntimeError`` for any other non-optimal
    solver outcome, including a :class:`carrieropt.lp.WarmStartError`.
    """
    options = options or SolveOptions()
    gated = apply_scenario(system, scenario)
    built = build_problem(gated, mode)
    if warm_from is None:
        result = solve_milp(built.problem, options)
    else:
        names = set(built.problem.col_names)
        prior = {name: value for name, value in warm_from.items() if name in names}
        new_sizes = [key.name() for key in built.index.keys()
                     if key.step is None and key.name() not in prior]
        result = warm_start_solve(built.problem, prior, new_sizes, options).final
    if result.status != OPTIMAL:
        if result.status == INFEASIBLE and mode.kind == "min_cost_with_cap":
            floor = run(system, scenario, ObjectiveMode.min_emissions(), options)
            raise InfeasibleCapError(mode.emission_cap, floor.objective)
        raise RuntimeError(f"scenario {scenario.id} ({mode.label()}):"
                           f" solver returned {result.status}")
    emissions = total_emissions(gated, built.index, result.x)
    costs = cost_breakdown(gated, built.index, result.x)
    solver = {"iterations": result.iterations, "nodes": result.nodes,
              "bound_gap": result.bound_gap}
    if warm_from is not None:
        solver["warm_start"] = True
    return ScenarioOutcome(
        scenario_id=scenario.id,
        mode=mode,
        status=result.status,
        objective=result.objective,
        emissions=emissions,
        costs=costs,
        metrics=compute_metrics(gated, built.index, result.x),
        new_capacities=new_capacity_table(gated, built.index, result.x),
        solver=solver,
        built=built,
        result=result,
    )


class ScenarioRunner:
    """Caches outcomes by (system digest, scenario id, mode) across calls."""

    def __init__(self, system: EnergySystem, options: SolveOptions | None = None):
        violations = validate_system(system)
        if violations:
            raise ValueError("invalid system: " + "; ".join(violations[:5]))
        self.system = system
        self.options = options or SolveOptions()
        self._digest = system_digest(system)
        self._cache: dict[tuple[str, str, str], ScenarioOutcome] = {}

    def run(self, scenario: ScenarioSpec, mode: ObjectiveMode) -> ScenarioOutcome:
        key = (self._digest, scenario.id, mode.label())
        if key not in self._cache:
            self._cache[key] = run(self.system, scenario, mode, self.options)
        return self._cache[key]


def abatement_sweep(system: EnergySystem, scenario: ScenarioSpec,
                    targets: Iterable[float],
                    runner: ScenarioRunner | None = None,
                    reference: ScenarioSpec | None = None) -> list[dict]:
    """Cost-minimal points under emission caps tightened from the reference.

    For each reduction fraction f the cap is (1-f) times the reference
    emissions; the abatement cost is the extra cost per ton avoided relative
    to the reference outcome. Unreachable targets are reported infeasible
    with the achievable minimum attached rather than raising.
    """
    runner = runner or ScenarioRunner(system)
    reference = reference or standard_scenario("reference")
    ref = runner.run(reference, ObjectiveMode.min_cost())
    e_ref = ref.emissions.total
    c_ref = ref.costs.total
    if e_ref <= 0:
        raise ValueError("reference emissions are zero; an abatement sweep"
                         " is undefined")
    rows: list[dict] = []
    for fraction in targets:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"reduction fraction {fraction} outside [0, 1]")
        cap = (1.0 - fraction) * e_ref
        try:
            outcome = runner.run(scenario, ObjectiveMode.min_cost_with_cap(cap))
        except InfeasibleCapError as err:
            rows.append({"fraction": fraction, "cap": cap, "feasible": False,
                         "cost": None, "emissions": None, "abatement_cost": None,
                         "minimum_achievable": err.minimum_achievable})
            continue
        avoided = e_ref - outcome.emissions.total
        abatement = ((outcome.costs.total - c_ref) / avoided
                     if avoided > 1e-9 else None)
        rows.append({"fraction": fraction, "cap": cap, "feasible": True,
                     "cost": outcome.costs.total,
                     "emissions": outcome.emissions.total,
                     "abatement_cost": abatement,
                     "minimum_achievable": None})
    return rows


# -- metrics -------------------------------------------------------------------


def _sum_role(index, x, entity: str, role: str, steps: int) -> float:
    if not index.has(entity, role, 0):
        return 0.0
    return float(sum(x[index.column(entity, role, t)] for t in range(steps)))


def compute_metrics(system: EnergySystem, index, x) -> dict:
    """Shares, capacity factors and hydrogen accounting from raw flows."""
    steps = system.horizon.step_count
    hours = system.horizon.hours_total
    countries = {n.id: n.country for n in system.nodes}

    sizes: dict[str, float] = {}
    for tech in system.technologies:
        delta = (float(x[index.column(tech.id, "size")])
                 if index.has(tech.id, "size") else 0.0)
        sizes[tech.id] = tech.existing_size + delta

    supply: dict[str, dict[str, float]] = {}

    def bump(country: str, component: str, value: float) -> None:
        supply.setdefault(country, {}).setdefault(component, 0.0)
        supply[country][component] += value

    available_renewable = 0.0
    dispatched_renewable = 0.0
    capacity_factors: dict[str, float] = {}
    for tech in system.technologies:
        country = countries[tech.node]
        out = _sum_role(index, x, tech.id, "out", steps)
        if tech.kind == TechnologyKind.RENEWABLE:
            scale = (sizes[tech.id] / tech.existing_size if tech.existing_size > 0
                     else sizes[tech.id])
            available_renewable += scale * sum(system.renewable_profiles[tech.id])
            dispatched_renewable += out
            bump(country, "renewable", out)
        elif tech.kind == TechnologyKind.CONVERSION1:
            bump(country, "conversion", out)
        elif tech.kind == TechnologyKind.CONVERSION2:
            if tech.performance.output_carrier == Carrier.ELECTRICITY:
                bump(country, "conversion", out)
        else:
            if tech.performance.carrier == Carrier.ELECTRICITY:
                bump(country, "storage_discharge",
                     _sum_role(index, x, tech.id, "discharge", steps))
        if sizes[tech.id] > 1e-9 and tech.kind != TechnologyKind.RENEWABLE:
            reference_role = ("discharge" if tech.kind in (
                TechnologyKind.STORAGE1, TechnologyKind.STORAGE2_1,
                TechnologyKind.STORAGE2_2) else "out")
            produced = _sum_role(index, x, tech.id, reference_role, steps)
            capacity_factors[tech.id] = produced / (sizes[tech.id] * hours)
        elif tech.kind == TechnologyKind.RENEWABLE and sizes[tech.id] > 1e-9:
            capacity_factors[tech.id] = out / (sizes[tech.id] * hours)

    total_import = 0.0
    for node in system.nodes:
        role = f"imp[{Carrier.ELECTRICITY.value}]"
        if index.has(node.id, role, 0):
            value = _sum_role(index, x, node.id, role, steps)
            bump(countries[node.id], "import", value)
            total_import += value

    for branch in system.branches:
        if branch.carrier != Carrier.ELECTRICITY:
            continue
        from_country = countries[branch.from_node]
        to_country = countries[branch.to_node]
        if from_country == to_country:
            continue
        fwd = _sum_role(index, x, branch.id, "recv[fwd]", steps)
        rev = _sum_role(index, x, branch.id, "recv[rev]", steps)
        bump(to_country, "transfer_in", fwd)
        bump(from_country, "transfer_in", rev)

    shares = {}
    renewable_total = 0.0
    supply_total = 0.0
    for country, parts in sorted(supply.items()):
        total = sum(parts.values())
        shares[country] = ({c: v / total for c, v in sorted(parts.items())}
                           if total > 0 else {})
        renewable_total += parts.get("renewable", 0.0)
        supply_total += total

    h2_produced = sum(_sum_role(index, x, t.id, "out", steps)
                      for t in system.technologies if is_electrolyzer(t))
    h2_reconverted = sum(
        _sum_role(index, x, t.id, f"in[{Carrier.HYDROGEN.value}]", steps)
        for t in system.technologies
        if t.kind == TechnologyKind.CONVERSION2
        and Carrier.HYDROGEN in t.performance.input_carriers)
    h2_blue = sum(_sum_role(index, x, n.id, f"imp[{Carrier.HYDROGEN.value}]", steps)
                  for n in system.nodes)
    h2_transported = sum(_sum_role(index, x, b.id, "sent", steps)
                         for b in system.branches if b.carrier == Carrier.HYDROGEN)
    h2_stored = sum(_sum_role(index, x, t.id, "charge", steps)
                    for t in system.technologies
                    if t.kind == TechnologyKind.STORAGE2_2)

    return {
        "renewable_share_total": (renewable_total / supply_total
                                  if supply_total > 0 else 0.0),
        "renewable_share_by_country": {c: parts.get("renewable", 0.0)
                                       for c, parts in shares.items()},
        "supply_shares_by_country": shares,
        "curtailment_share": (1.0 - dispatched_renewable / available_renewable
                              if available_renewable > 0 else 0.0),
        "capacity_factors": dict(sorted(capacity_factors.items())),
        "import_share": total_import / supply_total if supply_total > 0 else 0.0,
        "hydrogen": {
            "produced": h2_produced,
            "blue_import": h2_blue,
            "reconverted": h2_reconverted,
            "stored": h2_stored,
            "transported": h2_transported,
        },
    }


_TECH_CATEGORY = {
    TechnologyKind.RENEWABLE: "renewable",
    TechnologyKind.CONVERSION1: "dispatchable",
    TechnologyKind.STORAGE1: "battery",
    TechnologyKind.STORAGE2_1: "hydro_storage",
    TechnologyKind.STORAGE2_2: "hydrogen_storage",
}


def new_capacity_table(system: EnergySystem, index, x,
                       threshold: float = 1e-6) -> list[dict]:
    """New assets only, aggregated like the result tables: existing is not reported."""
    rows: list[dict] = []
    offshore_nodes = {n.id for n in system.nodes if n.offshore}
    for tech in sorted(system.technologies, key=lambda t: t.id):
        if not index.has(tech.id, "size"):
            continue
        added = float(x[index.column(tech.id, "size")])
        if added <= threshold:
            continue
        if tech.kind == TechnologyKind.CONVERSION2:
            category = "electrolyzer" if is_electrolyzer(tech) else (
                "fuel_cell" if is_fuel_cell(tech) else "conversion")
        else:
            category = _TECH_CATEGORY[tech.kind]
        rows.append({"entity": tech.id, "category": category,
                     "location": ("offshore" if tech.node in offshore_nodes
                                  else "onshore"),
                     "at": tech.node, "added": added})
    for branch in sorted(system.branches, key=lambda b: b.id):
        if index.has(branch.id, "blocks"):
            added = float(x[index.column(branch.id, "blocks")]) * branch.integer_block_mw
        elif index.has(branch.id, "size"):
            added = float(x[index.column(branch.id, "size")])
        else:
            continue
        if added <= threshold:
            continue
        offshore = (branch.from_node in offshore_nodes
                    or branch.to_node in offshore_nodes)
        rows.append({"entity": branch.id, "category": branch.network_kind,
                     "location": "offshore" if offshore else "onshore",
                     "at": f"{branch.from_node}-{branch.to_node}", "added": added})
    return rows
