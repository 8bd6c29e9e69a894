"""Scenario gates, runs, emission-cap sweeps and reported metrics.

A scenario is a set of booleans saying which asset classes may expand:
grid corridors by location and border crossing, batteries by location (with
a fixed energy cap per offshore node and a configurable power-to-energy
ratio), and the hydrogen chain (electrolysis by location, storage, fuel
cells, pipelines). Renewables expand only in the medium-term variants.
Applying a scenario clears the ``expandable`` flag (and the then-inert
capex) on everything the scenario disallows, so gated entities cannot
receive size variables at all.

Hydrogen admixture into gas plants is available whenever the scenario
enables electrolysis somewhere; without carbon-free production the admix
input is removed so that reference runs stay pure dispatch problems.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from typing import Iterable, Mapping

from .builder import BuiltProblem, build_problem
from .costing import (
    CostBreakdown,
    EmissionsReport,
    ObjectiveMode,
    cost_breakdown,
    total_emissions,
)
from .lp import (
    INFEASIBLE,
    OPTIMAL,
    Basis,
    SolveResult,
    WarmStartError,
    map_basis,
    solve_milp,
    warm_start_solve,
)
from .lp import solve_lp  # unused here; perfbench/tracing.py wraps this module attribute
from .system import (
    Carrier,
    EnergySystem,
    TechnologyInstance,
    TechnologyKind,
    is_electrolyzer,
    is_fuel_cell,
    is_gas_plant,
    output_role,
    validate_system,
)


# energy cap on new battery storage per offshore node, in every scenario
OFFSHORE_STORAGE_CAP_MWH = 140_000.0


@dataclass(frozen=True)
class ScenarioSpec:
    id: str
    grid_onshore: bool = False
    grid_offshore: bool = False
    grid_cross_border: bool = False
    storage_onshore: bool = False
    storage_offshore: bool = False
    storage_power_to_energy: float = 0.333
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


# the scenarios whose min-cost outcome starts a run that has no basis of its own
_ROOT_IDS = ("reference", "reference-2040")


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
                             min(new.max_size, OFFSHORE_STORAGE_CAP_MWH))
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
        return {name: float(self.result.x[col])
                for name, col in self.built.index.size_columns().items()}


def _solve(built: BuiltProblem, scenario: ScenarioSpec,
           warm_from: Mapping[str, float] | None = None,
           start: Basis | None = None) -> ScenarioOutcome | None:
    """Solve and post-process ``built``, one scenario's problem in one mode.

    The solve starts cold, from a ``start`` basis of an earlier solve, or
    follows :func:`carrieropt.lp.warm_start_solve` from the sizes ``warm_from``
    names (other names are ignored); ``solver`` counts the work of every stage.
    Returns None when an emission cap makes the problem infeasible.
    """
    gated, mode = built.system, built.mode
    if warm_from is None:
        stages = [solve_milp(built.problem, start=start)]
    else:
        sizes = built.index.size_columns()
        prior = {name: value for name, value in warm_from.items() if name in sizes}
        new_sizes = [name for name in sizes if name not in prior]
        stages = warm_start_solve(built.problem, prior, new_sizes)
    result = stages[-1]
    if result.status != OPTIMAL:
        if result.status == INFEASIBLE and mode.kind == "min_cost_with_cap":
            return None
        raise RuntimeError(f"scenario {scenario.id} ({mode.label()}):"
                           f" solver returned {result.status}")
    emissions = total_emissions(built.table, result.x)
    costs = cost_breakdown(built.table, result.x)
    solver = {"iterations": sum(stage.iterations for stage in stages),
              "nodes": sum(stage.nodes for stage in stages),
              "bound_gap": result.bound_gap}
    if warm_from is not None or result.warm_started:
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
    """Runs the scenarios of one system, caching outcomes by (scenario id, mode).

    Each scenario is gated and built once per runner, and every run of it
    derives its problem from that build through :meth:`problem`: every mode
    solves the same matrix, with its own objective and the emission-cap
    row's rhs set to its cap (``+inf`` when it has none).

    A run that is not warm-started from sizes starts from the basis of, in
    this order (:meth:`_start`):

    1. the latest cached outcome of its scenario, in any mode, as is.
       Min-cost and min-emissions differ only in the objective, so whichever
       runs second reoptimizes from the first; along a cap sweep each cap
       reoptimizes from the one before, and the floor from the last feasible
       cap (presolve drops the lifted cap row, and with a binding cap one
       basic, which keeps the point);
    2. the first cached ``reference`` min-cost outcome (of either year),
       mapped onto the run's problem by column and row name
       (:func:`carrieropt.lp.map_basis`). Every standard scenario only
       relaxes reference's bounds, so that basis is a primal-feasible start;
       the cap row, free in reference's min-cost problem, gets a basic slack;
    3. the crash basis, cold.

    The floor reported for an infeasible cap is the scenario's cached
    min-emissions outcome, so it is solved at most once per runner, by the
    same rule. Once it is cached, a cap below ``floor * (1 - 1e-9)`` is
    reported infeasible without deriving or solving a problem; caps between
    that and the floor are solved.

    So an outcome's ``solver`` counters depend on which runs this runner
    made before it, and in which order; a min-emissions outcome's costs,
    capacities and metrics may too, and so may a min-cost outcome's metrics
    and capacities, as they come from whichever optimal vertex the solve
    reaches. ``objective`` and ``costs.total`` of a min-cost outcome do not.
    Threads may share a runner as long as each runs only scenarios no other
    thread runs, after every ``reference`` run they rely on is cached: a run
    writes only its own scenario's cache and build entries.
    """

    def __init__(self, system: EnergySystem):
        violations = validate_system(system)
        if violations:
            raise ValueError("invalid system: " + "; ".join(violations[:5]))
        self.system = system
        self._built: dict[str, BuiltProblem] = {}
        self._cache: dict[tuple[str, str], ScenarioOutcome] = {}

    def problem(self, scenario: ScenarioSpec, mode: ObjectiveMode) -> BuiltProblem:
        """The problem every run of ``scenario`` in ``mode`` solves, derived
        from the scenario's build; the first call gates and builds it."""
        if scenario.id not in self._built:
            gated = apply_scenario(self.system, scenario)
            self._built[scenario.id] = build_problem(gated, ObjectiveMode.min_cost())
        return self._built[scenario.id].for_mode(mode)

    def _start(self, scenario: ScenarioSpec, problem: BuiltProblem) -> Basis | None:
        """The basis a run of ``problem`` starts from, by the class's rule."""
        outcomes = list(self._cache.values())  # a snapshot: other threads may add to it
        latest = next((o for o in reversed(outcomes) if o.scenario_id == scenario.id), None)
        if latest is not None:
            return latest.result.basis
        for outcome in outcomes:
            if outcome.scenario_id in _ROOT_IDS and outcome.mode.kind == "min_cost":
                return map_basis(outcome.result.basis, outcome.built.problem, problem.problem)
        return None

    def run(self, scenario: ScenarioSpec, mode: ObjectiveMode,
            warm_from: Mapping[str, float] | None = None) -> ScenarioOutcome:
        """Solve and post-process one scenario/mode combination, or return
        this runner's cached outcome of it; the scenario is gated and built on
        its first run.

        ``warm_from`` maps size-column names to values, usually a prior
        outcome's :meth:`ScenarioOutcome.size_values`. The solve then follows
        :func:`carrieropt.lp.warm_start_solve` from the sizes this problem
        has (its other sizes start at zero; names that are not sizes of this
        problem are ignored), the outcome's ``solver`` block records
        ``"warm_start": True`` and counts the work of every stage, and the
        run neither reads nor fills the outcome cache.

        Raises :class:`InfeasibleCapError` for caps below the achievable
        minimum (reporting that minimum), with or without ``warm_from``, and
        ``RuntimeError`` for any other non-optimal solver outcome, including
        a :class:`carrieropt.lp.WarmStartError` when a reachable cap makes
        the fixing infeasible.
        """
        if warm_from is None:
            return self._outcome(scenario, mode)
        try:
            return _solve(self.problem(scenario, mode), scenario, warm_from=warm_from)
        except WarmStartError:
            if mode.kind == "min_cost_with_cap":
                # no fixing is feasible under an unreachable cap: the cold
                # (cached) run raises InfeasibleCapError then, and returns otherwise
                self._outcome(scenario, mode)
            raise

    def _outcome(self, scenario: ScenarioSpec, mode: ObjectiveMode) -> ScenarioOutcome:
        """:meth:`run`; the floor recurses here, so one ``run`` call is one outcome."""
        key = (scenario.id, mode.label())
        if key in self._cache:
            return self._cache[key]
        floor = self._cache.get((scenario.id, ObjectiveMode.min_emissions().label()))
        # a cap below the known floor by more than round-off needs no solve
        if (floor is not None and mode.kind == "min_cost_with_cap"
                and mode.emission_cap < floor.objective * (1.0 - 1e-9)):
            raise InfeasibleCapError(mode.emission_cap, floor.objective)
        built = self.problem(scenario, mode)
        outcome = _solve(built, scenario, start=self._start(scenario, built))
        if outcome is None:
            floor = self._outcome(scenario, ObjectiveMode.min_emissions())
            raise InfeasibleCapError(mode.emission_cap, floor.objective)
        self._cache[key] = outcome
        return outcome


def abatement_sweep(system: EnergySystem, scenario: ScenarioSpec,
                    targets: Iterable[float],
                    runner: ScenarioRunner | None = None) -> list[dict]:
    """Cost-minimal points under emission caps tightened from the reference.

    For each reduction fraction f the cap is (1-f) times the reference
    emissions; the abatement cost is the extra cost per ton avoided relative
    to the reference outcome. Unreachable targets are reported infeasible
    with the achievable minimum attached rather than raising.
    """
    runner = runner or ScenarioRunner(system)
    ref = runner.run(standard_scenario("reference"), ObjectiveMode.min_cost())
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


def _sum_role(index, x, entity: str, role: str) -> float:
    """The role's values added step by step (not pairwise); 0 without the role.
    ``reduce`` rather than ``sum``, which adds Python floats with compensation
    from Python 3.12 on."""
    if not index.has(entity, role):
        return 0.0
    return float(reduce(add, x[index.columns(entity, role)].tolist(), 0))


def compute_metrics(system: EnergySystem, index, x) -> dict:
    """Shares, capacity factors and hydrogen accounting from raw flows."""
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
        produced = _sum_role(index, x, tech.id, output_role(tech))
        if tech.kind == TechnologyKind.RENEWABLE:
            scale = (sizes[tech.id] / tech.existing_size if tech.existing_size > 0
                     else sizes[tech.id])
            available_renewable += scale * sum(system.renewable_profiles[tech.id])
            dispatched_renewable += produced
            bump(country, "renewable", produced)
        elif tech.kind == TechnologyKind.CONVERSION1:
            bump(country, "conversion", produced)
        elif tech.kind == TechnologyKind.CONVERSION2:
            if tech.performance.output_carrier == Carrier.ELECTRICITY:
                bump(country, "conversion", produced)
        elif tech.performance.carrier == Carrier.ELECTRICITY:
            bump(country, "storage_discharge", produced)
        if sizes[tech.id] > 1e-9:
            capacity_factors[tech.id] = produced / (sizes[tech.id] * hours)

    total_import = 0.0
    for node in system.nodes:
        role = f"imp[{Carrier.ELECTRICITY.value}]"
        if index.has(node.id, role):
            value = _sum_role(index, x, node.id, role)
            bump(countries[node.id], "import", value)
            total_import += value

    for branch in system.branches:
        if branch.carrier != Carrier.ELECTRICITY:
            continue
        from_country = countries[branch.from_node]
        to_country = countries[branch.to_node]
        if from_country == to_country:
            continue
        fwd = _sum_role(index, x, branch.id, "recv[fwd]")
        rev = _sum_role(index, x, branch.id, "recv[rev]")
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

    h2_produced = sum(_sum_role(index, x, t.id, "out")
                      for t in system.technologies if is_electrolyzer(t))
    h2_reconverted = sum(
        _sum_role(index, x, t.id, f"in[{Carrier.HYDROGEN.value}]")
        for t in system.technologies
        if t.kind == TechnologyKind.CONVERSION2
        and Carrier.HYDROGEN in t.performance.input_carriers)
    h2_blue = sum(_sum_role(index, x, n.id, f"imp[{Carrier.HYDROGEN.value}]")
                  for n in system.nodes)
    h2_transported = sum(_sum_role(index, x, b.id, "sent")
                         for b in system.branches if b.carrier == Carrier.HYDROGEN)
    h2_stored = sum(_sum_role(index, x, t.id, "charge")
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


_NEW_CAPACITY_MIN = 1e-6  # additions up to this size are not reported as new assets

_TECH_CATEGORY = {
    TechnologyKind.RENEWABLE: "renewable",
    TechnologyKind.CONVERSION1: "dispatchable",
    TechnologyKind.STORAGE1: "battery",
    TechnologyKind.STORAGE2_1: "hydro_storage",
    TechnologyKind.STORAGE2_2: "hydrogen_storage",
}


def new_capacity_table(system: EnergySystem, index, x) -> list[dict]:
    """New assets only, aggregated like the result tables: existing is not reported."""
    rows: list[dict] = []
    offshore_nodes = {n.id for n in system.nodes if n.offshore}
    for tech in sorted(system.technologies, key=lambda t: t.id):
        if not index.has(tech.id, "size"):
            continue
        added = float(x[index.column(tech.id, "size")])
        if added <= _NEW_CAPACITY_MIN:
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
        if added <= _NEW_CAPACITY_MIN:
            continue
        offshore = (branch.from_node in offshore_nodes
                    or branch.to_node in offshore_nodes)
        rows.append({"entity": branch.id, "category": branch.network_kind,
                     "location": "offshore" if offshore else "onshore",
                     "at": f"{branch.from_node}-{branch.to_node}", "added": added})
    return rows
