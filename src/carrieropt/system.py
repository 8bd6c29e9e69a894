"""Domain model: carriers, nodes, technologies, branches, whole systems.

Everything here is an immutable description of a system; no optimization
logic. The variable index defined at the bottom fixes the deterministic
column layout that the problem builder and all post-processing rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

import numpy as np


class Carrier(str, Enum):
    ELECTRICITY = "electricity"
    HYDROGEN = "hydrogen"
    NATURAL_GAS = "natural_gas"


CARRIERS = (Carrier.ELECTRICITY, Carrier.HYDROGEN, Carrier.NATURAL_GAS)

ONSHORE = "onshore"
OFFSHORE = "offshore"


class TechnologyKind(str, Enum):
    RENEWABLE = "renewable"
    CONVERSION1 = "conversion1"      # output only, fuel folded into variable opex
    CONVERSION2 = "conversion2"      # inputs -> single output at fixed efficiency
    STORAGE1 = "storage1"            # plain storage with losses over time
    STORAGE2_1 = "storage2_1"        # storage with exogenous inflow (hydro)
    STORAGE2_2 = "storage2_2"        # storage drawing electricity when charging


@dataclass(frozen=True)
class TimeHorizon:
    step_count: int
    hours_per_step: float = 1.0

    @property
    def hours_total(self) -> float:
        return self.step_count * self.hours_per_step


@dataclass(frozen=True)
class Node:
    id: str
    country: str
    location_kind: str
    import_limit: Mapping[Carrier, float] = field(default_factory=dict)
    import_price: Mapping[Carrier, float] = field(default_factory=dict)
    import_emission_factor: Mapping[Carrier, float] = field(default_factory=dict)

    @property
    def offshore(self) -> bool:
        return self.location_kind == OFFSHORE


@dataclass(frozen=True)
class DemandSeries:
    node: str
    carrier: Carrier
    values: tuple[float, ...]


@dataclass(frozen=True)
class CostParams:
    capex_per_size: float = 0.0      # kEUR per MW (or MWh for storage sizes)
    lifetime: float = 0.0            # years
    fixed_opex_share: float = 0.0    # fraction of annualized capex per year
    variable_opex: float = 0.0       # EUR per MWh of output
    discount_rate: float = 0.04


@dataclass(frozen=True)
class Conversion2Params:
    efficiency: float
    input_carriers: tuple[Carrier, ...]
    output_carrier: Carrier
    admix_limits: Mapping[Carrier, float] = field(default_factory=dict)


@dataclass(frozen=True)
class StorageParams:
    carrier: Carrier
    max_charge_rate: float           # per unit of size, per hour
    max_discharge_rate: float
    self_discharge: float = 0.0      # fraction of state of charge lost per hour
    charge_efficiency: float = 1.0
    discharge_efficiency: float = 1.0
    compression_electricity: float = 0.0  # MWh el per MWh charged (storage2_2)


@dataclass(frozen=True)
class TechnologyInstance:
    id: str
    node: str
    kind: TechnologyKind
    existing_size: float
    expandable: bool
    max_size: float
    performance: Conversion2Params | StorageParams | None
    emission_factors: Mapping[tuple[str, Carrier], float]
    cost: CostParams


@dataclass(frozen=True)
class CompressionParams:
    outlet_pressure_bar: float = 140.0
    specific_heat: float = 0.00398
    temperature_k: float = 300.0
    efficiency: float = 0.65
    heat_capacity_ratio: float = 1.405
    lower_heating_value: float = 33.32
    reference_pressure_bar: float = 30.0


NETWORK_KINDS = ("electricity_ac", "electricity_dc", "pipeline_offshore",
                 "pipeline_onshore_new", "pipeline_onshore_repurposed")


@dataclass(frozen=True)
class NetworkBranch:
    id: str
    network_kind: str
    carrier: Carrier
    from_node: str
    to_node: str
    length_km: float
    existing_capacity: float
    expandable: bool
    max_capacity: float
    loss_factor_per_km: float
    bidirectional: bool
    cost_poly: tuple[float, float, float, float]  # kEUR, kEUR/MW, kEUR/km, kEUR/(km*MW)
    fixed_opex_share: float = 0.0
    lifetime: float = 40.0
    variable_opex: float = 0.0
    discount_rate: float = 0.04
    integer_block_mw: float | None = None
    compression: CompressionParams | None = None

    @property
    def is_pipeline(self) -> bool:
        return self.network_kind.startswith("pipeline")


@dataclass(frozen=True)
class EnergySystem:
    horizon: TimeHorizon
    nodes: tuple[Node, ...]
    technologies: tuple[TechnologyInstance, ...]
    branches: tuple[NetworkBranch, ...]
    demands: tuple[DemandSeries, ...]
    carbon_price: float
    renewable_profiles: Mapping[str, tuple[float, ...]] = field(default_factory=dict)
    hydro_inflows: Mapping[str, tuple[float, ...]] = field(default_factory=dict)

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(f"unknown node {node_id!r}")

    def technology(self, tech_id: str) -> TechnologyInstance:
        for t in self.technologies:
            if t.id == tech_id:
                return t
        raise KeyError(f"unknown technology {tech_id!r}")

    def branch(self, branch_id: str) -> NetworkBranch:
        for b in self.branches:
            if b.id == branch_id:
                return b
        raise KeyError(f"unknown branch {branch_id!r}")


# -- technology classification -----------------------------------------------

def is_electrolyzer(tech: TechnologyInstance) -> bool:
    return (tech.kind == TechnologyKind.CONVERSION2
            and tech.performance.output_carrier == Carrier.HYDROGEN)


def is_fuel_cell(tech: TechnologyInstance) -> bool:
    return (tech.kind == TechnologyKind.CONVERSION2
            and tech.performance.output_carrier == Carrier.ELECTRICITY
            and tuple(tech.performance.input_carriers) == (Carrier.HYDROGEN,))


def is_gas_plant(tech: TechnologyInstance) -> bool:
    return (tech.kind == TechnologyKind.CONVERSION2
            and tech.performance.output_carrier == Carrier.ELECTRICITY
            and Carrier.NATURAL_GAS in tech.performance.input_carriers)


# -- validation ----------------------------------------------------------------

def validate_system(system: EnergySystem) -> list[str]:
    """Check every structural invariant; return one message per violation.

    Violations are data, not exceptions: an empty list means the system is
    well formed and safe to hand to the problem builder.
    """
    out: list[str] = []
    steps = system.horizon.step_count
    if steps < 1:
        out.append("horizon: step_count must be >= 1")
    if system.horizon.hours_per_step <= 0:
        out.append("horizon: hours_per_step must be positive")
    if system.carbon_price < 0:
        out.append("carbon_price must be nonnegative")

    node_ids = [n.id for n in system.nodes]
    if len(set(node_ids)) != len(node_ids):
        out.append("nodes: duplicate ids")
    known_nodes = set(node_ids)
    for n in system.nodes:
        if n.location_kind not in (ONSHORE, OFFSHORE):
            out.append(f"node {n.id}: location_kind must be onshore or offshore")
        for carrier, limit in n.import_limit.items():
            if limit < 0:
                out.append(f"node {n.id}: import limit for {carrier.value} is negative")
        ng = n.import_limit.get(Carrier.NATURAL_GAS, 0.0)
        if 0.0 < ng < math.inf:
            out.append(f"node {n.id}: natural-gas import is either closed (0) or unbounded")

    seen_demand = set()
    for d in system.demands:
        key = (d.node, d.carrier)
        if key in seen_demand:
            out.append(f"demand {d.node}/{d.carrier.value}: duplicate series")
        seen_demand.add(key)
        if d.node not in known_nodes:
            out.append(f"demand {d.node}/{d.carrier.value}: unknown node")
        if len(d.values) != steps:
            out.append(f"demand {d.node}/{d.carrier.value}: length {len(d.values)},"
                       f" expected {steps}")
        if any(v < 0 for v in d.values):
            out.append(f"demand {d.node}/{d.carrier.value}: negative values")

    tech_ids = [t.id for t in system.technologies]
    if len(set(tech_ids)) != len(tech_ids):
        out.append("technologies: duplicate ids")
    for t in system.technologies:
        pre = f"technology {t.id}"
        if t.node not in known_nodes:
            out.append(f"{pre}: unknown node {t.node}")
        if t.existing_size < 0:
            out.append(f"{pre}: existing_size must be >= 0")
        if t.max_size < t.existing_size:
            out.append(f"{pre}: max_size below existing_size")
        if t.expandable and not math.isfinite(t.max_size):
            out.append(f"{pre}: expandable technologies need a finite max_size")
        if t.existing_size > 0 and not t.expandable and t.cost.capex_per_size != 0:
            out.append(f"{pre}: existing assets carry no capex")
        if t.cost.capex_per_size > 0 and t.cost.lifetime <= 0:
            out.append(f"{pre}: lifetime must be positive when capex is set")
        if not 0 <= t.cost.fixed_opex_share <= 1:
            out.append(f"{pre}: fixed_opex_share outside [0, 1]")
        if t.kind == TechnologyKind.RENEWABLE:
            profile = system.renewable_profiles.get(t.id)
            if profile is None:
                out.append(f"{pre}: renewable without a profile")
            elif len(profile) != steps:
                out.append(f"{pre}: profile length {len(profile)}, expected {steps}")
            elif any(v < 0 for v in profile):
                out.append(f"{pre}: profile has negative values")
        elif t.kind == TechnologyKind.CONVERSION2:
            p = t.performance
            if not isinstance(p, Conversion2Params):
                out.append(f"{pre}: conversion2 requires Conversion2Params")
            else:
                if not 0 < p.efficiency <= 1:
                    out.append(f"{pre}: efficiency outside (0, 1]")
                if p.output_carrier in p.input_carriers:
                    out.append(f"{pre}: output carrier listed among inputs")
                if not p.input_carriers:
                    out.append(f"{pre}: conversion2 needs at least one input carrier")
                for carrier, share in p.admix_limits.items():
                    if carrier not in p.input_carriers:
                        out.append(f"{pre}: admix limit on non-input {carrier.value}")
                    if not 0 <= share <= 1:
                        out.append(f"{pre}: admix share outside [0, 1]")
        elif t.kind in (TechnologyKind.STORAGE1, TechnologyKind.STORAGE2_1,
                        TechnologyKind.STORAGE2_2):
            p = t.performance
            if not isinstance(p, StorageParams):
                out.append(f"{pre}: storage requires StorageParams")
            else:
                if p.max_charge_rate <= 0 or p.max_discharge_rate <= 0:
                    out.append(f"{pre}: storage rates must be positive")
                if not 0 < p.charge_efficiency <= 1 or not 0 < p.discharge_efficiency <= 1:
                    out.append(f"{pre}: storage efficiencies outside (0, 1]")
                if not 0 <= p.self_discharge < 1:
                    out.append(f"{pre}: self_discharge outside [0, 1)")
                if p.compression_electricity < 0:
                    out.append(f"{pre}: compression electricity must be >= 0")
                if (p.compression_electricity > 0
                        and t.kind != TechnologyKind.STORAGE2_2):
                    out.append(f"{pre}: only storage2_2 draws compression electricity")
            if t.kind == TechnologyKind.STORAGE2_1:
                inflow = system.hydro_inflows.get(t.id)
                if inflow is None:
                    out.append(f"{pre}: storage2_1 without an inflow series")
                elif len(inflow) != steps:
                    out.append(f"{pre}: inflow length {len(inflow)}, expected {steps}")

    for name in system.renewable_profiles:
        if name not in set(tech_ids):
            out.append(f"profile {name}: unknown technology")
    for name in system.hydro_inflows:
        if name not in set(tech_ids):
            out.append(f"inflow {name}: unknown technology")

    branch_ids = [b.id for b in system.branches]
    if len(set(branch_ids)) != len(branch_ids):
        out.append("branches: duplicate ids")
    for b in system.branches:
        pre = f"branch {b.id}"
        if b.network_kind not in NETWORK_KINDS:
            out.append(f"{pre}: unknown network kind {b.network_kind}")
        if b.from_node not in known_nodes or b.to_node not in known_nodes:
            out.append(f"{pre}: unknown endpoint")
        if b.from_node == b.to_node:
            out.append(f"{pre}: loops are not allowed")
        if b.length_km <= 0:
            out.append(f"{pre}: length must be positive")
        if b.loss_factor_per_km * b.length_km >= 1:
            out.append(f"{pre}: loss factor times length must stay below 1")
        if b.existing_capacity < 0:
            out.append(f"{pre}: existing capacity must be >= 0")
        if b.max_capacity < b.existing_capacity:
            out.append(f"{pre}: max_capacity below existing capacity")
        if b.expandable and not math.isfinite(b.max_capacity):
            out.append(f"{pre}: expandable branches need a finite max_capacity")
        if b.is_pipeline:
            if b.bidirectional:
                out.append(f"{pre}: pipelines are unidirectional, pair them per direction")
            if b.carrier != Carrier.HYDROGEN:
                out.append(f"{pre}: pipeline kinds carry hydrogen")
            if b.compression is None:
                out.append(f"{pre}: hydrogen pipelines need compression parameters")
        else:
            if not b.bidirectional:
                out.append(f"{pre}: electricity branches are bidirectional")
            if b.carrier != Carrier.ELECTRICITY:
                out.append(f"{pre}: electricity kinds carry electricity")
            if b.compression is not None:
                out.append(f"{pre}: compression applies to pipelines only")
        if b.integer_block_mw is not None and b.integer_block_mw <= 0:
            out.append(f"{pre}: integer block size must be positive")
        if not 0 <= b.fixed_opex_share <= 1:
            out.append(f"{pre}: fixed_opex_share outside [0, 1]")
        if b.compression is not None:
            c = b.compression
            if min(c.outlet_pressure_bar, c.specific_heat, c.temperature_k,
                   c.efficiency, c.lower_heating_value, c.reference_pressure_bar) <= 0:
                out.append(f"{pre}: compression parameters must be positive")
            if c.heat_capacity_ratio <= 1:
                out.append(f"{pre}: heat capacity ratio must exceed 1")
    return out


# -- balance participation ------------------------------------------------------

def node_carrier_participants(system: EnergySystem) -> dict[tuple[str, Carrier], bool]:
    """Which (node, carrier) slots interact with any demand, technology or branch.

    Only these slots receive a balance row and, when the node allows it, an
    import variable; everything else would reduce to ``0 == 0``.
    """
    active: set[tuple[str, Carrier]] = set()
    for d in system.demands:
        active.add((d.node, d.carrier))
    for t in system.technologies:
        if t.kind in (TechnologyKind.RENEWABLE, TechnologyKind.CONVERSION1):
            active.add((t.node, Carrier.ELECTRICITY))
        elif t.kind == TechnologyKind.CONVERSION2:
            active.add((t.node, t.performance.output_carrier))
            for carrier in t.performance.input_carriers:
                active.add((t.node, carrier))
        else:
            active.add((t.node, t.performance.carrier))
            if t.kind == TechnologyKind.STORAGE2_2:
                active.add((t.node, Carrier.ELECTRICITY))
    for b in system.branches:
        active.add((b.from_node, b.carrier))
        active.add((b.to_node, b.carrier))
        if b.is_pipeline:
            active.add((b.from_node, Carrier.ELECTRICITY))
    return {key: True for key in sorted(active, key=lambda k: (k[0], k[1].value))}


# -- variable index --------------------------------------------------------------

@dataclass(frozen=True)
class VarKey:
    entity: str
    role: str
    step: int | None = None

    def name(self) -> str:
        if self.step is None:
            return f"{self.entity}.{self.role}"
        return f"{self.entity}.{self.role}[{self.step}]"


TECH_STEP_ROLES = {
    TechnologyKind.RENEWABLE: ("out",),
    TechnologyKind.CONVERSION1: ("out",),
    TechnologyKind.STORAGE1: ("charge", "discharge", "soc"),
    TechnologyKind.STORAGE2_1: ("charge", "discharge", "soc", "spill"),
    TechnologyKind.STORAGE2_2: ("charge", "discharge", "soc", "compress_el"),
}


def tech_step_roles(tech: TechnologyInstance) -> tuple[str, ...]:
    if tech.kind == TechnologyKind.CONVERSION2:
        inputs = tuple(f"in[{c.value}]" for c in CARRIERS
                       if c in tech.performance.input_carriers)
        return inputs + ("out",)
    return TECH_STEP_ROLES[tech.kind]


class StructureError(ValueError):
    """Unknown entity references or inconsistent index requests."""


class VariableIndex:
    """Deterministic, gap-free map (entity, role, step) <-> column index.

    Layout: per node (sorted by id) the import variables for participating
    carriers; per technology (sorted by id) the per-step roles then the size
    delta; per branch (sorted by id) the per-step flow roles then the size
    variables (a `blocks`/`build` pair when integer blocks are active).
    """

    def __init__(self, keys: Iterable[VarKey]):
        self._keys: list[VarKey] = list(keys)
        self._pos: dict[VarKey, int] = {k: i for i, k in enumerate(self._keys)}
        if len(self._pos) != len(self._keys):
            raise StructureError("duplicate variable keys")

    def __len__(self) -> int:
        return len(self._keys)

    def column(self, entity: str, role: str, step: int | None = None) -> int:
        key = VarKey(entity, role, step)
        try:
            return self._pos[key]
        except KeyError:
            raise StructureError(f"no variable {key.name()!r}") from None

    def has(self, entity: str, role: str, step: int | None = None) -> bool:
        return VarKey(entity, role, step) in self._pos

    def key(self, column: int) -> VarKey:
        return self._keys[column]

    def names(self) -> list[str]:
        return [k.name() for k in self._keys]

    def keys(self) -> list[VarKey]:
        return list(self._keys)


def assemble_variable_index(system: EnergySystem) -> VariableIndex:
    """Build the column registry for ``system``.

    Requires a system that passes :func:`validate_system`.
    """
    violations = validate_system(system)
    if violations:
        raise StructureError("invalid system: " + "; ".join(violations[:5]))

    steps = range(system.horizon.step_count)
    participants = node_carrier_participants(system)
    keys: list[VarKey] = []

    for node in sorted(system.nodes, key=lambda n: n.id):
        for carrier in CARRIERS:
            if (node.id, carrier) not in participants:
                continue
            if node.import_limit.get(carrier, 0.0) > 0.0:
                keys.extend(VarKey(node.id, f"imp[{carrier.value}]", t) for t in steps)

    for tech in sorted(system.technologies, key=lambda t: t.id):
        for role in tech_step_roles(tech):
            keys.extend(VarKey(tech.id, role, t) for t in steps)
        if tech.expandable:
            keys.append(VarKey(tech.id, "size"))

    for branch in sorted(system.branches, key=lambda b: b.id):
        if branch.bidirectional:
            for role in ("sent[fwd]", "recv[fwd]", "sent[rev]", "recv[rev]"):
                keys.extend(VarKey(branch.id, role, t) for t in steps)
        else:
            roles = ["sent", "recv"]
            if branch.carrier == Carrier.HYDROGEN:
                roles.append("cons_el")
            for role in roles:
                keys.extend(VarKey(branch.id, role, t) for t in steps)
        if branch.expandable:
            if branch.integer_block_mw is not None:
                keys.append(VarKey(branch.id, "blocks"))
                if _branch_fixed_cost(branch) > 0:
                    keys.append(VarKey(branch.id, "build"))
            else:
                keys.append(VarKey(branch.id, "size"))
            if branch.bidirectional:
                keys.append(VarKey(branch.id, "size[rev]"))
    return VariableIndex(keys)


def _branch_fixed_cost(branch: NetworkBranch) -> float:
    g1, _, g3, _ = branch.cost_poly
    return g1 + g3 * branch.length_km


# -- miniature test system --------------------------------------------------------

BLUE_HYDROGEN_SMR_EFFICIENCY = 0.74
BLUE_HYDROGEN_EMISSION_FACTOR = 0.108  # t CO2 per MWh H2 from methane reforming


def build_miniature_system(seed: int, step_count: int = 24,
                           dc_blocks_mw: float | None = None) -> EnergySystem:
    """Deterministic desk-scale four-node system for tests and demos.

    Three onshore nodes in two countries plus one offshore wind node; a gas
    plant with hydrogen admixture, nuclear, battery, open-loop hydro, a
    hydrogen cavern, electrolyzers and a fuel cell; two AC corridors, one DC
    corridor to the offshore node and an onshore hydrogen pipeline pair.

    Each step represents ``8760 / step_count`` hours so that annualized
    investment costs compete against a full representative year of operation.
    Demands and the wind profile vary with ``seed``; topology and parameters
    do not.
    """
    if not 24 <= step_count <= 168:
        raise ValueError("miniature systems use between 24 and 168 steps")
    rng = np.random.default_rng(seed)
    hours = 8760.0 / step_count
    horizon = TimeHorizon(step_count=step_count, hours_per_step=hours)
    t_axis = np.arange(step_count)
    day = 2.0 * np.pi * t_axis / step_count

    def series(base: float, swing: float, phase: float, noise: float) -> tuple[float, ...]:
        values = base + swing * np.sin(day + phase) + noise * rng.standard_normal(step_count)
        return tuple(float(v) * hours for v in np.clip(values, 0.0, None))

    imports_onshore = {
        "limit": {Carrier.ELECTRICITY: 10.0, Carrier.HYDROGEN: math.inf,
                  Carrier.NATURAL_GAS: math.inf},
        "price": {Carrier.ELECTRICITY: 1000.0,
                  Carrier.HYDROGEN: 40.0 / BLUE_HYDROGEN_SMR_EFFICIENCY,
                  Carrier.NATURAL_GAS: 40.0},
        "ef": {Carrier.ELECTRICITY: 0.8,
               Carrier.HYDROGEN: BLUE_HYDROGEN_EMISSION_FACTOR,
               Carrier.NATURAL_GAS: 0.0},
    }
    nodes = (
        Node("n1", "AA", ONSHORE, imports_onshore["limit"], imports_onshore["price"],
             imports_onshore["ef"]),
        Node("n2", "AA", ONSHORE, imports_onshore["limit"], imports_onshore["price"],
             imports_onshore["ef"]),
        Node("n3", "BB", ONSHORE, imports_onshore["limit"], imports_onshore["price"],
             imports_onshore["ef"]),
        Node("n4", "AA", OFFSHORE, {c: 0.0 for c in CARRIERS}, {}, {}),
    )

    gas_emission_on_input = 0.302 * 0.610  # 302 kg/MWh_el at 61% efficiency
    technologies = (
        TechnologyInstance(
            "batt1", "n2", TechnologyKind.STORAGE1, existing_size=5.0, expandable=True,
            max_size=1000.0,
            performance=StorageParams(Carrier.ELECTRICITY, 0.333, 0.333,
                                      self_discharge=4.168e-5,
                                      charge_efficiency=0.985,
                                      discharge_efficiency=0.975),
            emission_factors={},
            cost=CostParams(capex_per_size=622.0, lifetime=25.0,
                            fixed_opex_share=0.0791, variable_opex=1.8),
        ),
        TechnologyInstance(
            "batt2", "n4", TechnologyKind.STORAGE1, existing_size=0.0, expandable=True,
            max_size=1.0e9,
            performance=StorageParams(Carrier.ELECTRICITY, 0.333, 0.333,
                                      self_discharge=4.168e-5,
                                      charge_efficiency=0.985,
                                      discharge_efficiency=0.975),
            emission_factors={},
            cost=CostParams(capex_per_size=746.0, lifetime=25.0,
                            fixed_opex_share=0.0791, variable_opex=1.8),
        ),
        TechnologyInstance(
            "cav1", "n1", TechnologyKind.STORAGE2_2, existing_size=0.0, expandable=True,
            max_size=300.0,
            performance=StorageParams(Carrier.HYDROGEN, 0.333, 0.333,
                                      charge_efficiency=0.99,
                                      discharge_efficiency=1.0,
                                      compression_electricity=0.008),
            emission_factors={},
            cost=CostParams(capex_per_size=2.0, lifetime=100.0),
        ),
        TechnologyInstance(
            "elz1", "n2", TechnologyKind.CONVERSION2, existing_size=0.0, expandable=True,
            max_size=40.0,
            performance=Conversion2Params(0.655, (Carrier.ELECTRICITY,),
                                          Carrier.HYDROGEN),
            emission_factors={},
            cost=CostParams(capex_per_size=450.0 / 0.655, lifetime=30.0,
                            fixed_opex_share=0.04),
        ),
        TechnologyInstance(
            "elz2", "n4", TechnologyKind.CONVERSION2, existing_size=0.0, expandable=True,
            max_size=30.0,
            performance=Conversion2Params(0.655, (Carrier.ELECTRICITY,),
                                          Carrier.HYDROGEN),
            emission_factors={},
            cost=CostParams(capex_per_size=1.2 * 450.0 / 0.655, lifetime=30.0,
                            fixed_opex_share=0.04),
        ),
        TechnologyInstance(
            "fc1", "n1", TechnologyKind.CONVERSION2, existing_size=0.0, expandable=True,
            max_size=30.0,
            performance=Conversion2Params(0.500, (Carrier.HYDROGEN,),
                                          Carrier.ELECTRICITY),
            emission_factors={},
            cost=CostParams(capex_per_size=1100.0, lifetime=10.0, fixed_opex_share=0.05),
        ),
        TechnologyInstance(
            "gas1", "n1", TechnologyKind.CONVERSION2, existing_size=50.0, expandable=False,
            max_size=50.0,
            performance=Conversion2Params(0.610,
                                          (Carrier.HYDROGEN, Carrier.NATURAL_GAS),
                                          Carrier.ELECTRICITY,
                                          admix_limits={Carrier.HYDROGEN: 0.05}),
            emission_factors={("in", Carrier.NATURAL_GAS): gas_emission_on_input},
            cost=CostParams(variable_opex=4.2),
        ),
        TechnologyInstance(
            "hydro1", "n3", TechnologyKind.STORAGE2_1, existing_size=200.0,
            expandable=False, max_size=200.0,
            performance=StorageParams(Carrier.ELECTRICITY, 0.05, 0.2,
                                      charge_efficiency=0.890,
                                      discharge_efficiency=0.890),
            emission_factors={},
            cost=CostParams(),
        ),
        TechnologyInstance(
            "nuc1", "n3", TechnologyKind.CONVERSION1, existing_size=25.0,
            expandable=False, max_size=25.0,
            performance=None,
            emission_factors={},
            cost=CostParams(variable_opex=16.9),
        ),
        TechnologyInstance(
            "wind1", "n4", TechnologyKind.RENEWABLE, existing_size=60.0, expandable=True,
            max_size=120.0,
            performance=None,
            emission_factors={},
            cost=CostParams(capex_per_size=1710.0, lifetime=30.0, fixed_opex_share=0.02),
        ),
    )

    compression = CompressionParams()
    branches = (
        NetworkBranch("ac1", "electricity_ac", Carrier.ELECTRICITY, "n1", "n2",
                      length_km=80.0, existing_capacity=5.0, expandable=True,
                      max_capacity=100.0, loss_factor_per_km=7e-5, bidirectional=True,
                      cost_poly=(0.0, 43.7, 0.0, 0.4), fixed_opex_share=0.04,
                      lifetime=40.0),
        NetworkBranch("ac2", "electricity_ac", Carrier.ELECTRICITY, "n2", "n3",
                      length_km=120.0, existing_capacity=15.0, expandable=True,
                      max_capacity=80.0, loss_factor_per_km=7e-5, bidirectional=True,
                      cost_poly=(0.0, 43.7, 0.0, 0.4), fixed_opex_share=0.04,
                      lifetime=40.0),
        NetworkBranch("dc1", "electricity_dc", Carrier.ELECTRICITY, "n4", "n3",
                      length_km=150.0, existing_capacity=20.0, expandable=True,
                      max_capacity=80.0, loss_factor_per_km=4e-5, bidirectional=True,
                      cost_poly=(0.0, 68.1, 0.0, 0.1), fixed_opex_share=0.04,
                      lifetime=40.0, integer_block_mw=dc_blocks_mw),
        NetworkBranch("dc2", "electricity_dc", Carrier.ELECTRICITY, "n4", "n2",
                      length_km=120.0, existing_capacity=25.0, expandable=True,
                      max_capacity=80.0, loss_factor_per_km=4e-5, bidirectional=True,
                      cost_poly=(0.0, 68.1, 0.0, 0.1), fixed_opex_share=0.04,
                      lifetime=40.0, integer_block_mw=dc_blocks_mw),
        NetworkBranch("pp1", "pipeline_onshore_repurposed", Carrier.HYDROGEN, "n1", "n2",
                      length_km=60.0, existing_capacity=0.0, expandable=True,
                      max_capacity=50.0, loss_factor_per_km=4e-5, bidirectional=False,
                      cost_poly=(39567.9, -3.9, 0.0, 0.1), fixed_opex_share=0.04,
                      lifetime=50.0, compression=compression),
        NetworkBranch("pp2", "pipeline_onshore_repurposed", Carrier.HYDROGEN, "n2", "n1",
                      length_km=60.0, existing_capacity=0.0, expandable=True,
                      max_capacity=50.0, loss_factor_per_km=4e-5, bidirectional=False,
                      cost_poly=(39567.9, -3.9, 0.0, 0.1), fixed_opex_share=0.04,
                      lifetime=50.0, compression=compression),
    )

    demands = (
        DemandSeries("n1", Carrier.ELECTRICITY, series(30.0, 8.0, 0.4, 1.5)),
        DemandSeries("n2", Carrier.ELECTRICITY, series(20.0, 5.0, 1.1, 1.0)),
        DemandSeries("n3", Carrier.ELECTRICITY, series(16.0, 4.0, 0.8, 1.0)),
        DemandSeries("n1", Carrier.HYDROGEN, tuple(6.0 * hours for _ in t_axis)),
        DemandSeries("n2", Carrier.HYDROGEN, tuple(4.0 * hours for _ in t_axis)),
    )

    wind_cf = np.clip(0.45 + 0.35 * np.sin(day + 2.1)
                      + 0.12 * rng.standard_normal(step_count), 0.02, 0.98)
    profiles = {"wind1": tuple(float(60.0 * cf) * hours for cf in wind_cf)}
    inflows = {"hydro1": tuple(8.0 * hours for _ in t_axis)}

    return EnergySystem(
        horizon=horizon,
        nodes=nodes,
        technologies=technologies,
        branches=branches,
        demands=demands,
        carbon_price=80.0,
        renewable_profiles=profiles,
        hydro_inflows=inflows,
    )
