"""Domain model: carriers, nodes, technologies, branches, whole systems.

Everything here is an immutable description of a system; no optimization
logic. Each numeric field declares the values it may take once, as a
:class:`Domain` in its ``dataclasses.field`` metadata, and
:func:`validate_system` checks every declaration in one loop.
:func:`tech_flows`, :func:`branch_flows` and :func:`single_columns` declare
each entity's columns once; the balances, emission factors and bounds read
them, and the variable index defined at the bottom lays them out in the
deterministic order that the problem builder and all post-processing rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache
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


STORAGE_KINDS = (TechnologyKind.STORAGE1, TechnologyKind.STORAGE2_1, TechnologyKind.STORAGE2_2)


# -- field domains ---------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """The values a numeric field may take: the interval from ``low`` to
    ``high``, each end closed or open. ``inf`` belongs to it only as a closed
    infinite ``high``; NaN belongs to none."""
    low: float
    high: float
    low_closed: bool
    high_closed: bool

    def __contains__(self, value: float) -> bool:
        return ((self.low <= value if self.low_closed else self.low < value)
                and (value <= self.high if self.high_closed else value < self.high))

    def violation(self, value: float) -> str:
        """What ``value``, outside the domain, breaks: finiteness, where the
        domain requires it, else the bound it crosses."""
        if not math.isfinite(value) and not (self.high == math.inf and self.high_closed):
            return "must be finite"
        if not (self.low <= value if self.low_closed else self.low < value):
            return f"must be {'>=' if self.low_closed else '>'} {self.low:g}"
        return f"must be {'<=' if self.high_closed else '<'} {self.high:g}"


FINITE = Domain(-math.inf, math.inf, False, False)
NONNEGATIVE = Domain(0.0, math.inf, True, False)          # finite
NONNEGATIVE_OR_INF = Domain(0.0, math.inf, True, True)    # unbounded where inf
POSITIVE = Domain(0.0, math.inf, False, False)            # finite
FRACTION = Domain(0.0, 1.0, True, True)
EFFICIENCY = Domain(0.0, 1.0, False, True)
PROPER_FRACTION = Domain(0.0, 1.0, True, False)
ABOVE_ONE = Domain(1.0, math.inf, False, False)           # finite


def _within(domain: Domain, label: str | None = None, each: bool = False, **args):
    """A ``dataclasses.field`` (given ``args``) whose value lies in ``domain``,
    or with ``each`` every value of the mapping or tuple it holds. Messages
    name it ``label``, by default its name, formatted with the key (unpacked
    if a tuple) or the 1-based position of the value."""
    return field(metadata={"domain": domain, "label": label, "each": each}, **args)


@dataclass(frozen=True)
class TimeHorizon:
    step_count: int = _within(POSITIVE)
    hours_per_step: float = _within(POSITIVE, default=1.0)

    @property
    def hours_total(self) -> float:
        return self.step_count * self.hours_per_step


@dataclass(frozen=True)
class Node:
    id: str
    country: str
    location_kind: str
    import_limit: Mapping[Carrier, float] = _within(
        NONNEGATIVE_OR_INF, "import limit for {0.value}", each=True, default_factory=dict)
    import_price: Mapping[Carrier, float] = _within(
        FINITE, "import price for {0.value}", each=True, default_factory=dict)
    import_emission_factor: Mapping[Carrier, float] = _within(
        NONNEGATIVE, "import emission factor for {0.value}", each=True, default_factory=dict)

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
    capex_per_size: float = _within(NONNEGATIVE, default=0.0)  # kEUR/MW; kEUR/MWh for storage
    lifetime: float = _within(FINITE, default=0.0)              # years
    fixed_opex_share: float = _within(FRACTION, default=0.0)    # of annualized capex per year
    variable_opex: float = _within(NONNEGATIVE, default=0.0)    # EUR per MWh of output
    discount_rate: float = _within(NONNEGATIVE, default=0.04)


@dataclass(frozen=True)
class Conversion2Params:
    efficiency: float = _within(EFFICIENCY)
    input_carriers: tuple[Carrier, ...]
    output_carrier: Carrier
    admix_limits: Mapping[Carrier, float] = _within(
        FRACTION, "admix limit for {0.value}", each=True, default_factory=dict)


@dataclass(frozen=True)
class StorageParams:
    carrier: Carrier
    max_charge_rate: float = _within(POSITIVE)  # per unit of size, per hour
    max_discharge_rate: float = _within(POSITIVE)
    self_discharge: float = _within(PROPER_FRACTION, default=0.0)  # of the charge lost per hour
    charge_efficiency: float = _within(EFFICIENCY, default=1.0)
    discharge_efficiency: float = _within(EFFICIENCY, default=1.0)
    # MWh el per MWh charged (storage2_2)
    compression_electricity: float = _within(NONNEGATIVE, default=0.0)


@dataclass(frozen=True)
class TechnologyInstance:
    id: str
    node: str
    kind: TechnologyKind
    existing_size: float = _within(NONNEGATIVE)
    expandable: bool
    max_size: float = _within(NONNEGATIVE_OR_INF)
    performance: Conversion2Params | StorageParams | None
    emission_factors: Mapping[tuple[str, Carrier], float] = _within(
        NONNEGATIVE, "emission factor {0}/{1.value}", each=True)
    cost: CostParams


@dataclass(frozen=True)
class CompressionParams:
    outlet_pressure_bar: float = _within(POSITIVE, "compression outlet_pressure_bar",
                                         default=140.0)
    specific_heat: float = _within(POSITIVE, "compression specific_heat", default=0.00398)
    temperature_k: float = _within(POSITIVE, "compression temperature_k", default=300.0)
    # above 1, compression would take less than the isentropic work
    efficiency: float = _within(EFFICIENCY, "compressor efficiency", default=0.65)
    heat_capacity_ratio: float = _within(ABOVE_ONE, "compression heat_capacity_ratio",
                                         default=1.405)
    lower_heating_value: float = _within(POSITIVE, "compression lower_heating_value",
                                         default=33.32)
    reference_pressure_bar: float = _within(POSITIVE, "compression reference_pressure_bar",
                                            default=30.0)


NETWORK_KINDS = ("electricity_ac", "electricity_dc", "pipeline_offshore",
                 "pipeline_onshore_new", "pipeline_onshore_repurposed")


@dataclass(frozen=True)
class NetworkBranch:
    id: str
    network_kind: str
    carrier: Carrier
    from_node: str
    to_node: str
    length_km: float = _within(POSITIVE)
    existing_capacity: float = _within(NONNEGATIVE)
    expandable: bool
    max_capacity: float = _within(NONNEGATIVE_OR_INF)
    loss_factor_per_km: float = _within(NONNEGATIVE)
    bidirectional: bool
    # kEUR, kEUR/MW, kEUR/km, kEUR/(km*MW)
    cost_poly: tuple[float, float, float, float] = _within(FINITE, "gamma{0}", each=True)
    fixed_opex_share: float = _within(FRACTION, default=0.0)
    lifetime: float = _within(FINITE, default=40.0)
    variable_opex: float = _within(NONNEGATIVE, default=0.0)
    discount_rate: float = _within(NONNEGATIVE, default=0.04)
    integer_block_mw: float | None = _within(POSITIVE, default=None)  # None: no blocks
    compression: CompressionParams | None = None

    @property
    def is_pipeline(self) -> bool:
        return self.network_kind.startswith("pipeline")

    @property
    def headroom(self) -> float:
        """MW that expansion may add."""
        return self.max_capacity - self.existing_capacity

    @property
    def fixed_cost(self) -> float:
        """kEUR of the size-independent cost terms, gamma1 + gamma3 * length."""
        g1, _, g3, _ = self.cost_poly
        return g1 + g3 * self.length_km

    @property
    def max_blocks(self) -> int:
        """Whole integer blocks that fit in the headroom."""
        return math.floor(self.headroom / self.integer_block_mw)


@dataclass(frozen=True)
class EnergySystem:
    horizon: TimeHorizon
    nodes: tuple[Node, ...]
    technologies: tuple[TechnologyInstance, ...]
    branches: tuple[NetworkBranch, ...]
    demands: tuple[DemandSeries, ...]
    carbon_price: float = _within(NONNEGATIVE)
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

# (attr, label, domain, each) of each field that declares a domain, by class,
# read once: a walk over the fields on every call would cost more than the checks
_DECLARED = {cls: tuple((f.name, f.metadata["label"] or f.name, f.metadata["domain"],
                         f.metadata["each"]) for f in fields(cls) if "domain" in f.metadata)
             for cls in (EnergySystem, TimeHorizon, Node, TechnologyInstance, CostParams,
                         Conversion2Params, StorageParams, NetworkBranch, CompressionParams)}


def _non_finite_steps(where: str, values: Iterable[float]) -> list[str]:
    """One message per step of the series ``values`` that is NaN or infinite."""
    if all(map(math.isfinite, values)):
        return []
    return [f"{where}: step {t} must be finite" for t, value in enumerate(values)
            if not math.isfinite(value)]


def validate_system(system: EnergySystem) -> list[str]:
    """Check every structural invariant; return one message per violation.

    Violations are data, not exceptions: an empty list means the system is
    well formed and safe to hand to the problem builder. Each numeric field
    must lie in the :class:`Domain` its declaration names, with one message
    per field (per value of a mapping or tuple) outside it; a field that is
    None is absent. No step of a demand, renewable profile or hydro inflow
    may be negative or non-finite. The remaining rules relate fields to each
    other, to the kind of their entity, to a carrier or to other entities,
    and a technology's emission factor must price one of its flows
    (:func:`priced_flow`).
    """
    out: list[str] = []
    holders = [("", system), ("horizon: ", system.horizon)]
    holders += ((f"node {n.id}: ", n) for n in system.nodes)
    for t in system.technologies:
        holders += ((f"technology {t.id}: ", h) for h in (t, t.cost, t.performance))
    for b in system.branches:
        holders += ((f"branch {b.id}: ", h) for h in (b, b.compression))
    for where, holder in holders:
        for attr, label, domain, each in _DECLARED.get(type(holder), ()):
            value = getattr(holder, attr)
            if each:
                items = enumerate(value, 1) if isinstance(value, tuple) else value.items()
                out += [f"{where}{label.format(*key if isinstance(key, tuple) else (key,))}"
                        f" {domain.violation(v)}" for key, v in items if v not in domain]
            elif value is not None and value not in domain:
                out.append(f"{where}{label} {domain.violation(value)}")

    steps = system.horizon.step_count
    node_ids = [n.id for n in system.nodes]
    if len(set(node_ids)) != len(node_ids):
        out.append("nodes: duplicate ids")
    known_nodes = set(node_ids)
    for n in system.nodes:
        if n.location_kind not in (ONSHORE, OFFSHORE):
            out.append(f"node {n.id}: location_kind must be onshore or offshore")
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
        out += _non_finite_steps(f"demand {d.node}/{d.carrier.value}", d.values)

    tech_ids = [t.id for t in system.technologies]
    if len(set(tech_ids)) != len(tech_ids):
        out.append("technologies: duplicate ids")
    for t in system.technologies:
        pre = f"technology {t.id}"
        if t.node not in known_nodes:
            out.append(f"{pre}: unknown node {t.node}")
        if t.max_size < t.existing_size:
            out.append(f"{pre}: max_size below existing_size")
        if t.expandable and not math.isfinite(t.max_size):
            out.append(f"{pre}: expandable technologies need a finite max_size")
        if t.existing_size > 0 and not t.expandable and t.cost.capex_per_size != 0:
            out.append(f"{pre}: existing assets carry no capex")
        if t.cost.capex_per_size > 0 and t.cost.lifetime <= 0:
            out.append(f"{pre}: lifetime must be positive when capex is set")
        typed = True  # the performance parameters fit the kind: tech_flows may read them
        if t.kind == TechnologyKind.RENEWABLE:
            profile = system.renewable_profiles.get(t.id)
            if profile is None:
                out.append(f"{pre}: renewable without a profile")
            elif len(profile) != steps:
                out.append(f"{pre}: profile length {len(profile)}, expected {steps}")
            else:
                if any(v < 0 for v in profile):
                    out.append(f"{pre}: profile has negative values")
                out += _non_finite_steps(f"{pre}: profile", profile)
        elif t.kind == TechnologyKind.CONVERSION2:
            p = t.performance
            if not isinstance(p, Conversion2Params):
                out.append(f"{pre}: conversion2 requires Conversion2Params")
                typed = False
            else:
                if p.output_carrier in p.input_carriers:
                    out.append(f"{pre}: output carrier listed among inputs")
                if not p.input_carriers:
                    out.append(f"{pre}: conversion2 needs at least one input carrier")
                out += [f"{pre}: admix limit on non-input {carrier.value}"
                        for carrier in p.admix_limits if carrier not in p.input_carriers]
        elif t.kind in STORAGE_KINDS:
            p = t.performance
            if not isinstance(p, StorageParams):
                out.append(f"{pre}: storage requires StorageParams")
                typed = False
            elif p.compression_electricity > 0 and t.kind != TechnologyKind.STORAGE2_2:
                out.append(f"{pre}: only storage2_2 draws compression electricity")
            if t.kind == TechnologyKind.STORAGE2_1:
                inflow = system.hydro_inflows.get(t.id)
                if inflow is None:
                    out.append(f"{pre}: storage2_1 without an inflow series")
                elif len(inflow) != steps:
                    out.append(f"{pre}: inflow length {len(inflow)}, expected {steps}")
                else:
                    if any(v < 0 for v in inflow):
                        out.append(f"{pre}: inflow has negative values")
                    out += _non_finite_steps(f"{pre}: inflow", inflow)
        if typed:
            out += [f"{pre}: emission factor {direction}/{carrier.value} matches no flow"
                    for direction, carrier in t.emission_factors
                    if priced_flow(t, direction, carrier) is None]

    # a series on any other kind of technology would go unused
    kinds = {t.id: t.kind for t in system.technologies}
    for what, series, kind in (("profile", system.renewable_profiles, TechnologyKind.RENEWABLE),
                               ("inflow", system.hydro_inflows, TechnologyKind.STORAGE2_1)):
        for name in series:
            if name not in kinds:
                out.append(f"{what} {name}: unknown technology")
            elif kinds[name] != kind:
                out.append(f"{what} {name}: technology is {kinds[name].value}, not {kind.value}")

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
        if b.loss_factor_per_km * b.length_km >= 1:
            out.append(f"{pre}: loss factor times length must stay below 1")
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
        if b.expandable and b.lifetime <= 0:
            out.append(f"{pre}: expandable branches need a positive lifetime")
        c = b.compression
        if c is not None and c.outlet_pressure_bar < c.reference_pressure_bar:
            out.append(f"{pre}: outlet pressure below the reference pressure")
    return out


# -- column declarations ---------------------------------------------------------

def tech_flows(tech: TechnologyInstance) -> tuple[tuple[str, Carrier | None, float], ...]:
    """The per-step columns of ``tech`` in column order, as ``(role, carrier,
    sign)``: the column enters the balance of ``carrier`` at the technology's
    node with coefficient ``sign``. A state of charge or a spill enters no
    balance; its carrier is None and its sign 0."""
    if tech.kind in (TechnologyKind.RENEWABLE, TechnologyKind.CONVERSION1):
        return (("out", Carrier.ELECTRICITY, 1.0),)
    p = tech.performance
    if tech.kind == TechnologyKind.CONVERSION2:
        return (*((f"in[{c.value}]", c, -1.0) for c in CARRIERS if c in p.input_carriers),
                ("out", p.output_carrier, 1.0))
    flows = (("charge", p.carrier, -1.0), ("discharge", p.carrier, 1.0), ("soc", None, 0.0))
    if tech.kind == TechnologyKind.STORAGE2_1:
        return flows + (("spill", None, 0.0),)
    if tech.kind == TechnologyKind.STORAGE2_2:
        return flows + (("compress_el", Carrier.ELECTRICITY, -1.0),)
    return flows


def branch_flows(branch: NetworkBranch) -> tuple[tuple[str, str, Carrier, float], ...]:
    """The per-step columns of ``branch`` in column order, as ``(role, node,
    carrier, sign)``: the column enters the balance of ``carrier`` at ``node``
    with coefficient ``sign``. A hydrogen pipeline draws its compression
    electricity at the sending node."""
    a, b, carrier = branch.from_node, branch.to_node, branch.carrier
    if branch.bidirectional:
        return (("sent[fwd]", a, carrier, -1.0), ("recv[fwd]", b, carrier, 1.0),
                ("sent[rev]", b, carrier, -1.0), ("recv[rev]", a, carrier, 1.0))
    flows = (("sent", a, carrier, -1.0), ("recv", b, carrier, 1.0))
    if carrier == Carrier.HYDROGEN:
        return flows + (("cons_el", a, Carrier.ELECTRICITY, -1.0),)
    return flows


def single_columns(entity: TechnologyInstance | NetworkBranch
                   ) -> tuple[tuple[str, float, bool], ...]:
    """The single columns of ``entity`` in column order, as ``(role, upper,
    integer)``: the size delta, or a branch's integer ``blocks`` and ``build``
    flag, then a bidirectional branch's reverse size; none while fixed."""
    if not entity.expandable:
        return ()
    if isinstance(entity, TechnologyInstance):
        return (("size", entity.max_size - entity.existing_size, False),)
    if entity.integer_block_mw is None:
        columns = [("size", entity.headroom, False)]
    else:
        columns = [("blocks", float(entity.max_blocks), True)]
        if entity.fixed_cost > 0:
            columns.append(("build", 1.0, True))
    if entity.bidirectional:
        columns.append(("size[rev]", entity.headroom, False))
    return tuple(columns)


def output_role(tech: TechnologyInstance) -> str:
    """The per-step role that delivers a technology's product: its first flow
    that enters a balance with +1 (storage discharges)."""
    return next(role for role, _, sign in tech_flows(tech) if sign > 0)


def priced_flow(tech: TechnologyInstance, direction: str, carrier: Carrier) -> str | None:
    """The role that the emission factor ``(direction, carrier)`` of ``tech``
    prices: its first flow of ``carrier`` that enters the balance with -1
    (``in``) or +1 (``out``); None if it has none."""
    sign = {"in": -1.0, "out": 1.0}.get(direction)
    return next((role for role, c, s in tech_flows(tech) if c == carrier and s == sign), None)


def node_carrier_participants(system: EnergySystem
                              ) -> dict[tuple[str, Carrier], list[tuple[str, str, float]]]:
    """Balance terms of every (node, carrier) slot with a demand, technology or branch.

    Each term ``(entity, role, sign)`` says that the per-step variable
    ``entity.role`` enters the slot's balance with coefficient ``sign``, as
    :func:`tech_flows` and :func:`branch_flows` declare; a slot with only a
    demand has no terms. Keys are sorted by (node, carrier). Only these slots
    receive a balance row and, when the node allows it, an import variable;
    everything else would reduce to ``0 == 0``.
    """
    terms: dict[tuple[str, Carrier], list[tuple[str, str, float]]] = {}
    for d in system.demands:
        terms.setdefault((d.node, d.carrier), [])
    for t in system.technologies:
        for role, carrier, sign in tech_flows(t):
            if carrier is not None:
                terms.setdefault((t.node, carrier), []).append((t.id, role, sign))
    for b in system.branches:
        for role, node, carrier, sign in branch_flows(b):
            terms.setdefault((node, carrier), []).append((b.id, role, sign))
    return {key: terms[key] for key in sorted(terms, key=lambda k: (k[0], k[1].value))}


# -- variable index --------------------------------------------------------------

class StructureError(ValueError):
    """Unknown entity references or inconsistent index requests."""


@lru_cache(maxsize=1024)
def step_names(prefix: str, steps: int) -> tuple[str, ...]:
    """``prefix[0]``, ..., ``prefix[steps - 1]``: the names of a per-step column
    or row at every step. Cached: the builds of one system's scenarios name
    mostly the same columns and rows."""
    return tuple(f"{prefix}[{t}]" for t in range(steps))


class VariableIndex:
    """Deterministic, gap-free map (entity, role) -> columns.

    Layout: per node (sorted by id) the import variables for participating
    carriers; per technology (sorted by id) its :func:`tech_flows` then its
    :func:`single_columns` (the size delta); per branch (sorted by id) its
    :func:`branch_flows` then its :func:`single_columns` (the size variables,
    a `blocks`/`build` pair when integer blocks are active).

    A per-step role takes ``steps`` contiguous columns, step 0 first, and
    :meth:`columns` returns them as ``first + arange(steps)``; any other role
    (a size, the integer blocks or a build flag) takes one column, returned by
    :meth:`column`. Each of the two raises :class:`StructureError` for a role
    of the other kind; :meth:`has` answers for either.
    """

    def __init__(self, steps: int, roles: Iterable[tuple[str, str, bool]]):
        """``roles`` lists ``(entity, role, per_step)`` in column order; a
        per-step role takes ``steps`` columns, any other role one."""
        self._steps = steps
        self._arange = np.arange(steps)
        # first column and per-step flag of each role, in column order
        self._first: dict[tuple[str, str], tuple[int, bool]] = {}
        n = 0
        for entity, role, per_step in roles:
            if (entity, role) in self._first:
                raise StructureError("duplicate variable keys")
            self._first[entity, role] = (n, per_step)
            n += steps if per_step else 1
        self._size = n

    def __len__(self) -> int:
        return self._size

    def _first_column(self, entity: str, role: str, per_step: bool) -> int:
        found = self._first.get((entity, role))
        if found is None or found[1] != per_step:
            kind = "per-step" if per_step else "single-column"
            raise StructureError(f"no {kind} variable {f'{entity}.{role}'!r}")
        return found[0]

    def column(self, entity: str, role: str) -> int:
        """The column of the single-column role ``entity.role``."""
        return self._first_column(entity, role, False)

    def columns(self, entity: str, role: str) -> np.ndarray:
        """The columns of the per-step role ``entity.role`` at steps 0, 1, ..."""
        return self._first_column(entity, role, True) + self._arange

    def has(self, entity: str, role: str) -> bool:
        return (entity, role) in self._first

    def names(self) -> list[str]:
        names: list[str] = []
        for (entity, role), (_, per_step) in self._first.items():
            if per_step:
                names += step_names(f"{entity}.{role}", self._steps)
            else:
                names.append(f"{entity}.{role}")
        return names

    def size_columns(self) -> dict[str, int]:
        """Column by name of every single-column variable: the sizes (and
        integer blocks and build flags) a warm start fixes."""
        return {f"{entity}.{role}": col
                for (entity, role), (col, per_step) in self._first.items() if not per_step}


def assemble_variable_index(system: EnergySystem) -> VariableIndex:
    """Build the column registry for ``system``.

    Requires a system that passes :func:`validate_system`.
    """
    violations = validate_system(system)
    if violations:
        raise StructureError("invalid system: " + "; ".join(violations[:5]))

    participants = node_carrier_participants(system)
    roles: list[tuple[str, str, bool]] = []

    for node in sorted(system.nodes, key=lambda n: n.id):
        for carrier in CARRIERS:
            if (node.id, carrier) not in participants:
                continue
            if node.import_limit.get(carrier, 0.0) > 0.0:
                roles.append((node.id, f"imp[{carrier.value}]", True))

    entities = [(t, tech_flows(t)) for t in sorted(system.technologies, key=lambda t: t.id)]
    entities += [(b, branch_flows(b)) for b in sorted(system.branches, key=lambda b: b.id)]
    for entity, flows in entities:
        roles += ((entity.id, flow[0], True) for flow in flows)
        roles += ((entity.id, role, False) for role, _, _ in single_columns(entity))
    return VariableIndex(system.horizon.step_count, roles)


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
