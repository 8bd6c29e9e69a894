"""Cost and emission coefficients, the three optimization modes, and accounting.

Cost model (all EUR per year): annualized capex on size additions plus a
fixed-opex share of that annualized capex, variable opex per MWh of output,
import costs at bare prices, and a carbon charge on all accounted emissions;
the carbon charge covers both technology throughput and imports, so import
prices must not embed it again. Existing assets never carry investment cost.

Emissions (t CO2): per-technology input/output factors plus per-carrier
import factors (e.g. 0.8 t/MWh for electricity from outside the system and
0.108 t/MWh for hydrogen backstopped by methane reforming).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .system import (
    CARRIERS,
    CostParams,
    EnergySystem,
    NetworkBranch,
    TechnologyInstance,
    VariableIndex,
    output_role,
    priced_flow,
)

EMISSION_CAP_LABEL = "emission_cap"


@dataclass(frozen=True)
class ObjectiveMode:
    kind: str  # "min_emissions" | "min_cost" | "min_cost_with_cap"
    emission_cap: float | None = None

    def __post_init__(self):
        if self.kind not in ("min_emissions", "min_cost", "min_cost_with_cap"):
            raise ValueError(f"unknown objective mode {self.kind!r}")
        if self.kind == "min_cost_with_cap":
            if (self.emission_cap is None or math.isnan(self.emission_cap)
                    or self.emission_cap < 0):
                raise ValueError("emission cap must be a nonnegative number")

    @classmethod
    def min_emissions(cls) -> "ObjectiveMode":
        return cls("min_emissions")

    @classmethod
    def min_cost(cls) -> "ObjectiveMode":
        return cls("min_cost")

    @classmethod
    def min_cost_with_cap(cls, cap: float) -> "ObjectiveMode":
        return cls("min_cost_with_cap", emission_cap=cap)

    def label(self) -> str:
        if self.kind == "min_cost_with_cap":
            return f"cap={self.emission_cap!r}"
        return self.kind


def annualize(capex: float, lifetime: float, discount_rate: float) -> float:
    """Capital-recovery annuity: capex * r(1+r)^L / ((1+r)^L - 1); capex/L at r=0."""
    if lifetime <= 0:
        raise ValueError("lifetime must be positive")
    if discount_rate < 0:
        raise ValueError("discount rate must be nonnegative")
    if discount_rate < 1e-12:  # annuity limit; avoids denormal-range noise
        return capex / lifetime
    # expm1/log1p keep the denominator exact for very small rates
    growth_minus_one = math.expm1(lifetime * math.log1p(discount_rate))
    return capex * discount_rate * (growth_minus_one + 1.0) / growth_minus_one


def _annual_cost(capex: float, terms: CostParams | NetworkBranch) -> float:
    """EUR per year for ``capex`` kEUR: the annuity over ``terms``' lifetime and
    discount rate plus its fixed-opex share."""
    annual = annualize(capex, terms.lifetime, terms.discount_rate)
    return annual * (1.0 + terms.fixed_opex_share) * 1000.0


def _tech_size_coefficient(tech: TechnologyInstance) -> float:
    """EUR per unit of new size per year."""
    if tech.cost.capex_per_size == 0:
        return 0.0
    return _annual_cost(tech.cost.capex_per_size, tech.cost)


def _branch_size_coefficient(branch: NetworkBranch, prorate_fixed: bool) -> float:
    """EUR per MW of new capacity per year, fixed terms prorated if requested."""
    _, g2, _, g4 = branch.cost_poly
    marginal = g2 + g4 * branch.length_km
    if prorate_fixed and branch.fixed_cost > 0 and branch.headroom > 0:
        marginal += branch.fixed_cost / branch.headroom
    if marginal == 0:
        return 0.0
    # economies of scale can push the polynomial negative at short distances;
    # free capacity would be unbounded, so the coefficient floors at zero
    return max(0.0, _annual_cost(marginal, branch))


def _branch_build_coefficient(branch: NetworkBranch) -> float:
    if branch.fixed_cost <= 0:
        return 0.0
    return _annual_cost(branch.fixed_cost, branch)


def _tech_emission_columns(tech: TechnologyInstance, index: VariableIndex):
    """Yield (columns, t CO2 per MWh) for each nonzero emission factor of
    ``tech``, in (direction, carrier) order, on the flow it prices."""
    for (direction, carrier), factor in sorted(
            tech.emission_factors.items(), key=lambda kv: (kv[0][0], kv[0][1].value)):
        if factor:
            yield index.columns(tech.id, priced_flow(tech, direction, carrier)), factor


@dataclass(frozen=True)
class CostTable:
    """Per-column coefficients of the cost and emission model.

    Each dict maps a column to its coefficient in entity order (technologies,
    branches and nodes as the system lists them, then roles and steps), the
    order in which reported totals are summed.
    """

    columns: int
    technologies: dict[int, float]      # EUR: investment and variable opex
    networks: dict[int, float]          # EUR: branch expansion and flow opex
    imports: dict[int, float]           # EUR: bare import prices
    tech_emissions: dict[int, float]    # t CO2 per unit of technology flow
    import_emissions: dict[int, float]  # t CO2 per MWh imported
    carbon_price: float                 # EUR per t CO2

    def _dense(self, terms: dict[int, float]) -> np.ndarray:
        vec = np.zeros(self.columns)
        vec[list(terms)] = list(terms.values())
        return vec

    @cached_property
    def _arrays(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Each coefficient dict's columns and coefficients as arrays, by field name."""
        return {name: (np.fromiter(terms, dtype=np.intp, count=len(terms)),
                       np.fromiter(terms.values(), dtype=float, count=len(terms)))
                for name, terms in (("technologies", self.technologies),
                                    ("networks", self.networks), ("imports", self.imports),
                                    ("tech_emissions", self.tech_emissions),
                                    ("import_emissions", self.import_emissions))}

    def value(self, name: str, x: np.ndarray) -> float:
        """Sum of coefficient times value over the dict ``name``, in entity order:
        the same products added in the same order as term by term."""
        cols, coefs = self._arrays[name]
        return sum((coefs * x[cols]).tolist(), 0.0)

    @cached_property
    def emissions(self) -> np.ndarray:
        """t CO2 per unit of each column."""
        return self._dense(self.tech_emissions) + self._dense(self.import_emissions)

    @cached_property
    def costs(self) -> np.ndarray:
        """EUR per unit of each column, the carbon charge on all emissions included."""
        return (self._dense(self.technologies) + self._dense(self.networks)
                + (self._dense(self.imports) + self.carbon_price * self.emissions))


def _fill(terms: dict[int, float], columns: np.ndarray, value: float) -> None:
    """Set ``value`` on every column of ``columns``, step by step."""
    terms.update(dict.fromkeys(columns.tolist(), value))


def cost_table(system: EnergySystem, index: VariableIndex) -> CostTable:
    """Walk technologies, branches and node imports once for every coefficient.

    Bidirectional branches are one physical line: the forward size variable
    carries the whole investment and the reverse size is tied by the equality
    row at zero cost. Pipeline pairs are separate branches, each paying.
    """
    table = CostTable(len(index), {}, {}, {}, {}, {}, system.carbon_price)
    for tech in system.technologies:
        if tech.expandable:
            value = _tech_size_coefficient(tech)
            if value:
                table.technologies[index.column(tech.id, "size")] = value
        opex = tech.cost.variable_opex
        if opex:
            _fill(table.technologies, index.columns(tech.id, output_role(tech)), opex)
        for cols, factor in _tech_emission_columns(tech, index):
            _fill(table.tech_emissions, cols, factor)
    for branch in system.branches:
        if branch.expandable:
            if branch.integer_block_mw is not None:
                per_mw = _branch_size_coefficient(branch, prorate_fixed=False)
                table.networks[index.column(branch.id, "blocks")] = \
                    per_mw * branch.integer_block_mw
                if index.has(branch.id, "build"):
                    table.networks[index.column(branch.id, "build")] = \
                        _branch_build_coefficient(branch)
            else:
                per_mw = _branch_size_coefficient(branch, prorate_fixed=True)
                if per_mw:
                    table.networks[index.column(branch.id, "size")] = per_mw
        if branch.variable_opex:
            roles = ("sent[fwd]", "sent[rev]") if branch.bidirectional else ("sent",)
            for role in roles:
                _fill(table.networks, index.columns(branch.id, role), branch.variable_opex)
    for node in system.nodes:
        for carrier in CARRIERS:
            role = f"imp[{carrier.value}]"
            if not index.has(node.id, role):
                continue
            cols = index.columns(node.id, role)
            price = node.import_price.get(carrier, 0.0)
            factor = node.import_emission_factor.get(carrier, 0.0)
            if price:
                _fill(table.imports, cols, price)
            if factor:
                _fill(table.import_emissions, cols, factor)
    return table


@dataclass(frozen=True)
class EmissionsReport:
    technologies: float
    imports: float

    @property
    def total(self) -> float:
        return self.technologies + self.imports


def total_emissions(table: CostTable, x: np.ndarray) -> EmissionsReport:
    """Recompute emission totals from raw variable values of a build whose
    cost table is ``table``."""
    return EmissionsReport(technologies=table.value("tech_emissions", x),
                           imports=table.value("import_emissions", x))


@dataclass(frozen=True)
class CostBreakdown:
    technologies: float
    networks: float
    imports: float
    carbon: float

    @property
    def total(self) -> float:
        return self.technologies + self.networks + self.imports + self.carbon


def cost_breakdown(table: CostTable, x: np.ndarray) -> CostBreakdown:
    """Recompute the cost split from raw variable values of a build whose
    cost table is ``table``, entity by entity."""
    return CostBreakdown(technologies=table.value("technologies", x),
                         networks=table.value("networks", x),
                         imports=table.value("imports", x),
                         carbon=table.carbon_price * total_emissions(table, x).total)
