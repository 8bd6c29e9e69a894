"""Flow, loss, coupling and compression constraints plus nodal energy balances.

Directed flow variables: ``sent`` leaves the sending node, ``recv`` arrives
at the receiving node after losses, ``recv = (1 - mu*d) * sent``. Electricity
branches carry one forward and one reverse direction with equal sizes and a
one-direction-at-a-time cut; hydrogen pipelines are separate branches per
direction, each consuming compression electricity at the sending node.

The nodal balance per (node, carrier, step) reads

    demand = sum(tech out - tech in) + sum(recv - sent - cons) + import

with electricity imports capped per node and natural-gas imports unbounded.
"""

from __future__ import annotations

import math

from .lp import EQ, LE, Row
from .system import (
    CARRIERS,
    Carrier,
    CompressionParams,
    EnergySystem,
    NetworkBranch,
    VariableIndex,
    node_carrier_participants,
)
from .technologies import Bound, DataError, size_limit


def pipeline_compression_factor(params: CompressionParams) -> float:
    """Electricity drawn per MWh of hydrogen shipped, from isentropic compression work.

    k = (c*T)/(eta*LHV) * ((p/p_ref)^((gamma-1)/gamma) - 1), zero exactly when
    the outlet pressure equals the reference pressure.
    """
    if params.outlet_pressure_bar < params.reference_pressure_bar:
        raise DataError("outlet pressure below the reference pressure")
    exponent = (params.heat_capacity_ratio - 1.0) / params.heat_capacity_ratio
    ratio = params.outlet_pressure_bar / params.reference_pressure_bar
    k = (params.specific_heat * params.temperature_k
         / (params.efficiency * params.lower_heating_value)) * (ratio ** exponent - 1.0)
    return k


def _size_term(branch: NetworkBranch, index: VariableIndex, reverse: bool
               ) -> tuple[int | None, float]:
    """(column, MW per unit) of the direction's size variable; the column is None,
    and the rate 0, while the size is fixed."""
    if not branch.expandable:
        return None, 0.0
    if reverse:
        return index.column(branch.id, "size[rev]"), 1.0
    if branch.integer_block_mw is not None:
        return index.column(branch.id, "blocks"), branch.integer_block_mw
    return index.column(branch.id, "size"), 1.0


def emit_branch_capacity_and_loss(branch: NetworkBranch, index: VariableIndex,
                                  system: EnergySystem) -> tuple[list[Row], list[Bound]]:
    """Per direction and step: sent <= capacity, recv = (1 - mu*d) * sent."""
    transfer = 1.0 - branch.loss_factor_per_km * branch.length_km
    h = system.horizon.hours_per_step
    cap = branch.existing_capacity * h
    directions = [("sent[fwd]", "recv[fwd]", False), ("sent[rev]", "recv[rev]", True)] \
        if branch.bidirectional else [("sent", "recv", False)]
    rows: list[Row] = []
    bounds: list[Bound] = []
    for sent_role, recv_role, reverse in directions:
        size, per_unit = _size_term(branch, index, reverse)
        rate, name = per_unit * h, f"{branch.id}.cap[{sent_role}]"
        for t in range(system.horizon.step_count):
            sent = index.column(branch.id, sent_role, t)
            recv = index.column(branch.id, recv_role, t)
            size_limit(rows, bounds, sent, cap, rate, size, name, t)
            rows.append(Row([(recv, 1.0), (sent, -transfer)], EQ, 0.0,
                            f"{branch.id}.loss[{sent_role}][{t}]"))
    return rows, bounds


def emit_bidirectional_coupling(branch: NetworkBranch, index: VariableIndex,
                                system: EnergySystem) -> list[Row]:
    """Equal sizes per direction and a single-direction-per-step cut."""
    h = system.horizon.hours_per_step
    rows: list[Row] = []
    fwd_col, per_unit = _size_term(branch, index, reverse=False)
    if fwd_col is not None:
        rev_col, _ = _size_term(branch, index, reverse=True)
        rows.append(Row([(fwd_col, per_unit), (rev_col, -1.0)], EQ, 0.0,
                        f"{branch.id}.size_eq"))
    for t in range(system.horizon.step_count):
        coeffs = [(index.column(branch.id, "sent[fwd]", t), 1.0),
                  (index.column(branch.id, "sent[rev]", t), 1.0)]
        if fwd_col is not None:
            coeffs.append((fwd_col, -per_unit * h))
        rows.append(Row(coeffs, LE, branch.existing_capacity * h,
                        f"{branch.id}.dircut[{t}]"))
    return rows


def emit_pipeline_consumption(branch: NetworkBranch, index: VariableIndex,
                              system: EnergySystem) -> list[Row]:
    """Compression electricity at the sending node, proportional to flow."""
    k = pipeline_compression_factor(branch.compression)
    rows = []
    for t in range(system.horizon.step_count):
        cons = index.column(branch.id, "cons_el", t)
        sent = index.column(branch.id, "sent", t)
        rows.append(Row([(cons, 1.0), (sent, -k)], EQ, 0.0,
                        f"{branch.id}.compression[{t}]"))
    return rows


def emit_block_build_link(branch: NetworkBranch, index: VariableIndex) -> list[Row]:
    """Gate integer blocks behind the build indicator carrying fixed costs."""
    if not index.has(branch.id, "build"):
        return []
    blocks = index.column(branch.id, "blocks")
    build = index.column(branch.id, "build")
    return [Row([(blocks, 1.0), (build, -float(branch.max_blocks))], LE, 0.0,
                f"{branch.id}.build_gate")]


def emit_branch(branch: NetworkBranch, index: VariableIndex,
                system: EnergySystem) -> tuple[list[Row], list[Bound]]:
    rows, bounds = emit_branch_capacity_and_loss(branch, index, system)
    if branch.bidirectional:
        rows.extend(emit_bidirectional_coupling(branch, index, system))
    if branch.carrier == Carrier.HYDROGEN:
        rows.extend(emit_pipeline_consumption(branch, index, system))
    rows.extend(emit_block_build_link(branch, index))
    return rows, bounds


def balance_label(node_id: str, carrier: Carrier, t: int) -> str:
    return f"balance[{node_id}][{carrier.value}][{t}]"


def emit_energy_balance(system: EnergySystem, index: VariableIndex
                        ) -> tuple[list[Row], list[Bound]]:
    """Equality balance per participating (node, carrier, step) plus import caps."""
    steps = system.horizon.step_count
    h = system.horizon.hours_per_step
    demand_by_key = {(d.node, d.carrier): d.values for d in system.demands}
    participants = node_carrier_participants(system)

    rows: list[Row] = []
    bounds: list[Bound] = []
    for node in sorted(system.nodes, key=lambda n: n.id):
        for carrier in CARRIERS:
            key = (node.id, carrier)
            if key not in participants:
                continue
            has_import = index.has(node.id, f"imp[{carrier.value}]", 0)
            demand = demand_by_key.get(key)
            for t in range(steps):
                coeffs = [(index.column(entity, role, t), sign)
                          for entity, role, sign in participants[key]]
                if has_import:
                    col = index.column(node.id, f"imp[{carrier.value}]", t)
                    coeffs.append((col, 1.0))
                    if t == 0:
                        limit = node.import_limit.get(carrier, 0.0)
                        cap = limit * h if math.isfinite(limit) else math.inf
                        for step in range(steps):
                            bounds.append((index.column(node.id, f"imp[{carrier.value}]",
                                                        step), 0.0, cap))
                rows.append(Row(coeffs, EQ, demand[t] if demand else 0.0,
                                balance_label(node.id, carrier, t)))
    return rows, bounds
