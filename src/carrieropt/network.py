"""Flow, loss, coupling and compression constraints plus nodal energy balances.

Directed flow variables: ``sent`` leaves the sending node, ``recv`` arrives
at the receiving node after losses, ``recv = (1 - mu*d) * sent``. Electricity
branches carry one forward and one reverse direction with equal sizes and a
one-direction-at-a-time cut; hydrogen pipelines are separate branches per
direction, each consuming compression electricity at the sending node.

The nodal balance per (node, carrier, step) reads

    demand = sum(tech out - tech in) + sum(recv - sent - cons) + import

with electricity imports capped per node and natural-gas imports unbounded.

:func:`emit_branch` and :func:`emit_energy_balance` keep the emitter contract
of :mod:`carrieropt.technologies`: they return every step of their rows as
one :class:`~carrieropt.lp.RowBlock` together with ``(columns, upper)`` bound
arrays. The helpers they call return row kinds (:class:`StepRows`), and
one-row blocks (:meth:`~carrieropt.lp.RowBlock.row`) for the one-off size and
build rows.
"""

from __future__ import annotations

import math

import numpy as np

from .lp import EQ, LE, RowBlock
from .system import (
    CARRIERS,
    Carrier,
    CompressionParams,
    EnergySystem,
    NetworkBranch,
    VariableIndex,
    node_carrier_participants,
)
from .technologies import Bounds, DataError, Emitted, StepRows, size_limit, step_block


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


def branch_capacity_and_loss(branch: NetworkBranch, index: VariableIndex, h: float,
                             bounds: list[Bounds]) -> list[list[StepRows]]:
    """Per direction and step: sent <= capacity, recv = (1 - mu*d) * sent; one
    group of row kinds per direction. Capacity bounds go to ``bounds``."""
    transfer = 1.0 - branch.loss_factor_per_km * branch.length_km
    cap = branch.existing_capacity * h
    directions = [("sent[fwd]", "recv[fwd]", False), ("sent[rev]", "recv[rev]", True)] \
        if branch.bidirectional else [("sent", "recv", False)]
    groups: list[list[StepRows]] = []
    for sent_role, recv_role, reverse in directions:
        size, per_unit = _size_term(branch, index, reverse)
        sent = index.columns(branch.id, sent_role)
        recv = index.columns(branch.id, recv_role)
        kinds: list[StepRows] = []
        size_limit(kinds, bounds, sent, cap, per_unit * h, size,
                   f"{branch.id}.cap[{sent_role}]")
        kinds.append(StepRows(f"{branch.id}.loss[{sent_role}]",
                              [(recv, 1.0), (sent, -transfer)], EQ))
        groups.append(kinds)
    return groups


def bidirectional_coupling(branch: NetworkBranch, index: VariableIndex, h: float
                           ) -> tuple[list[RowBlock], StepRows]:
    """Equal sizes per direction (a row while the size may grow) and a
    single-direction-per-step cut."""
    size_eq: list[RowBlock] = []
    cut = [(index.columns(branch.id, "sent[fwd]"), 1.0),
           (index.columns(branch.id, "sent[rev]"), 1.0)]
    fwd_col, per_unit = _size_term(branch, index, reverse=False)
    if fwd_col is not None:
        rev_col, _ = _size_term(branch, index, reverse=True)
        size_eq.append(RowBlock.row(f"{branch.id}.size_eq",
                                    [(fwd_col, per_unit), (rev_col, -1.0)], EQ, 0.0))
        cut.append((fwd_col, -per_unit * h))
    return size_eq, StepRows(f"{branch.id}.dircut", cut, LE, branch.existing_capacity * h)


def pipeline_consumption(branch: NetworkBranch, index: VariableIndex) -> StepRows:
    """Compression electricity at the sending node, proportional to flow."""
    k = pipeline_compression_factor(branch.compression)
    return StepRows(f"{branch.id}.compression",
                    [(index.columns(branch.id, "cons_el"), 1.0),
                     (index.columns(branch.id, "sent"), -k)], EQ)


def block_build_link(branch: NetworkBranch, index: VariableIndex) -> list[RowBlock]:
    """Gate integer blocks behind the build indicator carrying fixed costs (no
    row without the indicator)."""
    if not index.has(branch.id, "build"):
        return []
    blocks = index.column(branch.id, "blocks")
    build = index.column(branch.id, "build")
    return [RowBlock.row(f"{branch.id}.build_gate",
                         [(blocks, 1.0), (build, -float(branch.max_blocks))], LE, 0.0)]


def emit_branch(branch: NetworkBranch, index: VariableIndex,
                system: EnergySystem) -> Emitted:
    """Capacity and loss rows per direction, then the coupling of a
    bidirectional branch or the compression of a pipeline, then the build gate."""
    steps, h = system.horizon.step_count, system.horizon.hours_per_step
    bounds: list[Bounds] = []
    blocks = [step_block(steps, *branch_capacity_and_loss(branch, index, h, bounds))]
    if branch.bidirectional:
        size_eq, dircut = bidirectional_coupling(branch, index, h)
        blocks += size_eq
        blocks.append(step_block(steps, [dircut]))
    if branch.carrier == Carrier.HYDROGEN:
        blocks.append(step_block(steps, [pipeline_consumption(branch, index)]))
    blocks += block_build_link(branch, index)
    return RowBlock.concat(blocks), bounds


def emit_energy_balance(system: EnergySystem, index: VariableIndex) -> Emitted:
    """Equality balance per participating (node, carrier, step), named
    ``balance[node][carrier][step]``, plus import caps. Slots follow one another
    in (node, carrier) order; within one, step by step."""
    steps = system.horizon.step_count
    h = system.horizon.hours_per_step
    demand_by_key = {(d.node, d.carrier): d.values for d in system.demands}
    participants = node_carrier_participants(system)

    slots: list[StepRows] = []
    bounds: list[Bounds] = []
    for node in sorted(system.nodes, key=lambda n: n.id):
        for carrier in CARRIERS:
            key = (node.id, carrier)
            if key not in participants:
                continue
            terms = [(index.columns(entity, role), sign)
                     for entity, role, sign in participants[key]]
            imports = f"imp[{carrier.value}]"
            if index.has(node.id, imports):
                cols = index.columns(node.id, imports)
                terms.append((cols, 1.0))
                limit = node.import_limit.get(carrier, 0.0)
                cap = limit * h if math.isfinite(limit) else math.inf
                bounds.append((cols, np.full(steps, cap)))
            demand = demand_by_key.get(key)
            slots.append(StepRows(f"balance[{node.id}][{carrier.value}]", terms, EQ,
                                  demand if demand else 0.0))
    return step_block(steps, *([slot] for slot in slots)), bounds
