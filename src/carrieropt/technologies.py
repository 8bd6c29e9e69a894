"""Linear constraint rows for the six technology performance models.

Emitters write every step of a row kind at once and return ``(block,
bounds)``: ``block`` is a :class:`~carrieropt.lp.RowBlock` whose entries
reference columns of a :class:`~carrieropt.system.VariableIndex`, and
``bounds`` lists ``(columns, upper)`` array pairs that tighten those columns'
upper bounds (lower bounds stay 0). A row kind repeated over the steps is a
:class:`StepRows`; :func:`step_block` lays a group of kinds out step by
step, so step t's rows come in the order the emitter lists its kinds. Every
flow limited by an asset's size, here and in :mod:`carrieropt.network`, is
emitted by :func:`size_limit`: ``flow <= cap + rate * size`` becomes the
bound ``(flow, cap)`` while the size is fixed, which keeps the working
problems small, and a row kind on the size column once the size may grow.
Emitters take a system that passes
:func:`~carrieropt.system.validate_system`, which the builder checks first,
and do not check its rules again.

Sizes are power ratings in MW except for storage, whose size is the energy
capacity in MWh. With ``h`` hours per step a rating of S MW allows S*h MWh of
energy per step, and per-hour storage rates scale the same way. Self
discharge compounds to ``(1 - lambda)**h`` per step. State of charge is
cyclic: the first step's balance references the final step, so no free
initial energy exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import EQ, LE, RowBlock
from .system import (
    CARRIERS,
    EnergySystem,
    TechnologyInstance,
    TechnologyKind,
    VariableIndex,
    step_names,
)

Bounds = tuple[np.ndarray, np.ndarray]   # (columns, upper bounds)
Emitted = tuple[RowBlock, list[Bounds]]


class DataError(ValueError):
    """Required series or parameters are missing or unusable."""


@dataclass
class StepRows:
    """One row per step ``t``, named ``name[t]``: the sum of ``coef * x[col]``
    over ``terms``, ``sense`` ``rhs``.

    A term's column is a per-step array (:meth:`VariableIndex.columns`) or one
    column that every step's row reads, such as a size; a coefficient, like
    ``rhs``, is a number or a per-step array.
    """

    name: str
    terms: list[tuple[np.ndarray | int, np.ndarray | float]]
    sense: str
    rhs: np.ndarray | float = 0.0


def step_block(steps: int, *groups: list[StepRows]) -> RowBlock:
    """The rows of every kind of ``groups`` at every step, one group after the
    other. Within a group, step ``t``'s rows come in the order of its kinds,
    after all rows of step ``t - 1``; each row's entries keep the order of its
    kind's terms."""
    terms, first_row, stride = [], [], []
    count = steps * sum(len(kinds) for kinds in groups)
    senses, names, rhs = [""] * count, [""] * count, np.empty(count)
    offset = 0
    for kinds in groups:
        k = len(kinds)
        for j, kind in enumerate(kinds):
            terms += kind.terms
            first_row += [offset + j] * len(kind.terms)
            stride += [k] * len(kind.terms)
            at = slice(offset + j, offset + k * steps, k)  # kind j's row at every step
            senses[at] = [kind.sense] * steps
            names[at] = step_names(kind.name, steps)
            rhs[at] = kind.rhs
        offset += k * steps
    cols = np.empty((len(terms), steps), dtype=np.intp)
    coefs = np.empty((len(terms), steps))
    for i, (col, coef) in enumerate(terms):
        cols[i] = col
        coefs[i] = coef
    # term-major entries: within each row, the entries follow the kind's terms
    rows = (np.array(first_row, dtype=np.intp)[:, None]
            + np.array(stride, dtype=np.intp)[:, None] * np.arange(steps))
    return RowBlock(rows=rows.ravel(), cols=cols.ravel(), coefs=coefs.ravel(),
                    senses=senses, rhs=rhs, names=names)


def size_limit(kinds: list[StepRows], bounds: list[Bounds], flow: np.ndarray,
               cap: np.ndarray | float, rate: np.ndarray | float, size: int | None,
               name: str) -> None:
    """Limit ``flow <= cap + rate * size`` at every step: append the bounds
    ``(flow, cap)`` when the size is fixed (``size`` is None), otherwise the
    row kind ``name`` with ``-rate`` on the size column."""
    if size is None:
        bounds.append((flow, np.full(len(flow), cap, dtype=float)))
    else:
        kinds.append(StepRows(name, [(flow, 1.0), (size, -rate)], LE, cap))


def _size_column(tech: TechnologyInstance, index: VariableIndex) -> int | None:
    return index.column(tech.id, "size") if tech.expandable else None


def emit_renewable(tech: TechnologyInstance, index: VariableIndex,
                   system: EnergySystem) -> Emitted:
    """Availability limit per step; curtailment is implicitly profile - output.

    Profiles are stored as energy per step at the existing size and scale
    linearly with installed size; for greenfield instances (existing size 0)
    the stored values are interpreted per MW of installed capacity, so a
    greenfield instance whose size is fixed delivers nothing.
    """
    kinds: list[StepRows] = []
    bounds: list[Bounds] = []
    existing = tech.existing_size
    available = np.array(system.renewable_profiles[tech.id], dtype=float)
    cap, per_mw = (available, available / existing) if existing > 0 else (0.0, available)
    size_limit(kinds, bounds, index.columns(tech.id, "out"), cap, per_mw,
               _size_column(tech, index), f"{tech.id}.avail")
    return step_block(system.horizon.step_count, kinds), bounds


def emit_conversion1(tech: TechnologyInstance, index: VariableIndex,
                     system: EnergySystem) -> Emitted:
    """Output limited by size only; fuel cost lives in the variable opex."""
    h = system.horizon.hours_per_step
    kinds: list[StepRows] = []
    bounds: list[Bounds] = []
    size_limit(kinds, bounds, index.columns(tech.id, "out"), tech.existing_size * h, h,
               _size_column(tech, index), f"{tech.id}.cap")
    return step_block(system.horizon.step_count, kinds), bounds


def emit_conversion2(tech: TechnologyInstance, index: VariableIndex,
                     system: EnergySystem) -> Emitted:
    """Size cap on output, fixed-efficiency input/output link, admix limits."""
    params = tech.performance
    h = system.horizon.hours_per_step
    alpha = params.efficiency
    inputs = [c for c in CARRIERS if c in params.input_carriers]
    kinds: list[StepRows] = []
    bounds: list[Bounds] = []
    out = index.columns(tech.id, "out")
    size_limit(kinds, bounds, out, tech.existing_size * h, h, _size_column(tech, index),
               f"{tech.id}.cap")
    in_cols = [index.columns(tech.id, f"in[{c.value}]") for c in inputs]
    kinds.append(StepRows(f"{tech.id}.inout",
                          [(out, 1.0)] + [(col, -alpha) for col in in_cols], EQ))
    for carrier, share in sorted(params.admix_limits.items(), key=lambda kv: kv[0].value):
        kinds.append(StepRows(f"{tech.id}.admix[{carrier.value}]",
                              [(col, (1.0 - share) if c == carrier else -share)
                               for c, col in zip(inputs, in_cols)], LE))
    return step_block(system.horizon.step_count, kinds), bounds


def emit_storage(tech: TechnologyInstance, index: VariableIndex,
                 system: EnergySystem) -> Emitted:
    """Rate and capacity limits, cyclic state of charge, simultaneity cut.

    A store with an exogenous inflow (storage2_1) has a nonnegative spill,
    which keeps full reservoirs feasible; one whose charging draws
    electricity at the node balance (storage2_2) links that draw to its
    charge. Both columns come from :func:`~carrieropt.system.tech_flows`.
    """
    params = tech.performance
    h = system.horizon.hours_per_step
    decay = (1.0 - params.self_discharge) ** h
    size_col = _size_column(tech, index)
    existing = tech.existing_size
    charge_rate = params.max_charge_rate * h
    discharge_rate = params.max_discharge_rate * h
    charge, discharge, soc = (index.columns(tech.id, role)
                              for role in ("charge", "discharge", "soc"))
    kinds: list[StepRows] = []
    bounds: list[Bounds] = []
    size_limit(kinds, bounds, charge, charge_rate * existing, charge_rate, size_col,
               f"{tech.id}.max_charge")
    size_limit(kinds, bounds, discharge, discharge_rate * existing, discharge_rate,
               size_col, f"{tech.id}.max_discharge")
    size_limit(kinds, bounds, soc, existing, 1.0, size_col, f"{tech.id}.soc_cap")

    # step t's balance reads the state of charge of step (t - 1) % steps
    prev = soc - 1
    prev[0] = soc[-1]
    terms = [(soc, 1.0), (prev, -decay),
             (charge, -params.charge_efficiency),
             (discharge, 1.0 / params.discharge_efficiency)]
    if index.has(tech.id, "spill"):
        terms.append((index.columns(tech.id, "spill"), 1.0))
    kinds.append(StepRows(f"{tech.id}.soc_balance", terms, EQ,
                          system.hydro_inflows.get(tech.id, 0.0)))

    # discourage simultaneous charge/discharge: both at full rate need the
    # whole installed size (weaker than a binary, always valid)
    cut = [(charge, 1.0 / charge_rate), (discharge, 1.0 / discharge_rate)]
    if size_col is not None:
        cut.append((size_col, -1.0))
    kinds.append(StepRows(f"{tech.id}.cut", cut, LE, existing))

    if index.has(tech.id, "compress_el"):
        kinds.append(StepRows(f"{tech.id}.compression",
                              [(index.columns(tech.id, "compress_el"), 1.0),
                               (charge, -params.compression_electricity)], EQ))
    return step_block(system.horizon.step_count, kinds), bounds


_EMITTERS = {
    TechnologyKind.RENEWABLE: emit_renewable,
    TechnologyKind.CONVERSION1: emit_conversion1,
    TechnologyKind.CONVERSION2: emit_conversion2,
    TechnologyKind.STORAGE1: emit_storage,
    TechnologyKind.STORAGE2_1: emit_storage,
    TechnologyKind.STORAGE2_2: emit_storage,
}


def emit_technology(tech: TechnologyInstance, index: VariableIndex,
                    system: EnergySystem) -> Emitted:
    return _EMITTERS[tech.kind](tech, index, system)

