"""Linear constraint rows for the six technology performance models.

Emitters return ``(rows, bounds)``: rows reference columns of a
:class:`~carrieropt.system.VariableIndex`, bounds are (column, lower, upper)
tightenings. Every flow limited by an asset's size, here and in
:mod:`carrieropt.network`, is emitted by :func:`size_limit`: ``flow <= cap +
rate * size`` becomes the bound ``(flow, 0, cap)`` while the size is fixed,
which keeps the working problems small, and a row on the size column once the
size may grow. Emitters take a system that passes
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


from .lp import EQ, LE, Row
from .system import (
    CARRIERS,
    EnergySystem,
    StructureError,
    TechnologyInstance,
    TechnologyKind,
    VariableIndex,
)

Bound = tuple[int, float, float]


class DataError(ValueError):
    """Required series or parameters are missing or unusable."""


def _require_kind(tech: TechnologyInstance, kind: TechnologyKind) -> None:
    if tech.kind != kind:
        raise StructureError(f"technology {tech.id} is {tech.kind.value}, not {kind.value}")


def size_limit(rows: list[Row], bounds: list[Bound], col: int, cap: float, rate: float,
               size: int | None, name: str, t: int) -> None:
    """Limit ``col <= cap + rate * size``: append the bound ``(col, 0, cap)`` when
    the size is fixed (``size`` is None), otherwise the row ``name[t]`` with
    ``-rate`` on the size column."""
    if size is None:
        bounds.append((col, 0.0, cap))
    else:
        rows.append(Row([(col, 1.0), (size, -rate)], LE, cap, f"{name}[{t}]"))


def _size_column(tech: TechnologyInstance, index: VariableIndex) -> int | None:
    return index.column(tech.id, "size") if tech.expandable else None


def emit_renewable(tech: TechnologyInstance, index: VariableIndex,
                   system: EnergySystem) -> tuple[list[Row], list[Bound]]:
    """Availability limit per step; curtailment is implicitly profile - output.

    Profiles are stored as energy per step at the existing size and scale
    linearly with installed size; for greenfield instances (existing size 0)
    the stored values are interpreted per MW of installed capacity, so a
    greenfield instance whose size is fixed delivers nothing.
    """
    _require_kind(tech, TechnologyKind.RENEWABLE)
    rows: list[Row] = []
    bounds: list[Bound] = []
    existing = tech.existing_size
    size = _size_column(tech, index)
    name = f"{tech.id}.avail"
    for t, available in enumerate(system.renewable_profiles[tech.id]):
        cap, per_mw = (available, available / existing) if existing > 0 else (0.0, available)
        size_limit(rows, bounds, index.column(tech.id, "out", t), cap, per_mw, size, name, t)
    return rows, bounds


def emit_conversion1(tech: TechnologyInstance, index: VariableIndex,
                     system: EnergySystem) -> tuple[list[Row], list[Bound]]:
    """Output limited by size only; fuel cost lives in the variable opex."""
    _require_kind(tech, TechnologyKind.CONVERSION1)
    h = system.horizon.hours_per_step
    size, cap, name = _size_column(tech, index), tech.existing_size * h, f"{tech.id}.cap"
    rows: list[Row] = []
    bounds: list[Bound] = []
    for t in range(system.horizon.step_count):
        size_limit(rows, bounds, index.column(tech.id, "out", t), cap, h, size, name, t)
    return rows, bounds


def emit_conversion2(tech: TechnologyInstance, index: VariableIndex,
                     system: EnergySystem) -> tuple[list[Row], list[Bound]]:
    """Size cap on output, fixed-efficiency input/output link, admix limits."""
    _require_kind(tech, TechnologyKind.CONVERSION2)
    params = tech.performance
    h = system.horizon.hours_per_step
    size, cap, name = _size_column(tech, index), tech.existing_size * h, f"{tech.id}.cap"
    alpha = params.efficiency
    inputs = [c for c in CARRIERS if c in params.input_carriers]
    rows: list[Row] = []
    bounds: list[Bound] = []
    for t in range(system.horizon.step_count):
        out = index.column(tech.id, "out", t)
        size_limit(rows, bounds, out, cap, h, size, name, t)
        in_cols = [index.column(tech.id, f"in[{c.value}]", t) for c in inputs]
        rows.append(Row([(out, 1.0)] + [(col, -alpha) for col in in_cols], EQ, 0.0,
                        f"{tech.id}.inout[{t}]"))
        for carrier, share in sorted(params.admix_limits.items(),
                                     key=lambda kv: kv[0].value):
            limited = index.column(tech.id, f"in[{carrier.value}]", t)
            coeffs = [(col, (1.0 - share) if col == limited else -share)
                      for col in in_cols]
            rows.append(Row(coeffs, LE, 0.0, f"{tech.id}.admix[{carrier.value}][{t}]"))
    return rows, bounds


def _storage_common(tech: TechnologyInstance, index: VariableIndex,
                    system: EnergySystem,
                    inflow: tuple[float, ...] | None,
                    spill: bool, compression: bool) -> tuple[list[Row], list[Bound]]:
    params = tech.performance
    h = system.horizon.hours_per_step
    steps = system.horizon.step_count
    decay = (1.0 - params.self_discharge) ** h
    size_col = _size_column(tech, index)
    existing = tech.existing_size
    charge_rate = params.max_charge_rate * h
    discharge_rate = params.max_discharge_rate * h
    charge_name, discharge_name = f"{tech.id}.max_charge", f"{tech.id}.max_discharge"
    soc_name = f"{tech.id}.soc_cap"
    rows: list[Row] = []
    bounds: list[Bound] = []
    for t in range(steps):
        charge = index.column(tech.id, "charge", t)
        discharge = index.column(tech.id, "discharge", t)
        soc = index.column(tech.id, "soc", t)
        size_limit(rows, bounds, charge, charge_rate * existing, charge_rate, size_col,
                   charge_name, t)
        size_limit(rows, bounds, discharge, discharge_rate * existing, discharge_rate,
                   size_col, discharge_name, t)
        size_limit(rows, bounds, soc, existing, 1.0, size_col, soc_name, t)

        prev = index.column(tech.id, "soc", (t - 1) % steps)
        coeffs = [(soc, 1.0), (prev, -decay),
                  (charge, -params.charge_efficiency),
                  (discharge, 1.0 / params.discharge_efficiency)]
        rhs = 0.0
        if inflow is not None:
            rhs = inflow[t]
        if spill:
            coeffs.append((index.column(tech.id, "spill", t), 1.0))
        rows.append(Row(coeffs, EQ, rhs, f"{tech.id}.soc_balance[{t}]"))

        # discourage simultaneous charge/discharge: both at full rate need the
        # whole installed size (weaker than a binary, always valid)
        cut = [(charge, 1.0 / charge_rate), (discharge, 1.0 / discharge_rate)]
        if size_col is not None:
            cut.append((size_col, -1.0))
        rows.append(Row(cut, LE, existing, f"{tech.id}.cut[{t}]"))

        if compression:
            el = index.column(tech.id, "compress_el", t)
            rows.append(Row([(el, 1.0), (charge, -params.compression_electricity)],
                            EQ, 0.0, f"{tech.id}.compression[{t}]"))
    return rows, bounds


def emit_storage1(tech: TechnologyInstance, index: VariableIndex,
                  system: EnergySystem) -> tuple[list[Row], list[Bound]]:
    """Rate and capacity limits, cyclic state of charge, simultaneity cut."""
    _require_kind(tech, TechnologyKind.STORAGE1)
    return _storage_common(tech, index, system, inflow=None, spill=False,
                           compression=False)


def emit_storage_open_loop(tech: TechnologyInstance, index: VariableIndex,
                           system: EnergySystem) -> tuple[list[Row], list[Bound]]:
    """Storage with exogenous inflow; nonnegative spill keeps full reservoirs feasible."""
    _require_kind(tech, TechnologyKind.STORAGE2_1)
    return _storage_common(tech, index, system, inflow=system.hydro_inflows[tech.id],
                           spill=True, compression=False)


def emit_storage_compressed(tech: TechnologyInstance, index: VariableIndex,
                            system: EnergySystem) -> tuple[list[Row], list[Bound]]:
    """Storage whose charging draws electricity at the node balance."""
    _require_kind(tech, TechnologyKind.STORAGE2_2)
    return _storage_common(tech, index, system, inflow=None, spill=False,
                           compression=True)


_EMITTERS = {
    TechnologyKind.RENEWABLE: emit_renewable,
    TechnologyKind.CONVERSION1: emit_conversion1,
    TechnologyKind.CONVERSION2: emit_conversion2,
    TechnologyKind.STORAGE1: emit_storage1,
    TechnologyKind.STORAGE2_1: emit_storage_open_loop,
    TechnologyKind.STORAGE2_2: emit_storage_compressed,
}


def emit_technology(tech: TechnologyInstance, index: VariableIndex,
                    system: EnergySystem) -> tuple[list[Row], list[Bound]]:
    return _EMITTERS[tech.kind](tech, index, system)


def simulate_state_of_charge(params, initial: float, charges, discharges,
                             inflows=None, hours_per_step: float = 1.0) -> list[float]:
    """Reference recursion for the storage balance, used by tests as an oracle."""
    soc = [initial]
    decay = (1.0 - params.self_discharge) ** hours_per_step
    for t, (cin, cout) in enumerate(zip(charges, discharges)):
        extra = inflows[t] if inflows is not None else 0.0
        soc.append(decay * soc[-1]
                   + params.charge_efficiency * cin
                   - cout / params.discharge_efficiency
                   + extra)
    return soc[1:]
