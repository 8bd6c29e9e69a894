"""Tabular on-disk format for energy systems: CSV files plus a JSON manifest.

A system directory holds:

* ``manifest.json`` -- carbon price, horizon, optional per-carrier import
  defaults applied where node cells are empty, optional ``units`` block
  (only MW/MWh/EUR/t/km are supported; anything else is rejected).
* ``nodes.csv``, ``technologies.csv``, ``branches.csv`` -- one row per
  entity; empty cells mean "absent", the literal ``inf`` is allowed where a
  quantity may be unbounded.
* ``demand_<carrier>.csv`` -- wide per-step files, one column per node.
* ``profiles.csv`` / ``inflows.csv`` -- per-step availability of renewables
  and hydro inflows, one column per technology.

Unknown columns are rejected so typos fail loudly. Floats are written with
``repr`` and round-trip exactly; parsing a directory written by
:func:`write_system_files` reproduces the system field by field.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

from .system import (
    CARRIERS,
    STORAGE_KINDS,
    Carrier,
    CompressionParams,
    Conversion2Params,
    CostParams,
    DemandSeries,
    EnergySystem,
    NetworkBranch,
    Node,
    StorageParams,
    TechnologyInstance,
    TechnologyKind,
    TimeHorizon,
    validate_system,
)


class SchemaError(ValueError):
    """Input files do not follow the documented layout.

    ``violations`` lists every defect found, one message each; a defect that
    stops parsing is the only one.
    """

    def __init__(self, message: str, violations: list[str] | None = None):
        super().__init__(message)
        self.violations = violations or [message]


SUPPORTED_UNITS = {"power": "MW", "energy": "MWh", "currency": "EUR",
                   "emissions": "t", "distance": "km"}

NODE_COLUMNS = ["id", "country", "location_kind"] + [
    f"import_{field}_{c.value}" for field in ("limit", "price", "emission_factor")
    for c in CARRIERS
]

TECH_COLUMNS = [
    "id", "node", "kind", "existing_size", "expandable", "max_size",
    "capex_per_size", "lifetime", "fixed_opex_share", "variable_opex",
    "discount_rate", "efficiency", "input_carriers", "output_carrier",
    "admix_limit_electricity", "admix_limit_hydrogen", "admix_limit_natural_gas",
    "storage_carrier", "max_charge_rate", "max_discharge_rate", "self_discharge",
    "charge_efficiency", "discharge_efficiency", "compression_electricity",
    "ef_in_electricity", "ef_in_hydrogen", "ef_in_natural_gas",
    "ef_out_electricity", "ef_out_hydrogen", "ef_out_natural_gas",
]

BRANCH_COLUMNS = [
    "id", "network_kind", "carrier", "from_node", "to_node", "length_km",
    "existing_capacity", "expandable", "max_capacity", "loss_factor_per_km",
    "bidirectional", "gamma1", "gamma2", "gamma3", "gamma4", "fixed_opex_share",
    "lifetime", "variable_opex", "discount_rate", "integer_block_mw",
    "outlet_pressure_bar", "specific_heat", "temperature_k",
    "compressor_efficiency", "heat_capacity_ratio", "lower_heating_value",
    "reference_pressure_bar",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(value)
    return str(value)


def _parse_float(cell: str, where: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise SchemaError(f"{where}: {cell!r} is not a number") from None
    if math.isnan(value):
        raise SchemaError(f"{where}: NaN is not allowed")
    return value


def _manifest_number(value, field: str) -> float:
    """A manifest value as a float: a JSON number or a numeric string.
    Infinities and NaN pass here; :func:`validate_system` rejects them."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise SchemaError(f"manifest.json: {field} {value!r} is not a number")


def _manifest_object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"manifest.json: {field} {value!r} is not an object")
    return value


def _parse_bool(cell: str, where: str) -> bool:
    if cell == "true":
        return True
    if cell == "false":
        return False
    raise SchemaError(f"{where}: expected true or false, got {cell!r}")


def _parse_carrier(cell: str, where: str) -> Carrier:
    try:
        return Carrier(cell)
    except ValueError:
        raise SchemaError(f"{where}: unknown carrier {cell!r}") from None


def _write_csv(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row.get(k)) for k in columns})
    return buf.getvalue()


def _node_rows(system: EnergySystem) -> list[dict]:
    rows = []
    for n in sorted(system.nodes, key=lambda n: n.id):
        row = {"id": n.id, "country": n.country, "location_kind": n.location_kind}
        for field, mapping in (("limit", n.import_limit), ("price", n.import_price),
                               ("emission_factor", n.import_emission_factor)):
            for c in CARRIERS:
                row[f"import_{field}_{c.value}"] = mapping.get(c)
        rows.append(row)
    return rows


def _tech_rows(system: EnergySystem) -> list[dict]:
    rows = []
    for t in sorted(system.technologies, key=lambda t: t.id):
        row = {
            "id": t.id, "node": t.node, "kind": t.kind.value,
            "existing_size": t.existing_size, "expandable": t.expandable,
            "max_size": t.max_size,
            "capex_per_size": t.cost.capex_per_size, "lifetime": t.cost.lifetime,
            "fixed_opex_share": t.cost.fixed_opex_share,
            "variable_opex": t.cost.variable_opex,
            "discount_rate": t.cost.discount_rate,
        }
        if isinstance(t.performance, Conversion2Params):
            p = t.performance
            row["efficiency"] = p.efficiency
            row["input_carriers"] = "+".join(c.value for c in CARRIERS
                                             if c in p.input_carriers)
            row["output_carrier"] = p.output_carrier.value
            for c in CARRIERS:
                if c in p.admix_limits:
                    row[f"admix_limit_{c.value}"] = p.admix_limits[c]
        elif isinstance(t.performance, StorageParams):
            p = t.performance
            row.update({
                "storage_carrier": p.carrier.value,
                "max_charge_rate": p.max_charge_rate,
                "max_discharge_rate": p.max_discharge_rate,
                "self_discharge": p.self_discharge,
                "charge_efficiency": p.charge_efficiency,
                "discharge_efficiency": p.discharge_efficiency,
                "compression_electricity": p.compression_electricity,
            })
        for (direction, carrier), factor in t.emission_factors.items():
            row[f"ef_{direction}_{carrier.value}"] = factor
        rows.append(row)
    return rows


def _branch_rows(system: EnergySystem) -> list[dict]:
    rows = []
    for b in sorted(system.branches, key=lambda b: b.id):
        row = {
            "id": b.id, "network_kind": b.network_kind, "carrier": b.carrier.value,
            "from_node": b.from_node, "to_node": b.to_node, "length_km": b.length_km,
            "existing_capacity": b.existing_capacity, "expandable": b.expandable,
            "max_capacity": b.max_capacity, "loss_factor_per_km": b.loss_factor_per_km,
            "bidirectional": b.bidirectional,
            "gamma1": b.cost_poly[0], "gamma2": b.cost_poly[1],
            "gamma3": b.cost_poly[2], "gamma4": b.cost_poly[3],
            "fixed_opex_share": b.fixed_opex_share, "lifetime": b.lifetime,
            "variable_opex": b.variable_opex, "discount_rate": b.discount_rate,
            "integer_block_mw": b.integer_block_mw,
        }
        if b.compression is not None:
            c = b.compression
            row.update({
                "outlet_pressure_bar": c.outlet_pressure_bar,
                "specific_heat": c.specific_heat,
                "temperature_k": c.temperature_k,
                "compressor_efficiency": c.efficiency,
                "heat_capacity_ratio": c.heat_capacity_ratio,
                "lower_heating_value": c.lower_heating_value,
                "reference_pressure_bar": c.reference_pressure_bar,
            })
        rows.append(row)
    return rows


def _series_csv(names: list[str], series: dict[str, tuple[float, ...]],
                steps: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step"] + names)
    for t in range(steps):
        writer.writerow([t] + [_fmt(float(series[n][t])) for n in names])
    return buf.getvalue()


def serialize_system(system: EnergySystem) -> dict[str, str]:
    """Render the system as {filename: content}, deterministically."""
    steps = system.horizon.step_count
    files: dict[str, str] = {}
    manifest = {
        "carbon_price": system.carbon_price,
        "horizon": {"step_count": steps,
                    "hours_per_step": system.horizon.hours_per_step},
        "units": dict(SUPPORTED_UNITS),
    }
    files["manifest.json"] = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    files["nodes.csv"] = _write_csv(NODE_COLUMNS, _node_rows(system))
    files["technologies.csv"] = _write_csv(TECH_COLUMNS, _tech_rows(system))
    files["branches.csv"] = _write_csv(BRANCH_COLUMNS, _branch_rows(system))
    for carrier in CARRIERS:
        nodes = sorted(d.node for d in system.demands if d.carrier == carrier)
        if not nodes:
            continue
        series = {d.node: d.values for d in system.demands if d.carrier == carrier}
        files[f"demand_{carrier.value}.csv"] = _series_csv(nodes, series, steps)
    if system.renewable_profiles:
        names = sorted(system.renewable_profiles)
        files["profiles.csv"] = _series_csv(names, dict(system.renewable_profiles), steps)
    if system.hydro_inflows:
        names = sorted(system.hydro_inflows)
        files["inflows.csv"] = _series_csv(names, dict(system.hydro_inflows), steps)
    return files


def write_system_files(system: EnergySystem, directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, content in serialize_system(system).items():
        (directory / name).write_text(content, encoding="utf-8")
    return directory


def system_digest(system: EnergySystem) -> str:
    """Stable content hash of the serialized system."""
    hasher = hashlib.sha256()
    for name, content in sorted(serialize_system(system).items()):
        hasher.update(name.encode())
        hasher.update(b"\0")
        hasher.update(content.encode())
    return hasher.hexdigest()


# -- parsing -------------------------------------------------------------------


def _read_csv(path: Path, allowed: list[str], required: list[str]) -> list[dict]:
    """The non-blank rows of ``path`` as dicts by column, numbered from 2 in
    the messages; a row must have exactly as many cells as the header."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        rows = [cells for cells in reader if cells]
    unknown = [c for c in header if c not in allowed]
    if unknown:
        raise SchemaError(f"{path.name}: unknown column {unknown[0]!r}")
    missing = [c for c in required if c not in header]
    if missing:
        raise SchemaError(f"{path.name}: missing column {missing[0]!r}")
    for i, cells in enumerate(rows, start=2):
        if len(cells) != len(header):
            raise SchemaError(f"{path.name} row {i}: expected {len(header)} cells,"
                              f" found {len(cells)}")
    return [dict(zip(header, cells)) for cells in rows]


def _cell(row: dict, column: str) -> str:
    return (row.get(column) or "").strip()


def _parse_nodes(path: Path, defaults: dict) -> tuple[Node, ...]:
    nodes = []
    for i, row in enumerate(_read_csv(path, NODE_COLUMNS,
                                      ["id", "country", "location_kind"]), start=2):
        where = f"{path.name} row {i}"
        maps: dict[str, dict[Carrier, float]] = {"limit": {}, "price": {},
                                                 "emission_factor": {}}
        for field, target in maps.items():
            for c in CARRIERS:
                cell = _cell(row, f"import_{field}_{c.value}")
                if cell:
                    target[c] = _parse_float(cell, f"{where} import_{field}_{c.value}")
                elif c.value in defaults.get(field, {}):
                    target[c] = _manifest_number(defaults[field][c.value],
                                                 f"import_defaults.{field}.{c.value}")
        nodes.append(Node(
            id=_cell(row, "id"), country=_cell(row, "country"),
            location_kind=_cell(row, "location_kind"),
            import_limit=maps["limit"], import_price=maps["price"],
            import_emission_factor=maps["emission_factor"],
        ))
    return tuple(nodes)


def _parse_technologies(path: Path) -> tuple[TechnologyInstance, ...]:
    techs = []
    required = ["id", "node", "kind", "existing_size", "expandable", "max_size"]
    for i, row in enumerate(_read_csv(path, TECH_COLUMNS, required), start=2):
        where = f"{path.name} row {i}"
        try:
            kind = TechnologyKind(_cell(row, "kind"))
        except ValueError:
            raise SchemaError(f"{where}: unknown kind {_cell(row, 'kind')!r}") from None
        cost = CostParams(
            capex_per_size=_parse_float(_cell(row, "capex_per_size") or "0", where),
            lifetime=_parse_float(_cell(row, "lifetime") or "0", where),
            fixed_opex_share=_parse_float(_cell(row, "fixed_opex_share") or "0", where),
            variable_opex=_parse_float(_cell(row, "variable_opex") or "0", where),
            discount_rate=_parse_float(_cell(row, "discount_rate") or "0.04", where),
        )
        performance = None
        if kind == TechnologyKind.CONVERSION2:
            carriers = _cell(row, "input_carriers")
            if not carriers:
                raise SchemaError(f"{where}: conversion2 needs input_carriers")
            inputs = tuple(_parse_carrier(c, where) for c in carriers.split("+"))
            admix = {}
            for c in CARRIERS:
                cell = _cell(row, f"admix_limit_{c.value}")
                if cell:
                    admix[c] = _parse_float(cell, f"{where} admix_limit_{c.value}")
            performance = Conversion2Params(
                efficiency=_parse_float(_cell(row, "efficiency"), f"{where} efficiency"),
                input_carriers=inputs,
                output_carrier=_parse_carrier(_cell(row, "output_carrier"), where),
                admix_limits=admix,
            )
        elif kind in STORAGE_KINDS:
            performance = StorageParams(
                carrier=_parse_carrier(_cell(row, "storage_carrier"), where),
                max_charge_rate=_parse_float(_cell(row, "max_charge_rate"), where),
                max_discharge_rate=_parse_float(_cell(row, "max_discharge_rate"), where),
                self_discharge=_parse_float(_cell(row, "self_discharge") or "0", where),
                charge_efficiency=_parse_float(_cell(row, "charge_efficiency") or "1", where),
                discharge_efficiency=_parse_float(_cell(row, "discharge_efficiency") or "1",
                                                  where),
                compression_electricity=_parse_float(
                    _cell(row, "compression_electricity") or "0", where),
            )
        factors = {}
        for direction in ("in", "out"):
            for c in CARRIERS:
                cell = _cell(row, f"ef_{direction}_{c.value}")
                if cell:
                    factors[(direction, c)] = _parse_float(
                        cell, f"{where} ef_{direction}_{c.value}")
        techs.append(TechnologyInstance(
            id=_cell(row, "id"), node=_cell(row, "node"), kind=kind,
            existing_size=_parse_float(_cell(row, "existing_size"), where),
            expandable=_parse_bool(_cell(row, "expandable"), where),
            max_size=_parse_float(_cell(row, "max_size"), where),
            performance=performance, emission_factors=factors, cost=cost,
        ))
    return tuple(techs)


def _parse_branches(path: Path) -> tuple[NetworkBranch, ...]:
    branches = []
    required = ["id", "network_kind", "carrier", "from_node", "to_node", "length_km"]
    for i, row in enumerate(_read_csv(path, BRANCH_COLUMNS, required), start=2):
        where = f"{path.name} row {i}"
        compression = None
        comp_cells = {name: _cell(row, name) for name in (
            "outlet_pressure_bar", "specific_heat", "temperature_k",
            "compressor_efficiency", "heat_capacity_ratio", "lower_heating_value",
            "reference_pressure_bar")}
        if any(comp_cells.values()):
            empty = [k for k, v in comp_cells.items() if not v]
            if empty:
                raise SchemaError(f"{where}: incomplete compression block,"
                                  f" missing {empty[0]}")
            compression = CompressionParams(
                outlet_pressure_bar=_parse_float(comp_cells["outlet_pressure_bar"], where),
                specific_heat=_parse_float(comp_cells["specific_heat"], where),
                temperature_k=_parse_float(comp_cells["temperature_k"], where),
                efficiency=_parse_float(comp_cells["compressor_efficiency"], where),
                heat_capacity_ratio=_parse_float(comp_cells["heat_capacity_ratio"], where),
                lower_heating_value=_parse_float(comp_cells["lower_heating_value"], where),
                reference_pressure_bar=_parse_float(comp_cells["reference_pressure_bar"],
                                                    where),
            )
        block = _cell(row, "integer_block_mw")
        branches.append(NetworkBranch(
            id=_cell(row, "id"), network_kind=_cell(row, "network_kind"),
            carrier=_parse_carrier(_cell(row, "carrier"), where),
            from_node=_cell(row, "from_node"), to_node=_cell(row, "to_node"),
            length_km=_parse_float(_cell(row, "length_km"), where),
            existing_capacity=_parse_float(_cell(row, "existing_capacity") or "0", where),
            expandable=_parse_bool(_cell(row, "expandable"), where),
            max_capacity=_parse_float(_cell(row, "max_capacity") or "inf", where),
            loss_factor_per_km=_parse_float(_cell(row, "loss_factor_per_km") or "0", where),
            bidirectional=_parse_bool(_cell(row, "bidirectional"), where),
            cost_poly=(
                _parse_float(_cell(row, "gamma1") or "0", where),
                _parse_float(_cell(row, "gamma2") or "0", where),
                _parse_float(_cell(row, "gamma3") or "0", where),
                _parse_float(_cell(row, "gamma4") or "0", where),
            ),
            fixed_opex_share=_parse_float(_cell(row, "fixed_opex_share") or "0", where),
            lifetime=_parse_float(_cell(row, "lifetime") or "40", where),
            variable_opex=_parse_float(_cell(row, "variable_opex") or "0", where),
            discount_rate=_parse_float(_cell(row, "discount_rate") or "0.04", where),
            integer_block_mw=_parse_float(block, where) if block else None,
            compression=compression,
        ))
    return tuple(branches)


def _parse_series_file(path: Path, steps: int) -> dict[str, tuple[float, ...]]:
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[0] != "step":
            raise SchemaError(f"{path.name}: first column must be 'step'")
        names = header[1:]
        columns: dict[str, list[float]] = {name: [] for name in names}
        for i, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise SchemaError(f"{path.name} row {i}: expected {len(header)} cells")
            try:
                step = int(row[0])
            except ValueError:
                raise SchemaError(f"{path.name} row {i}: step {row[0]!r} is not an integer"
                                  ) from None
            if step != i - 2:
                raise SchemaError(f"{path.name} row {i}: steps must run 0..{steps - 1}")
            for name, cell in zip(names, row[1:]):
                columns[name].append(_parse_float(cell, f"{path.name} row {i} {name}"))
    if any(len(v) != steps for v in columns.values()):
        raise SchemaError(f"{path.name}: expected {steps} steps")
    return {name: tuple(values) for name, values in columns.items()}


def parse_system_files(directory: str | Path) -> EnergySystem:
    """Load and validate a system directory; raises SchemaError on any defect."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise SchemaError("manifest.json: file is missing")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise SchemaError(f"manifest.json: {err}") from None
    if not isinstance(manifest, dict):
        raise SchemaError("manifest.json: expected a JSON object")
    known_keys = {"carbon_price", "horizon", "units", "import_defaults"}
    unknown = set(manifest) - known_keys
    if unknown:
        raise SchemaError(f"manifest.json: unknown key {sorted(unknown)[0]!r}")
    for key, unit in _manifest_object(manifest.get("units", {}), "units").items():
        if SUPPORTED_UNITS.get(key) != unit:
            raise SchemaError(f"manifest.json: unsupported unit {unit!r} for {key!r}")
    defaults = _manifest_object(manifest.get("import_defaults", {}), "import_defaults")
    for field, values in defaults.items():
        _manifest_object(values, f"import_defaults.{field}")
    horizon = _manifest_object(manifest.get("horizon", {}), "horizon")
    step_count = _manifest_number(horizon.get("step_count", 0), "horizon.step_count")
    if not step_count.is_integer():
        raise SchemaError(f"manifest.json: horizon.step_count {horizon['step_count']!r}"
                          " is not an integer")
    steps = int(step_count)
    system = EnergySystem(
        horizon=TimeHorizon(step_count=steps, hours_per_step=_manifest_number(
            horizon.get("hours_per_step", 1.0), "horizon.hours_per_step")),
        nodes=_parse_nodes(directory / "nodes.csv", defaults),
        technologies=_parse_technologies(directory / "technologies.csv"),
        branches=_parse_branches(directory / "branches.csv"),
        demands=_parse_demands(directory, steps),
        carbon_price=_manifest_number(manifest.get("carbon_price", 0.0), "carbon_price"),
        renewable_profiles=(_parse_series_file(directory / "profiles.csv", steps)
                            if (directory / "profiles.csv").exists() else {}),
        hydro_inflows=(_parse_series_file(directory / "inflows.csv", steps)
                       if (directory / "inflows.csv").exists() else {}),
    )
    violations = validate_system(system)
    if violations:
        raise SchemaError("invalid system: " + "; ".join(violations[:8]), violations)
    return system


def _parse_demands(directory: Path, steps: int) -> tuple[DemandSeries, ...]:
    demands = []
    for carrier in CARRIERS:
        path = directory / f"demand_{carrier.value}.csv"
        if not path.exists():
            continue
        for node, values in sorted(_parse_series_file(path, steps).items()):
            demands.append(DemandSeries(node=node, carrier=carrier, values=values))
    return tuple(demands)
