"""Tabular on-disk format for energy systems: CSV files plus a JSON manifest.

A system directory holds:

* ``manifest.json`` -- carbon price, horizon, optional per-carrier import
  defaults applied where node cells are empty, optional ``units`` block
  (only MW/MWh/EUR/t/km are supported; anything else is rejected).
* ``nodes.csv``, ``technologies.csv``, ``branches.csv`` -- one row per
  entity; the literal ``inf`` is allowed where a quantity may be unbounded.
* ``demand_<carrier>.csv`` -- wide per-step files, one column per node.
* ``profiles.csv`` / ``inflows.csv`` -- per-step availability of renewables
  and hydro inflows, one column per technology.

Each entity file is declared once, as a table of :class:`_Column` entries
(``_NODE_COLUMNS``, ``_TECH_COLUMNS``, ``_BRANCH_COLUMNS``) that drives both
the writer and the parser. A column names the field it holds and the
section of the entity that holds the field: the entity itself, its ``cost``
parameters, its ``conversion`` or ``storage`` performance, or a branch's
``compression`` block. A section applies to a row as follows:

* the entity and ``cost`` sections apply to every row;
* ``conversion`` applies to ``conversion2`` technologies and ``storage`` to
  the three storage kinds; a filled cell of either on any other kind is an
  error, as nothing would read it;
* ``compression`` applies when any of its seven cells is filled, and then
  all seven are required.

An empty cell stands for its column's default: a number, or "absent" for the
optional import, admixture, emission-factor and integer-block cells. A
column without a default is required wherever its section applies; the
entity-level ones must also appear in the header. A node's empty import
cell takes the manifest's ``import_defaults`` entry for it first.

Unknown and repeated columns are rejected so typos fail loudly. Series files
go through the same reader: a repeated column, or a row with more or fewer
cells than the header, is rejected, and blank lines are skipped. Floats are
written with ``repr`` and round-trip exactly; parsing a directory written by
:func:`write_system_files` reproduces the system field by field.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple

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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):  # input carriers, in canonical order
        return "+".join(c.value for c in CARRIERS if c in value)
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


def _parse_text(cell: str, where: str) -> str:
    return cell


def _parse_bool(cell: str, where: str) -> bool:
    if cell == "true":
        return True
    if cell == "false":
        return False
    raise SchemaError(f"{where}: expected true or false, got {cell!r}")


def _member_parser(enum: type[Enum], label: str) -> Callable[[str, str], Enum]:
    def parse(cell: str, where: str) -> Enum:
        try:
            return enum(cell)
        except ValueError:
            raise SchemaError(f"{where}: unknown {label} {cell!r}") from None
    return parse


_parse_carrier = _member_parser(Carrier, "carrier")
_parse_kind = _member_parser(TechnologyKind, "kind")


def _parse_carriers(cell: str, where: str) -> tuple[Carrier, ...]:
    return tuple(_parse_carrier(c, where) for c in cell.split("+"))


class _Column(NamedTuple):
    """One column of an entity file: field ``attr`` of the entity, or of its
    ``section`` object, parsed by ``read``. ``default`` is the text an empty
    cell stands for ("" = absent); ``None`` makes the cell required. ``key``
    picks the entry of a mapping field, or the position in a tuple field."""
    name: str
    attr: str
    section: str = ""
    read: Callable[[str, str], object] = _parse_float
    default: str | None = None
    key: object = None


# section -> (entity attribute holding it, its class, the technology kinds it
# applies to; None: the rows that fill any of its cells)
_SECTIONS = {
    "cost": ("cost", CostParams, tuple(TechnologyKind)),
    "conversion": ("performance", Conversion2Params, (TechnologyKind.CONVERSION2,)),
    "storage": ("performance", StorageParams, STORAGE_KINDS),
    "compression": ("compression", CompressionParams, None),
}

_NODE_COLUMNS = (
    _Column("id", "id", read=_parse_text),
    _Column("country", "country", read=_parse_text),
    _Column("location_kind", "location_kind", read=_parse_text),
    *(_Column(f"import_{field}_{c.value}", f"import_{field}", default="", key=c)
      for field in ("limit", "price", "emission_factor") for c in CARRIERS),
)

_TECH_COLUMNS = (
    _Column("id", "id", read=_parse_text),
    _Column("node", "node", read=_parse_text),
    _Column("kind", "kind", read=_parse_kind),
    _Column("existing_size", "existing_size"),
    _Column("expandable", "expandable", read=_parse_bool),
    _Column("max_size", "max_size"),
    _Column("capex_per_size", "capex_per_size", "cost", default="0"),
    _Column("lifetime", "lifetime", "cost", default="0"),
    _Column("fixed_opex_share", "fixed_opex_share", "cost", default="0"),
    _Column("variable_opex", "variable_opex", "cost", default="0"),
    _Column("discount_rate", "discount_rate", "cost", default="0.04"),
    _Column("efficiency", "efficiency", "conversion"),
    _Column("input_carriers", "input_carriers", "conversion", _parse_carriers),
    _Column("output_carrier", "output_carrier", "conversion", _parse_carrier),
    *(_Column(f"admix_limit_{c.value}", "admix_limits", "conversion", default="", key=c)
      for c in CARRIERS),
    _Column("storage_carrier", "carrier", "storage", _parse_carrier),
    _Column("max_charge_rate", "max_charge_rate", "storage"),
    _Column("max_discharge_rate", "max_discharge_rate", "storage"),
    _Column("self_discharge", "self_discharge", "storage", default="0"),
    _Column("charge_efficiency", "charge_efficiency", "storage", default="1"),
    _Column("discharge_efficiency", "discharge_efficiency", "storage", default="1"),
    _Column("compression_electricity", "compression_electricity", "storage", default="0"),
    *(_Column(f"ef_{direction}_{c.value}", "emission_factors", default="",
              key=(direction, c)) for direction in ("in", "out") for c in CARRIERS),
)

_BRANCH_COLUMNS = (
    _Column("id", "id", read=_parse_text),
    _Column("network_kind", "network_kind", read=_parse_text),
    _Column("carrier", "carrier", read=_parse_carrier),
    _Column("from_node", "from_node", read=_parse_text),
    _Column("to_node", "to_node", read=_parse_text),
    _Column("length_km", "length_km"),
    _Column("existing_capacity", "existing_capacity", default="0"),
    _Column("expandable", "expandable", read=_parse_bool),
    _Column("max_capacity", "max_capacity", default="inf"),
    _Column("loss_factor_per_km", "loss_factor_per_km", default="0"),
    _Column("bidirectional", "bidirectional", read=_parse_bool),
    *(_Column(f"gamma{k + 1}", "cost_poly", default="0", key=k) for k in range(4)),
    _Column("fixed_opex_share", "fixed_opex_share", default="0"),
    _Column("lifetime", "lifetime", default="40"),
    _Column("variable_opex", "variable_opex", default="0"),
    _Column("discount_rate", "discount_rate", default="0.04"),
    _Column("integer_block_mw", "integer_block_mw", default=""),
    _Column("outlet_pressure_bar", "outlet_pressure_bar", "compression"),
    _Column("specific_heat", "specific_heat", "compression"),
    _Column("temperature_k", "temperature_k", "compression"),
    _Column("compressor_efficiency", "efficiency", "compression"),
    _Column("heat_capacity_ratio", "heat_capacity_ratio", "compression"),
    _Column("lower_heating_value", "lower_heating_value", "compression"),
    _Column("reference_pressure_bar", "reference_pressure_bar", "compression"),
)


def _write_csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _field_value(entity, column: _Column):
    """The value ``column`` holds for ``entity``; None where it is absent."""
    holder = entity
    if column.section:
        attr, cls, _ = _SECTIONS[column.section]
        holder = getattr(entity, attr)
        if not isinstance(holder, cls):
            return None
    value = getattr(holder, column.attr)
    if column.key is None:
        return value
    return value[column.key] if isinstance(value, tuple) else value.get(column.key)


def _entity_csv(columns: tuple[_Column, ...], entities) -> str:
    return _write_csv([[c.name for c in columns]] + [
        [_fmt(_field_value(entity, c)) for c in columns]
        for entity in sorted(entities, key=lambda e: e.id)])


def _series_csv(names: list[str], series: dict[str, tuple[float, ...]],
                steps: int) -> str:
    return _write_csv([["step"] + names] + [
        [t] + [_fmt(float(series[n][t])) for n in names] for t in range(steps)])


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
    files["nodes.csv"] = _entity_csv(_NODE_COLUMNS, system.nodes)
    files["technologies.csv"] = _entity_csv(_TECH_COLUMNS, system.technologies)
    files["branches.csv"] = _entity_csv(_BRANCH_COLUMNS, system.branches)
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


def _read_csv(path: Path, allowed: list[str] | None, required: list[str]
              ) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header and the non-blank rows of ``path``, each row with the line
    of the file it ends on, which the messages name. The header names each
    column once, from ``allowed`` (any name if None), and every ``required``
    one; a row has exactly as many cells as the header."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        rows = [(reader.line_num, cells) for cells in reader if cells]
    unknown = [c for c in header if allowed is not None and c not in allowed]
    if unknown:
        raise SchemaError(f"{path.name}: unknown column {unknown[0]!r}")
    repeated = [c for c in header if header.count(c) > 1]
    if repeated:
        raise SchemaError(f"{path.name}: column {repeated[0]!r} appears more than once")
    missing = [c for c in required if c not in header]
    if missing:
        raise SchemaError(f"{path.name}: missing column {missing[0]!r}")
    for line, cells in rows:
        if len(cells) != len(header):
            raise SchemaError(f"{path.name} row {line}: expected {len(header)} cells,"
                              f" found {len(cells)}")
    return header, rows


def _applies(section: str, kind: TechnologyKind | None, filled: bool) -> bool:
    if not section:
        return True
    kinds = _SECTIONS[section][2]
    return filled if kinds is None else kind in kinds


def _parse_entities(path: Path, entity: type, columns: tuple[_Column, ...],
                    fallback: dict[str, float] | None = None) -> tuple:
    """One ``entity`` per row of ``path``, its fields read as ``columns``
    declare; ``fallback`` holds parsed values for empty cells by column."""
    fallback = fallback or {}
    sections: dict[str, list[_Column]] = {}
    for column in columns:
        sections.setdefault(column.section, []).append(column)
    holders = {_SECTIONS[s][0] for s in sections if s}
    required = [c.name for c in columns if not c.section and c.default is None]
    header, rows = _read_csv(path, [c.name for c in columns], required)
    entities = []
    for line, cells in rows:
        row = dict(zip(header, cells))
        where = f"{path.name} row {line}"
        fields: dict[str, dict] = {}
        for section, members in sections.items():
            cells = [(c, row.get(c.name, "").strip()) for c in members]
            kind = fields[""].get("kind") if section else None
            if not _applies(section, kind, any(cell for _, cell in cells)):
                stray = next((c.name for c, cell in cells if cell), None)
                if stray:
                    raise SchemaError(f"{where} {stray}: a {kind.value} technology"
                                      f" takes no {section} cells")
                continue
            target = fields.setdefault(section, {})
            for column, cell in cells:
                text = cell or column.default
                if not cell and column.name in fallback:
                    value = fallback[column.name]
                elif text is None:
                    raise SchemaError(f"{where} {column.name}: required cell is empty")
                else:
                    value = column.read(text, f"{where} {column.name}") if text else None
                if column.key is None:
                    target[column.attr] = value
                elif isinstance(column.key, int):  # the next position of a tuple
                    target[column.attr] = target.get(column.attr, ()) + (value,)
                else:
                    entries = target.setdefault(column.attr, {})
                    if value is not None:
                        entries[column.key] = value
        values = {**dict.fromkeys(holders), **fields.pop("")}
        for section, parsed in fields.items():
            attr, cls, _ = _SECTIONS[section]
            values[attr] = cls(**parsed)
        entities.append(entity(**values))
    return tuple(entities)


def _parse_series_file(path: Path, steps: int) -> dict[str, tuple[float, ...]]:
    """Each named column of a wide per-step file as a series; the first column
    numbers the steps 0, 1, ..."""
    header, rows = _read_csv(path, None, [])
    if header[:1] != ["step"]:
        raise SchemaError(f"{path.name}: first column must be 'step'")
    names = header[1:]
    columns: dict[str, list[float]] = {name: [] for name in names}
    for expected, (line, row) in enumerate(rows):
        try:
            step = int(row[0])
        except ValueError:
            raise SchemaError(f"{path.name} row {line}: step {row[0]!r} is not an integer"
                              ) from None
        if step != expected:
            raise SchemaError(f"{path.name} row {line}: steps must run 0..{steps - 1}")
        for name, cell in zip(names, row[1:]):
            columns[name].append(_parse_float(cell, f"{path.name} row {line} {name}"))
    if any(len(v) != steps for v in columns.values()):
        raise SchemaError(f"{path.name}: expected {steps} steps")
    return {name: tuple(values) for name, values in columns.items()}


def _import_defaults(manifest: dict) -> dict[str, float]:
    """The manifest's ``import_defaults`` as parsed values by node column."""
    defaults = _manifest_object(manifest.get("import_defaults", {}), "import_defaults")
    fallback = {
        f"import_{field}_{carrier}": _manifest_number(value,
                                                      f"import_defaults.{field}.{carrier}")
        for field, values in defaults.items()
        for carrier, value in _manifest_object(values, f"import_defaults.{field}").items()}
    unknown = sorted(set(fallback) - {c.name for c in _NODE_COLUMNS})
    if unknown:
        raise SchemaError(f"manifest.json: import_defaults entry {unknown[0]!r}"
                          " names no nodes.csv column")
    return fallback


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
    fallback = _import_defaults(manifest)
    horizon = _manifest_object(manifest.get("horizon", {}), "horizon")
    step_count = _manifest_number(horizon.get("step_count", 0), "horizon.step_count")
    if not step_count.is_integer():
        raise SchemaError(f"manifest.json: horizon.step_count {horizon['step_count']!r}"
                          " is not an integer")
    steps = int(step_count)
    system = EnergySystem(
        horizon=TimeHorizon(step_count=steps, hours_per_step=_manifest_number(
            horizon.get("hours_per_step", 1.0), "horizon.hours_per_step")),
        nodes=_parse_entities(directory / "nodes.csv", Node, _NODE_COLUMNS, fallback),
        technologies=_parse_entities(directory / "technologies.csv", TechnologyInstance,
                                     _TECH_COLUMNS),
        branches=_parse_entities(directory / "branches.csv", NetworkBranch,
                                 _BRANCH_COLUMNS),
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
