"""The input contract is total: a system directory with one mutated cell,
header name or row, with an edited manifest value, or with two such edits,
either fails with a SchemaError (exit 3 from the command line) or yields a
system that validates and solves without a traceback."""

import contextlib
import csv
import io
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from carrieropt.cli import run_cli
from carrieropt.system import CARRIERS, validate_system
from carrieropt.system_io import SchemaError, parse_system_files

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "miniature"
FILES = sorted(p.name for p in FIXTURE.glob("*.csv"))
TABLES = {name: list(csv.reader((FIXTURE / name).read_text(encoding="utf-8").splitlines()))
          for name in FILES}
MANIFEST = (FIXTURE / "manifest.json").read_text(encoding="utf-8")


def _flip(cell: str) -> str:
    try:
        return repr(-float(cell))
    except ValueError:
        return "-" + cell


def _double(cell: str) -> str:
    try:
        return repr(2.0 * float(cell))
    except ValueError:
        return cell + cell


CELL_EDITS = {
    "zero": lambda cell: "0", "flip": _flip, "double": _double, "inf": lambda cell: "inf",
    "-inf": lambda cell: "-inf", "nan": lambda cell: "nan", "blank": lambda cell: "",
    "text": lambda cell: "x",
}


@st.composite
def mutations(draw, places=("cell", "header", "repeat", "truncate")):
    """(file, rows): one file of the fixture with a single defect: an edited
    cell, a renamed or repeated header name, or a row cut short."""
    name = draw(st.sampled_from(FILES))
    rows = [list(r) for r in TABLES[name]]
    col = draw(st.integers(0, len(rows[0]) - 1))
    where = draw(st.sampled_from(places))
    if where == "cell":
        row = draw(st.integers(1, len(rows) - 1))
        rows[row][col] = CELL_EDITS[draw(st.sampled_from(sorted(CELL_EDITS)))](rows[row][col])
    elif where == "header":
        rows[0][col] = "x"
    elif where == "repeat":
        rows[0][col] = draw(st.sampled_from([c for c in rows[0] if c != rows[0][col]]))
    else:
        row = draw(st.integers(1, len(rows) - 1))
        rows[row] = rows[row][:-1]
    return name, rows


def _json_value(text: str):
    """An edited manifest value: a JSON number where ``text`` reads as one."""
    try:
        return float(text)
    except ValueError:
        return text


# a manifest value's edits: the cell edits, read as numbers where they can be,
# and values of the wrong JSON type
MANIFEST_EDITS = {
    **{name: (lambda value, edit=edit: _json_value(edit(str(value))))
       for name, edit in CELL_EDITS.items()},
    "string": str, "null": lambda value: None, "bool": lambda value: True,
}

MANIFEST_PATHS = [("carbon_price",), ("horizon", "hours_per_step"), ("horizon", "step_count"),
                  *(("import_defaults", field, c.value)
                    for field in ("limit", "price", "emission_factor") for c in CARRIERS)]


@st.composite
def edits(draw, files=(*FILES, "manifest.json")):
    """One edit: ``(file, row, column, edit)`` of a CSV cell, or
    ``("manifest.json", path, edit)`` of a manifest value, where an absent
    ``import_defaults`` entry starts from 1.0."""
    name = draw(st.sampled_from(files))
    if name == "manifest.json":
        return name, draw(st.sampled_from(MANIFEST_PATHS)), draw(st.sampled_from(
            sorted(MANIFEST_EDITS)))
    rows = TABLES[name]
    return (name, draw(st.integers(1, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1)),
            draw(st.sampled_from(sorted(CELL_EDITS))))


def _csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _edited(changes) -> dict[str, str]:
    """The text of every file that ``changes``, made in order, touch."""
    tables: dict[str, list[list[str]]] = {}
    manifest = None
    for name, *where, edit in changes:
        if name == "manifest.json":
            manifest = manifest or json.loads(MANIFEST)
            *parents, key = where[0]
            holder = manifest
            for parent in parents:
                holder = holder.setdefault(parent, {})
            holder[key] = MANIFEST_EDITS[edit](holder.get(key, 1.0))
        else:
            row, col = where
            rows = tables.setdefault(name, [list(r) for r in TABLES[name]])
            rows[row][col] = CELL_EDITS[edit](rows[row][col])
    files = {name: _csv(rows) for name, rows in tables.items()}
    if manifest is not None:
        files["manifest.json"] = json.dumps(manifest)
    return files


@pytest.fixture(scope="module")
def system_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz") / "system"
    shutil.copytree(FIXTURE, directory)
    return directory


@contextlib.contextmanager
def mutated(directory: Path, files: dict[str, str]):
    """``directory`` with the named files' texts replaced, restored on exit."""
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    try:
        yield directory
    finally:
        for name in files:
            shutil.copyfile(FIXTURE / name, directory / name)


def _exit_code(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run_cli(["--quiet", *argv])


@settings(max_examples=400, derandomize=True, deadline=None)
@given(mutation=mutations())
def test_parse_rejects_or_returns_a_valid_system(system_dir, mutation):
    name, rows = mutation
    with mutated(system_dir, {name: _csv(rows)}) as directory:
        try:
            system = parse_system_files(directory)
        except SchemaError:
            return
    assert validate_system(system) == []


# header and row defects never parse; edited cells are the ones that reach a solve
@settings(max_examples=60, derandomize=True, deadline=None)
@given(mutation=mutations(places=("cell",)))
def test_commands_exit_with_a_documented_code(system_dir, mutation):
    name, rows = mutation
    with mutated(system_dir, {name: _csv(rows)}) as directory:
        assert _exit_code("validate", str(directory)) in (0, 3)
        assert _exit_code("run", str(directory), "--scenario", "synergies") in (0, 3, 4)


def _obeys_the_contract(directory: Path) -> None:
    """A SchemaError and exit 3, or a valid system that every command takes."""
    try:
        system = parse_system_files(directory)
    except SchemaError:
        assert _exit_code("validate", str(directory)) == 3
        return
    assert validate_system(system) == []
    assert _exit_code("validate", str(directory)) == 0
    assert _exit_code("run", str(directory), "--scenario", "synergies") in (0, 4)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(edit=edits(files=("manifest.json",)))
def test_an_edited_manifest_value_obeys_the_contract(system_dir, edit):
    with mutated(system_dir, _edited([edit])) as directory:
        _obeys_the_contract(directory)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(pair=st.lists(edits(), min_size=2, max_size=2))
def test_two_edits_obey_the_contract(system_dir, pair):
    """Two defects in one file or in two, the manifest among them."""
    with mutated(system_dir, _edited(pair)) as directory:
        _obeys_the_contract(directory)
