"""The input contract is total: a system directory with one mutated cell,
header name or row either fails with a SchemaError (exit 3 from the command
line) or yields a system that validates and solves without a traceback."""

import contextlib
import csv
import io
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from carrieropt.cli import run_cli
from carrieropt.system import validate_system
from carrieropt.system_io import SchemaError, parse_system_files

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "miniature"
FILES = sorted(p.name for p in FIXTURE.glob("*.csv"))
TABLES = {name: list(csv.reader((FIXTURE / name).read_text(encoding="utf-8").splitlines()))
          for name in FILES}


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


@pytest.fixture(scope="module")
def system_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz") / "system"
    shutil.copytree(FIXTURE, directory)
    return directory


@contextlib.contextmanager
def mutated(directory: Path, name: str, rows: list[list[str]]):
    path = directory / name
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    try:
        yield directory
    finally:
        shutil.copyfile(FIXTURE / name, path)


def _exit_code(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run_cli(["--quiet", *argv])


@settings(max_examples=400, derandomize=True, deadline=None)
@given(mutation=mutations())
def test_parse_rejects_or_returns_a_valid_system(system_dir, mutation):
    with mutated(system_dir, *mutation) as directory:
        try:
            system = parse_system_files(directory)
        except SchemaError:
            return
    assert validate_system(system) == []


# header and row defects never parse; edited cells are the ones that reach a solve
@settings(max_examples=60, derandomize=True, deadline=None)
@given(mutation=mutations(places=("cell",)))
def test_commands_exit_with_a_documented_code(system_dir, mutation):
    with mutated(system_dir, *mutation) as directory:
        assert _exit_code("validate", str(directory)) in (0, 3)
        assert _exit_code("run", str(directory), "--scenario", "synergies") in (0, 3, 4)
