"""Fixed-format MPS export.

The writer emits the classic fixed column layout with generated 8-character
row/column names (``R0000001``, ``C0000001``) so that any external solver can
consume the file; the original long names are recorded in a JSON sidecar next
to the MPS file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .problem import EQ, GE, LE, SparseProblem

_SENSE_CODE = {LE: "L", GE: "G", EQ: "E"}


def _field(value: float) -> str:
    return f"{value:.12g}"


def export_mps(problem: SparseProblem, path: str | Path, name: str = "CARRIEROPT") -> Path:
    """Write ``problem`` to ``path`` in fixed MPS format.

    Returns the path written. A ``<path>.names.json`` sidecar maps the
    generated short names back to the problem's own row/column names. Free
    rows (:meth:`SparseProblem.free_rows`) constrain nothing and are left out.
    """
    problem.validate()
    problem = problem.without_free_rows()
    path = Path(path)
    m, n = problem.num_rows, problem.num_cols
    rnames = [f"R{i + 1:07d}" for i in range(m)]
    cnames = [f"C{j + 1:07d}" for j in range(n)]

    a_csc = problem.a.tocsc()
    lines = [f"NAME          {name}", "ROWS", " N  COST"]
    for i in range(m):
        lines.append(f" {_SENSE_CODE[problem.senses[i]]}  {rnames[i]}")

    lines.append("COLUMNS")
    in_integer = False
    marker = 0
    for j in range(n):
        if problem.integer[j] and not in_integer:
            lines.append(f"    MARKER{marker:04d}  'MARKER'                 'INTORG'")
            marker += 1
            in_integer = True
        elif not problem.integer[j] and in_integer:
            lines.append(f"    MARKER{marker:04d}  'MARKER'                 'INTEND'")
            marker += 1
            in_integer = False
        entries: list[tuple[str, float]] = []
        if problem.objective[j] != 0.0:
            entries.append(("COST", float(problem.objective[j])))
        start, end = a_csc.indptr[j], a_csc.indptr[j + 1]
        for k in range(start, end):
            entries.append((rnames[a_csc.indices[k]], float(a_csc.data[k])))
        if not entries:
            entries.append(("COST", 0.0))
        for pos in range(0, len(entries), 2):
            chunk = entries[pos:pos + 2]
            line = f"    {cnames[j]:<10}{chunk[0][0]:<10}{_field(chunk[0][1]):<15}"
            if len(chunk) == 2:
                line += f"{chunk[1][0]:<10}{_field(chunk[1][1])}"
            lines.append(line.rstrip())
    if in_integer:
        lines.append(f"    MARKER{marker:04d}  'MARKER'                 'INTEND'")

    lines.append("RHS")
    for i in range(m):
        if problem.rhs[i] != 0.0:
            lines.append(f"    RHS       {rnames[i]:<10}{_field(float(problem.rhs[i]))}")

    lines.append("BOUNDS")
    for j in range(n):
        lo, up = float(problem.lower[j]), float(problem.upper[j])
        integer = bool(problem.integer[j])
        if lo == up:
            lines.append(f" FX BND       {cnames[j]:<10}{_field(lo)}")
            continue
        if np.isneginf(lo):
            lines.append(f" MI BND       {cnames[j]:<10}")
        elif lo != 0.0 or integer:
            code = "LI" if integer else "LO"
            lines.append(f" {code} BND       {cnames[j]:<10}{_field(lo)}")
        if np.isposinf(up):
            if not integer:
                lines.append(f" PL BND       {cnames[j]:<10}")
        else:
            code = "UI" if integer else "UP"
            lines.append(f" {code} BND       {cnames[j]:<10}{_field(up)}")
    lines.append("ENDATA")

    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sidecar = {
        "columns": {short: problem._col_name(j) for j, short in enumerate(cnames)},
        "rows": {short: problem._row_name(i) for i, short in enumerate(rnames)},
    }
    Path(str(path) + ".names.json").write_text(
        json.dumps(sidecar, indent=1, sort_keys=True), encoding="utf-8")
    return path

