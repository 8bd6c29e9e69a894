"""Golden digests of built problems: every array, name and cost-table term of a
build, hashed, so that a change to how problems are assembled is checked bit
for bit against the matrices the solver has always been given."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from carrieropt.builder import build_problem
from carrieropt.costing import ObjectiveMode
from carrieropt.scenarios import STANDARD_SCENARIO_IDS, apply_scenario, standard_scenario
from carrieropt.system import build_miniature_system
from carrieropt.system_io import parse_system_files

MINIATURE = Path(__file__).resolve().parents[1] / "fixtures" / "miniature"


def build_digest(built) -> str:
    """sha256 over the matrix, row and column data, names and cost table of ``built``."""
    p, table = built.problem, built.table
    h = hashlib.sha256()

    def add(tag: str, array) -> None:
        array = np.ascontiguousarray(array)
        h.update(f"{tag}:{array.dtype.str}:{array.shape}".encode())
        h.update(array.tobytes())

    def add_text(tag: str, items) -> None:
        h.update(f"{tag}:".encode())
        h.update("\n".join(items).encode())

    h.update(f"shape:{p.a.shape}".encode())
    for name in ("indptr", "indices", "data"):
        add(name, getattr(p.a, name))
    for name in ("rhs", "lower", "upper", "objective", "integer"):
        add(name, getattr(p, name))
    add_text("senses", p.senses.tolist())
    add_text("cols", p.col_names)
    add_text("rows", p.row_names)
    for name in ("technologies", "networks", "imports", "tech_emissions", "import_emissions"):
        terms = getattr(table, name)
        add(name + ".cols", np.array(list(terms), dtype=np.int64))
        add(name + ".values", np.array(list(terms.values()), dtype=float))
    add("carbon_price", np.array([table.carbon_price]))
    add("costs", table.costs)
    add("emissions", table.emissions)
    return h.hexdigest()[:24]


def _standard(scenario_id: str, year: int, seed: int, steps: int = 24,
              dc_blocks_mw: float | None = None):
    system = build_miniature_system(seed, steps, dc_blocks_mw=dc_blocks_mw)
    gated = apply_scenario(system, standard_scenario(scenario_id, year=year))
    return build_problem(gated, ObjectiveMode.min_cost())


CASES = {
    **{f"{sid}-{year}-seed{seed}": (lambda sid=sid, year=year, seed=seed:
                                    _standard(sid, year, seed))
       for sid in STANDARD_SCENARIO_IDS for year in (2030, 2040) for seed in (0, 1)},
    "synergies-168": lambda: _standard("synergies", 2030, 0, steps=168),
    "t-all-dc-blocks": lambda: _standard("t-all", 2030, 0, dc_blocks_mw=10.0),
    "synergies-dc-blocks": lambda: _standard("synergies", 2030, 0, dc_blocks_mw=10.0),
    "fixture-miniature": lambda: build_problem(parse_system_files(MINIATURE),
                                               ObjectiveMode.min_cost()),
    "synergies-capped": lambda: _standard("synergies", 2030, 0).for_mode(
        ObjectiveMode.min_cost_with_cap(30_000.0)),
}

DIGESTS = {
    "reference-2030-seed0": "aad3ba3f08c3f550218eac6a",
    "reference-2030-seed1": "f3b0c0dc768db780c830bdeb",
    "reference-2040-seed0": "56ee3938ce7361ecaa403742",
    "reference-2040-seed1": "6d2c68dcb9138ad3375b2016",
    "t-all-2030-seed0": "d300cb915922c5af1cee8404",
    "t-all-2030-seed1": "486da1c1a318b72fbaef464b",
    "t-all-2040-seed0": "955e79e669d45c18def7cf11",
    "t-all-2040-seed1": "603c2770e45979074720f71a",
    "t-1-2030-seed0": "2ecc163fa010bb68bf76df33",
    "t-1-2030-seed1": "a703de4589684bbc66034907",
    "t-1-2040-seed0": "41e411beca30325f3702107a",
    "t-1-2040-seed1": "1f7fed6c9e5fd409fe08b6e2",
    "t-2-2030-seed0": "047d257a62b21142eaf8093c",
    "t-2-2030-seed1": "a92481cb61f7db04af3927ff",
    "t-2-2040-seed0": "855493ac9c7c380ae1cd061e",
    "t-2-2040-seed1": "90b958b605bfb1973ddb90ac",
    "t-3-2030-seed0": "22d182bcfe79940acdc7a22f",
    "t-3-2030-seed1": "05756509582f29fb519b238f",
    "t-3-2040-seed0": "6266f5896c40802206f1a46e",
    "t-3-2040-seed1": "2c4f204249adfeb72166ba4c",
    "s-all-2030-seed0": "6c4c758b054425942bdbdf7c",
    "s-all-2030-seed1": "8aa294bd85ee55b82830569f",
    "s-all-2040-seed0": "537081a4eb8a3994831a6b4b",
    "s-all-2040-seed1": "d2645ad2a0fd9050638c0ed3",
    "s-1-2030-seed0": "1bbc71fae5ce8f42060254a6",
    "s-1-2030-seed1": "3820ace3524efff9dce35ddb",
    "s-1-2040-seed0": "aac93340b4051014a071e341",
    "s-1-2040-seed1": "8d3fa2b09507d8820496249c",
    "s-2-2030-seed0": "0328f2a26ff0c72aace5ba63",
    "s-2-2030-seed1": "2c13eee74c491f40f0e3bac0",
    "s-2-2040-seed0": "f0721c29556277fac0900c7c",
    "s-2-2040-seed1": "61e81b9bf3bad2e3decf6d19",
    "s-all-hpe-2030-seed0": "295f7c31d14b615e18e646c8",
    "s-all-hpe-2030-seed1": "13b3702895d169f2be6afba2",
    "s-all-hpe-2040-seed0": "4b545cc6fe47a88319844f60",
    "s-all-hpe-2040-seed1": "b0e0b488e1085849649008fc",
    "h-all-2030-seed0": "a0c0a76e21a36706bf2a4d1f",
    "h-all-2030-seed1": "51d1da429a57a57a244d0642",
    "h-all-2040-seed0": "3a9cd00c1a7266a460c23825",
    "h-all-2040-seed1": "81499770c66c6c54fd8ddd1d",
    "h-1-2030-seed0": "27a4f302a413d02c7c5e91b8",
    "h-1-2030-seed1": "3cb6d7f79109beb6f75728db",
    "h-1-2040-seed0": "9973c89ae9e50019639c05bb",
    "h-1-2040-seed1": "bdb2c6bbe0da73951594bf6b",
    "h-2-2030-seed0": "58353daefd5b8380367c6d36",
    "h-2-2030-seed1": "230360f853b0aae6aa96ec9e",
    "h-2-2040-seed0": "30cf0e62894688e8895ec41f",
    "h-2-2040-seed1": "4f07d49468dce4bb5d5ae799",
    "h-3-2030-seed0": "07a494d0f8a1e8d51a62a2f7",
    "h-3-2030-seed1": "6060624c2846eefdb4f0404a",
    "h-3-2040-seed0": "7d212e4f962994b16f298bcc",
    "h-3-2040-seed1": "7032035efffc7083f118a428",
    "h-4-2030-seed0": "95af5da87f5519781cc1afdb",
    "h-4-2030-seed1": "ec457bd5ef95d364ae0779aa",
    "h-4-2040-seed0": "7148e08beea83e0c6e7c1ee3",
    "h-4-2040-seed1": "50c473bbb7731bc8ccf94fe5",
    "synergies-2030-seed0": "e02d145e0377d345f8f7146b",
    "synergies-2030-seed1": "37f127635a31fd1a58fe101a",
    "synergies-2040-seed0": "e25ad81a5bae90cf432b23a2",
    "synergies-2040-seed1": "bd055a07781f36ef3aca1033",
    "synergies-168": "51b7df5c607044ab092ecd61",
    "t-all-dc-blocks": "5934564773d7e53a7f281038",
    "synergies-dc-blocks": "610fae0deb12e4bae3f1bdef",
    "fixture-miniature": "b4674fb5fb42c1cb2435b9d3",
    "synergies-capped": "dd26c09fd550275bd2f598d4",
}


@pytest.mark.parametrize("case", list(CASES))
def test_build_matches_golden_digest(case):
    assert build_digest(CASES[case]()) == DIGESTS[case]


def test_repeated_builds_are_identical():
    """Two builds of one gated system lay out every array the same way."""
    assert build_digest(CASES["synergies-2040-seed1"]()) == \
        build_digest(CASES["synergies-2040-seed1"]())
