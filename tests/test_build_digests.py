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

    h.update(f"shape:{p.a.shape}:cap_row:{built.cap_row}".encode())
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
    "reference-2030-seed0": "101606da51a77ecb65395f8a",
    "reference-2030-seed1": "6689159163e1a054d57d0a80",
    "reference-2040-seed0": "a55dfe81e598674054647b87",
    "reference-2040-seed1": "e495d92ae33cd626b4fdca27",
    "t-all-2030-seed0": "757cd7f14135f4cf8312a6b7",
    "t-all-2030-seed1": "9c09af59ca5191acfaab3dc9",
    "t-all-2040-seed0": "4ea8847a2f15c9539f4c6bc5",
    "t-all-2040-seed1": "301475aef765749abb2bb109",
    "t-1-2030-seed0": "4783d06723bded73703d5983",
    "t-1-2030-seed1": "ff7ada73bc147790432b65de",
    "t-1-2040-seed0": "f4f11f45e9a5acca56b68376",
    "t-1-2040-seed1": "58516a0d562ec4c8ee0e622a",
    "t-2-2030-seed0": "e0b3e6fb7e4a86e06efa2efc",
    "t-2-2030-seed1": "720e38c992030c58cda78dcc",
    "t-2-2040-seed0": "143e24be15b7f853db96a13f",
    "t-2-2040-seed1": "80621f14ee1796f7ba75dec0",
    "t-3-2030-seed0": "bd7d542cffc2abaa8eb2a313",
    "t-3-2030-seed1": "e51050b12543db7b103caf95",
    "t-3-2040-seed0": "0da7288dfe5ea0787d46e9f4",
    "t-3-2040-seed1": "6d19cca068156edeed5c282b",
    "s-all-2030-seed0": "ee3fba6b7d1a48a7891cfcbe",
    "s-all-2030-seed1": "3315d0baf4832016736b5b69",
    "s-all-2040-seed0": "a0371a212cfcb752f233518a",
    "s-all-2040-seed1": "da0b5332f47f75678c1cf587",
    "s-1-2030-seed0": "a898469ef354f07b13c192d9",
    "s-1-2030-seed1": "b6ef530d9bfb6a51c1e4c3d6",
    "s-1-2040-seed0": "727bb3965d4d785277f75131",
    "s-1-2040-seed1": "eef71c2b8014ab1a181213ae",
    "s-2-2030-seed0": "bf2d36b18c80e8bb22e52621",
    "s-2-2030-seed1": "885e42569aeef6aff02380cd",
    "s-2-2040-seed0": "c119eafd9e36192fc2d152e2",
    "s-2-2040-seed1": "cfa45b9087eb0976b059daad",
    "s-all-hpe-2030-seed0": "841f350bae3754060a10725b",
    "s-all-hpe-2030-seed1": "8a1d107b75e362fd6eae1900",
    "s-all-hpe-2040-seed0": "c8ad5dc3cd1b3942f181f581",
    "s-all-hpe-2040-seed1": "4063b949ec2ad5aeca670397",
    "h-all-2030-seed0": "a49ad82f212a7fa9b25319aa",
    "h-all-2030-seed1": "1e65a3a38bc065b532603fe3",
    "h-all-2040-seed0": "0437e624c3dafa7ba2048a97",
    "h-all-2040-seed1": "a8df0e3cc2ad2b1a6abce9e6",
    "h-1-2030-seed0": "cf55171404fd20829dc81a86",
    "h-1-2030-seed1": "b2d9d3131aacb041cafdfdcb",
    "h-1-2040-seed0": "612f1582c3aa79c30132da71",
    "h-1-2040-seed1": "9096f9bf51087387db904f5f",
    "h-2-2030-seed0": "ad43b0c40668fe0130530b36",
    "h-2-2030-seed1": "2ef87edf6498ca985f1250eb",
    "h-2-2040-seed0": "1f7310bcadcbf78cc2c6e530",
    "h-2-2040-seed1": "711da5e2ad1903fb73eda324",
    "h-3-2030-seed0": "704c8db7ad9bbd6d99837a4b",
    "h-3-2030-seed1": "535431fd6b5b614f943b40be",
    "h-3-2040-seed0": "ecfba7e047ca1b1393fed2ae",
    "h-3-2040-seed1": "c2efd1a238008bd61856e9cc",
    "h-4-2030-seed0": "aa11ea51efc770f0bc5bed98",
    "h-4-2030-seed1": "7f9fdedff77cfd99cd46b4ba",
    "h-4-2040-seed0": "8f6887329e94a3a7395358d4",
    "h-4-2040-seed1": "a1cd1e991c54eec9aa518980",
    "synergies-2030-seed0": "82b7caea98ff02ceeaf375b7",
    "synergies-2030-seed1": "6b6ca2b5a1bb593aa877c998",
    "synergies-2040-seed0": "7a4fede911e4eed281f22b92",
    "synergies-2040-seed1": "37d465a58d6c96dd92d9de3f",
    "synergies-168": "81a75d4c4371fa63d7ae0da4",
    "t-all-dc-blocks": "4722d53d87bc18ec0de552a7",
    "synergies-dc-blocks": "cbaddb1ee9b8446182d7694d",
    "fixture-miniature": "20733067e78a4ad2b094af4d",
    "synergies-capped": "eeff3339ba9412e73bb60ad1",
}


@pytest.mark.parametrize("case", list(CASES))
def test_build_matches_golden_digest(case):
    assert build_digest(CASES[case]()) == DIGESTS[case]


def test_repeated_builds_are_identical():
    """Two builds of one gated system lay out every array the same way."""
    assert build_digest(CASES["synergies-2040-seed1"]()) == \
        build_digest(CASES["synergies-2040-seed1"]())
