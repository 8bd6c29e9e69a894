"""The pivot path, pinned: how many iterations each outcome takes and the
exact bits of what it reports, so that a change to how a solve is set up or
restarted shows at once if it moves a single pivot."""

import json
from pathlib import Path

import carrieropt.lp.branch_bound as branch_bound
from carrieropt.cli import run_cli
from carrieropt.scenarios import ScenarioRunner, abatement_sweep, standard_scenario
from carrieropt.system import build_miniature_system

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "miniature"

# result file -> (solver iterations, objective as float.hex), from
# ``matrix fixtures/miniature --scenarios all --year 2030``
MATRIX_2030 = {
    "h-1_min_cost": (138, "0x1.8c046e0250141p+24"),
    "h-1_min_emissions": (92, "0x1.9320adcf18158p+15"),
    "h-2_min_cost": (25, "0x1.a610ce66e5a02p+24"),
    "h-2_min_emissions": (52, "0x1.c3470499c0592p+15"),
    "h-3_min_cost": (111, "0x1.8c046e0250141p+24"),
    "h-3_min_emissions": (86, "0x1.9320adcf18158p+15"),
    "h-4_min_cost": (84, "0x1.94fdcce78e56ap+24"),
    "h-4_min_emissions": (54, "0x1.abeae138f6ee4p+15"),
    "h-all_min_cost": (138, "0x1.8c046e0250141p+24"),
    "h-all_min_emissions": (88, "0x1.9320adcf18158p+15"),
    "reference_min_cost": (293, "0x1.a610ce66e5a02p+24"),
    "reference_min_emissions": (1, "0x1.2999d50212633p+16"),
    "s-1_min_cost": (5, "0x1.a610ce66e5a01p+24"),
    "s-1_min_emissions": (7, "0x1.28799e1d4f1a8p+16"),
    "s-2_min_cost": (19, "0x1.a610ce66e5a01p+24"),
    "s-2_min_emissions": (28, "0x1.25d3f0fba92fep+16"),
    "s-all-hpe_min_cost": (23, "0x1.a610ce66e5a02p+24"),
    "s-all-hpe_min_emissions": (28, "0x1.25d3f0fba92fep+16"),
    "s-all_min_cost": (23, "0x1.a610ce66e5a02p+24"),
    "s-all_min_emissions": (26, "0x1.25d3f0fba92fep+16"),
    "synergies_min_cost": (221, "0x1.092811dcbe012p+24"),
    "synergies_min_emissions": (317, "0x1.5add158cd543fp+14"),
    "t-1_min_cost": (92, "0x1.16152dc18e098p+24"),
    "t-1_min_emissions": (1, "0x1.3739e4cd366a4p+15"),
    "t-2_min_cost": (1, "0x1.a610ce66e5a02p+24"),
    "t-2_min_emissions": (1, "0x1.2999d50212633p+16"),
    "t-3_min_cost": (99, "0x1.0f517b87def18p+24"),
    "t-3_min_emissions": (6, "0x1.2fc59cc864e62p+15"),
    "t-all_min_cost": (114, "0x1.0f517b87def1ap+24"),
    "t-all_min_emissions": (14, "0x1.2fbc09e0eaaf2p+15"),
}

# the seed-0 synergies sweep over 0.1 ... 0.9: iterations of each LP call in
# order (reference, the caps 0.1-0.8, the floor; 0.9 lies below the cached
# floor and is not solved), then each row's cost, or its floor when infeasible
SWEEP_CALLS = [293, 224, 1, 1, 1, 1, 108, 256, 61, 13]
SWEEP_ROWS = [
    (0.1, "0x1.092811dcbe021p+24"),
    (0.2, "0x1.092811dcbe01ap+24"),
    (0.3, "0x1.092811dcbe016p+24"),
    (0.4, "0x1.092811dcbe015p+24"),
    (0.5, "0x1.092811dcbe014p+24"),
    (0.6, "0x1.4bc7c139ea2acp+24"),
    (0.7, "0x1.c224139bb27bap+30"),
    (0.8, None),
    (0.9, None),
]
SWEEP_FLOOR = "0x1.5add158cd5440p+14"


def test_matrix_iterations_and_objective_bits(tmp_path):
    out = tmp_path / "matrix"
    assert run_cli(["--quiet", "matrix", str(FIXTURE), "--scenarios", "all",
                    "--year", "2030", "--out", str(out)]) == 0
    found = {}
    for path in sorted(out.glob("*.json")):
        doc = json.loads(path.read_text())
        found[path.stem] = (doc["solver"]["iterations"], doc["objective"].hex())
    assert found == MATRIX_2030


def test_sweep_calls_iterations_and_bits(monkeypatch):
    calls = []
    solve_lp = branch_bound.solve_lp

    def counted(*args, **kwargs):
        result = solve_lp(*args, **kwargs)
        calls.append(result.iterations)
        return result

    monkeypatch.setattr(branch_bound, "solve_lp", counted)
    system = build_miniature_system(0)
    fractions = [round(0.1 * i, 1) for i in range(1, 10)]
    rows = abatement_sweep(system, standard_scenario("synergies"), fractions,
                           runner=ScenarioRunner(system))
    assert calls == SWEEP_CALLS and sum(calls) == 959
    assert [(row["fraction"], row["cost"] and row["cost"].hex()) for row in rows] == SWEEP_ROWS
    assert {row["minimum_achievable"].hex() for row in rows if not row["feasible"]} \
        == {SWEEP_FLOOR}
