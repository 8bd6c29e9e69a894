"""Command line: validate systems, run scenarios, sweep caps, export problems.

Exit codes: 0 success, 2 usage, 3 validation failure, 4 infeasible,
5 solver limit, 6 I/O error. Progress lines go to stderr (silenced by
``--quiet``); results are printed to stdout and/or written as files. All
numeric output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NoReturn

from .builder import build_problem
from .costing import ObjectiveMode
from .lp import export_mps
from .scenarios import (
    InfeasibleCapError,
    ScenarioOutcome,
    ScenarioRunner,
    STANDARD_SCENARIO_IDS,
    abatement_sweep,
    apply_scenario,
    run,
    standard_scenario,
)
from .system import validate_system
from .system_io import SchemaError, parse_system_files

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_INFEASIBLE = 4
EXIT_SOLVER_LIMIT = 5
EXIT_IO = 6

JOBS_ENV = "CARRIEROPT_JOBS"


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _parse_mode(text: str) -> ObjectiveMode:
    if text == "min-cost":
        return ObjectiveMode.min_cost()
    if text == "min-emissions":
        return ObjectiveMode.min_emissions()
    if text.startswith("cap="):
        return ObjectiveMode.min_cost_with_cap(float(text[4:]))
    raise argparse.ArgumentTypeError(
        f"mode must be min-cost, min-emissions or cap=<tons>, got {text!r}")


def outcome_to_json(outcome: ScenarioOutcome) -> dict:
    return {
        "scenario": outcome.scenario_id,
        "mode": outcome.mode.label(),
        "status": outcome.status,
        "objective": outcome.objective,
        "emissions": {
            "technologies": outcome.emissions.technologies,
            "imports": outcome.emissions.imports,
            "total": outcome.emissions.total,
        },
        "costs": {
            "technologies": outcome.costs.technologies,
            "networks": outcome.costs.networks,
            "imports": outcome.costs.imports,
            "carbon": outcome.costs.carbon,
            "total": outcome.costs.total,
        },
        "metrics": outcome.metrics,
        "new_capacities": outcome.new_capacities,
        "solver": outcome.solver,
        "size_values": outcome.size_values(),
    }


def _atomic_write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def capacities_csv(outcome: ScenarioOutcome) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["entity", "category", "location", "at", "added"])
    for row in outcome.new_capacities:
        writer.writerow([row["entity"], row["category"], row["location"],
                         row["at"], repr(row["added"])])
    return buf.getvalue()


def frontier_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["fraction", "cap", "feasible", "cost", "emissions",
                     "abatement_cost", "minimum_achievable"])
    for row in rows:
        writer.writerow([
            repr(row["fraction"]), repr(row["cap"]), str(row["feasible"]).lower(),
            "" if row["cost"] is None else repr(row["cost"]),
            "" if row["emissions"] is None else repr(row["emissions"]),
            "" if row["abatement_cost"] is None else repr(row["abatement_cost"]),
            "" if row["minimum_achievable"] is None else repr(row["minimum_achievable"]),
        ])
    return buf.getvalue()


def export_results(outcome: ScenarioOutcome, directory: str | Path,
                   sweep_rows: list[dict] | None = None) -> list[Path]:
    """Write result JSON and new-capacity CSV (plus frontier CSV for sweeps)."""
    directory = Path(directory)
    stem = f"{outcome.scenario_id}_{outcome.mode.kind}"
    written = []
    payload = json.dumps(outcome_to_json(outcome), indent=1, sort_keys=True) + "\n"
    path = directory / f"{stem}.json"
    _atomic_write(path, payload)
    written.append(path)
    path = directory / f"{stem}_capacities.csv"
    _atomic_write(path, capacities_csv(outcome))
    written.append(path)
    if sweep_rows is not None:
        path = directory / f"{outcome.scenario_id}_frontier.csv"
        _atomic_write(path, frontier_csv(sweep_rows))
        written.append(path)
    return written


def _fail(error: str, detail: str, code: int) -> NoReturn:
    print(json.dumps({"error": error, "detail": detail}))
    raise SystemExit(code)


def _load_system(args):
    try:
        return parse_system_files(args.directory)
    except SchemaError as err:
        _fail("schema", str(err), EXIT_VALIDATION)
    except OSError as err:
        _fail("io", str(err), EXIT_IO)


def _scenario(args):
    try:
        return standard_scenario(args.scenario, year=args.year)
    except KeyError as err:
        _fail("usage", str(err), EXIT_USAGE)


def _warm_from(args) -> dict | None:
    """The ``size_values`` of the prior result named by ``--warm-start``."""
    if not args.warm_start:
        return None
    try:
        text = Path(args.warm_start).read_bytes()
    except OSError as err:
        _fail("io", str(err), EXIT_IO)
    try:
        base = json.loads(text)
    except ValueError:
        base = None
    sizes = base.get("size_values") if isinstance(base, dict) else None
    if not (isinstance(sizes, dict)
            and all(isinstance(v, (int, float)) for v in sizes.values())):
        _fail("usage", f"{args.warm_start}: no size_values object of numbers", EXIT_USAGE)
    return sizes


def cmd_validate(args) -> int:
    try:
        system = parse_system_files(args.directory)
    except SchemaError as err:
        print(f"1 violation\n{err}")
        return EXIT_VALIDATION
    except OSError as err:
        _fail("io", str(err), EXIT_IO)
    violations = validate_system(system)
    print(f"{len(violations)} violations")
    for message in violations:
        print(message)
    return EXIT_OK if not violations else EXIT_VALIDATION


def cmd_run(args) -> int:
    system = _load_system(args)
    scenario = _scenario(args)
    mode = args.mode
    warm_from = _warm_from(args)
    _say(args, f"running {scenario.id} [{mode.label()}]")
    try:
        outcome = run(system, scenario, mode, warm_from=warm_from)
    except InfeasibleCapError as err:
        print(json.dumps({"error": "infeasible", "cap": err.cap,
                          "minimum_achievable": err.minimum_achievable},
                         sort_keys=True))
        return EXIT_INFEASIBLE
    except RuntimeError as err:
        _fail("solver_limit", str(err), EXIT_SOLVER_LIMIT)
    payload = json.dumps(outcome_to_json(outcome), indent=1, sort_keys=True)
    if args.out:
        try:
            export_results(outcome, args.out)
        except OSError as err:
            _fail("io", str(err), EXIT_IO)
        _say(args, f"results written to {args.out}")
    print(payload)
    return EXIT_OK


def cmd_sweep(args) -> int:
    system = _load_system(args)
    scenario = _scenario(args)
    try:
        targets = [float(part) for part in args.targets.split(",") if part]
    except ValueError as err:
        _fail("usage", str(err), EXIT_USAGE)
    runner = ScenarioRunner(system)
    _say(args, f"sweeping {scenario.id} over {targets}")
    try:
        rows = abatement_sweep(system, scenario, targets, runner=runner)
    except ValueError as err:
        _fail("usage", str(err), EXIT_USAGE)
    text = frontier_csv(rows)
    if args.out:
        try:
            _atomic_write(Path(args.out) / f"{scenario.id}_frontier.csv", text)
        except OSError as err:
            _fail("io", str(err), EXIT_IO)
    print(text, end="")
    return EXIT_OK


def cmd_matrix(args) -> int:
    system = _load_system(args)
    if args.scenarios == "all":
        ids = list(STANDARD_SCENARIO_IDS)
    else:
        ids = [part.strip() for part in args.scenarios.split(",") if part.strip()]
    try:
        scenarios = [standard_scenario(sid, year=args.year) for sid in ids]
        modes = [_parse_mode(part) for part in args.modes.split(",") if part]
    except (KeyError, ValueError, argparse.ArgumentTypeError) as err:
        _fail("usage", str(err), EXIT_USAGE)
    runner = ScenarioRunner(system)
    jobs = args.jobs or int(os.environ.get(JOBS_ENV, "1"))
    combos = [(scenario, mode) for scenario in scenarios for mode in modes]

    def one(combo):
        """(scenario id, mode, outcome), or the error message of a failed run."""
        scenario, mode = combo
        _say(args, f"running {scenario.id} [{mode.label()}]")
        try:
            return scenario.id, mode, runner.run(scenario, mode)
        except (InfeasibleCapError, RuntimeError) as err:
            return str(err)

    # --jobs 1 must stay on the calling thread: per-thread span stacks in
    # perfbench/tracing.py and its calibration between solves rely on it
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(one, combos))
    else:
        done = list(map(one, combos))
    failures = [item for item in done if isinstance(item, str)]
    results = sorted((item for item in done if not isinstance(item, str)),
                     key=lambda item: (item[0], item[1].label()))
    out = Path(args.out)
    try:
        for sid, mode, outcome in results:
            export_results(outcome, out)
    except OSError as err:
        _fail("io", str(err), EXIT_IO)
    summary = {
        "runs": [{"scenario": sid, "mode": mode.label(),
                  "objective": outcome.objective,
                  "emissions": outcome.emissions.total}
                 for sid, mode, outcome in results],
        "failures": failures,
    }
    print(json.dumps(summary, indent=1, sort_keys=True))
    return EXIT_OK if not failures else EXIT_SOLVER_LIMIT


def cmd_export_mps(args) -> int:
    system = _load_system(args)
    scenario = _scenario(args)
    gated = apply_scenario(system, scenario)
    built = build_problem(gated, args.mode)
    try:
        path = export_mps(built.problem, args.out,
                          name=f"{scenario.id}-{args.mode.kind}".upper())
    except OSError as err:
        _fail("io", str(err), EXIT_IO)
    _say(args, f"wrote {path}")
    print(str(path))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carrieropt",
        description="Multi-carrier energy system expansion and dispatch optimizer")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a system directory")
    p.add_argument("directory")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="solve one scenario")
    p.add_argument("directory")
    p.add_argument("--scenario", required=True)
    p.add_argument("--mode", type=_parse_mode, default=ObjectiveMode.min_cost())
    p.add_argument("--year", type=int, default=2030, choices=(2030, 2040))
    p.add_argument("--warm-start", help="result JSON of a prior run to seed from")
    p.add_argument("--out", help="directory for result files")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="emission-cap sweep for abatement curves")
    p.add_argument("directory")
    p.add_argument("--scenario", required=True)
    p.add_argument("--targets", default="0.01,0.10,0.30",
                   help="comma-separated reduction fractions of reference emissions")
    p.add_argument("--year", type=int, default=2030, choices=(2030, 2040))
    p.add_argument("--out", help="directory for the frontier CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("matrix", help="run many scenario/mode combinations")
    p.add_argument("directory")
    p.add_argument("--scenarios", default="all",
                   help="'all' or comma-separated scenario ids")
    p.add_argument("--modes", default="min-cost,min-emissions")
    p.add_argument("--year", type=int, default=2030, choices=(2030, 2040))
    p.add_argument("--jobs", type=int, default=0,
                   help=f"parallel runs (default ${JOBS_ENV} or 1)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("export-mps", help="write the scenario problem as MPS")
    p.add_argument("directory")
    p.add_argument("--scenario", required=True)
    p.add_argument("--mode", type=_parse_mode, default=ObjectiveMode.min_cost())
    p.add_argument("--year", type=int, default=2030, choices=(2030, 2040))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_mps)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EXIT_USAGE


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
