"""Command line: validate systems, run scenarios, sweep caps, export problems.

Exit codes: 0 success, 2 usage, 3 validation failure, 4 infeasible, 5 solver
limit (also a result past a double's range), 6 I/O error. Commands raise, and
:func:`run_cli` alone prints a failure, as one JSON object on stdout. Progress
goes to stderr (silenced by ``--quiet``), results to stdout and/or files; all
numeric output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from .costing import ObjectiveMode
from .lp import export_mps
from .scenarios import (
    InfeasibleCapError,
    ScenarioOutcome,
    ScenarioRunner,
    STANDARD_SCENARIO_IDS,
    abatement_sweep,
    standard_scenario,
)
from .system_io import SchemaError, parse_system_files

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_INFEASIBLE = 4
EXIT_SOLVER_LIMIT = 5
EXIT_IO = 6


class UsageError(ValueError):
    """An argument the command cannot use."""


_FAILURES = ((UsageError, "usage", EXIT_USAGE), (SchemaError, "schema", EXIT_VALIDATION),
             (RuntimeError, "solver_limit", EXIT_SOLVER_LIMIT), (OSError, "io", EXIT_IO))


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


def export_results(outcome: ScenarioOutcome, directory: str | Path) -> None:
    """Write the result JSON and the new-capacity CSV."""
    directory = Path(directory)
    stem = f"{outcome.scenario_id}_{outcome.mode.kind}"
    if outcome.mode.kind == "min_cost_with_cap":
        stem += f"_{outcome.mode.emission_cap!r}"
    payload = json.dumps(outcome_to_json(outcome), indent=1, sort_keys=True) + "\n"
    _atomic_write(directory / f"{stem}.json", payload)
    _atomic_write(directory / f"{stem}_capacities.csv", capacities_csv(outcome))


def _scenario(args):
    try:
        return standard_scenario(args.scenario, year=args.year)
    except KeyError as err:
        raise UsageError(str(err)) from None


def _warm_from(args) -> dict | None:
    """The ``size_values`` of the prior result named by ``--warm-start``."""
    if not args.warm_start:
        return None
    try:  # an int too large for a float reads inf
        base = json.loads(Path(args.warm_start).read_bytes(), parse_int=float)
    except ValueError:
        base = None
    sizes = base.get("size_values") if isinstance(base, dict) else None
    if not (isinstance(sizes, dict)  # refuses booleans, NaN and infinities
            and all(type(v) is float and math.isfinite(v) for v in sizes.values())):
        raise UsageError(f"{args.warm_start}: no size_values object of numbers")
    return sizes


def cmd_validate(args) -> int:
    try:
        parse_system_files(args.directory)  # validates the system it parses
    except SchemaError as err:
        count = len(err.violations)
        print(f"{count} violation{'' if count == 1 else 's'}")
        for message in err.violations:
            print(message)
        return EXIT_VALIDATION
    print("0 violations")
    return EXIT_OK


def cmd_run(args) -> int:
    system = parse_system_files(args.directory)
    scenario = _scenario(args)
    mode = args.mode
    warm_from = _warm_from(args)
    _say(args, f"running {scenario.id} [{mode.label()}]")
    outcome = ScenarioRunner(system).run(scenario, mode, warm_from=warm_from)
    payload = json.dumps(outcome_to_json(outcome), indent=1, sort_keys=True)
    if args.out:
        export_results(outcome, args.out)
        _say(args, f"results written to {args.out}")
    print(payload)
    return EXIT_OK


def cmd_sweep(args) -> int:
    system = parse_system_files(args.directory)
    scenario = _scenario(args)
    try:
        targets = [float(part) for part in args.targets.split(",") if part]
        if not targets:
            raise ValueError("--targets lists no reduction fraction")
    except ValueError as err:
        raise UsageError(str(err)) from None
    _say(args, f"sweeping {scenario.id} over {targets}")
    try:
        rows = abatement_sweep(system, scenario, targets)
    except ValueError as err:
        raise UsageError(str(err)) from None
    text = frontier_csv(rows)
    if args.out:
        _atomic_write(Path(args.out) / f"{scenario.id}_frontier.csv", text)
    print(text, end="")
    return EXIT_OK


def cmd_matrix(args) -> int:
    """Run every listed scenario in every listed mode and write their files.

    Every run is made on one :class:`ScenarioRunner`, in order, on the
    calling thread. It first solves the ``reference`` min-cost outcome of
    ``--year``, also when reference is not listed (it is then neither
    exported nor summarized); then each scenario runs its modes in the order
    given. A run starts from its scenario's latest outcome in any mode, as
    is, or else from that reference outcome, so a scenario's files do not
    depend on the listing order or on which other scenarios are listed; they
    may depend on the order of ``--modes``. ``--jobs`` is checked and has no
    effect. A min-cost file may report another optimal vertex than ``run``
    does: ``objective`` and ``costs.total`` are equal, ``metrics`` and
    capacities may differ.
    """
    system = parse_system_files(args.directory)
    if args.scenarios == "all":
        ids = list(STANDARD_SCENARIO_IDS)
    else:
        ids = [part.strip() for part in args.scenarios.split(",") if part.strip()]
    try:
        # a repeated scenario or mode runs once, at its first position
        scenarios = [standard_scenario(sid, year=args.year) for sid in dict.fromkeys(ids)]
        modes = list(dict.fromkeys(_parse_mode(part) for part in args.modes.split(",") if part))
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        if not scenarios or not modes:
            raise ValueError("--scenarios and --modes each need at least one entry")
    except (KeyError, ValueError, argparse.ArgumentTypeError) as err:
        raise UsageError(str(err)) from None

    runner = ScenarioRunner(system)

    def attempt(scenario, mode):
        """(scenario id, mode, outcome), or the error message."""
        _say(args, f"running {scenario.id} [{mode.label()}]")
        try:
            return scenario.id, mode, runner.run(scenario, mode)
        except RuntimeError as err:  # InfeasibleCapError too
            return str(err)

    # reference min-cost first, so that every other scenario can start from it
    reference, min_cost = standard_scenario("reference", year=args.year), ObjectiveMode.min_cost()
    root = attempt(reference, min_cost)
    done = [root if (scenario, mode) == (reference, min_cost) else attempt(scenario, mode)
            for scenario in scenarios for mode in modes]
    failures = [item for item in done if isinstance(item, str)]
    results = sorted((item for item in done if not isinstance(item, str)),
                     key=lambda item: (item[0], item[1].label()))
    for sid, mode, outcome in results:
        export_results(outcome, Path(args.out))
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
    system = parse_system_files(args.directory)
    scenario = _scenario(args)
    problem = ScenarioRunner(system).problem(scenario, args.mode).problem
    path = export_mps(problem, args.out,
                      name=f"{scenario.id}-{args.mode.kind}".upper())
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
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and ignored; must be at least 1")
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
    except InfeasibleCapError as err:
        print(json.dumps({"error": "infeasible", "cap": err.cap,
                          "minimum_achievable": err.minimum_achievable},
                         sort_keys=True))
        return EXIT_INFEASIBLE
    except Exception as err:
        for kind, error, code in _FAILURES:
            if isinstance(err, kind):
                print(json.dumps({"error": error, "detail": str(err)}))
                return code
        raise


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
