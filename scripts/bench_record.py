"""Record the benchmark's end-to-end results for one checkout into a JSON file.

Run from anywhere:

    python3 scripts/bench_record.py --checkout DIR --section NAME \
        --seed S --seconds T --out BENCH.json

For each of the four workloads this runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

inside ``DIR`` and keeps the last line of its output (the JSON result) with
the exit code. It then runs the workload once more with ``--trace 1
--seconds 1``, keeps that run's exit code as ``traced_exit`` and, from its
first traced pass:

* as ``counters``, the deterministic counts ``COUNTERS``: iterations, solve
  and build calls, rows and nonzeros of the built matrices, and the
  iterations of the horizon ladder (run by ``expansion-lp`` only, 0
  elsewhere). A change that cuts iterations shows there as a count, apart
  from the host's noise; a change that must not alter the matrices or the
  pivots shows there that it did not;
* as ``traced_s``, the seconds ``TRACED_TIMES`` (build, the HiGHS reference
  solve and the ladder's solves). These are one sample of one traced pass,
  with the tracer's overhead in them: noisy, for orientation only, never a
  basis for claiming a gain.

The section ``NAME`` of ``--out`` (for example ``parent`` or
``change``) is replaced by these results, the seed, ``--seconds`` and the
host (processor count, python, numpy and scipy versions); other sections of
an existing file are kept, so a before-and-after record is two calls.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("expansion-lp", "cap-sweep", "milp-blocks", "scenario-matrix")


def host() -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__}


LADDER_STEPS = (24, 48, 96, 168)
COUNTERS = ("lp.iterations", "lp.solve_calls", "builder.build_calls", "builder.rows",
            "builder.nnz", *(f"ladder.iterations_{steps}" for steps in LADDER_STEPS))
TRACED_TIMES = ("builder.build_s", "ref.highs_s",
                *(f"ladder.solve_s_{steps}" for steps in LADDER_STEPS))


def perfbench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> tuple[int, dict | None]:
    """Exit code and JSON result of one ``perfbench/run.py`` call in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return done.returncode, result


def run_workload(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    code, result = perfbench(checkout, workload, seed, seconds, trace=0)
    traced_code, traced = perfbench(checkout, workload, seed, 1, trace=1)
    metrics = traced["metrics"] if traced else {}
    return {"exit": code, "result": result, "traced_exit": traced_code,
            "counters": {n: metrics[n]["value"] for n in COUNTERS if n in metrics},
            "traced_s": {n: metrics[n]["value"] for n in TRACED_TIMES if n in metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, required=True)
    parser.add_argument("--section", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record[args.section] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host(),
        "workloads": {w: run_workload(args.checkout, w, args.seed, args.seconds)
                      for w in WORKLOADS},
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    failed = [w for w, r in record[args.section]["workloads"].items()
              if r["exit"] != 0 or r["traced_exit"] != 0]
    if failed:
        print(f"exit code not 0 on: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
