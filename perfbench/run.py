"""carrieropt benchmark: time the gate -> build -> solve -> post-process -> export pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` repeats passes of the workload for about ``S`` seconds and
reports the end-to-end metrics; ``--trace 1`` runs the per-layer protocol
(one untraced pass, two traced passes, and on ``expansion-lp`` the horizon
ladder) and reports the per-layer metrics. Both check every outcome against
HiGHS and ``verify_solution`` and check determinism after the timed region.
Earlier stdout lines are a readable report with sample counts and the
environment; the last line is the JSON result. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

WORKLOAD_NAMES = ("expansion-lp", "cap-sweep", "milp-blocks", "scenario-matrix")
SETUP_PROBES = 3
LADDER_STEPS = (24, 48, 96, 168)
LADDER_SEED0_ITERATIONS = {24: 1042, 48: 2035, 96: 4760, 168: 8617}


@dataclass
class Pass:
    run: int
    seed: int
    jobs: int
    start: float
    end: float
    digest: str | None = None
    error: str | None = None

    @property
    def wall(self) -> float:
        return self.end - self.start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only import and prepare the inputs (the set-up probe)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{name: os.environ.get(name) for name in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CARRIEROPT_JOBS")},
    }


def timed_pass(workload, probe, inp, run: int, jobs: int, tmp: Path) -> Pass:
    """One pass of the workload; only the ``run_pass`` call is timed."""
    from carrieropt.scenarios import ScenarioRunner

    runner = ScenarioRunner(inp.system)
    out = tmp / f"out-{run}"
    probe.begin_pass(run)
    start = time.perf_counter()
    error = None
    try:
        workload.run_pass(inp, runner, jobs, out)
    except Exception as err:  # counted as a failed pass, reported below
        error = f"{type(err).__name__}: {err}"
    end = time.perf_counter()
    probe.end_pass()
    digest = None
    if out.exists():
        digest = workload.digest(out)
        shutil.rmtree(out)
    return Pass(run, inp.seed, jobs, start, end, digest, error)


def gate(records, passes: list[Pass]) -> tuple[int, list[str]]:
    """Correctness and determinism gates: (failed outcomes, messages).

    An outcome fails on its own (``Oracle.check`` has set its ``failure``)
    or with its pass, when the pass raised or wrote result files that differ
    from the first pass on the same system. A failed pass that recorded no
    outcome counts once.
    """
    messages = [r.failure for r in records if r.failure]
    failed_runs = set()
    first_digest: dict[int, str] = {}
    for p in passes:
        if p.error:
            messages.append(f"pass {p.run}: {p.error}")
            failed_runs.add(p.run)
        if p.digest is not None:
            expected = first_digest.setdefault(p.seed, p.digest)
            if p.digest != expected:
                messages.append(f"pass {p.run} (jobs {p.jobs}): result files differ"
                                f" from those of the first pass on seed {p.seed}")
                failed_runs.add(p.run)
    failed = {i for i, r in enumerate(records) if r.failure or r.run in failed_runs}
    silent = failed_runs - {r.run for r in records}
    return len(failed) + len(silent), messages


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of ``values``, inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(args, calibrator) -> tuple[list[float], list[float]]:
    """Fresh processes that import carrieropt and prepare the inputs:
    their raw wall times, and the same at the calibration's reference speed."""
    from calibrate import Timeline

    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    probes, kernels = [], []

    def kernel():
        start = time.perf_counter()
        calibrator.kernel_s()
        kernels.append((start, time.perf_counter()))

    kernel()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        probes.append((start, time.perf_counter()))
        kernel()
    timeline = Timeline(kernels)
    return [b - a for a, b in probes], [timeline.scaled(a, b) for a, b in probes]


def prepare_pool(workload, seed: int, tmp: Path) -> list:
    from workloads import sub_seed

    return [workload.prepare(sub_seed(seed, k), tmp) for k in range(workload.pool)]


def run_untraced(args, workload, tmp: Path, report: list[str]) -> tuple[dict, int, int]:
    """Passes for about ``args.seconds``: (end-to-end values, attempted, failed).

    Every time is reported at the calibration's reference speed, integrated
    over the timeline of kernels run before each LP solve (see calibrate.py).
    """
    from calibrate import Calibrator, Timeline
    from oracle import Oracle
    from tracing import Probe

    calibrator = Calibrator()
    setup_raw, setup = measure_setup(args, calibrator)
    inputs = prepare_pool(workload, args.seed, tmp)
    jobs = 1  # kernels between outcomes need the outcomes on one thread
    passes: list[Pass] = []
    oracle = Oracle()
    with Probe(layers=False, calibrator=calibrator) as probe:
        begin = time.perf_counter()
        while True:
            inp = inputs[len(passes) % len(inputs)]
            passes.append(timed_pass(workload, probe, inp, len(passes), jobs, tmp))
            probe.calibrate()
            oracle.check([r for r in probe.outcomes if r.run == passes[-1].run])
            if len(passes) == 1:
                # The heap left by the gate's HiGHS checks lifts the peak of
                # later passes, so the peak is taken where every run has it.
                rss = peak_rss_mb()
            elapsed = time.perf_counter() - begin
            # Start another pass only if it should end nearer to --seconds
            # than stopping now does.
            if elapsed + statistics.median(p.wall for p in passes) / 2 > args.seconds:
                break
    failed, messages = gate(probe.outcomes, passes)
    timelines = {p.run: Timeline([(a, b) for run, a, b in probe.kernels if run == p.run])
                 for p in passes}
    walls = [timelines[p.run].scaled(p.start, p.end) for p in passes]
    outcome_s = [timelines[r.run].scaled(r.start, r.end) for r in probe.outcomes] or walls
    report.append(f"systems (seeds) {[inp.seed for inp in inputs]}, jobs {jobs},"
                  f" {len(passes)} passes in {elapsed:.2f} s")
    report.append("raw pass s    " + " ".join(f"{p.wall:.3f}" for p in passes))
    report.append("scaled pass s " + " ".join(f"{w:.3f}" for w in walls))
    report.append("raw setup s   " + " ".join(f"{t:.3f}" for t in setup_raw))
    report.append("kernel s      " + " ".join(f"{b - a:.3f}" for _, a, b in probe.kernels))
    report.append(f"samples: wall_s {len(passes)} passes, setup_s {len(setup)} processes,"
                  f" outcome_p50_s {len(outcome_s)} outcomes, peak_rss_mb 1 process")
    report.append(f"outcome_p90_s (not gated) {quantile(outcome_s, 90):.4f} s")
    report.extend(messages)
    report.extend(oracle.equality_flags)
    attempted = max(len(probe.outcomes), 1)
    report.append(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} outcomes)")
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "outcome_p50_s": statistics.median(outcome_s),
        "peak_rss_mb": rss,
    }
    return values, attempted, failed


def horizon_ladder(seed: int, report: list[str]) -> dict[str, float]:
    """synergies min-cost at every ladder size, with HiGHS on the same LP
    for reference; reported, never gated."""
    from carrieropt.costing import ObjectiveMode
    from carrieropt.scenarios import ScenarioRunner, standard_scenario
    from carrieropt.system import build_miniature_system
    from oracle import highs

    out = {}
    for steps in LADDER_STEPS:
        runner = ScenarioRunner(build_miniature_system(seed, steps))
        start = time.perf_counter()
        outcome = runner.run(standard_scenario("synergies"), ObjectiveMode.min_cost())
        seconds = time.perf_counter() - start
        iterations = outcome.result.iterations
        out[f"ladder.iterations_{steps}"] = iterations
        out[f"ladder.solve_s_{steps}"] = seconds
        problem = outcome.built.problem
        _, _, highs_s = highs(problem)
        note = ""
        if seed == 0 and iterations != LADDER_SEED0_ITERATIONS[steps]:
            note = f" (roadmap baseline {LADDER_SEED0_ITERATIONS[steps]})"
        report.append(f"ladder {steps:>3} steps, {problem.num_rows} x {problem.num_cols}:"
                      f" {iterations} iterations, {seconds:.3f} s; HiGHS {highs_s:.3f} s{note}")
    return out


COUNTERS = ("builder.build_calls", "builder.rows", "builder.nnz", "lp.solve_calls",
            "lp.iterations", "lp.infeasible_calls", "bb.nodes", "bb.lp_calls")


def run_traced(args, workload, tmp: Path, report: list[str]) -> tuple[dict, int, int]:
    """One untraced pass, then two traced passes, all on the run's own seed.

    Every pass runs on one thread, as the untraced runs do, except the second
    traced pass of ``scenario-matrix``: it runs ``--jobs nproc`` and gives
    ``cli.jobs_speedup``. Layer figures come from the first traced pass.
    """
    from oracle import Oracle
    from tracing import Probe, accounted_share, layer_metrics

    inp = prepare_pool(workload, args.seed, tmp)[0]
    parallel = nproc() if workload.name == "scenario-matrix" else 1
    with Probe(layers=False) as plain:
        base = timed_pass(workload, plain, inp, 0, 1, tmp)
    with Probe(layers=True) as probe:
        first = timed_pass(workload, probe, inp, 1, 1, tmp)
        second = timed_pass(workload, probe, inp, 2, parallel, tmp)
    ladder = (horizon_ladder(args.seed, report) if workload.name == "expansion-lp"
              else {f"ladder.{kind}_{steps}": 0 for steps in LADDER_STEPS
                    for kind in ("iterations", "solve_s")})

    oracle = Oracle()
    records = plain.outcomes + probe.outcomes
    oracle.check(records)
    failed, messages = gate(records, [base, first, second])
    metrics = layer_metrics(probe.spans, 1)
    repeat = layer_metrics(probe.spans, 2)
    for name in COUNTERS:
        if metrics[name] != repeat[name]:
            messages.append(f"{name} not deterministic: {metrics[name]} then {repeat[name]}")
            failed += 1
    metrics.update({
        "cli.jobs_speedup": first.wall / second.wall if parallel > 1 else 0.0,
        "ref.highs_s": oracle.highs_s,
        "lp.verify_eq_flags": len(oracle.equality_flags),
        "trace.wall_s": first.wall,
        "trace.overhead_s": first.wall - base.wall,
        "trace.accounted_share": accounted_share(probe.spans, 1),
        **ladder,
    })
    report.append(f"seed {inp.seed}: untraced {base.wall:.3f} s, traced {first.wall:.3f} s,"
                  f" second traced (jobs {parallel}) {second.wall:.3f} s")
    report.extend(messages)
    report.extend(oracle.equality_flags)
    attempted = max(len(records), 1)
    return metrics, attempted, min(failed, attempted)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # so that cleanup and child reaping run


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (SRC / "carrieropt" / "__init__.py").is_file():
        print(f"perfbench: no carrieropt sources under {SRC}; run it from the root"
              " of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP))
    try:
        if args.setup_only:
            prepare_pool(workload, args.seed, tmp)
            return 0
        load_start = os.getloadavg()[0]
        report = [f"perfbench {workload.name} seed {args.seed} trace {args.trace}"]
        run = run_traced if args.trace else run_untraced
        values, attempted, failed = run(args, workload, tmp, report)
        env = {**environment(), "load1_start": load_start, "load1_end": os.getloadavg()[0]}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run still uses it
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, metric in metrics.items():
        report.append(f"{name:<30} {metric['value']:16.4f} {metric['unit']}")
    print("\n".join(report))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
