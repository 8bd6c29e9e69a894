"""Spans and outcome records taken around carrieropt's public calls.

Nothing inside ``src/`` is edited: :class:`Probe` swaps module attributes for
timing wrappers while it is installed and puts the originals back afterwards.
With ``layers=False`` only ``ScenarioRunner.run`` is wrapped, which is the
outcome boundary the end-to-end metrics need; with ``layers=True`` every
layer boundary listed in :data:`LAYER_CALLS` records a span as well. Given a
calibrator, every ``solve_lp`` call (from ``scenarios`` and from
``branch_bound``) is preceded by a run of the calibration kernel, whose
interval is noted so that it can be left out of every timing.

A span keeps its name, start, end, parent and pass id. Parents come from a
per-thread stack, so the ``matrix`` command's worker threads nest their
spans correctly; a worker's outermost span gets the current pass span as its
parent. Spans stay in memory until the benchmark reads them.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field

import carrieropt.cli as cli
import carrieropt.lp.branch_bound as branch_bound
import carrieropt.scenarios as scenarios


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    run: int
    end: float = 0.0
    data: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class OutcomeRecord:
    """One ``ScenarioRunner.run`` call: a ScenarioOutcome or the error it raised."""

    run: int
    system: object
    spec: object
    mode: object
    start: float
    end: float
    outcome: object = None
    error: BaseException | None = None
    failure: str | None = None  # set by Oracle.check

    @property
    def duration(self) -> float:
        return self.end - self.start


def _note_solve(span: Span, result) -> None:
    span.data.update(iterations=result.iterations, status=result.status,
                     basis=result.basis is not None)


def _note_milp(span: Span, result) -> None:
    span.data["nodes"] = result.nodes


def _note_build(span: Span, built) -> None:
    span.data.update(rows=built.problem.num_rows, nnz=int(built.problem.a.nnz))


# (owner, attribute, span name, annotator). ``solve_lp`` is wrapped where
# ``scenarios`` and ``branch_bound`` look it up, so the two call sites stay
# apart; ``outcome_to_json`` is looked up by ``export_results`` at call time.
LAYER_CALLS = (
    (cli, "parse_system_files", "system_io.parse_system_files", None),
    (scenarios, "apply_scenario", "scenarios.apply_scenario", None),
    (scenarios, "build_problem", "builder.build_problem", _note_build),
    (scenarios, "solve_lp", "scenarios.solve_lp", _note_solve),
    (scenarios, "solve_milp", "scenarios.solve_milp", _note_milp),
    (branch_bound, "solve_lp", "branch_bound.solve_lp", _note_solve),
    (scenarios, "total_emissions", "costing.total_emissions", None),
    (scenarios, "cost_breakdown", "costing.cost_breakdown", None),
    (scenarios, "compute_metrics", "scenarios.compute_metrics", None),
    (scenarios, "new_capacity_table", "scenarios.new_capacity_table", None),
    (cli, "outcome_to_json", "cli.outcome_to_json", None),
    (cli, "export_results", "cli.export_results", None),
)

RUNNER_SPAN = "scenarios.ScenarioRunner.run"
PASS_SPAN = "pass"


class Probe:
    """Installs the wrappers and collects spans and outcome records."""

    def __init__(self, layers: bool, calibrator=None):
        self.layers = layers
        self.calibrator = calibrator
        self.spans: list[Span] = []
        self.outcomes: list[OutcomeRecord] = []
        self.kernels: list[tuple[int, float, float]] = []  # (pass id, start, end)
        self.run = 0
        self._root: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[int, Span]:
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else self._root,
                    self.run)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index, span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def begin_pass(self, run: int) -> None:
        """Start pass ``run``; in layer mode it gets a root span of its own."""
        self.run = run
        if self.layers:
            self._root, _ = self._open(PASS_SPAN)

    def end_pass(self) -> None:
        if self.layers and self._root is not None:
            self._close(self.spans[self._root])
            self._root = None

    def calibrate(self) -> None:
        """Run the calibration kernel now and note when it ran."""
        start = time.perf_counter()
        self.calibrator.kernel_s()
        self.kernels.append((self.run, start, time.perf_counter()))

    # -- wrappers --------------------------------------------------------------

    def _calibrated(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calibrate()
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, name: str, fn, annotate):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            _, span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                annotate(span, result)
            return result
        return wrapper

    def _wrap_runner(self, fn):
        @functools.wraps(fn)
        def run(runner, spec, mode):
            span = self._open(RUNNER_SPAN)[1] if self.layers else None
            record = OutcomeRecord(self.run, runner.system, spec, mode,
                                   time.perf_counter(), 0.0)
            try:
                record.outcome = fn(runner, spec, mode)
                return record.outcome
            except Exception as err:
                record.error = err
                raise
            finally:
                record.end = time.perf_counter()
                if span is not None:
                    self._close(span)
                with self._lock:
                    self.outcomes.append(record)
        return run

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def __enter__(self) -> "Probe":
        runner_cls = scenarios.ScenarioRunner
        self._patch(runner_cls, "run", self._wrap_runner(runner_cls.run))
        if self.calibrator is not None:
            for owner in (scenarios, branch_bound):
                self._patch(owner, "solve_lp", self._calibrated(owner.solve_lp))
        if self.layers:
            for owner, attribute, name, annotate in LAYER_CALLS:
                self._patch(owner, attribute,
                            self._wrap(name, getattr(owner, attribute), annotate))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children cover.

    ``spans`` is a probe's whole list, since parents are indices into it.
    Children of one parent can overlap (the matrix command's worker threads
    under a pass span), so the covered time is the union of their intervals.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for kid in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


POST_SPANS = ("costing.total_emissions", "costing.cost_breakdown",
              "scenarios.compute_metrics", "scenarios.new_capacity_table")
EXPORT_SPANS = ("cli.export_results", "cli.outcome_to_json")
LP_SPANS = ("scenarios.solve_lp", "branch_bound.solve_lp")


def layer_metrics(spans: list[Span], run: int) -> dict[str, float]:
    """Per-layer times and counts of pass ``run``."""
    selfs = self_times(spans)
    mine = [i for i, s in enumerate(spans) if s.run == run]

    def pick(*names):
        return [i for i in mine if spans[i].name in names]

    def self_sum(*names):
        return sum(selfs[i] for i in pick(*names))

    def data_sum(key, *names):
        return sum(spans[i].data.get(key, 0) for i in pick(*names))

    lp = pick(*LP_SPANS)
    lp_s = self_sum(*LP_SPANS)
    iterations = data_sum("iterations", *LP_SPANS)
    optimal = [i for i in lp if spans[i].data.get("status") == "optimal"]
    builds = pick("builder.build_problem")
    milp = pick("scenarios.solve_milp")
    outcomes = len(pick(RUNNER_SPAN))
    top_solves = len(pick("scenarios.solve_lp", "scenarios.solve_milp"))
    return {
        "system_io.parse_s": self_sum("system_io.parse_system_files"),
        "scenarios.gate_s": self_sum("scenarios.apply_scenario"),
        "builder.build_s": self_sum("builder.build_problem"),
        "builder.build_calls": len(builds),
        "builder.rows": data_sum("rows", "builder.build_problem"),
        "builder.nnz": data_sum("nnz", "builder.build_problem"),
        "lp.solve_s": lp_s,
        "lp.solve_calls": len(lp),
        "lp.iterations": iterations,
        "lp.iter_per_s": iterations / lp_s if lp_s > 0 else 0.0,
        "lp.infeasible_calls": sum(1 for i in lp if spans[i].data.get("status") == "infeasible"),
        "lp.basis_ratio": (sum(1 for i in optimal if spans[i].data["basis"]) / len(optimal)
                           if optimal else 0.0),
        "scenarios.solves_per_outcome": top_solves / outcomes if outcomes else 0.0,
        "scenarios.run_self_s": self_sum(RUNNER_SPAN),
        "bb.solve_s": sum(spans[i].duration for i in milp),
        "bb.nodes": data_sum("nodes", "scenarios.solve_milp"),
        "bb.lp_calls": len(pick("branch_bound.solve_lp")),
        "bb.self_s": self_sum("scenarios.solve_milp"),
        "post.s": self_sum(*POST_SPANS),
        "cli.export_s": self_sum(*EXPORT_SPANS),
    }


def accounted_share(spans: list[Span], run: int) -> float:
    """Share of the pass span's duration that the layer spans' self times cover.

    Meaningful for a pass that runs on one thread; with worker threads the
    layer self times add up thread time, not wall time.
    """
    selfs = self_times(spans)
    mine = [i for i, s in enumerate(spans) if s.run == run]
    root = next(i for i in mine if spans[i].name == PASS_SPAN)
    layers = sum(selfs[i] for i in mine if i != root)
    return layers / spans[root].duration
