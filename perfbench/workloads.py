"""The benchmark's workloads, each chosen so that a different layer does most of the work.

A workload turns a seed into inputs (:meth:`Workload.prepare`, part of
set-up) and runs one timed pass over them (:meth:`Workload.run_pass`). Each
run cycles its passes through ``pool`` systems generated from sub-seeds of
the run's seed, so a run's median does not rest on a single random system,
and a system visited twice in one run must give identical results.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

from carrieropt.cli import run_cli
from carrieropt.costing import ObjectiveMode
from carrieropt.scenarios import ScenarioRunner, abatement_sweep, standard_scenario
from carrieropt.system import build_miniature_system
from carrieropt.system_io import write_system_files

SUB_SEED_STRIDE = 7919


def sub_seed(seed: int, k: int) -> int:
    """Seed of the k-th system of a run; the first one is the run's own seed."""
    return seed + k * SUB_SEED_STRIDE


@dataclass
class Input:
    seed: int
    system: object
    directory: Path | None = None


class Workload:
    """A workload; ``BENCHMARK.json`` records why each one was chosen."""

    name = ""
    steps = 24
    dc_blocks_mw: float | None = None
    pool = 1

    def prepare(self, seed: int, tmp: Path) -> Input:
        system = build_miniature_system(seed, self.steps, self.dc_blocks_mw)
        ScenarioRunner(system)  # validation, as every run starts with it
        return Input(seed, system)

    def run_pass(self, inp: Input, runner: ScenarioRunner, jobs: int, out: Path) -> None:
        """The timed region: ``runner`` is fresh, so its outcome cache is empty."""
        raise NotImplementedError


class ExpansionLP(Workload):
    name = "expansion-lp"
    pool = 10

    def run_pass(self, inp, runner, jobs, out):
        runner.run(standard_scenario("synergies"), ObjectiveMode.min_cost())


class CapSweep(Workload):
    name = "cap-sweep"
    fractions = tuple(round(0.1 * i, 1) for i in range(1, 10))
    pool = 1

    def run_pass(self, inp, runner, jobs, out):
        abatement_sweep(inp.system, standard_scenario("synergies"), self.fractions,
                        runner=runner)


class MilpBlocks(Workload):
    name = "milp-blocks"
    dc_blocks_mw = 10.0
    pool = 6

    def run_pass(self, inp, runner, jobs, out):
        runner.run(standard_scenario("t-all"), ObjectiveMode.min_cost())


class ScenarioMatrix(Workload):
    name = "scenario-matrix"
    pool = 1

    def prepare(self, seed, tmp):
        system = build_miniature_system(seed, self.steps)
        ScenarioRunner(system)
        return Input(seed, system, write_system_files(system, tmp / f"system-{seed}"))

    def run_pass(self, inp, runner, jobs, out):
        # The command parses the directory and builds its own runner.
        argv = ["--quiet", "matrix", str(inp.directory),
                "--scenarios", "all",
                "--modes", "min-cost,min-emissions", "--jobs", str(jobs),
                "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"matrix exited with code {code}")

    @staticmethod
    def digest(out: Path) -> str:
        """Digest over the names and bytes of every result file."""
        h = hashlib.sha256()
        for path in sorted(out.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (ExpansionLP(), CapSweep(), MilpBlocks(), ScenarioMatrix())}
