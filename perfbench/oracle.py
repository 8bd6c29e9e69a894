"""Correctness and determinism gates, run outside the timed region.

Every outcome is checked against HiGHS (``scipy.optimize.milp``, which ships
with scipy) and against :func:`carrieropt.lp.verify_solution`. An outcome
visited again in the same run must repeat its objective and counters bit for
bit.

One ``verify_solution`` finding is reported but does not fail an outcome:
its row complementarity term multiplies each row's dual by the row's
residual, and on an equality row that residual is primal infeasibility, not
slack. A residual of order 1e-11 on a balance row with a dual of 1e5 then
reads as a complementarity violation near 1e-6 (``cap-sweep``, seed 0,
fraction 0.7), although the point is feasible and its objective matches
HiGHS to 1e-15. Such outcomes are re-verified with the equality rows'
right-hand sides snapped to ``A x``; every other check still applies.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from carrieropt.builder import build_problem
from carrieropt.costing import ObjectiveMode
from carrieropt.lp import EQ, GE, LE, OPTIMAL, verify_solution
from carrieropt.scenarios import InfeasibleCapError, apply_scenario
from carrieropt.system_io import system_digest

REL_TOL = 1e-9
VERIFY_TOL = 1e-7  # VerificationReport.ok's default
HIGHS_OPTIMAL = 0
HIGHS_INFEASIBLE = 2


def highs(problem) -> tuple[int, float, float]:
    """HiGHS status, objective and seconds on ``problem``, integrality included."""
    lo = np.where(problem.senses == LE, -np.inf, problem.rhs)
    hi = np.where(problem.senses == GE, np.inf, problem.rhs)
    start = time.perf_counter()
    res = milp(problem.objective,
               constraints=LinearConstraint(problem.a, lo, hi),
               integrality=problem.integer.astype(np.uint8),
               bounds=Bounds(problem.lower, problem.upper),
               options={"mip_rel_gap": 0.0})
    seconds = time.perf_counter() - start
    return res.status, float("nan") if res.fun is None else float(res.fun), seconds


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


class Oracle:
    """Checks outcome records; remembers each distinct problem's first answer.

    ``highs_s`` sums the HiGHS solve time over the problems checked, as a
    reference floor.
    """

    def __init__(self):
        self.highs_s = 0.0
        self.equality_flags: list[str] = []
        self._digests: dict[int, str] = {}
        self._first: dict[tuple, tuple] = {}

    def _highs(self, problem) -> tuple[int, float]:
        status, objective, seconds = highs(problem)
        self.highs_s += seconds
        return status, objective

    def _key(self, record) -> tuple:
        sid = id(record.system)
        if sid not in self._digests:
            self._digests[sid] = system_digest(record.system)
        return self._digests[sid], record.spec.id, record.mode.label()

    @staticmethod
    def _signature(record) -> tuple:
        """What a repeated visit must reproduce bit for bit."""
        if record.error is not None:
            return ("error", type(record.error).__name__,
                    repr(getattr(record.error, "minimum_achievable", None)))
        res = record.outcome.result
        return (record.outcome.status, repr(record.outcome.objective),
                res.iterations, res.nodes)

    def check(self, records) -> None:
        """Set each record's ``failure`` (None when it passed), then release
        its outcome, so the memory a run holds does not grow with its passes."""
        for record in records:
            problem = self._check_one(record)
            if problem:
                record.failure = (f"{record.spec.id} [{record.mode.label()}]"
                                  f" pass {record.run}: {problem}")
            record.outcome = None

    def _check_one(self, record) -> str | None:
        key = self._key(record)
        err = record.error
        if err is not None and not (isinstance(err, InfeasibleCapError)
                                    and record.mode.kind == "min_cost_with_cap"):
            return f"raised {type(err).__name__}: {err}"
        seen = self._signature(record)
        if key in self._first:
            if self._first[key] != seen:
                return f"not deterministic: {seen} after {self._first[key]}"
            return None
        self._first[key] = seen
        if err is None:
            return self._check_optimal(record)
        return self._check_infeasible(record, err)

    def _check_optimal(self, record) -> str | None:
        outcome = record.outcome
        if outcome.status != OPTIMAL:
            return f"status {outcome.status}"
        problem = outcome.built.problem
        report = verify_solution(problem, outcome.result)
        if not report.ok():
            if not self._equality_artifact(problem, outcome.result, report):
                return f"verify_solution failed: {report}"
            self.equality_flags.append(
                f"{record.spec.id} [{record.mode.label()}]: complementarity"
                f" {report.complementarity_residual:.3g} from equality-row residuals")
        status, objective = self._highs(problem)
        if status != HIGHS_OPTIMAL:
            return f"HiGHS status {status} on an optimal outcome"
        if not _close(outcome.objective, objective):
            return f"objective {outcome.objective!r} differs from HiGHS {objective!r}"
        return None

    @staticmethod
    def _equality_artifact(problem, result, report) -> bool:
        """True when only the equality rows' dual-times-residual term fails."""
        primal = (report.max_row_violation, report.max_bound_violation,
                  report.max_integrality_violation, report.objective_error,
                  report.duality_gap or 0.0)
        if max(primal) > VERIFY_TOL:
            return False
        snapped = problem.copy()
        equality = problem.senses == EQ
        snapped.rhs[equality] = (problem.a @ result.x)[equality]
        return verify_solution(snapped, result).ok(VERIFY_TOL)

    def _check_infeasible(self, record, err: InfeasibleCapError) -> str | None:
        gated = apply_scenario(record.system, record.spec)
        status, _ = self._highs(build_problem(gated, record.mode).problem)
        if status != HIGHS_INFEASIBLE:
            return f"cap reported infeasible, HiGHS status {status}"
        status, floor = self._highs(
            build_problem(gated, ObjectiveMode.min_emissions()).problem)
        if status != HIGHS_OPTIMAL or not _close(err.minimum_achievable, floor):
            return (f"minimum_achievable {err.minimum_achievable!r} differs from"
                    f" HiGHS {floor!r} (status {status})")
        return None
