"""Independent re-checking of solver output against the problem data."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problem import EQ, GE, LE, SparseProblem
from .simplex import OPTIMAL, SolveResult


@dataclass
class VerificationReport:
    max_row_violation: float = 0.0
    max_bound_violation: float = 0.0
    max_integrality_violation: float = 0.0
    objective_error: float = 0.0
    duality_gap: float | None = None
    complementarity_residual: float | None = None
    violated_rows: list[str] = field(default_factory=list)

    def ok(self, tol: float = 1e-7) -> bool:
        checks = [self.max_row_violation, self.max_bound_violation,
                  self.max_integrality_violation, self.objective_error]
        if self.duality_gap is not None:
            checks.append(self.duality_gap)
        if self.complementarity_residual is not None:
            checks.append(self.complementarity_residual)
        return max(checks) <= tol


def verify_solution(problem: SparseProblem, result: SolveResult) -> VerificationReport:
    """Recompute ``A x`` against senses/rhs, bounds, integrality and objective.

    For LP results carrying duals, also checks strong duality and
    complementary slackness from scratch. All violations are relative to the
    scale of the data they check.
    """
    if result.status != OPTIMAL or result.x is None:
        raise ValueError("verify_solution expects an optimal result")
    x = result.x
    report = VerificationReport()

    ax = problem.a @ x
    scale = 1.0 + np.maximum(np.abs(ax), np.abs(problem.rhs))
    for i, sense in enumerate(problem.senses):
        if sense == LE:
            viol = (ax[i] - problem.rhs[i]) / scale[i]
        elif sense == GE:
            viol = (problem.rhs[i] - ax[i]) / scale[i]
        else:
            viol = abs(ax[i] - problem.rhs[i]) / scale[i]
        if viol > report.max_row_violation:
            report.max_row_violation = viol
        if viol > 1e-7:
            report.violated_rows.append(problem._row_name(i))

    bscale = 1.0 + np.abs(x)
    below = np.maximum(problem.lower - x, 0.0) / bscale
    above = np.maximum(x - problem.upper, 0.0) / bscale
    report.max_bound_violation = float(np.maximum(below, above).max(initial=0.0))

    if problem.integer.any():
        xi = x[problem.integer]
        report.max_integrality_violation = float(np.abs(xi - np.round(xi)).max(initial=0.0))

    recomputed = float(problem.objective @ x)
    report.objective_error = abs(recomputed - result.objective) / (1.0 + abs(recomputed))

    if result.duals is not None:
        y_raw = np.empty(problem.num_rows)
        for i, sense in enumerate(problem.senses):
            y_raw[i] = -result.duals[i] if sense == LE else result.duals[i]
        z = problem.objective - problem.a.T @ y_raw

        # complementary slackness on inequality rows: dual * slack ~ 0. On an
        # equality row |rhs - Ax| is a primal residual, checked above, not a slack.
        ineq = problem.senses != EQ
        slack = np.abs(problem.rhs - ax)[ineq]
        comp_rows = float(np.max(np.abs(result.duals[ineq]) * slack
                                 / (1.0 + np.abs(problem.rhs[ineq])), initial=0.0))
        # reduced-cost sign consistency and column complementarity
        comp_cols = 0.0
        at_lower = np.isfinite(problem.lower) & (np.abs(x - problem.lower) <= 1e-6 * bscale)
        at_upper = np.isfinite(problem.upper) & (np.abs(x - problem.upper) <= 1e-6 * bscale)
        interior = ~(at_lower | at_upper)
        zscale = 1.0 + np.abs(problem.objective)
        comp_cols = max(
            float(np.max(np.maximum(-z[at_lower & ~at_upper], 0.0)
                         / zscale[at_lower & ~at_upper], initial=0.0)),
            float(np.max(np.maximum(z[at_upper & ~at_lower], 0.0)
                         / zscale[at_upper & ~at_lower], initial=0.0)),
            float(np.max(np.abs(z[interior]) / zscale[interior], initial=0.0)),
        )
        report.complementarity_residual = max(comp_rows, comp_cols)

        dual_obj = float(y_raw @ problem.rhs)
        pos = z > 0
        neg = z < 0
        finite_lo = np.isfinite(problem.lower)
        finite_up = np.isfinite(problem.upper)
        dual_obj += float((z[pos & finite_lo] * problem.lower[pos & finite_lo]).sum())
        dual_obj += float((z[neg & finite_up] * problem.upper[neg & finite_up]).sum())
        report.duality_gap = abs(recomputed - dual_obj) / (1.0 + abs(recomputed))

    return report
