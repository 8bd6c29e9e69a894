"""verify_solution against a per-row loop form of the same checks."""

from dataclasses import asdict, replace

import numpy as np
import pytest
import scipy.sparse as sp

from carrieropt.costing import ObjectiveMode
from carrieropt.lp import EQ, GE, LE, OPTIMAL, VerificationReport, verify_solution
from carrieropt.scenarios import ScenarioRunner, standard_scenario
from carrieropt.system import build_miniature_system


def verify_by_loops(problem, result) -> VerificationReport:
    """verify_solution with its sense check and dual sign flip row by row."""
    keep = [i for i, (sense, rhs) in enumerate(zip(problem.senses, problem.rhs))
            if not (sense == LE and rhs == np.inf or sense == GE and rhs == -np.inf)]
    if len(keep) < problem.num_rows:  # a free row holds at every point and is not checked
        problem = replace(problem, a=problem.a[keep], senses=problem.senses[keep],
                          rhs=problem.rhs[keep], row_names=[problem.row_names[i] for i in keep])
        result = replace(result, duals=None if result.duals is None else result.duals[keep])
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

        ineq = problem.senses != EQ
        slack = np.abs(problem.rhs - ax)[ineq]
        comp_rows = float(np.max(np.abs(result.duals[ineq]) * slack
                                 / (1.0 + np.abs(problem.rhs[ineq])), initial=0.0))
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


def _outcome(system, scenario_id: str, mode: ObjectiveMode):
    outcome = ScenarioRunner(system).run(standard_scenario(scenario_id), mode)
    assert outcome.result.status == OPTIMAL
    return outcome.built.problem, outcome.result


OUTCOMES = {
    "synergies": lambda: _outcome(build_miniature_system(0), "synergies",
                                  ObjectiveMode.min_cost()),
    "s-all": lambda: _outcome(build_miniature_system(0), "s-all", ObjectiveMode.min_cost()),
    "synergies-capped": lambda: _outcome(build_miniature_system(0), "synergies",
                                         ObjectiveMode.min_cost_with_cap(60_000.0)),
    "t-all-dc-blocks": lambda: _outcome(build_miniature_system(0, 24, dc_blocks_mw=10.0),
                                        "t-all", ObjectiveMode.min_cost()),
}


def _mirrored(problem):
    """``problem`` with every other ``<=`` row negated into a ``>=`` row: the same
    feasible set, and under the tightening convention the same duals. The
    scenario problems have no ``>=`` rows of their own."""
    flip = np.flatnonzero(problem.senses == LE)[::2]
    sign = np.ones(problem.num_rows)
    sign[flip] = -1.0
    senses = problem.senses.copy()
    senses[flip] = GE
    return replace(problem, a=sp.csr_matrix(sp.diags(sign) @ problem.a), senses=senses,
                   rhs=sign * problem.rhs)


@pytest.mark.parametrize("name", OUTCOMES)
def test_vectorized_checks_match_the_loop_form(name):
    problem, result = OUTCOMES[name]()
    assert (result.duals is None) == (name == "t-all-dc-blocks")
    # the optimum itself, and a point off it that violates rows
    shifted = replace(result, x=result.x * 1.01 + 0.5)
    for prob in (problem, _mirrored(problem)):
        for res in (result, shifted):
            got = asdict(verify_solution(prob, res))
            assert got == asdict(verify_by_loops(prob, res))
        senses = {prob.senses[prob.row_names.index(row)] for row in got["violated_rows"]}
        assert senses >= ({LE, GE} if prob is not problem else {LE}), senses
