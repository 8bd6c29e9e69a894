"""Differential test: the built-in simplex against HiGHS on the scenario LPs.

HiGHS ships inside scipy (``scipy.optimize.linprog(method="highs")``), so it
serves as an independent oracle without a new dependency. Every standard
scenario is solved in both objective modes at 24 steps, plus ``synergies``
under a binding and an infeasible emission cap.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from carrieropt.builder import build_problem
from carrieropt.costing import EMISSION_CAP_LABEL, ObjectiveMode
from carrieropt.lp import EQ, GE, INFEASIBLE, OPTIMAL, solve_lp
from carrieropt.scenarios import (
    STANDARD_SCENARIO_IDS,
    ScenarioRunner,
    apply_scenario,
    standard_scenario,
)
from carrieropt.system import build_miniature_system

REL_TOL = 1e-9
HIGHS_STATUS = {0: OPTIMAL, 2: INFEASIBLE}


@pytest.fixture(scope="module")
def system():
    return build_miniature_system(0, step_count=24)


@pytest.fixture(scope="module")
def reference_emissions(system):
    runner = ScenarioRunner(system)
    return runner.run(standard_scenario("reference"), ObjectiveMode.min_cost()).emissions.total


def highs(problem):
    """HiGHS status and objective; ``>=`` rows enter ``linprog`` negated, and
    free rows (rhs ``+inf`` once negated) not at all."""
    sign = np.where(problem.senses == GE, -1.0, 1.0)
    a = (sp.diags(sign) @ problem.a).tocsr()
    b = sign * problem.rhs
    eq = problem.senses == EQ
    ub = ~eq & (b < np.inf)
    res = linprog(problem.objective, A_ub=a[ub], b_ub=b[ub], A_eq=a[eq], b_eq=b[eq],
                  bounds=np.column_stack([problem.lower, problem.upper]), method="highs")
    return HIGHS_STATUS.get(res.status, f"highs status {res.status}"), res.fun


def assert_agrees(problem):
    ours = solve_lp(problem)
    status, objective = highs(problem)
    assert ours.status == status
    if status == OPTIMAL:
        assert abs(ours.objective - objective) <= REL_TOL * max(1.0, abs(objective))
    return ours


@pytest.mark.parametrize("mode", [ObjectiveMode.min_cost(), ObjectiveMode.min_emissions()],
                         ids=lambda mode: mode.label())
@pytest.mark.parametrize("scenario_id", STANDARD_SCENARIO_IDS)
def test_standard_scenarios_match_highs(system, scenario_id, mode):
    gated = apply_scenario(system, standard_scenario(scenario_id))
    assert_agrees(build_problem(gated, mode).problem)


def cap_problem(system, reference_emissions, fraction):
    gated = apply_scenario(system, standard_scenario("synergies"))
    mode = ObjectiveMode.min_cost_with_cap((1.0 - fraction) * reference_emissions)
    return build_problem(gated, mode).problem


def test_binding_cap_matches_highs(system, reference_emissions):
    problem = cap_problem(system, reference_emissions, 0.7)
    res = assert_agrees(problem)
    assert res.status == OPTIMAL
    row = problem.row_names.index(EMISSION_CAP_LABEL)
    assert problem.a[row] @ res.x == pytest.approx(problem.rhs[row], rel=1e-9)


def test_infeasible_cap_matches_highs_and_names_the_cap(system, reference_emissions):
    res = assert_agrees(cap_problem(system, reference_emissions, 0.9))
    assert res.status == INFEASIBLE
    assert EMISSION_CAP_LABEL in res.infeasible_rows
