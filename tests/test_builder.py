"""Problems derived by ``BuiltProblem.for_mode`` against full builds."""

import numpy as np
import pytest

from carrieropt.builder import build_problem
from carrieropt.costing import EMISSION_CAP_LABEL, ObjectiveMode, assemble_objective
from carrieropt.lp import Row, SparseProblem
from carrieropt.scenarios import STANDARD_SCENARIO_IDS, apply_scenario, standard_scenario
from carrieropt.system import build_miniature_system

MODES = (ObjectiveMode.min_cost(), ObjectiveMode.min_emissions(),
         ObjectiveMode.min_cost_with_cap(30_000.0),
         ObjectiveMode.min_cost_with_cap(float("inf")))


def assert_same_problem(p, q):
    """Array for array, dtypes included."""
    assert p.a.shape == q.a.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(p.a, name), getattr(q.a, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name
    for name in ("rhs", "lower", "upper", "objective", "integer", "senses"):
        x, y = getattr(p, name), getattr(q, name)
        assert x.dtype == y.dtype, name
        assert x.shape == y.shape and (x == y).all(), name
    assert p.row_names == q.row_names
    assert p.col_names == q.col_names


def reassembled(base, mode):
    """``mode``'s problem assembled from rows in one ``SparseProblem.from_rows``
    call: every row of the uncapped ``base``, then the cap row."""
    p = base.problem
    a = p.a
    rows = [Row(list(zip(a.indices[lo:hi].tolist(), a.data[lo:hi].tolist())),
                p.senses[i], float(p.rhs[i]), p.row_names[i])
            for i, (lo, hi) in enumerate(zip(a.indptr[:-1], a.indptr[1:]))]
    objective, cap = assemble_objective(base.table, mode)
    if cap is not None:
        rows.append(cap)
    return SparseProblem.from_rows(p.num_cols, rows, p.lower, p.upper, objective,
                                   p.integer, p.col_names)


@pytest.mark.parametrize("dc_blocks_mw", [None, 10.0], ids=["lp", "dc-blocks"])
@pytest.mark.parametrize("scenario_id", STANDARD_SCENARIO_IDS)
def test_for_mode_matches_a_full_build(scenario_id, dc_blocks_mw):
    system = build_miniature_system(0, 24, dc_blocks_mw=dc_blocks_mw)
    gated = apply_scenario(system, standard_scenario(scenario_id))
    base = build_problem(gated, ObjectiveMode.min_cost())
    for mode in MODES:
        built = build_problem(gated, mode)
        derived = base.for_mode(mode)
        assert derived.mode == built.mode == mode
        assert derived.cap_row == built.cap_row
        assert derived.index is base.index and derived.table is base.table
        assert_same_problem(derived.problem, built.problem)
        assert_same_problem(derived.problem, reassembled(base, mode))
        if mode.capped:
            assert built.cap_row == base.problem.num_rows
            assert built.problem.row_names[built.cap_row] == EMISSION_CAP_LABEL
            assert built.problem.rhs[built.cap_row] == mode.emission_cap
        else:
            assert built.cap_row is None
            assert derived.problem.a is base.problem.a
    # deriving writes into nothing the base holds
    assert_same_problem(base.problem, build_problem(gated, ObjectiveMode.min_cost()).problem)


def test_modes_are_derived_from_an_uncapped_problem():
    system = build_miniature_system(0, 24)
    capped = build_problem(system, ObjectiveMode.min_cost_with_cap(30_000.0))
    with pytest.raises(ValueError, match="uncapped"):
        capped.for_mode(ObjectiveMode.min_cost_with_cap(20_000.0))
