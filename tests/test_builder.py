"""``SparseProblem.from_rows`` assembly, and problems derived by
``BuiltProblem.for_mode`` against full builds."""

import numpy as np
import pytest

from carrieropt.builder import build_problem
from carrieropt.costing import EMISSION_CAP_LABEL, ObjectiveMode
from carrieropt.lp import EQ, GE, LE, ProblemError, Row, RowBlock, SparseProblem
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
    emissions = base.table.emissions
    if mode.capped:
        rows.append(Row([(col, float(emissions[col])) for col in np.flatnonzero(emissions)],
                        LE, mode.emission_cap, EMISSION_CAP_LABEL))
    objective = emissions if mode.kind == "min_emissions" else base.table.costs
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


def from_rows(rows, num_cols=4):
    return SparseProblem.from_rows(num_cols, rows, np.zeros(num_cols),
                                   np.full(num_cols, np.inf), np.zeros(num_cols))


def per_row_loop(rows):
    """CSR ``(indptr, indices, data)`` of ``rows`` merged row by row in a dict,
    the reference the single COO conversion must reproduce."""
    indptr, indices, data = [0], [], []
    for row in rows:
        merged = {}
        for col, coef in row.coeffs:
            merged[col] = merged.get(col, 0.0) + coef
        for col, coef in sorted(merged.items()):
            if coef != 0.0:
                indices.append(col)
                data.append(coef)
        indptr.append(len(indices))
    return indptr, indices, data


class TestFromRows:
    def test_matches_the_per_row_loop(self):
        # integral coefficients sum exactly in any order, so the match is exact;
        # rows up to 40 entries over 12 columns repeat and cancel columns often
        rng = np.random.default_rng(0)
        rows = [Row([(int(c), float(v)) for c, v in zip(rng.integers(0, 12, k),
                                                       rng.integers(-3, 4, k))], LE, 0.0)
                for k in rng.integers(0, 40, 200)]
        a = from_rows(rows, num_cols=12).a
        assert (a.indptr.tolist(), a.indices.tolist(), a.data.tolist()) == per_row_loop(rows)

    def test_duplicate_entries_are_summed(self):
        p = from_rows([Row([(2, 1.5), (0, 1.0), (2, 2.0), (2, -0.25)], LE, 1.0, "dup")])
        assert p.a.indices.tolist() == [0, 2]
        assert p.a.data.tolist() == [1.0, 3.25]

    def test_entries_that_cancel_are_not_stored(self):
        p = from_rows([Row([(1, 2.0), (3, 1.0), (1, -2.0)], GE, 0.0, "cancel"),
                       Row([(0, 0.0)], EQ, 0.0, "zero")])
        assert p.a.nnz == 1
        assert p.a.indptr.tolist() == [0, 1, 1]
        assert p.a.indices.tolist() == [3]

    def test_a_row_without_coefficients_keeps_its_data(self):
        p = from_rows([Row([(0, 1.0)], LE, 5.0, "first"), Row([], GE, -2.0, "empty"),
                       Row([(1, 1.0)], EQ, 3.0)])
        assert p.a.shape == (3, 4)
        assert p.a.indptr.tolist() == [0, 1, 1, 2]
        assert p.senses.tolist() == [LE, GE, EQ]
        assert p.rhs.tolist() == [5.0, -2.0, 3.0]
        assert p.row_names == ["first", "empty", "r2"]

    @pytest.mark.parametrize("col", [-1, 4])
    def test_out_of_range_column_names_its_row(self, col):
        rows = [Row([(0, 1.0)], LE, 1.0, "fine"), Row([(1, 1.0), (col, 2.0)], LE, 1.0, "bad"),
                Row([(9, 1.0)], LE, 1.0, "later")]
        with pytest.raises(ProblemError, match=f"row 'bad' references column {col} out of range"):
            from_rows(rows)

    def test_out_of_range_column_names_the_first_row_of_a_block(self):
        # a block may list a later row's entries first
        block = RowBlock(rows=np.array([2, 1, 0, 1]), cols=np.array([9, 7, 0, 8]),
                         coefs=np.ones(4), senses=[LE] * 3, rhs=np.zeros(3),
                         names=["a", "b", "c"])
        with pytest.raises(ProblemError, match="row 'b' references column 7 out of range"):
            SparseProblem.from_block(4, block, np.zeros(4), np.full(4, np.inf), np.zeros(4))

    def test_block_entries_in_any_order_match_rows(self):
        """Entries grouped by term rather than by row give the rows' matrix."""
        rows = [Row([(3, 1.0), (1, 2.0), (3, 0.5)], LE, 1.0, "a"), Row([], EQ, 0.0, "b"),
                Row([(0, -1.0), (2, 4.0)], GE, 2.0, "c")]
        block = RowBlock.from_rows(rows)
        order = np.argsort(np.arange(len(block.rows)) % 2, kind="stable")
        shuffled = RowBlock(block.rows[order], block.cols[order], block.coefs[order],
                            block.senses, block.rhs, block.names)
        assert_same_problem(
            SparseProblem.from_block(4, shuffled, np.zeros(4), np.full(4, np.inf), np.zeros(4)),
            from_rows(rows))

    def test_concatenated_blocks_follow_one_another(self):
        first = RowBlock.from_rows([Row([(0, 1.0)], LE, 1.0, "a")])
        second = RowBlock.from_rows([Row([(1, 2.0)], GE, 2.0, "b"), Row([(2, 3.0)], EQ, 3.0)])
        block = RowBlock.concat([first, RowBlock.concat([]), second])
        assert block.rows.tolist() == [0, 1, 2]
        assert block.names == ["a", "b", "r1"]
        assert block.senses == [LE, GE, EQ] and block.rhs.tolist() == [1.0, 2.0, 3.0]

    def test_dtypes(self):
        p = from_rows([Row([(3, 1.0), (1, 2.0)], LE, 1.0, "a"), Row([], EQ, 0.0, "b")])
        assert p.a.indices.dtype == np.int32 and p.a.indptr.dtype == np.int32
        assert p.a.data.dtype == np.float64 and p.a.has_sorted_indices
        assert p.senses.dtype == object and p.senses.shape == (2,)
        assert p.rhs.dtype == np.float64
