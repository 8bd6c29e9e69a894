"""``SparseProblem.from_block`` assembly of hand-written rows, and problems
derived by ``BuiltProblem.for_mode`` against full builds."""

from pathlib import Path

import numpy as np
import pytest

from carrieropt.builder import build_problem
from carrieropt.costing import EMISSION_CAP_LABEL, ObjectiveMode
from carrieropt.lp import EQ, GE, LE, ProblemError, RowBlock, SparseProblem
from carrieropt.scenarios import STANDARD_SCENARIO_IDS, apply_scenario, standard_scenario
from carrieropt.system import build_miniature_system
from carrieropt.system_io import parse_system_files

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
    """``mode``'s problem assembled in one ``SparseProblem.from_block`` call:
    the COO entries of every row of ``base`` but its last, then the cap row
    with ``mode``'s cap, or ``+inf`` when it has none."""
    p = base.problem
    a = p.a[:-1].tocoo()
    blocks = [RowBlock(a.row, a.col, a.data, p.senses[:-1].tolist(), p.rhs[:-1],
                       p.row_names[:-1])]
    emissions = base.table.emissions
    cap = mode.emission_cap if mode.kind == "min_cost_with_cap" else np.inf
    blocks.append(RowBlock.row(
        EMISSION_CAP_LABEL, [(col, float(emissions[col])) for col in np.flatnonzero(emissions)],
        LE, cap))
    objective = emissions if mode.kind == "min_emissions" else base.table.costs
    return SparseProblem.from_block(p.num_cols, RowBlock.concat(blocks), p.lower, p.upper,
                                    objective, p.integer, p.col_names)


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
        assert derived.index is base.index and derived.table is base.table
        assert_same_problem(derived.problem, built.problem)
        assert_same_problem(derived.problem, reassembled(base, mode))
        assert derived.problem.a is base.problem.a  # every mode solves one matrix
        assert built.problem.row_names[-1] == EMISSION_CAP_LABEL
        cap = mode.emission_cap if mode.kind == "min_cost_with_cap" else np.inf
        assert built.problem.rhs[-1] == cap
        assert np.flatnonzero(built.problem.free_rows()).tolist() == (
            [] if cap < np.inf else [built.problem.num_rows - 1])
    # deriving writes into nothing the base holds
    assert_same_problem(base.problem, build_problem(gated, ObjectiveMode.min_cost()).problem)


def empty_columns(built) -> list[str]:
    """Names of the columns of ``built`` without a nonzero entry in A."""
    p = built.problem
    counts = np.diff(p.a.tocsc().indptr)
    return [p.col_names[j] for j in np.flatnonzero(counts == 0)]


@pytest.mark.parametrize("scenario_id", STANDARD_SCENARIO_IDS)
def test_no_column_is_empty(scenario_id):
    """Every declared column is written by some emitter: a flow or size that
    no row reads would be free to take any value its bounds allow."""
    for year in (2030, 2040):
        for seed in (0, 1):
            gated = apply_scenario(build_miniature_system(seed, 24),
                                   standard_scenario(scenario_id, year=year))
            assert empty_columns(build_problem(gated, ObjectiveMode.min_cost())) == [], \
                (year, seed)


@pytest.mark.parametrize("scenario_id", ["t-all", "synergies"])
def test_no_column_is_empty_with_integer_blocks(scenario_id):
    system = build_miniature_system(0, 24, dc_blocks_mw=10.0)
    gated = apply_scenario(system, standard_scenario(scenario_id))
    built = build_problem(gated, ObjectiveMode.min_cost())
    assert built.problem.integer.any()
    assert empty_columns(built) == []


def test_no_column_of_the_fixture_is_empty():
    system = parse_system_files(Path(__file__).resolve().parents[1] / "fixtures" / "miniature")
    assert empty_columns(build_problem(system, ObjectiveMode.min_cost())) == []


def test_a_mode_derives_from_any_other_mode():
    system = build_miniature_system(0, 24)
    capped = build_problem(system, ObjectiveMode.min_cost_with_cap(30_000.0))
    for mode in MODES:
        assert_same_problem(capped.for_mode(mode).problem, build_problem(system, mode).problem)


def block_of(*rows):
    """``rows``, each ``(name, terms, sense, rhs)``, as one block of one-row blocks."""
    return RowBlock.concat([RowBlock.row(*row) for row in rows])


def from_block(block, num_cols=4):
    return SparseProblem.from_block(num_cols, block, np.zeros(num_cols),
                                    np.full(num_cols, np.inf), np.zeros(num_cols))


def per_row_loop(rows):
    """CSR ``(indptr, indices, data)`` of the term lists ``rows`` merged row by
    row in a dict, the reference the single COO conversion must reproduce."""
    indptr, indices, data = [0], [], []
    for terms in rows:
        merged = {}
        for col, coef in terms:
            merged[col] = merged.get(col, 0.0) + coef
        for col, coef in sorted(merged.items()):
            if coef != 0.0:
                indices.append(col)
                data.append(coef)
        indptr.append(len(indices))
    return indptr, indices, data


class TestFromRows:
    """Problems from rows written by hand, one-row blocks (``RowBlock.row``)."""

    def test_matches_the_per_row_loop(self):
        # integral coefficients sum exactly in any order, so the match is exact;
        # rows up to 40 entries over 12 columns repeat and cancel columns often
        rng = np.random.default_rng(0)
        rows = [[(int(c), float(v)) for c, v in zip(rng.integers(0, 12, k),
                                                   rng.integers(-3, 4, k))]
                for k in rng.integers(0, 40, 200)]
        block = block_of(*((f"r{i}", terms, LE, 0.0) for i, terms in enumerate(rows)))
        a = from_block(block, num_cols=12).a
        assert (a.indptr.tolist(), a.indices.tolist(), a.data.tolist()) == per_row_loop(rows)

    def test_duplicate_entries_are_summed(self):
        p = from_block(block_of(("dup", [(2, 1.5), (0, 1.0), (2, 2.0), (2, -0.25)], LE, 1.0)))
        assert p.a.indices.tolist() == [0, 2]
        assert p.a.data.tolist() == [1.0, 3.25]

    def test_entries_that_cancel_are_not_stored(self):
        p = from_block(block_of(("cancel", [(1, 2.0), (3, 1.0), (1, -2.0)], GE, 0.0),
                                ("zero", [(0, 0.0)], EQ, 0.0)))
        assert p.a.nnz == 1
        assert p.a.indptr.tolist() == [0, 1, 1]
        assert p.a.indices.tolist() == [3]

    def test_a_row_without_coefficients_keeps_its_data(self):
        p = from_block(block_of(("first", [(0, 1.0)], LE, 5.0), ("empty", [], GE, -2.0),
                                ("last", [(1, 1.0)], EQ, 3.0)))
        assert p.a.shape == (3, 4)
        assert p.a.indptr.tolist() == [0, 1, 1, 2]
        assert p.senses.tolist() == [LE, GE, EQ]
        assert p.rhs.tolist() == [5.0, -2.0, 3.0]
        assert p.row_names == ["first", "empty", "last"]

    @pytest.mark.parametrize("col", [-1, 4])
    def test_out_of_range_column_names_its_row(self, col):
        block = block_of(("fine", [(0, 1.0)], LE, 1.0), ("bad", [(1, 1.0), (col, 2.0)], LE, 1.0),
                         ("later", [(9, 1.0)], LE, 1.0))
        with pytest.raises(ProblemError, match=f"row 'bad' references column {col} out of range"):
            from_block(block)

    def test_out_of_range_column_names_the_first_row_of_a_block(self):
        # a block may list a later row's entries first
        block = RowBlock(rows=np.array([2, 1, 0, 1]), cols=np.array([9, 7, 0, 8]),
                         coefs=np.ones(4), senses=[LE] * 3, rhs=np.zeros(3),
                         names=["a", "b", "c"])
        with pytest.raises(ProblemError, match="row 'b' references column 7 out of range"):
            SparseProblem.from_block(4, block, np.zeros(4), np.full(4, np.inf), np.zeros(4))

    def test_block_entries_in_any_order_match_rows(self):
        """Entries grouped by term rather than by row give the rows' matrix."""
        block = block_of(("a", [(3, 1.0), (1, 2.0), (3, 0.5)], LE, 1.0), ("b", [], EQ, 0.0),
                         ("c", [(0, -1.0), (2, 4.0)], GE, 2.0))
        order = np.argsort(np.arange(len(block.rows)) % 2, kind="stable")
        shuffled = RowBlock(block.rows[order], block.cols[order], block.coefs[order],
                            block.senses, block.rhs, block.names)
        assert_same_problem(
            from_block(shuffled), from_block(block))

    def test_concatenated_blocks_follow_one_another(self):
        first = RowBlock.row("a", [(0, 1.0)], LE, 1.0)
        second = block_of(("b", [(1, 2.0)], GE, 2.0), ("c", [(2, 3.0)], EQ, 3.0))
        empty = RowBlock.concat([])
        assert len(empty) == 0 and empty.rows.size == empty.cols.size == empty.coefs.size == 0
        block = RowBlock.concat([first, empty, second])
        assert block.rows.tolist() == [0, 1, 2]
        assert block.names == ["a", "b", "c"]
        assert block.senses == [LE, GE, EQ] and block.rhs.tolist() == [1.0, 2.0, 3.0]

    def test_dtypes(self):
        p = from_block(block_of(("a", [(3, 1.0), (1, 2.0)], LE, 1.0), ("b", [], EQ, 0.0)))
        assert p.a.indices.dtype == np.int32 and p.a.indptr.dtype == np.int32
        assert p.a.data.dtype == np.float64 and p.a.has_sorted_indices
        assert p.senses.dtype == object and p.senses.shape == (2,)
        assert p.rhs.dtype == np.float64
