"""MPS export and three-stage warm-start behaviour."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from carrieropt.lp import (
    LE,
    OPTIMAL,
    export_mps,
    solve_lp,
    solve_milp,
    warm_start_solve,
    WarmStartError,
)

from .test_simplex import make_problem


def parse_mps(text):
    """Minimal fixed-MPS reader used only to round-trip our own writer."""
    section = None
    rows = {}
    row_order = []
    cols: dict[str, dict[str, float]] = {}
    rhs = {}
    bounds = {}
    integer = set()
    in_int = False
    for raw in text.splitlines():
        if not raw.strip() or raw.startswith("*"):
            continue
        if not raw.startswith(" "):
            section = raw.split()[0]
            continue
        parts = raw.split()
        if section == "ROWS":
            rows[parts[1]] = parts[0]
            row_order.append(parts[1])
        elif section == "COLUMNS":
            if "'MARKER'" in parts:
                in_int = parts[-1] == "'INTORG'"
                continue
            name = parts[0]
            if in_int:
                integer.add(name)
            entry = cols.setdefault(name, {})
            for rname, value in zip(parts[1::2], parts[2::2]):
                entry[rname] = float(value)
        elif section == "RHS":
            rhs[parts[1]] = float(parts[2])
        elif section == "BOUNDS":
            code, _, col = parts[0], parts[1], parts[2]
            value = float(parts[3]) if len(parts) > 3 else None
            bounds.setdefault(col, []).append((code, value))
    return rows, row_order, cols, rhs, bounds, integer


class TestMpsExport:
    def _problem(self):
        return make_problem(
            [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0]], [LE, LE], [7.0, 9.0],
            [-3.0, -4.0, 0.5],
            upper=[5.0, 5.0, np.inf],
            integer=np.array([True, False, False]),
            names=["blocks", "flow", "spill"],
        )

    def test_round_trip_structure(self, tmp_path):
        p = self._problem()
        path = export_mps(p, tmp_path / "toy.mps")
        rows, order, cols, rhs, bounds, integer = parse_mps(path.read_text())
        assert rows.pop("COST") == "N"
        assert [rows[r] for r in order if r != "COST"] == ["L", "L"]
        assert cols["C0000001"]["COST"] == -3.0
        assert cols["C0000001"]["R0000001"] == 2.0
        assert cols["C0000003"]["R0000002"] == 1.0
        assert rhs["R0000001"] == 7.0
        assert "C0000001" in integer
        assert ("UI", 5.0) in bounds["C0000001"]
        assert ("UP", 5.0) in bounds["C0000002"]
        assert ("PL", None) in bounds["C0000003"]

    def test_a_free_row_is_left_out(self, tmp_path):
        p = self._problem()
        freed = make_problem(
            [[2.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 3.0, 1.0]], [LE, LE, LE],
            [7.0, np.inf, 9.0], p.objective, upper=p.upper, integer=p.integer,
            names=p.col_names)
        export_mps(p, tmp_path / "kept.mps")
        export_mps(freed, tmp_path / "freed.mps")
        assert (tmp_path / "freed.mps").read_text() == (tmp_path / "kept.mps").read_text()
        sidecar = json.loads((tmp_path / "freed.mps.names.json").read_text())
        assert sidecar["rows"] == {"R0000001": "r0", "R0000002": "r2"}

    def test_sidecar_names(self, tmp_path):
        p = self._problem()
        path = export_mps(p, tmp_path / "toy.mps")
        sidecar = json.loads((tmp_path / "toy.mps.names.json").read_text())
        assert sidecar["columns"]["C0000001"] == "blocks"
        assert sidecar["rows"]["R0000001"] == "r0"


class TestWarmStart:
    def _expansion_problem(self):
        # two "size" columns and two ops columns; sizes gate the ops
        # min 10*s1 + 12*s2 - 8*f1 - 9*f2  s.t. f1 <= 2 + s1, f2 <= s2, f1+f2 <= 7
        return make_problem(
            [[-1.0, 0.0, 1.0, 0.0],
             [0.0, -1.0, 0.0, 1.0],
             [0.0, 0.0, 1.0, 1.0]],
            [LE, LE, LE],
            [2.0, 0.0, 7.0],
            [10.0, 12.0, -8.0, -9.0],
            upper=[6.0, 6.0, np.inf, np.inf],
            names=["size1", "size2", "flow1", "flow2"],
        )

    def test_idempotent_restart_from_own_optimum(self):
        p = self._expansion_problem()
        cold = solve_lp(p)
        ws = warm_start_solve(
            p,
            base_solution={"size1": float(cold.x[0]), "size2": float(cold.x[1])},
            new_size_names=[],
        )
        assert_allclose(ws[-1].objective, cold.objective, atol=1e-9)

    def test_stagewise_monotone_objectives(self):
        p = self._expansion_problem()
        restricted = p.with_bounds({1: (p.lower[1], 0.0)})  # prior scenario had no size2
        prior = solve_lp(restricted)
        ws = warm_start_solve(
            p,
            base_solution={"size1": float(prior.x[0])},
            new_size_names=["size2"],
        )
        s1, s2, s3 = (stage.objective for stage in ws)
        assert s2 <= s1 + 1e-9
        assert s3 <= s2 + 1e-9
        cold = solve_lp(p)
        assert_allclose(s3, cold.objective, atol=1e-9)

    def test_infeasible_base_raises_with_rows(self):
        p = self._expansion_problem()
        # force flow1 >= 5 while size1 fixed at 0 caps it at 2
        bad = p.with_bounds({2: (5.0, p.upper[2])})
        with pytest.raises(WarmStartError) as err:
            warm_start_solve(bad, base_solution={"size1": 0.0}, new_size_names=[])
        assert err.value.rows

    def test_base_value_outside_bounds_raises(self):
        p = self._expansion_problem()
        with pytest.raises(WarmStartError, match="violates its bounds"):
            warm_start_solve(p, base_solution={"size1": 99.0}, new_size_names=[])

    def test_nan_base_value_raises(self):
        p = self._expansion_problem()
        with pytest.raises(WarmStartError, match="violates its bounds"):
            warm_start_solve(p, base_solution={"size1": float("nan")}, new_size_names=[])

    def test_stage3_uses_warm_basis(self):
        p = self._expansion_problem()
        restricted = p.with_bounds({1: (p.lower[1], 0.0)})
        prior = solve_lp(restricted)
        ws = warm_start_solve(p, base_solution={"size1": float(prior.x[0])},
                              new_size_names=["size2"])
        assert ws[2].status == OPTIMAL
        # stage 3 resumes from a feasible basis: few extra pivots
        assert ws[2].iterations <= solve_lp(p).iterations + 10

    def _count_stage_solves(self, monkeypatch):
        from carrieropt.lp import warmstart
        calls = []

        def counting_solve(problem, *args, **kwargs):
            calls.append(problem)
            return solve_milp(problem, *args, **kwargs)

        monkeypatch.setattr(warmstart, "solve_milp", counting_solve)
        return calls

    def test_stage2_solved_only_for_new_sizes(self, monkeypatch):
        p = self._expansion_problem()
        cold = solve_lp(p)
        restricted = p.with_bounds({1: (p.lower[1], 0.0)})
        prior = solve_lp(restricted)
        cases = [({"size1": float(cold.x[0]), "size2": float(cold.x[1])}, [], 2),
                 ({"size1": float(prior.x[0])}, ["size2"], 3)]
        for base, new, solves in cases:
            calls = self._count_stage_solves(monkeypatch)
            ws = warm_start_solve(p, base_solution=base, new_size_names=new)
            assert len(calls) == len(ws) == solves
            assert abs(ws[-1].objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))

    def test_own_sizes_skip_stage2_on_scenario_problem(self, monkeypatch):
        # seed-0 t-all min-cost, warm-started from the sizes of its own optimum
        from carrieropt.builder import build_problem
        from carrieropt.costing import ObjectiveMode
        from carrieropt.scenarios import apply_scenario, standard_scenario
        from carrieropt.system import build_miniature_system

        built = build_problem(apply_scenario(build_miniature_system(0),
                                             standard_scenario("t-all")),
                              ObjectiveMode.min_cost())
        cold = solve_milp(built.problem)
        sizes = {name: float(cold.x[col]) for name, col in built.index.size_columns().items()}
        calls = self._count_stage_solves(monkeypatch)
        ws = warm_start_solve(built.problem, sizes, [])
        assert len(calls) == len(ws) == 2
        assert [stage.status for stage in ws] == [OPTIMAL] * 2
        assert abs(ws[-1].objective - cold.objective) <= 1e-9 * abs(cold.objective)
