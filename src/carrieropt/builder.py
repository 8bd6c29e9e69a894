"""Assemble a solvable problem from a validated energy system."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costing import CostTable, ObjectiveMode, assemble_objective, cost_table
from .lp import Row, SparseProblem
from .network import emit_branch, emit_energy_balance
from .system import EnergySystem, VariableIndex, assemble_variable_index
from .technologies import emit_technology


@dataclass
class BuiltProblem:
    system: EnergySystem
    index: VariableIndex
    problem: SparseProblem
    mode: ObjectiveMode
    cap_row: int | None
    table: CostTable

    @property
    def emissions(self) -> np.ndarray:
        """t CO2 per unit of each column."""
        return self.table.emissions


def _default_bounds(system: EnergySystem, index: VariableIndex
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = len(index)
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    integer = np.zeros(n, dtype=bool)
    for tech in system.technologies:
        if tech.expandable:
            col = index.column(tech.id, "size")
            upper[col] = tech.max_size - tech.existing_size
    for branch in system.branches:
        if not branch.expandable:
            continue
        headroom = branch.max_capacity - branch.existing_capacity
        if branch.integer_block_mw is not None:
            col = index.column(branch.id, "blocks")
            upper[col] = math.floor(headroom / branch.integer_block_mw)
            integer[col] = True
            if index.has(branch.id, "build"):
                bcol = index.column(branch.id, "build")
                upper[bcol] = 1.0
                integer[bcol] = True
        else:
            upper[index.column(branch.id, "size")] = headroom
        if branch.bidirectional:
            upper[index.column(branch.id, "size[rev]")] = headroom
    return lower, upper, integer


def build_problem(system: EnergySystem, mode: ObjectiveMode) -> BuiltProblem:
    """Emit every constraint row, bound and objective for ``system`` in ``mode``.

    Row order is deterministic: technology rows (by id), branch rows (by id),
    nodal balances (node, carrier, step), then the optional emission cap.
    Raises :class:`carrieropt.system.StructureError` for an invalid system.
    """
    index = assemble_variable_index(system)

    lower, upper, integer = _default_bounds(system, index)
    rows: list[Row] = []

    def apply_bounds(bounds) -> None:
        for col, lo, hi in bounds:
            lower[col] = max(lower[col], lo)
            upper[col] = min(upper[col], hi)

    for tech in sorted(system.technologies, key=lambda t: t.id):
        tech_rows, tech_bounds = emit_technology(tech, index, system)
        rows.extend(tech_rows)
        apply_bounds(tech_bounds)

    for branch in sorted(system.branches, key=lambda b: b.id):
        branch_rows, branch_bounds = emit_branch(branch, index, system)
        rows.extend(branch_rows)
        apply_bounds(branch_bounds)

    balance_rows, import_bounds = emit_energy_balance(system, index)
    rows.extend(balance_rows)
    apply_bounds(import_bounds)

    table = cost_table(system, index)
    objective, cap = assemble_objective(table, mode)
    cap_row = None
    if cap is not None:
        cap_row = len(rows)
        rows.append(cap)

    problem = SparseProblem.from_rows(
        num_cols=len(index),
        rows=rows,
        lower=lower,
        upper=upper,
        objective=objective,
        integer=integer,
        col_names=index.names(),
    )
    return BuiltProblem(system=system, index=index, problem=problem, mode=mode,
                        cap_row=cap_row, table=table)
