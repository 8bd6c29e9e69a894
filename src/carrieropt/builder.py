"""Assemble a solvable problem from a validated energy system.

Every emitter (:mod:`carrieropt.technologies`, :mod:`carrieropt.network`)
returns all steps of its rows as one :class:`~carrieropt.lp.RowBlock` plus
``(columns, upper)`` bound arrays. The build concatenates the blocks in row
order and converts them to the CSR matrix once, with
:meth:`~carrieropt.lp.SparseProblem.from_block`; no row is built per step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .costing import EMISSION_CAP_LABEL, CostTable, ObjectiveMode, cost_table
from .lp import LE, RowBlock, SparseProblem
from .network import emit_branch, emit_energy_balance
from .system import EnergySystem, VariableIndex, assemble_variable_index, single_columns
from .technologies import Bounds, emit_technology


@dataclass
class BuiltProblem:
    system: EnergySystem
    index: VariableIndex
    problem: SparseProblem
    mode: ObjectiveMode
    cap_row: int | None
    table: CostTable

    def for_mode(self, mode: ObjectiveMode) -> "BuiltProblem":
        """This uncapped problem in ``mode``: the same matrix, bounds, names,
        index and cost table with the objective ``table.emissions`` (min
        emissions) or ``table.costs`` (otherwise), and for a capped mode the
        row ``table.emissions . x <= cap``, named ``EMISSION_CAP_LABEL``,
        stacked last with the emissions vector's nonzeros as its entries.

        The result shares every array it does not replace with this problem,
        and every capped mode shares one matrix, senses array and row-name
        list, stacked on the first call. Nothing here writes into them, so
        problems derived from one build stay independent as long as callers
        do not write into them either.
        The solvers do not: to change bounds they derive a new problem with
        :meth:`carrieropt.lp.SparseProblem.with_bounds`.
        """
        if self.cap_row is not None:
            raise ValueError("modes are derived from an uncapped problem")
        table, base = self.table, self.problem
        objective = table.emissions if mode.kind == "min_emissions" else table.costs
        problem = replace(base, objective=objective)
        if not mode.capped:
            return replace(self, problem=problem, mode=mode)
        a, senses, row_names = self._capped
        problem = replace(problem, a=a, senses=senses,
                          rhs=np.append(base.rhs, mode.emission_cap), row_names=row_names)
        return replace(self, problem=problem, mode=mode, cap_row=base.num_rows)

    @cached_property
    def _capped(self) -> tuple[sp.csr_matrix, np.ndarray, list[str]]:
        """The matrix, senses and row names of every capped mode: stacked once
        per uncapped build and shared by each cap, which changes only the rhs."""
        base = self.problem
        return (sp.vstack([base.a, sp.csr_matrix(self.table.emissions)], format="csr"),
                np.append(base.senses, LE), [*base.row_names, EMISSION_CAP_LABEL])


def _default_bounds(system: EnergySystem, index: VariableIndex
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower and upper bounds and integrality of every column: 0, infinite and
    continuous, except where :func:`~carrieropt.system.single_columns` bounds
    a single column or makes it integer."""
    n = len(index)
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    integer = np.zeros(n, dtype=bool)
    for entity in (*system.technologies, *system.branches):
        for role, cap, is_integer in single_columns(entity):
            col = index.column(entity.id, role)
            upper[col] = cap
            integer[col] = is_integer
    return lower, upper, integer


def build_problem(system: EnergySystem, mode: ObjectiveMode) -> BuiltProblem:
    """Emit every constraint row, bound and objective for ``system`` in ``mode``.

    Row order is deterministic: technology rows (by id), branch rows (by id),
    nodal balances (node, carrier, step), then the optional emission cap.
    The rows, bounds and cost table do not depend on ``mode``; they are built
    once, and :meth:`BuiltProblem.for_mode` adds the mode's objective and cap
    row, so a caller holding an uncapped build derives every other mode from
    it without building again. Raises
    :class:`carrieropt.system.StructureError` for an invalid system.
    """
    return _build(system).for_mode(mode)


def _build(system: EnergySystem) -> BuiltProblem:
    """The rows, bounds, names and cost table of ``system``, as its min-cost problem."""
    index = assemble_variable_index(system)

    lower, upper, integer = _default_bounds(system, index)
    blocks: list[RowBlock] = []
    bounds: list[Bounds] = []

    def emitted(block: RowBlock, block_bounds: list[Bounds]) -> None:
        blocks.append(block)
        bounds.extend(block_bounds)

    for tech in sorted(system.technologies, key=lambda t: t.id):
        emitted(*emit_technology(tech, index, system))
    for branch in sorted(system.branches, key=lambda b: b.id):
        emitted(*emit_branch(branch, index, system))
    emitted(*emit_energy_balance(system, index))

    if bounds:
        # an emitter bounds each column at most once; like min(), fmin
        # ignores a NaN cap
        cols = np.concatenate([col for col, _ in bounds])
        upper[cols] = np.fmin(upper[cols], np.concatenate([cap for _, cap in bounds]))

    table = cost_table(system, index)
    problem = SparseProblem.from_block(
        num_cols=len(index),
        block=RowBlock.concat(blocks),
        lower=lower,
        upper=upper,
        objective=table.costs,
        integer=integer,
        col_names=index.names(),
    )
    return BuiltProblem(system=system, index=index, problem=problem,
                        mode=ObjectiveMode.min_cost(), cap_row=None, table=table)
