"""Assemble a solvable problem from a validated energy system.

Every emitter (:mod:`carrieropt.technologies`, :mod:`carrieropt.network`)
returns all steps of its rows as one :class:`~carrieropt.lp.RowBlock` plus
``(columns, upper)`` bound arrays. The build concatenates the blocks in row
order and converts them to the CSR matrix once, with
:meth:`~carrieropt.lp.SparseProblem.from_block`; no row is built per step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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
    table: CostTable

    def for_mode(self, mode: ObjectiveMode) -> "BuiltProblem":
        """This problem in ``mode``: the same matrix, bounds, names, index and
        cost table with the objective ``table.emissions`` (min emissions) or
        ``table.costs`` (otherwise), and the last row, ``table.emissions . x
        <= rhs`` named ``EMISSION_CAP_LABEL``, with the mode's cap as its rhs,
        or ``+inf`` (a free row, which presolve drops) when it has none.

        The result shares every array but the rhs with this problem. Nothing
        here writes into them, so problems derived from one build stay
        independent as long as callers do not write into them either.
        The solvers do not: to change bounds they derive a new problem with
        :meth:`carrieropt.lp.SparseProblem.with_bounds`.
        """
        objective = self.table.emissions if mode.kind == "min_emissions" else self.table.costs
        rhs = self.problem.rhs.copy()
        rhs[-1] = mode.emission_cap if mode.kind == "min_cost_with_cap" else np.inf
        return replace(self, problem=replace(self.problem, objective=objective, rhs=rhs),
                       mode=mode)


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
    nodal balances (node, carrier, step), then the emission cap. The matrix,
    bounds and cost table do not depend on ``mode``; they are built once, and
    :meth:`BuiltProblem.for_mode` sets the mode's objective and cap, so a
    caller holding one build derives every other mode from it without
    building again. Raises
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
    table = cost_table(system, index)
    emissions = [(col, table.emissions[col]) for col in np.flatnonzero(table.emissions)]
    blocks.append(RowBlock.row(EMISSION_CAP_LABEL, emissions, LE, np.inf))

    if bounds:
        # an emitter bounds each column at most once; like min(), fmin
        # ignores a NaN cap
        cols = np.concatenate([col for col, _ in bounds])
        upper[cols] = np.fmin(upper[cols], np.concatenate([cap for _, cap in bounds]))

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
                        mode=ObjectiveMode.min_cost(), table=table)
