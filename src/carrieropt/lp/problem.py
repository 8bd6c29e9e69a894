"""Sparse LP/MILP container. Rows are written only as a :class:`RowBlock` of
arrays, one row as a one-row block (:meth:`RowBlock.row`); a block becomes the
CSR matrix in one array conversion (:meth:`SparseProblem.from_block`)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Mapping

import numpy as np
import scipy.sparse as sp

LE = "<="
GE = ">="
EQ = "=="

_SENSES = (LE, GE, EQ)


class ProblemError(ValueError):
    """Raised for structurally invalid problems."""


@dataclass
class RowBlock:
    """Constraint rows as arrays.

    Entry ``k`` puts ``coefs[k]`` on column ``cols[k]`` of row ``rows[k]``,
    counted from the block's first row; row ``i`` reads ``senses[i]`` ``rhs[i]``
    and is named ``names[i]``. Entries of one row may lie anywhere in the
    arrays; their order among themselves is the order duplicates are summed in.
    """

    rows: np.ndarray
    cols: np.ndarray
    coefs: np.ndarray
    senses: list[str]
    rhs: np.ndarray
    names: list[str]

    def __len__(self) -> int:
        return len(self.names)

    @classmethod
    def row(cls, name: str, terms: list[tuple[int, float]], sense: str,
            rhs: float) -> "RowBlock":
        """The one row ``name``: the sum of ``coef * x[col]`` over ``terms``,
        ``sense`` ``rhs``."""
        return cls(rows=np.zeros(len(terms), dtype=np.intp),
                   cols=np.array([col for col, _ in terms], dtype=np.intp),
                   coefs=np.array([coef for _, coef in terms], dtype=float),
                   senses=[sense], rhs=np.array([rhs], dtype=float), names=[name])

    @classmethod
    def concat(cls, blocks: list["RowBlock"]) -> "RowBlock":
        """The rows of ``blocks``, each block's after the previous one's."""
        if not blocks:
            empty = np.empty(0, dtype=np.intp)
            return cls(empty, empty, np.empty(0), [], np.empty(0), [])
        rows, offset = [], 0
        for block in blocks:
            rows.append(block.rows + offset)
            offset += len(block)
        return cls(
            rows=np.concatenate(rows),
            cols=np.concatenate([block.cols for block in blocks]),
            coefs=np.concatenate([block.coefs for block in blocks]),
            senses=list(chain.from_iterable(block.senses for block in blocks)),
            rhs=np.concatenate([block.rhs for block in blocks]),
            names=list(chain.from_iterable(block.names for block in blocks)),
        )


@dataclass
class SparseProblem:
    """Minimization problem  min c.x  s.t.  A x {<=,>=,==} b,  l <= x <= u.

    Columns marked in ``integer`` are restricted to integral values and must
    carry finite bounds. Names are kept for diagnostics, warm-start matching
    and the MPS writer; they do not influence the solve.
    """

    a: sp.csr_matrix
    senses: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    objective: np.ndarray
    integer: np.ndarray
    col_names: list[str] = field(default_factory=list)
    row_names: list[str] = field(default_factory=list)

    @property
    def num_rows(self) -> int:
        return self.a.shape[0]

    @property
    def num_cols(self) -> int:
        return self.a.shape[1]

    def validate(self) -> None:
        m, n = self.a.shape
        if len(self.rhs) != m or len(self.senses) != m:
            raise ProblemError("row data length does not match matrix rows")
        if not (len(self.lower) == len(self.upper) == len(self.objective) == len(self.integer) == n):
            raise ProblemError("column data length does not match matrix columns")
        if self.col_names and len(self.col_names) != n:
            raise ProblemError("col_names length mismatch")
        if self.row_names and len(self.row_names) != m:
            raise ProblemError("row_names length mismatch")
        if not set(self.senses.tolist()) <= set(_SENSES):
            known = np.isin(self.senses, _SENSES)
            raise ProblemError(f"unknown row sense {self.senses[int(np.argmin(known))]!r}")
        if np.isnan(self.a.data).any():
            raise ProblemError("constraint matrix contains NaN")
        for name, vec in (("rhs", self.rhs), ("lower", self.lower),
                          ("upper", self.upper), ("objective", self.objective)):
            if np.isnan(vec).any():
                raise ProblemError(f"{name} contains NaN")
        if np.isinf(self.objective).any():
            raise ProblemError("objective contains infinite coefficients")
        unmet = np.isinf(self.rhs) & ~self.free_rows()
        if unmet.any():
            bad = int(np.argmax(unmet))
            raise ProblemError(f"row {self._row_name(bad)}: no point meets"
                               f" {self.senses[bad]} {self.rhs[bad]}")
        if (self.lower > self.upper).any():
            bad = int(np.argmax(self.lower > self.upper))
            raise ProblemError(f"empty bound interval on column {self._col_name(bad)}")
        if self.integer.any():
            marked = np.flatnonzero(self.integer)
            if np.isinf(self.lower[marked]).any() or np.isinf(self.upper[marked]).any():
                raise ProblemError("integer columns require finite bounds")

    def free_rows(self) -> np.ndarray:
        """Mask of the rows every point meets: ``<=`` with rhs ``+inf`` and
        ``>=`` with rhs ``-inf``."""
        free = np.isinf(self.rhs)
        rhs, senses = self.rhs[free], self.senses[free]
        free[free] = np.where(rhs > 0, senses == LE, senses == GE)
        return free

    def without_free_rows(self) -> "SparseProblem":
        """This problem less its :meth:`free_rows`; the kept rows keep their names."""
        kept = np.flatnonzero(~self.free_rows())
        if len(kept) == self.num_rows:
            return self
        return replace(self, a=self.a[kept], senses=self.senses[kept], rhs=self.rhs[kept],
                       row_names=[self._row_name(i) for i in kept.tolist()])

    def fingerprint(self) -> tuple:
        """Shape and sums of the matrix: what a basis is checked against before it
        starts a solve of this problem."""
        a = self.a
        return (*a.shape, a.nnz, float(a.data.sum()), float(np.abs(a.data).sum()))

    def _col_name(self, j: int) -> str:
        return self.col_names[j] if self.col_names else f"x{j}"

    def _row_name(self, i: int) -> str:
        return self.row_names[i] if self.row_names else f"r{i}"

    def column_index(self, name: str) -> int:
        try:
            return self.col_names.index(name)
        except ValueError:
            raise KeyError(f"unknown column name {name!r}") from None

    def copy(self) -> "SparseProblem":
        return SparseProblem(
            a=self.a.copy(),
            senses=self.senses.copy(),
            rhs=self.rhs.copy(),
            lower=self.lower.copy(),
            upper=self.upper.copy(),
            objective=self.objective.copy(),
            integer=self.integer.copy(),
            col_names=list(self.col_names),
            row_names=list(self.row_names),
        )

    def with_bounds(self, patch: Mapping[int, tuple[float, float]]) -> "SparseProblem":
        """This problem with column ``j``'s bounds set to ``patch[j]``, a
        ``(lower, upper)`` pair. Only ``lower`` and ``upper`` are copied; every
        other field is shared with this problem."""
        lower, upper = self.lower.copy(), self.upper.copy()
        for col, (lo, up) in patch.items():
            lower[col], upper[col] = lo, up
        return replace(self, lower=lower, upper=upper)

    @classmethod
    def from_block(
        cls,
        num_cols: int,
        block: RowBlock,
        lower: np.ndarray,
        upper: np.ndarray,
        objective: np.ndarray,
        integer: np.ndarray | None = None,
        col_names: list[str] | None = None,
    ) -> "SparseProblem":
        """The problem whose ``i``-th constraint is row ``i`` of ``block``, validated.

        The block's entries are one COO triplet, converted to CSR: entries a
        row lists twice for one column are summed, column indices come out
        sorted, and entries that sum to zero are not stored. Raises
        :class:`ProblemError` naming the first row that references a column
        outside ``range(num_cols)``.
        """
        ri, ci = block.rows, block.cols
        outside = (ci < 0) | (ci >= num_cols)
        if outside.any():
            bad = np.flatnonzero(outside)
            k = bad[np.argmin(ri[bad])]
            raise ProblemError(f"row {block.names[ri[k]]!r} references column"
                               f" {int(ci[k])} out of range")
        a = sp.csr_matrix((block.coefs, (ri, ci)), shape=(len(block), num_cols))
        a.eliminate_zeros()
        problem = cls(
            a=a,
            senses=np.array(block.senses, dtype=object),
            rhs=np.asarray(block.rhs, dtype=float),
            lower=np.asarray(lower, dtype=float).copy(),
            upper=np.asarray(upper, dtype=float).copy(),
            objective=np.asarray(objective, dtype=float).copy(),
            integer=(np.zeros(num_cols, dtype=bool) if integer is None
                     else np.asarray(integer, dtype=bool).copy()),
            col_names=list(col_names) if col_names else [],
            row_names=list(block.names),
        )
        problem.validate()
        return problem
