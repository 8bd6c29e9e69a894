"""Sparse LP/MILP container; constraint rows become its CSR matrix in one
array conversion (:meth:`SparseProblem.from_rows`)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
class Row:
    """One linear constraint: sum(coef * x[col]) <sense> rhs."""

    coeffs: list[tuple[int, float]]
    sense: str
    rhs: float
    label: str = ""


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
        known = np.isin(self.senses, _SENSES)
        if not known.all():
            raise ProblemError(f"unknown row sense {self.senses[int(np.argmin(known))]!r}")
        if np.isnan(self.a.data).any():
            raise ProblemError("constraint matrix contains NaN")
        for name, vec in (("rhs", self.rhs), ("lower", self.lower),
                          ("upper", self.upper), ("objective", self.objective)):
            if np.isnan(vec).any():
                raise ProblemError(f"{name} contains NaN")
        if np.isinf(self.objective).any():
            raise ProblemError("objective contains infinite coefficients")
        if (self.lower > self.upper).any():
            bad = int(np.argmax(self.lower > self.upper))
            raise ProblemError(f"empty bound interval on column {self._col_name(bad)}")
        if self.integer.any():
            marked = np.flatnonzero(self.integer)
            if np.isinf(self.lower[marked]).any() or np.isinf(self.upper[marked]).any():
                raise ProblemError("integer columns require finite bounds")

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
    def from_rows(
        cls,
        num_cols: int,
        rows: list[Row],
        lower: np.ndarray,
        upper: np.ndarray,
        objective: np.ndarray,
        integer: np.ndarray | None = None,
        col_names: list[str] | None = None,
    ) -> "SparseProblem":
        """The problem whose ``i``-th constraint is ``rows[i]``, validated.

        All coefficients are flattened into one COO triplet and converted to
        CSR: entries a row lists twice for one column are summed, column
        indices come out sorted, and entries that sum to zero are not stored.
        A row without a label is named ``r<i>``. Raises :class:`ProblemError`
        naming the first row that references a column outside
        ``range(num_cols)``.
        """
        ri = np.repeat(np.arange(len(rows)), [len(row.coeffs) for row in rows])
        ci = np.fromiter((col for row in rows for col, _ in row.coeffs),
                         dtype=np.intp, count=len(ri))
        data = np.fromiter((coef for row in rows for _, coef in row.coeffs),
                           dtype=float, count=len(ri))
        outside = (ci < 0) | (ci >= num_cols)
        if outside.any():
            k = int(np.argmax(outside))
            raise ProblemError(f"row {rows[ri[k]].label!r} references column"
                               f" {int(ci[k])} out of range")
        a = sp.csr_matrix((data, (ri, ci)), shape=(len(rows), num_cols))
        a.eliminate_zeros()
        problem = cls(
            a=a,
            senses=np.array([row.sense for row in rows], dtype=object),
            rhs=np.array([row.rhs for row in rows], dtype=float),
            lower=np.asarray(lower, dtype=float).copy(),
            upper=np.asarray(upper, dtype=float).copy(),
            objective=np.asarray(objective, dtype=float).copy(),
            integer=(np.zeros(num_cols, dtype=bool) if integer is None
                     else np.asarray(integer, dtype=bool).copy()),
            col_names=list(col_names) if col_names else [],
            row_names=[row.label or f"r{i}" for i, row in enumerate(rows)],
        )
        problem.validate()
        return problem
