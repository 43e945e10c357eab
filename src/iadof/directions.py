"""Formal monomials in channel coefficients and ordered sets of them.

A direction is a product of channel coefficients raised to non-negative
integer powers.  Equality, order and the counting of repeated rows are
exact operations on exponent vectors, decided by one lexsort of per-column
integer keys (_runs); nothing here ever compares floating-point products.

A DirectionSet stores its members as an integer exponent matrix: one row
per monomial, one column per coefficient id, columns in increasing id
order.  The row is the only form a monomial takes: sorting and counting
work on whole matrices, and a single monomial is given as a {coefficient
id: exponent} mapping.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .channel import ChannelRealization, CoefficientId

MAX_EXPONENT = 2**31 - 1
MAX_TOTAL_DEGREE = 1_000_000

# Coefficient ids of the columns of an exponent matrix, increasing.
Columns = tuple[CoefficientId, ...]


def monomial_text(exponents: Mapping[CoefficientId, int]) -> str:
    """Readable form of a monomial given by its non-zero {coefficient id:
    exponent} entries, e.g. H[1,2](1,1)^3 * H[2,2](2,1)."""
    return " * ".join(
        f"H[{k},{j}]({n},{m})" + (f"^{e}" if e > 1 else "")
        for (k, j, n, m), e in sorted(exponents.items())
    )


def _check_exponents(exps: np.ndarray) -> None:
    """Hold every row of an exponent matrix to the exponent limits: no
    negative exponent, none above MAX_EXPONENT, and no total degree above
    MAX_TOTAL_DEGREE."""
    if exps.size == 0:
        return
    low = int(exps.min())
    if low < 0:
        raise ValueError(f"negative exponent {low}")
    top = int(exps.max())
    if top > MAX_EXPONENT:
        raise OverflowError(f"exponent {top} exceeds {MAX_EXPONENT}")
    total = int(exps.sum(axis=1).max())
    if total > MAX_TOTAL_DEGREE:
        raise OverflowError(f"total degree {total} exceeds {MAX_TOTAL_DEGREE}")


def _runs(exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical order of the rows, stable among equal rows, and along it
    where each run of equal rows starts.

    The canonical order compares each row's flat tuple of (id, exponent)
    entries for its non-zero columns, so the unit comes first.  Column by
    column that is the order of these keys: a positive exponent keys as
    itself; a zero keys as top, above every exponent, when a later column
    is non-zero (the row's next id is larger) and as 0 when none is (its
    tuple has ended).  One stable lexsort of the keys, the first column as
    its primary key, gives the order.
    """
    n, C = exps.shape
    pos = exps > 0
    top = int(exps.max(initial=0)) + 1
    # whether the row has a non-zero at or after each column
    tail = np.logical_or.accumulate(pos[:, ::-1], axis=1)[:, ::-1]
    keys = np.where(tail & ~pos, top, exps)
    order = np.lexsort(keys.T[::-1]) if C else np.arange(n)
    ranked = exps[order]
    start = np.ones(n, dtype=bool)
    start[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order, start


def _unique_rows(exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an exponent matrix in canonical order, and how
    many times each occurs."""
    if exps.shape[0] < 2:
        return exps.copy(), np.ones(exps.shape[0], dtype=np.int64)
    order, start = _runs(exps)
    return exps[order[start]], np.bincount(np.cumsum(start) - 1)


def merge_columns(a: Columns, b: Columns) -> Columns:
    """The increasing union of two column lists."""
    return a if a == b else tuple(sorted(set(a).union(b)))


class DirectionSet:
    """Finite ordered set of directions.

    The members are the rows of an exponent matrix, distinct and kept in
    the canonical order, which makes every downstream artifact (vectors,
    JSON, candidate lattices) reproducible.  Build one with from_matrix or
    tally.
    """

    __slots__ = ("_cols", "_exps")

    def __init__(self, *args, **kwargs):
        raise TypeError("build a DirectionSet with DirectionSet.from_matrix or tally")

    @classmethod
    def _of(cls, cols: Columns, exps: np.ndarray) -> "DirectionSet":
        """Wrap a matrix whose rows are already distinct and in order."""
        ds = cls.__new__(cls)
        exps.flags.writeable = False
        ds._cols = cols
        ds._exps = exps
        return ds

    @classmethod
    def from_matrix(cls, columns: Iterable[CoefficientId], exps) -> "DirectionSet":
        """The set of the rows of an exponent matrix whose columns belong to
        the given coefficient ids, in increasing order."""
        return tally(columns, exps)[0]

    @property
    def columns(self) -> Columns:
        return self._cols

    @property
    def matrix(self) -> np.ndarray:
        """Read-only exponent matrix, one row per member in canonical order."""
        return self._exps

    def matrix_over(self, columns: Columns) -> np.ndarray:
        """The exponent matrix over a superset of this set's columns."""
        if columns == self._cols:
            return self._exps
        out = np.zeros((self._exps.shape[0], len(columns)), dtype=np.int64)
        index = {cid: c for c, cid in enumerate(columns)}
        out[:, [index[cid] for cid in self._cols]] = self._exps
        return out

    def _aligned(self, other: "DirectionSet") -> tuple[Columns, np.ndarray, np.ndarray]:
        cols = merge_columns(self._cols, other._cols)
        return cols, self.matrix_over(cols), other.matrix_over(cols)

    def __len__(self) -> int:
        return self._exps.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectionSet):
            return NotImplemented
        _, a, b = self._aligned(other)
        return bool(np.array_equal(a, b))

    def __repr__(self) -> str:
        return f"DirectionSet(<{len(self)} directions>)"

    def evaluate(self, h: ChannelRealization) -> np.ndarray:
        """Numeric value of every member under a channel draw, in member
        order: the product of each non-zero column's gain to its power,
        taken in column order."""
        gains = [h.gains[cid] for cid in self._cols]
        out = []
        for row in self._exps.tolist():
            v = 1.0
            for g, e in zip(gains, row):
                if e:
                    v *= g**e
            out.append(v)
        return np.array(out, dtype=np.float64)


def tally(columns: Iterable[CoefficientId], exps) -> tuple[DirectionSet, np.ndarray]:
    """The distinct rows of an exponent matrix as a DirectionSet, and how
    many times each member occurs among the rows.

    columns gives the coefficient id of each matrix column, increasing.
    Every row is held to the exponent limits (see _check_exponents).
    """
    cols = tuple(columns)
    if list(cols) != sorted(set(cols)):
        raise ValueError("columns must be distinct coefficient ids in increasing order")
    exps = np.asarray(exps, dtype=np.int64)
    if exps.ndim != 2 or exps.shape[1] != len(cols):
        raise ValueError(
            f"need an exponent matrix with {len(cols)} columns, got shape {exps.shape}"
        )
    _check_exponents(exps)
    rows, counts = _unique_rows(exps)
    return DirectionSet._of(cols, rows), counts
