"""Formal monomials in channel coefficients and ordered sets of them.

A direction is a product of channel coefficients raised to non-negative
integer powers.  Equality, order and the counting of repeated rows are
exact operations on exponent vectors, decided by one lexsort of per-column
integer keys (_runs); nothing here ever compares floating-point products.

A set of directions is a read-only int64 exponent matrix: one row per
monomial, distinct and in canonical order, one column per coefficient id
of its config, in SystemConfig.coefficient_ids() order.  Every set of one
config has that one column list, so the rows of any two sets line up
column for column.  The row is the only form a monomial takes: sorting
and counting work on whole matrices, and a single monomial is given as a
{coefficient id: exponent} mapping.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

import numpy as np

from .channel import ChannelRealization, CoefficientId, SystemConfig

MAX_EXPONENT = 2**31 - 1
MAX_TOTAL_DEGREE = 1_000_000

# Coefficient ids of the columns of an exponent matrix, increasing.
Columns = tuple[CoefficientId, ...]


@lru_cache(maxsize=64)
def _columns(config: SystemConfig) -> Columns:
    """The one column list of a config's exponent matrices: its coefficient ids."""
    return tuple(config.coefficient_ids())


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


def evaluate(exps: np.ndarray, h: ChannelRealization) -> np.ndarray:
    """Numeric value of every row of an exponent matrix over h's config's
    coefficient ids, in row order: the product of each non-zero column's
    gain to its power, taken in column order.  A matrix of another width
    is refused."""
    cols = _columns(h.config)
    if exps.shape[1:] != (len(cols),):
        raise ValueError(f"matrix of shape {exps.shape}: the channel has {len(cols)} gains")
    gains = [h.gains[cid] for cid in cols]
    out = []
    for row in exps.tolist():
        v = 1.0
        for g, e in zip(gains, row):
            if e:
                v *= g**e
        out.append(v)
    return np.array(out, dtype=np.float64)
