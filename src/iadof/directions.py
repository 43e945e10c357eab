"""Formal monomials in channel coefficients and ordered sets of them.

A direction is a product of channel coefficients raised to non-negative
integer powers.  Equality, containment, and set algebra are all exact
symbolic operations on exponent vectors; nothing here ever compares
floating-point products.

A DirectionSet stores its members as an integer exponent matrix: one row
per monomial, one column per coefficient id, columns in increasing id
order.  Set operations work on whole matrices; Direction objects are built
only where members are iterated, indexed or evaluated.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .channel import ChannelRealization, CoefficientId

MAX_EXPONENT = 2**31 - 1
MAX_TOTAL_DEGREE = 1_000_000

# Coefficient ids of the columns of an exponent matrix, increasing.
Columns = tuple[CoefficientId, ...]


class Direction:
    """Immutable monomial, stored as a flat tuple.

    Layout: (k1, j1, n1, m1, e1, k2, j2, n2, m2, e2, ...) with coefficient
    ids strictly increasing lexicographically and every exponent positive.
    The empty tuple is the unit monomial.  Use direction() to build one from
    a mapping; the raw constructor trusts its input.
    """

    __slots__ = ("_flat", "_hash")

    def __init__(self, flat: tuple[int, ...]):
        self._flat = flat
        self._hash = hash(flat)

    @property
    def flat(self) -> tuple[int, ...]:
        return self._flat

    def exponents(self) -> dict[CoefficientId, int]:
        f = self._flat
        return {(f[i], f[i + 1], f[i + 2], f[i + 3]): f[i + 4] for i in range(0, len(f), 5)}

    def exponent(self, cid: CoefficientId) -> int:
        f = self._flat
        for i in range(0, len(f), 5):
            if (f[i], f[i + 1], f[i + 2], f[i + 3]) == cid:
                return f[i + 4]
        return 0

    def total_degree(self) -> int:
        return sum(self._flat[4::5])

    def __mul__(self, other: "Direction") -> "Direction":
        if not isinstance(other, Direction):
            return NotImplemented
        return mono_mul(self, other)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Direction):
            return NotImplemented
        return self._flat == other._flat

    def __lt__(self, other: "Direction") -> bool:
        return self._flat < other._flat

    def __le__(self, other: "Direction") -> bool:
        return self._flat <= other._flat

    def __gt__(self, other: "Direction") -> bool:
        return self._flat > other._flat

    def __ge__(self, other: "Direction") -> bool:
        return self._flat >= other._flat

    def __repr__(self) -> str:
        return f"Direction({self.text()})"

    def text(self) -> str:
        """Readable form, e.g. H[1,2](1,1)^3 * H[2,2](2,1)."""
        f = self._flat
        if not f:
            return "1"
        parts = []
        for i in range(0, len(f), 5):
            k, j, n, m, e = f[i : i + 5]
            base = f"H[{k},{j}]({n},{m})"
            parts.append(base if e == 1 else f"{base}^{e}")
        return " * ".join(parts)


UNIT = Direction(())


def direction(exponents: Mapping[CoefficientId, int]) -> Direction:
    """Canonicalize a {coefficient id: exponent} mapping into a Direction.

    Zero exponents are dropped; negative ones are rejected.
    """
    items = []
    total = 0
    for cid, e in exponents.items():
        if e == 0:
            continue
        if e < 0:
            raise ValueError(f"negative exponent {e} for {cid}")
        if e > MAX_EXPONENT:
            raise OverflowError(f"exponent {e} for {cid} exceeds {MAX_EXPONENT}")
        items.append((cid, e))
        total += e
    if total > MAX_TOTAL_DEGREE:
        raise OverflowError(f"total degree {total} exceeds {MAX_TOTAL_DEGREE}")
    items.sort()
    flat = []
    for (k, j, n, m), e in items:
        flat.extend((k, j, n, m, e))
    return Direction(tuple(flat))


def mono_mul(a: Direction, b: Direction) -> Direction:
    """Exact product: merge the two sorted exponent lists, adding exponents."""
    fa, fb = a.flat, b.flat
    if not fa:
        return b
    if not fb:
        return a
    out: list[int] = []
    ia = ib = 0
    la, lb = len(fa), len(fb)
    total = 0
    while ia < la and ib < lb:
        ka = fa[ia : ia + 4]
        kb = fb[ib : ib + 4]
        if ka == kb:
            e = fa[ia + 4] + fb[ib + 4]
            if e > MAX_EXPONENT:
                raise OverflowError(f"exponent {e} exceeds {MAX_EXPONENT}")
            out.extend(ka)
            out.append(e)
            total += e
            ia += 5
            ib += 5
        elif ka < kb:
            out.extend(fa[ia : ia + 5])
            total += fa[ia + 4]
            ia += 5
        else:
            out.extend(fb[ib : ib + 5])
            total += fb[ib + 4]
            ib += 5
    rest = fa[ia:] if ia < la else fb[ib:]
    out.extend(rest)
    total += sum(rest[4::5])
    if total > MAX_TOTAL_DEGREE:
        raise OverflowError(f"total degree {total} exceeds {MAX_TOTAL_DEGREE}")
    return Direction(tuple(out))


def mono_eval(d: Direction, h: ChannelRealization) -> float:
    """Numeric value of the monomial under a concrete channel draw."""
    f = d.flat
    v = 1.0
    for i in range(0, len(f), 5):
        cid = (f[i], f[i + 1], f[i + 2], f[i + 3])
        v *= h.gains[cid] ** f[i + 4]
    return v


def _check_exponents(exps: np.ndarray) -> None:
    """Hold every row of an exponent matrix to direction()'s limits."""
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


def _order_keys(exps: np.ndarray) -> np.ndarray:
    """Packed unsigned words, one row per matrix row, whose lexicographic
    order is the canonical Direction order and which are equal exactly when
    the rows are.

    Direction compares its flat tuple of (id, exponent) entries for the
    non-zero columns.  Column by column that is the order of these keys: a
    positive exponent keys as itself; a zero keys as top, above every
    exponent, when a later column is non-zero (that row's next id is larger)
    and as 0 when none is (that row's tuple has ended).  The keys are packed,
    first column highest, into as few 64-bit words as hold them all, by a
    product with the column weights: the exponents, plus top times the
    weights of the zero columns before the row's last non-zero one.
    """
    n, C = exps.shape
    if C == 0:
        return np.zeros((n, 1), dtype=np.uint64)
    pos = exps > 0
    top = int(exps.max(initial=0)) + 1
    weights, prefix = _key_weights(C, top.bit_length())
    # columns up to and including the last non-zero one; 0 for the unit
    flipped = np.concatenate([pos[:, ::-1], np.ones((n, 1), dtype=bool)], axis=1)
    span = C - np.argmax(flipped, axis=1)
    zeros = prefix[span] - pos.astype(np.uint64) @ weights
    # the fields of one word never overlap, so these sums never carry
    return exps.astype(np.uint64) @ weights + np.uint64(top) * zeros


@lru_cache(maxsize=None)
def _key_weights(C: int, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Place of each of C keys of the given width in the packed words (as
    many keys per 64-bit word as fit, first column highest), and the sums of
    the first j rows of those weights for j = 0..C."""
    per_word = 64 // bits
    weights = np.zeros((C, -(-C // per_word)), dtype=np.uint64)
    for c in range(C):
        weights[c, c // per_word] = 1 << (bits * (per_word - 1 - c % per_word))
    prefix = np.zeros((C + 1, weights.shape[1]), dtype=np.uint64)
    np.cumsum(weights, axis=0, out=prefix[1:])
    weights.flags.writeable = False
    prefix.flags.writeable = False
    return weights, prefix


def _runs(exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical order of the rows, and along it where each run of equal
    rows starts."""
    keys = _order_keys(exps)
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    start = np.ones(order.shape[0], dtype=bool)
    start[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order, start


def _unique_rows(exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an exponent matrix in canonical order, and how
    many times each occurs."""
    if exps.shape[0] < 2:
        return exps.copy(), np.ones(exps.shape[0], dtype=np.int64)
    order, start = _runs(exps)
    return exps[order[start]], np.bincount(np.cumsum(start) - 1)


def _rows_in(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each row of a, whether it is also a row of b.  Both matrices
    share their columns and neither repeats a row."""
    order, start = _runs(np.concatenate([a, b]))
    run = np.cumsum(start) - 1
    hit = np.empty(order.shape[0], dtype=bool)
    hit[order] = np.bincount(run)[run] > 1
    return hit[: a.shape[0]]


def merge_columns(a: Columns, b: Columns) -> Columns:
    """The increasing union of two column lists."""
    return a if a == b else tuple(sorted(set(a).union(b)))


class DirectionSet:
    """Finite ordered set of directions.

    Iteration order is the canonical sort order of the members, which makes
    every downstream artifact (vectors, JSON, candidate lattices) reproducible.
    The members are the rows of an exponent matrix, kept in that order.
    """

    __slots__ = ("_cols", "_exps", "_members")

    def __init__(self, members: Iterable[Direction] = ()):
        flats = [d.flat for d in members]
        cols = tuple(sorted({f[i : i + 4] for f in flats for i in range(0, len(f), 5)}))
        index = {cid: c for c, cid in enumerate(cols)}
        rows = [[0] * len(cols) for _ in flats]
        for row, f in zip(rows, flats):
            for i in range(0, len(f), 5):
                row[index[f[i : i + 4]]] = f[i + 4]
        exps = np.array(rows, dtype=np.int64).reshape(len(flats), len(cols))
        self._init(cols, _unique_rows(exps)[0])

    def _init(self, cols: Columns, exps: np.ndarray) -> None:
        exps.flags.writeable = False
        self._cols = cols
        self._exps = exps
        self._members: Optional[tuple[Direction, ...]] = None

    @classmethod
    def _of(cls, cols: Columns, exps: np.ndarray) -> "DirectionSet":
        """Wrap a matrix whose rows are already distinct and in order."""
        ds = cls.__new__(cls)
        ds._init(cols, exps)
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

    def _materialized(self) -> tuple[Direction, ...]:
        if self._members is None:
            members = []
            for row in self._exps.tolist():
                flat: list[int] = []
                for cid, e in zip(self._cols, row):
                    if e:
                        flat.extend(cid)
                        flat.append(e)
                members.append(Direction(tuple(flat)))
            self._members = tuple(members)
        return self._members

    def __len__(self) -> int:
        return self._exps.shape[0]

    def __iter__(self) -> Iterator[Direction]:
        return iter(self._materialized())

    def __contains__(self, d: Direction) -> bool:
        if not isinstance(d, Direction):
            return False
        _, a, b = self._aligned(DirectionSet([d]))
        return bool((a == b).all(axis=1).any())

    def __getitem__(self, i: int) -> Direction:
        return self._materialized()[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectionSet):
            return NotImplemented
        _, a, b = self._aligned(other)
        return bool(np.array_equal(a, b))

    def __hash__(self) -> int:
        return hash(self._materialized())

    def __repr__(self) -> str:
        return f"DirectionSet(<{len(self)} directions>)"

    def union(self, other: "DirectionSet") -> "DirectionSet":
        cols, a, b = self._aligned(other)
        return DirectionSet._of(cols, _unique_rows(np.concatenate([a, b]))[0])

    def intersect(self, other: "DirectionSet") -> "DirectionSet":
        cols, a, b = self._aligned(other)
        return DirectionSet._of(cols, a[_rows_in(a, b)])

    def difference(self, other: "DirectionSet") -> "DirectionSet":
        cols, a, b = self._aligned(other)
        return DirectionSet._of(cols, a[~_rows_in(a, b)])

    def scale(self, d: Direction) -> "DirectionSet":
        """Multiply every member by a fixed monomial: one row added to all."""
        factor = d.exponents()
        cols = merge_columns(self._cols, tuple(factor))
        exps = self.matrix_over(cols) + [factor.get(cid, 0) for cid in cols]
        _check_exponents(exps)
        # a common factor never merges members but can reorder them
        return DirectionSet._of(cols, _unique_rows(exps)[0])

    def head(self, cap: int) -> "DirectionSet":
        """First cap members in canonical order."""
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        return DirectionSet._of(self._cols, self._exps[:cap])

    def evaluate(self, h: ChannelRealization) -> np.ndarray:
        """Numeric value of every member under a channel draw, in member
        order: mono_eval's arithmetic on each row, no Direction built."""
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
    Every row is held to direction()'s limits.
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
