"""Hot numeric kernels: searches on a sorted interference block.

A candidate is a desired-block sum d plus an interference-block sum i, each
summed left to right, valued fl(d + i).  The decoder splits in two: a
decode table sorts the distinct interference sums once (decode_table), and
a query bisects every (desired sum, query) pair in it
(nearest_candidate_indices).  The distance kernel bisects each -d.  Both
equal a full scan over fl(d + i) bit for bit, ties included: rounding is
monotone, so every row d + sorted(i) is sorted and its best candidates lie
next to the insertion point of the query.

A table of |D| desired and |I| interference sums for T queries sorts at
most max(|I|, |D| * T) sums, and a query costs O(|D| * T * log |I|).  The
decode budget bounds |I| and |D| * T, so it bounds both.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# No compiled path exists; perfbench/worker.py records this flag.
USE_NUMBA = False

# Most (desired sum, query) pairs a query of several rows holds at once:
# 64 KiB a float64 array.  Blocks past glibc's 128 KiB mmap threshold are
# mapped afresh, and a fresh process pays page faults on each
# (perfbench/workloads.py).
PAIR_CHUNK = 8192


def _block_sums(gains, radii, lo, hi):
    """All signed-combination sums of gains[lo:hi], C-order raveled."""
    v = np.zeros(1)
    for i in range(lo, hi):
        r = int(radii[i])
        vals = np.arange(-r, r + 1).astype(np.float64) * gains[i]
        v = (v[:, None] + vals[None, :]).ravel()
    return v


class DecodeTable(NamedTuple):
    """Candidates in rows d + sorted(i): candidate a * width + b has the
    value fl(d_sum[a] + i_sum[b]).  distinct holds the sorted distinct
    values of i_sum (0.0 and -0.0 are one), and first[j] the lowest b whose
    value is distinct[j].  A table of one row has d = 0, and gap is then the
    least difference of two entries; with several rows it is 0."""

    d_sum: np.ndarray
    distinct: np.ndarray
    first: np.ndarray
    width: int
    gap: float


def decode_table(d_sum: np.ndarray, i_sum: np.ndarray, queries: int) -> DecodeTable:
    """The decode table of the candidates fl(d_sum[a] + i_sum[b]), for
    queries of `queries` values.  At queries >= len(i_sum), or with one
    desired sum, the grid is flattened into one row, d = 0, exact since
    fl(0 + v) = v: it holds at most max(|I|, |D| * T) sums, and each query
    is one bisection."""
    d_sum, i_sum = (np.ascontiguousarray(v, dtype=np.float64) for v in (d_sum, i_sum))
    if d_sum.shape[0] == 0 or i_sum.shape[0] == 0:
        raise ValueError("candidate list is empty")
    if queries >= i_sum.shape[0] or d_sum.shape[0] == 1:
        d_sum, i_sum = np.zeros(1), (d_sum[:, None] + i_sum[None, :]).ravel()
    order = np.argsort(i_sum)
    ranked = i_sum[order]
    # one entry per group of equal values, with the group's lowest index
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    distinct = ranked[starts]
    gap = float(np.min(np.diff(distinct), initial=np.inf)) if d_sum.shape[0] == 1 else 0.0
    return DecodeTable(d_sum, distinct, np.minimum.reduceat(order, starts), i_sum.shape[0], gap)


def _insertion(y: np.ndarray, d: np.ndarray, distinct: np.ndarray) -> np.ndarray:
    """Insertion point of each query y[t] in each row d[r] + distinct: the
    first p with fl(d[r] + distinct[p]) >= y[t], len(distinct) if none, as
    a (rows, queries) array.  searchsorted(distinct, y - d) may miss it by a
    rounding near a tie, and by far where fl(d + x) collapses many x
    (|d| = 1e16 over unit-scale sums); the pairs it misses are bisected."""
    n = distinct.shape[0]
    p = np.searchsorted(distinct, y - d)
    above = (p == n) | (d + distinct.take(p, mode="clip") >= y)
    below = (p == 0) | (d + distinct.take(p - 1, mode="clip") < y)
    miss = np.flatnonzero(~(above & below))
    if miss.shape[0]:
        flat = p.reshape(-1)
        up = ~above.reshape(-1)[miss]
        dm = np.broadcast_to(d, p.shape).reshape(-1)[miss]
        ym = np.broadcast_to(y, p.shape).reshape(-1)[miss]
        # the first p lies past a low guess or before a high one
        lo = np.where(up, flat[miss] + 1, 0)
        hi = np.where(up, n, flat[miss] - 1)
        while np.any(lo < hi):
            mid = (lo + hi) // 2
            ge = dm + distinct.take(mid, mode="clip") >= ym
            lo, hi = np.where(ge, lo, np.minimum(mid + 1, hi)), np.where(ge, mid, hi)
        flat[miss] = lo
    return p


def _nearest_rows(y: np.ndarray, d_sum: np.ndarray, distinct: np.ndarray):
    """Each query's first row at the least distance, and its insertion point
    in that row, as two arrays.  The (row, query) pairs are bisected
    PAIR_CHUNK at a time: a chunk of queries against a block of rows."""
    T = y.shape[0]
    chunk = max(1, min(T, PAIR_CHUNK))
    rows = max(1, PAIR_CHUNK // chunk)
    best = np.empty(T)
    a = np.empty(T, dtype=np.int64)
    pos = np.empty(T, dtype=np.int64)
    for q in range(0, T, chunk):
        yq = y[q : q + chunk]
        cols = np.arange(yq.shape[0])
        for r in range(0, d_sum.shape[0], rows):
            d = d_sum[r : r + rows, None]
            p = _insertion(yq, d, distinct)
            below = np.abs(yq - (d + distinct.take(p - 1, mode="clip")))
            dist = np.minimum(below, np.abs(yq - (d + distinct.take(p, mode="clip"))))
            k = np.argmin(dist, axis=0)
            dist = dist[k, cols]
            # a later block replaces a query's row only at a smaller distance
            t = cols if r == 0 else np.flatnonzero(dist < best[q : q + chunk])
            best[q + t], a[q + t], pos[q + t] = dist[t], r + k[t], p[k[t], t]
    return a, pos


def nearest_candidate_indices(y: np.ndarray, table: DecodeTable) -> np.ndarray:
    """Index of the closest candidate of the table for each entry of y, ties
    to the lowest index, as argmin(abs(y[t] - values)) over the candidates
    in index order would give.

    In a one-row table each query is one bisection.  With more rows every
    (desired sum, query) pair is bisected, and each query keeps its first
    row at the least distance.  In that row the distance falls up to the
    insertion point and rises after it, so the entries at the least
    distance form one run there; the two next to the insertion point
    resolve the query, unless the next entry past one of them ties too.
    That takes rounding, as at |y| = 1e17 where fl(|y - v|) collapses, or
    a row where fl(d + x) collapses.  A one-row table's entries are at
    least gap apart, and two reals that far apart round to one float F
    only if spacing(F) >= gap, so below that no query walks.  Otherwise
    the run is walked past each edge that ties.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    d_sum, distinct, first, width, gap = table
    n = distinct.shape[0]
    if d_sum.shape[0] == 1:
        # the row is d = 0: y - 0 = y and fl(0 + x) = x, so searchsorted is exact
        row, pos, d = None, np.searchsorted(distinct, y), np.zeros(y.shape[0])
    else:
        row, pos = _nearest_rows(y, d_sum, distinct)
        d = d_sum[row]
    lo, hi = pos - 1, pos
    below = np.abs(y - (d + distinct.take(lo, mode="clip")))
    above = np.abs(y - (d + distinct.take(hi, mode="clip")))
    best = np.minimum(below, above)
    out = np.where(below == best, first.take(lo, mode="clip"), width)
    np.minimum(out, np.where(above == best, first.take(hi, mode="clip"), width), out=out)
    if not gap > np.spacing(best.max(initial=0.0)):
        # past an edge; from lo = -1 or hi = n, both clipped, the walk starts outside
        for dist, j, step in ((below, lo - 1, -1), (above, hi + 1, 1)):
            t = np.flatnonzero((dist == best) & (j >= 0) & (j < n))
            j = j[t]
            while t.shape[0]:
                tie = np.abs(y[t] - (d[t] + distinct[j])) == best[t]
                t, j = t[tie], j[tie]
                out[t] = np.minimum(out[t], first[j])
                j = j + step
                inside = (j >= 0) & (j < n)
                t, j = t[inside], j[inside]
    return out if row is None else row * width + out


def min_abs_combination(
    gains: np.ndarray, radii: np.ndarray, n_desired: int
) -> float:
    """Minimum |sum c_i * gains_i| over integer c_i in [-radii_i, radii_i],
    excluding choices whose first n_desired entries are all zero.

    Each choice is a desired-block sum d plus an interference-block sum i,
    each accumulated in index order, and the value is |fl(d + i)|.  The
    interference sums are sorted once and -d is bisected among them: fl(d + i)
    is monotone in i, so the two neighbours hold the minimum (Horowitz-Sahni).
    """
    gains = np.ascontiguousarray(gains, dtype=np.float64)
    radii = np.ascontiguousarray(radii, dtype=np.int64)
    if gains.shape != radii.shape or gains.ndim != 1:
        raise ValueError("gains and radii must be matching 1-d arrays")
    if not 1 <= n_desired <= gains.shape[0]:
        raise ValueError(f"n_desired {n_desired} out of range")
    if np.any(radii < 0):
        raise ValueError("radii must be non-negative")
    d_sum = _block_sums(gains, radii, 0, n_desired)
    zero_idx = 0
    for i in range(n_desired):
        zero_idx = zero_idx * (2 * int(radii[i]) + 1) + int(radii[i])
    d_sum = np.delete(d_sum, zero_idx)
    if d_sum.shape[0] == 0:
        return float("inf")
    i_sum = np.sort(_block_sums(gains, radii, n_desired, gains.shape[0]))
    pos = np.searchsorted(i_sum, -d_sum)
    below = i_sum[np.maximum(pos - 1, 0)]
    above = i_sum[np.minimum(pos, i_sum.shape[0] - 1)]
    return float(min(np.min(np.abs(d_sum + below)), np.min(np.abs(d_sum + above))))
