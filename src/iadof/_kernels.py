"""Hot numeric kernels: two searches on a sorted interference block.

A candidate is a desired-block sum d plus an interference-block sum i, each
summed left to right, valued fl(d + i).  The nearest kernel bisects each
query y, the distance kernel each -d, and both equal a full scan over
fl(d + i) bit for bit, ties included: rounding is monotone, so every best
candidate lies next to the insertion point of the query.
"""

from __future__ import annotations

import numpy as np

# No compiled path exists; perfbench/worker.py records this flag.
USE_NUMBA = False


def _block_sums(gains, radii, lo, hi):
    """All signed-combination sums of gains[lo:hi], C-order raveled."""
    v = np.zeros(1)
    for i in range(lo, hi):
        r = int(radii[i])
        vals = np.arange(-r, r + 1).astype(np.float64) * gains[i]
        v = (v[:, None] + vals[None, :]).ravel()
    return v


def nearest_candidate_indices(y: np.ndarray, d_sum: np.ndarray, i_sum: np.ndarray) -> np.ndarray:
    """Index of the closest candidate for each entry of y: candidate
    a * len(i_sum) + b has the value fl(d_sum[a] + i_sum[b]), and ties go to
    the lowest index, as argmin(abs(y[t] - values)) would.  Each y is bisected
    in every row d + sorted(i_sum): memory goes with len(i_sum) + T for T
    queries, work with len(d_sum) * (len(i_sum) + T).  At T >= len(i_sum) the
    grid is one row, d = 0, exact since fl(0 + v) = v."""
    y, d_sum, i_sum = (np.ascontiguousarray(v, dtype=np.float64) for v in (y, d_sum, i_sum))
    if d_sum.shape[0] == 0 or i_sum.shape[0] == 0:
        raise ValueError("candidate list is empty")
    if y.shape[0] >= i_sum.shape[0]:
        d_sum, i_sum = np.zeros(1), (d_sum[:, None] + i_sum[None, :]).ravel()
    order = np.argsort(i_sum)
    ranked = i_sum[order]
    # one entry per group of equal values, with the group's lowest index
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    distinct = ranked[starts]
    first = np.minimum.reduceat(order, starts)
    n = distinct.shape[0]

    # keep each query's first row at its least distance: the lowest indices
    for r, d in enumerate(d_sum.tolist()):
        row = d + distinct
        p = np.searchsorted(row, y)
        edges = np.abs(y - row[np.maximum(p - 1, 0)]), np.abs(y - row[np.minimum(p, n - 1)])
        dist = np.minimum(*edges)
        if r == 0:
            best, a, pos, below, above = dist, np.zeros(y.shape[0], dtype=np.int64), p, *edges
            continue
        c = dist < best
        kept = ((dist, best), (r, a), (p, pos), (edges[0], below), (edges[1], above))
        best, a, pos, below, above = (np.where(c, u, v) for u, v in kept)
    # In its row the distance falls up to the insertion point and rises after
    # it: the best entries form one run there.  Walk it both ways for the lowest.
    d = d_sum[a]
    out = np.full(y.shape[0], i_sum.shape[0], dtype=np.int64)
    lo, hi = np.maximum(pos - 1, 0), np.minimum(pos, n - 1)
    for edge, start, step in ((below, lo, -1), (above, hi, 1)):
        t = np.flatnonzero(edge == best)
        j = start[t]
        while t.shape[0]:
            out[t] = np.minimum(out[t], first[j])
            keep = j > 0 if step < 0 else j < n - 1
            t, j = t[keep], j[keep] + step
            keep = np.abs(y[t] - (d[t] + distinct[j])) == best[t]
            t, j = t[keep], j[keep]
    return a * i_sum.shape[0] + out


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
