"""Hot numeric kernels: sorted search over candidate lists.

Both kernels return exactly what a full scan would, bit for bit, ties
included.  They rest on one fact: float rounding is monotone, so fl(a - v)
and fl(a + v) are monotone in v and every best candidate lies next to the
insertion point of the query in the sorted candidates.
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


def nearest_candidate_indices(y: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the closest candidate value for each entry of y.

    Equal to argmin(abs(y[t] - values)) for every t: ties resolve to the
    lowest index.  Candidates are sorted once and each query is bisected,
    so the cost is O((C + T) log C) for C candidates and T queries.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.shape[0] == 0:
        raise ValueError("candidate list is empty")
    order = np.argsort(values)
    ranked = values[order]
    # one entry per group of equal values, with the group's lowest index
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    distinct = ranked[starts]
    first = np.minimum.reduceat(order, starts)
    n = distinct.shape[0]

    pos = np.searchsorted(distinct, y)
    below = np.maximum(pos - 1, 0)
    above = np.minimum(pos, n - 1)
    best = np.minimum(np.abs(y - distinct[below]), np.abs(y - distinct[above]))
    # The distance falls up to the insertion point and rises after it, so
    # the groups at the best distance form one run through below or above.
    # Walk it both ways and keep the lowest index seen.
    out = np.full(y.shape[0], values.shape[0], dtype=np.int64)
    for start, step in ((below, -1), (above, 1)):
        t = np.arange(y.shape[0])
        j = start
        while t.shape[0]:
            hit = np.abs(y[t] - distinct[j]) == best[t]
            t, j = t[hit], j[hit]
            out[t] = np.minimum(out[t], first[j])
            j = j + step
            inside = (j >= 0) & (j < n)
            t, j = t[inside], j[inside]
    return out


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
