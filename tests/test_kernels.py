"""Kernel tests.

The sorted-search kernels must equal a full scan bit for bit, ties
included, so simulation output does not depend on how the search is done.
The scans below are the references.  Two earlier decoders are oracles too:
one built every candidate, summed left to right over all axes, and
searched that flat list (`lattice_values` and `flat_nearest`); the other
formed each row d + sorted(i) in full and bisected every query in it
(`row_loop_nearest`), |D| * |I| work a call.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iadof._kernels as kernels
from iadof._kernels import (
    _block_sums,
    decode_table,
    min_abs_combination,
    nearest_candidate_indices,
)
from iadof.alignment import build_transmit_directions, truncate_plan
from iadof.channel import SystemConfig, generate_channel
from iadof.simulate import antenna_model


def scan_nearest(y, values):
    """Reference: argmin of the distance to every candidate, per query."""
    out = np.empty(y.shape[0], dtype=np.int64)
    for t in range(y.shape[0]):
        out[t] = int(np.argmin(np.abs(y[t] - values)))
    return out


def scan_split(y, d_sum, i_sum):
    """Reference for the split kernel: a scan over every fl(d + i), in index
    order d_idx * len(i_sum) + i_idx."""
    return scan_nearest(y, (d_sum[:, None] + i_sum[None, :]).ravel())


def lattice_values(model, Q):
    """Every candidate of the decode lattice at Q, each summed left to right
    over all axes (desired, then interference), in C order."""
    radii = [mult * (Q - 1) for mult in model.mults]
    return _block_sums(model.gains, radii, 0, len(radii))


def flat_nearest(y, values):
    """Sorted search over a flat candidate list: each group of equal values
    keeps its lowest index, and the run of equal distances next to the
    insertion point is walked both ways."""
    order = np.argsort(values)
    ranked = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    distinct = ranked[starts]
    first = np.minimum.reduceat(order, starts)
    n = distinct.shape[0]
    pos = np.searchsorted(distinct, y)
    below = np.maximum(pos - 1, 0)
    above = np.minimum(pos, n - 1)
    best = np.minimum(np.abs(y - distinct[below]), np.abs(y - distinct[above]))
    out = np.full(y.shape[0], values.shape[0], dtype=np.int64)
    for start, step in ((below, -1), (above, 1)):
        t, j = np.arange(y.shape[0]), start
        while t.shape[0]:
            hit = np.abs(y[t] - distinct[j]) == best[t]
            t, j = t[hit], j[hit]
            out[t] = np.minimum(out[t], first[j])
            j = j + step
            inside = (j >= 0) & (j < n)
            t, j = t[inside], j[inside]
    return out


def row_loop_nearest(y, d_sum, i_sum):
    """The decoder before tables and pair bisection: each y is bisected in
    every row d + sorted(i_sum), each row formed in full; at T >= len(i_sum)
    the grid is one row, d = 0."""
    y, d_sum, i_sum = (np.ascontiguousarray(v, dtype=np.float64) for v in (y, d_sum, i_sum))
    if y.shape[0] >= i_sum.shape[0]:
        d_sum, i_sum = np.zeros(1), (d_sum[:, None] + i_sum[None, :]).ravel()
    order = np.argsort(i_sum)
    ranked = i_sum[order]
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


def nearest(y, d_sum, i_sum):
    """The decoder: a table built for the queries, then one query."""
    return nearest_candidate_indices(y, decode_table(d_sum, i_sum, len(y)))


def assert_nearest_exact(y, d_sum, i_sum):
    want = scan_split(y, d_sum, i_sum)
    assert np.array_equal(row_loop_nearest(y, d_sum, i_sum), want)
    assert np.array_equal(nearest(y, d_sum, i_sum), want)


def scan_min_abs(gains, radii, n_desired):
    """Reference: |d + i| over every pair of desired and interference sums."""
    d_sum = _block_sums(gains, radii, 0, n_desired)
    zero_idx = 0
    for i in range(n_desired):
        zero_idx = zero_idx * (2 * int(radii[i]) + 1) + int(radii[i])
    d_sum = np.delete(d_sum, zero_idx)
    if d_sum.shape[0] == 0:
        return np.inf
    i_sum = _block_sums(gains, radii, n_desired, len(gains))
    return float(np.min(np.abs(d_sum[:, None] + i_sum[None, :])))


def random_instance(rng, n, radius_hi=2):
    gains = rng.normal(size=n)
    radii = rng.integers(0, radius_hi + 1, size=n).astype(np.int64)
    n_desired = int(rng.integers(1, n + 1))
    return gains, radii, n_desired


def brute_min_abs(gains, radii, n_desired):
    best = np.inf
    ranges = [range(-int(r), int(r) + 1) for r in radii]
    for c in itertools.product(*ranges):
        if all(v == 0 for v in c[:n_desired]):
            continue
        sd = 0.0
        for i in range(n_desired):
            sd += c[i] * gains[i]
        si = 0.0
        for i in range(n_desired, len(gains)):
            si += c[i] * gains[i]
        v = abs(sd + si)
        if v < best:
            best = v
    return best


# A coarse grid gives duplicate candidates and distinct candidates at an
# equal rounded distance; wide floats give huge magnitudes, next to which
# whole runs of small candidates round to one distance.
grid = st.integers(-8, 8).map(lambda k: k * 0.1)
wide = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
real = st.one_of(grid, wide)


@st.composite
def nearest_cases(draw, grid_path):
    """(y, d_sum, i_sum) with fewer queries than interference sums (the
    split path) or at least as many (the whole-grid path)."""
    d_sum = draw(st.lists(real, min_size=1, max_size=8))
    i_sum = draw(st.lists(real, min_size=1, max_size=12))
    values = [d + i for d in d_sum for i in i_sum]
    member = st.sampled_from(values)
    midpoint = st.tuples(member, member).map(lambda p: p[0] / 2 + p[1] / 2)
    query = st.one_of(real, member, midpoint, st.sampled_from([1e300, -1e300]))
    if grid_path:
        y = draw(st.lists(query, min_size=len(i_sum), max_size=len(i_sum) + 12))
    else:
        y = draw(st.lists(query, max_size=len(i_sum) - 1))
    return np.array(y, dtype=np.float64), np.array(d_sum), np.array(i_sum)


def check_nearest(case, grid_path):
    y, d_sum, i_sum = case
    assert (y.shape[0] >= i_sum.shape[0]) == grid_path
    assert_nearest_exact(y, d_sum, i_sum)


@settings(max_examples=150, deadline=None)
@given(nearest_cases(grid_path=False))
@example((np.array([0.5, 1e300, -1e300]), np.array([0.0, 1.0]), np.array([0.0, 1.0, -0.3, 0.3])))
@example((np.array([2.0, -1e300]), np.array([0.1, 0.2, 0.1 + 0.2, 0.3]), np.array([0.0, 0.0, -0.0])))
@example((np.array([], dtype=np.float64), np.array([3.0]), np.array([1.0])))
@example((np.array([1e300]), np.array([1e300, -1e300]), np.array([-1e300, 0.0, 1e300])))
def test_nearest_equals_scan(case):
    check_nearest(case, grid_path=False)


@settings(max_examples=150, deadline=None)
@given(nearest_cases(grid_path=True))
@example((np.array([2.0, -7.5]), np.array([3.0]), np.array([0.0])))
@example((np.array([0.5, 1e300, -1e300]), np.array([0.0, 1.0]), np.array([0.0, 1.0])))
@example((np.array([0.3, 0.3, 1e300]), np.array([0.1, 0.2, 0.0, -0.0]), np.array([0.2, 0.1, 0.3])))
def test_nearest_grid_path_equals_scan(case):
    check_nearest(case, grid_path=True)


@st.composite
def min_abs_cases(draw):
    n = draw(st.integers(1, 5))
    gains = np.array(draw(st.lists(real, min_size=n, max_size=n)))
    radii = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=np.int64)
    return gains, radii, draw(st.integers(1, n))


@settings(max_examples=300, deadline=None)
@given(min_abs_cases())
@example((np.array([0.0, 0.0, 0.4]), np.array([2, 1, 2], dtype=np.int64), 2))
@example((np.array([0.7, 0.2, 0.5]), np.array([0, 0, 2], dtype=np.int64), 2))
@example((np.array([1e300, -1e300, 0.1]), np.array([2, 2, 0], dtype=np.int64), 1))
def test_min_abs_equals_scan(case):
    gains, radii, n_desired = case
    assert min_abs_combination(gains, radii, n_desired) == scan_min_abs(
        gains, radii, n_desired
    )


def test_nearest_equals_scan_on_large_shuffled_ties():
    # groups of 500 equal interference sums (0.0 and -0.0 form one),
    # shuffled: an unstable sort scatters each group, and its lowest index
    # must still win, in the lowest row that reaches the least distance
    rng = np.random.default_rng(11)
    base = np.array([0.0, -0.0, 0.5, -1.25, 3.0, 0.1, 0.2, 0.1 + 0.2, 0.3, 1e300])
    i_sum = rng.permutation(np.repeat(base, 500))
    d_sum = np.array([0.1, 0.0, -0.0, 0.1, 0.2, -1e300])
    mids = (base[:, None] / 2 + base[None, :] / 2).ravel()
    y = np.concatenate([base, mids, rng.normal(scale=2.0, size=100), [-1e300, 1e300]])
    assert y.shape[0] < i_sum.shape[0]
    assert_nearest_exact(y, d_sum, i_sum)


def test_nearest_bisects_collapsed_rows():
    # fl(d + x) at d = +-1e16 (spacing 2) maps many unit-scale x to one row
    # value, so searchsorted(distinct, y - d) lands far from the row's
    # insertion point
    rng = np.random.default_rng(3)
    i_sum = rng.permutation(np.concatenate([rng.normal(size=3000), np.repeat([0.5, -0.75], 40)]))
    d_sum = np.array([1e16, -1e16, 1e16 + 2.0, 0.25, -1e16])
    rows = (d_sum[:, None] + i_sum[None, :]).ravel()
    y = np.concatenate([rng.choice(rows, 150), rng.choice(rows, 150) + rng.normal(size=150),
                        [1e16 + 1.0, -1e16 - 3.0, 0.25, 1e17, -1e17]])
    assert y.shape[0] < i_sum.shape[0]
    distinct = np.unique(i_sum)
    guess = np.searchsorted(distinct, y[None, :] - d_sum[:, None])
    exact = np.array([np.searchsorted(d + distinct, y) for d in d_sum])
    assert np.max(np.abs(guess - exact)) > 500
    # the bisection moves every pair to its row's insertion point, so the
    # tie walk starts next to it, not a run of 990 collapsed entries away
    assert np.array_equal(kernels._insertion(y, d_sum[:, None], distinct), exact)
    assert_nearest_exact(y, d_sum, i_sum)


def test_nearest_walks_far_queries():
    # at |y| = 1e17 the spacing is 16: fl(|y - v|) is one value for every
    # unit-scale v, so the least distance ties past the lower edge (y above
    # the row) or past the upper one (y below it) down to the row's end, and
    # the lowest index wins, which no edge holds
    i_sum = np.array([0.5, -2.0, 3.0, 1.0, -1.25, 3.0, 0.0])
    for d_sum in (np.array([0.0]), np.array([0.0, 0.1]), np.array([1.0, -1.0, 2.0])):
        y = np.array([1e17, -1e17, 1e17 + 16, -1e17 - 16, 2.0, 0.75])
        assert_nearest_exact(y, d_sum, i_sum)
        assert nearest(y[:2], d_sum, i_sum).tolist() == [0, 0]
    # entries 0.5 apart tie only at distances spaced 0.5 or wider: from
    # 2**52 + 2 the distance to 0.5, 2**52 + 1.5, rounds half to even onto
    # the distance to 0.0, and the lower index is the entry past the edge
    table = decode_table(np.array([0.0]), np.array([0.0, 0.5]), 1)
    assert table.gap == 0.5
    for y, want in (([0.2, 0.3], [0, 1]), ([2.0**52 + 2], [0])):
        assert nearest_candidate_indices(np.array(y), table).tolist() == want
        assert scan_split(np.array(y), np.zeros(1), np.array([0.0, 0.5])).tolist() == want


def test_nearest_chunks_pairs(monkeypatch):
    # with PAIR_CHUNK at 3, queries are cut in chunks of 3 and rows in
    # blocks of 1: a later block replaces a query's row only when nearer
    monkeypatch.setattr(kernels, "PAIR_CHUNK", 3)
    rng = np.random.default_rng(8)
    for _ in range(200):
        d_sum = rng.integers(-4, 5, size=int(rng.integers(2, 7))) * 0.5
        i_sum = rng.integers(-6, 7, size=int(rng.integers(8, 20))) * 0.25
        values = (d_sum[:, None] + i_sum[None, :]).ravel()
        y = np.concatenate([rng.choice(values, 3), rng.normal(scale=3.0, size=4)])
        assert_nearest_exact(y, d_sum, i_sum)
    empty = np.array([], dtype=np.float64)
    assert nearest(empty, np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])).shape == (0,)


def test_kernels_equal_scan_on_decode_lattice():
    # the 117,649-point lattice a K=3, Q=4, cap=2 simulation decodes on:
    # 49 desired sums times 2,401 interference sums
    config = SystemConfig(K=3, Q=4, seed=0)
    h = generate_channel(config)
    plan = truncate_plan(build_transmit_directions(config), 2)
    model = antenna_model(plan, h, 1, 1)
    radii = [3 * m for m in model.mults]
    d_sum = _block_sums(model.gains, radii, 0, 2)
    i_sum = _block_sums(model.gains, radii, 2, len(radii))
    assert (d_sum.shape, i_sum.shape) == ((49,), (2401,))
    values = lattice_values(model, 4)
    assert values.shape == (117649,)
    rng = np.random.default_rng(5)
    exact = values[rng.integers(0, values.shape[0], size=60)]
    y = np.concatenate([exact, exact + rng.normal(scale=1e-5, size=60)])
    # the split values fl(d + i) may differ from the flat ones in the last
    # bit, and both decoders still pick the same candidate
    want = flat_nearest(y, values)
    assert np.array_equal(want, scan_nearest(y, values))
    assert np.array_equal(nearest(y, d_sum, i_sum), want)
    assert np.array_equal(row_loop_nearest(y, d_sum, i_sum), want)
    # the same queries, 21 times over, take the whole-grid path
    many = np.tile(y, 21)
    assert many.shape[0] >= i_sum.shape[0]
    assert np.array_equal(nearest(many, d_sum, i_sum), np.tile(want, 21))
    # a table kept from one query count decodes another alike
    table = decode_table(d_sum, i_sum, many.shape[0])
    assert table.d_sum.shape == (1,)
    assert np.array_equal(nearest_candidate_indices(y, table), want)

    radii = np.array([6 * m for m in model.mults])
    assert min_abs_combination(model.gains, radii, len(model.coords)) == scan_min_abs(
        model.gains, radii, len(model.coords)
    )


def test_numpy_min_abs_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(20):
        gains, radii, nd = random_instance(rng, int(rng.integers(1, 5)))
        assert min_abs_combination(gains, radii, nd) == brute_min_abs(gains, radii, nd)


def test_min_abs_no_aggregates():
    gains = np.array([0.7, 0.3])
    radii = np.array([1, 1], dtype=np.int64)
    # both entries desired: only the all-zero vector is excluded, so the
    # single 0.3 swing survives and wins
    assert min_abs_combination(gains, radii, 2) == pytest.approx(0.3)


def test_min_abs_zero_radius_aggregate():
    gains = np.array([1.0, 5.0])
    radii = np.array([1, 0], dtype=np.int64)
    assert min_abs_combination(gains, radii, 1) == 1.0


def test_min_abs_validation():
    g = np.array([1.0, 2.0])
    r = np.array([1, 1], dtype=np.int64)
    with pytest.raises(ValueError):
        min_abs_combination(g, np.array([1], dtype=np.int64), 1)
    with pytest.raises(ValueError):
        min_abs_combination(g, r, 0)
    with pytest.raises(ValueError):
        min_abs_combination(g, r, 3)
    with pytest.raises(ValueError):
        min_abs_combination(g, np.array([1, -1], dtype=np.int64), 1)


def test_nearest_numpy_basic_and_ties():
    # both layouts list the values 0, 1, 1, 2 in index order; 1.5 ties
    # between the two 1.0 (idx 1, 2) and 2.0 (idx 3): lowest index wins
    y = np.array([0.9, 1.5, -3.0])
    split = nearest(y, np.array([0.0]), np.array([0.0, 1.0, 1.0, 2.0]))
    grid = nearest(y, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert split.tolist() == grid.tolist() == [1, 1, 0]


def test_decode_table_rejects_empty_candidates():
    for d_sum, i_sum in ((np.array([]), np.array([1.0])), (np.array([1.0]), np.array([]))):
        for queries in (0, 1, 5):
            with pytest.raises(ValueError):
                decode_table(d_sum, i_sum, queries)
