"""Kernel tests.

The sorted-search kernels must equal a full scan bit for bit, ties
included, so simulation output does not depend on how the search is done.
The scans below are the references.  The decoder once built every
candidate, summed left to right over all axes, and searched that flat
list; `lattice_values` and `flat_nearest` keep that decoder as an oracle.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iadof._kernels import _block_sums, min_abs_combination, nearest_candidate_indices
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
    assert np.array_equal(nearest_candidate_indices(y, d_sum, i_sum), scan_split(y, d_sum, i_sum))


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
    assert np.array_equal(
        nearest_candidate_indices(y, d_sum, i_sum), scan_split(y, d_sum, i_sum)
    )


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
    assert np.array_equal(nearest_candidate_indices(y, d_sum, i_sum), want)
    # the same queries, 21 times over, take the whole-grid path
    many = np.tile(y, 21)
    assert many.shape[0] >= i_sum.shape[0]
    assert np.array_equal(nearest_candidate_indices(many, d_sum, i_sum), np.tile(want, 21))

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
    split = nearest_candidate_indices(y, np.array([0.0]), np.array([0.0, 1.0, 1.0, 2.0]))
    grid = nearest_candidate_indices(y, np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert split.tolist() == grid.tolist() == [1, 1, 0]


def test_nearest_dispatcher_validation():
    for d_sum, i_sum in ((np.array([]), np.array([1.0])), (np.array([1.0]), np.array([]))):
        with pytest.raises(ValueError):
            nearest_candidate_indices(np.array([1.0]), d_sum, i_sum)
