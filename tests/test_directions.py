"""Monomial direction tests.

A set of directions is an exponent matrix over its config's coefficient
ids.  The tests check the canonical order (_runs), the exponent limits
(_check_exponents) and evaluate against plain oracles on
flat (k, j, n, m, e, ...) tuples of each row's non-zero entries: Python's
sorted() for the canonical order, frozenset algebra for the set
operations, dict addition for scale and a float product of the gains for
evaluate, on random matrices over a config's columns.

The pairwise set operations union, intersect and scale live here, not in
the library: expand_received reads every relation it needs off one sort
per antenna.  They take sets over one column list, and are the reference
that the single-pass profile is pinned against (expand_oracle in
test_alignment.py).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iadof.alignment import closed_form_counts, expand_received
from iadof.channel import SystemConfig, generate_channel
from iadof.directions import (
    MAX_EXPONENT,
    MAX_TOTAL_DEGREE,
    _check_exponents,
    _runs,
    evaluate,
    monomial_text,
)
from conftest import direction_set, full_plan
from test_acceptance import lattice_configs

# the columns of the (K,M,N) = (2,1,1) config
CIDS = tuple(SystemConfig(K=2).coefficient_ids())

exponent_maps = st.dictionaries(
    st.sampled_from(CIDS), st.integers(min_value=0, max_value=6), max_size=4
)


# ----------------------------------------------------------------- oracles


def union(a, b):
    """The members of either set."""
    return direction_set(np.concatenate([a, b]))


def _rows_in(a, b):
    """For each row of a, whether it is also a row of b.  Both matrices
    share their columns and neither repeats a row."""
    order, start = _runs(np.concatenate([a, b]))
    run = np.cumsum(start) - 1
    hit = np.empty(order.shape[0], dtype=bool)
    hit[order] = np.bincount(run)[run] > 1
    return hit[: a.shape[0]]


def intersect(a, b):
    """The members of a that are also members of b, in a's order."""
    return a[_rows_in(a, b)]


def scale(ds, factor, cols=CIDS):
    """Every member of a set over cols times a fixed monomial, given as
    {coefficient id: exponent}: one row added to all."""
    index = {cid: c for c, cid in enumerate(cols)}
    row = np.zeros((1, len(index)), dtype=np.int64)
    for cid, e in factor.items():
        row[0, index[cid]] = e
    _check_exponents(row)
    # a common factor never merges members but can reorder them
    return direction_set(ds + row)


def flat(cols, row):
    """A row as the flat tuple of its non-zero (id, exponent) entries, ids
    increasing; Python's order on these tuples is the canonical order."""
    return tuple(x for cid, e in zip(cols, row) if e for x in (*cid, e))


def row_directions(cols, exps):
    return [flat(cols, row) for row in np.asarray(exps).tolist()]


def members(ds, cols=CIDS):
    """The members of a set over cols as flat tuples, in member order."""
    return row_directions(cols, ds)


def monomials(*maps):
    """The set of the given {coefficient id: exponent} mappings, over the
    columns CIDS."""
    rows = [[m.get(cid, 0) for cid in CIDS] for m in maps]
    return direction_set(np.array(rows, dtype=np.int64).reshape(len(maps), len(CIDS)))


def mono_mul(d, factor):
    """Product of a flat-tuple monomial and a mapping, by dict addition."""
    out = {tuple(d[i : i + 4]): d[i + 4] for i in range(0, len(d), 5)}
    for cid, e in factor.items():
        out[cid] = out.get(cid, 0) + e
    cols = sorted(out)
    return flat(cols, [out[cid] for cid in cols])


def mono_eval(d, h):
    """Value of a flat-tuple monomial: the float product of its gains."""
    return math.prod(h.gains[tuple(d[i : i + 4])] ** d[i + 4] for i in range(0, len(d), 5))


UNIT = ()
A = {(1, 1, 1, 1): 1}
B = {(1, 1, 1, 1): 2}
C = {(1, 2, 1, 1): 1}


def test_direction_canonicalization():
    # a zero column adds nothing: the member is the same monomial
    exps = np.array([[0, 1, 3, 0]])
    assert row_directions(CIDS, exps) == [(1, 2, 1, 1, 1, 2, 1, 1, 1, 3)]
    ds = monomials({(2, 1, 1, 1): 3, (1, 1, 1, 1): 0, (1, 2, 1, 1): 1})
    assert ds.tolist() == exps.tolist()


def test_direction_rejects_negative():
    cid = (1, 1, 1, 1)
    with pytest.raises(ValueError):
        _check_exponents(np.array([[-1]]))
    # a negative factor is refused even where the sum would stay >= 0
    with pytest.raises(ValueError):
        scale(monomials({cid: 2}), {cid: -1})
    with pytest.raises(ValueError):
        scale(monomials(), {cid: -1})


def test_direction_overflow():
    cid = (1, 1, 1, 1)
    with pytest.raises(OverflowError):
        _check_exponents(np.array([[MAX_EXPONENT + 1]]))
    with pytest.raises(OverflowError):
        scale(monomials(), {cid: MAX_EXPONENT + 1})
    big = monomials({cid: 600_000})
    with pytest.raises(OverflowError):
        scale(big, {cid: 600_000})


def test_unit_behaviour():
    # the unit is the all-zero row: it sorts first and scales to the factor
    s = monomials({}, B, A)
    assert members(s)[0] == UNIT
    assert not s[0].any()
    assert members(scale(monomials({}), B)) == [(1, 1, 1, 1, 2)]


def test_text_format():
    assert monomial_text({(2, 1, 1, 1): 1, (1, 1, 1, 1): 2}) == "H[1,1](1,1)^2 * H[2,1](1,1)"


def test_total_order():
    s = monomials(C, B, A, {})
    # lexicographic on the flat encoding
    assert members(s) == [UNIT, (1, 1, 1, 1, 1), (1, 1, 1, 1, 2), (1, 2, 1, 1, 1)]


def test_direction_set_dedup_and_order():
    s = monomials(B, A, B, {})
    assert len(s) == 3
    assert members(s) == sorted(members(s))
    assert members(s)[0] == UNIT


def test_direction_set_ops():
    s1 = monomials(A, B)
    s2 = monomials(B, C)
    assert members(union(s1, s2)) == members(monomials(A, B, C))
    assert members(intersect(s1, s2)) == members(monomials(B))
    assert len(intersect(s1, monomials(C))) == 0


def test_direction_set_scale_injective():
    s = monomials(A, B, {})
    scaled = scale(s, A)
    assert len(scaled) == len(s)
    assert members(scaled) == members(monomials(A, B, {(1, 1, 1, 1): 3}))


def test_direction_set_evaluate():
    h = generate_channel(SystemConfig(K=2, seed=4))
    s = monomials({(1, 1, 1, 1): 2, (2, 2, 1, 1): 3}, {})
    vals = evaluate(s, h)
    assert vals.dtype == np.float64
    assert vals.tolist() == [1.0, h.gains[(1, 1, 1, 1)] ** 2 * h.gains[(2, 2, 1, 1)] ** 3]
    assert all(math.isfinite(v) for v in vals)
    assert evaluate(monomials(), h).shape == (0,)


def test_evaluate_refuses_other_widths():
    # the gains are read over the channel's four coefficient ids: a matrix
    # of three or five columns, or a single row, would be misread
    h = generate_channel(SystemConfig(K=2, seed=4))
    for exps in (np.zeros((1, 3), np.int64), np.zeros((2, 5), np.int64), np.zeros(4, np.int64)):
        with pytest.raises(ValueError, match="the channel has 4 gains"):
            evaluate(exps, h)


# ------------------------------------------------------- exponent matrices

# the configs of 1, 2, 4 and 8 coefficient ids, by their column lists
MATRIX_CONFIGS = {
    tuple(c.coefficient_ids()): c
    for c in (SystemConfig(K=K, N=N) for K, N in [(1, 1), (1, 2), (2, 1), (2, 2)])
}
MATRIX_COLUMNS = list(MATRIX_CONFIGS)

# mostly small exponents; a large one widens every key, so that four
# columns need two of the oracle's packed words
exponents = st.one_of(st.just(0), st.integers(1, 6), st.integers(1, 190_000))


@st.composite
def exponent_matrices(draw, values=exponents, columns=st.sampled_from(MATRIX_COLUMNS)):
    cols = draw(columns)
    row = st.lists(values, min_size=len(cols), max_size=len(cols))
    rows = draw(st.lists(row, max_size=10))
    return cols, np.array(rows, dtype=np.int64).reshape(len(rows), len(cols))


@given(exponent_matrices())
def test_matrix_order_is_sorted_directions(m):
    cols, exps = m
    ds = direction_set(exps)
    expected = sorted(set(row_directions(cols, exps)))
    assert members(ds, cols) == expected
    assert len(ds) == len(expected)
    # the same rows in reverse order make the same set
    assert np.array_equal(direction_set(exps[::-1]), ds)


@given(exponent_matrices(columns=st.just(CIDS)), exponent_matrices(columns=st.just(CIDS)))
def test_set_operations_match_frozensets(m1, m2):
    a, b = direction_set(m1[1]), direction_set(m2[1])
    fa, fb = frozenset(members(a)), frozenset(members(b))
    assert members(union(a, b)) == sorted(fa | fb)
    assert members(intersect(a, b)) == sorted(fa & fb)


@given(exponent_matrices(columns=st.just(CIDS)), exponent_maps)
def test_scale_matches_mono_mul(m, factor):
    a = direction_set(m[1])
    assert members(scale(a, factor)) == sorted({mono_mul(x, factor) for x in members(a)})


def test_keys_span_several_words():
    # 40 columns of keys of radix 500,002: two keys to a word, 20 words
    cols = [(1, j, n, 1) for j in range(1, 5) for n in range(1, 11)]
    rng = np.random.default_rng(5)
    exps = rng.integers(0, 3, size=(300, 40)) * (rng.random((300, 40)) < 0.3)
    exps[::7, 39] = 500_000
    exps[::11, 0] = 400_000
    exps = np.concatenate([exps, exps[:50]])
    ds = direction_set(exps)
    assert members(ds, cols) == sorted(set(row_directions(cols, exps)))


def order_keys_oracle(exps):
    """The canonical keys packed straight into uint64 words, as many keys
    as fit in 64 bits per word, by numpy's integer products.  The key sort
    of _runs is pinned against it."""
    n, C = exps.shape
    if C == 0:
        return np.zeros((n, 1), dtype=np.uint64)
    pos = exps > 0
    top = int(exps.max(initial=0)) + 1
    bits = top.bit_length()
    per_word = 64 // bits
    weights = np.zeros((C, -(-C // per_word)), dtype=np.uint64)
    for c in range(C):
        weights[c, c // per_word] = 1 << (bits * (per_word - 1 - c % per_word))
    prefix = np.zeros((C + 1, weights.shape[1]), dtype=np.uint64)
    np.cumsum(weights, axis=0, out=prefix[1:])
    flipped = np.concatenate([pos[:, ::-1], np.ones((n, 1), dtype=bool)], axis=1)
    span = C - np.argmax(flipped, axis=1)
    zeros = prefix[span] - pos.astype(np.uint64) @ weights
    return exps.view(np.uint64) @ weights + np.uint64(top) * zeros


def runs_oracle(exps):
    """_runs on the uint64 oracle keys."""
    keys = order_keys_oracle(exps)
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    start = np.ones(order.shape[0], dtype=bool)
    start[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order, start


def assert_runs_match_oracle(exps):
    order, start = _runs(exps)
    want_order, want_start = runs_oracle(exps)
    assert order.tolist() == want_order.tolist()
    assert start.tolist() == want_start.tolist()


@given(exponent_matrices())
def test_runs_equal_uint64_keys_on_random_matrices(m):
    _, exps = m
    # repeats, so that runs of several equal rows occur
    assert_runs_match_oracle(np.concatenate([exps, exps[::2]]))


@pytest.mark.parametrize("top", [6, 2**10, 2**13 - 1, 2**17, 2**20, MAX_TOTAL_DEGREE])
def test_runs_equal_uint64_keys_across_word_widths(top):
    # largest keys from 7 to 1,000,001 over 40 columns: 21 down to 3 keys per
    # packed 64-bit word of the oracle, one key a column for the key sort
    rng = np.random.default_rng(top)
    exps = rng.integers(0, 4, size=(400, 40)) * (rng.random((400, 40)) < 0.3)
    exps[::5, rng.integers(0, 40)] = top
    exps = np.concatenate([exps, exps[::3], np.zeros((3, 40), dtype=np.int64)])
    assert_runs_match_oracle(exps)


def test_runs_equal_uint64_keys_at_degree_limit():
    # every row of total degree MAX_TOTAL_DEGREE: all of it on one column,
    # or split at random; keys up to 1,000,001, three to an oracle word
    rng = np.random.default_rng(3)
    C = 18
    exps = np.concatenate(
        [
            np.eye(C, dtype=np.int64) * MAX_TOTAL_DEGREE,
            rng.multinomial(MAX_TOTAL_DEGREE, [1 / C] * C, size=200),
            rng.multinomial(MAX_TOTAL_DEGREE, [0.5, 0.5] + [0] * (C - 2), size=50),
        ]
    )
    exps = np.concatenate([exps, exps[::4]])
    _check_exponents(exps)
    assert_runs_match_oracle(exps)


def test_set_guards():
    cid = (1, 1, 1, 1)
    with pytest.raises(OverflowError):
        _check_exponents(np.array([[MAX_TOTAL_DEGREE, 1]]))
    with pytest.raises(OverflowError):
        scale(monomials({cid: MAX_TOTAL_DEGREE}), {(1, 2, 1, 1): 1})


# ------------------------------------------------------------- evaluation

# at most 5 * 200 factors of a gain in [0.5, 1.5): every power and every
# product stays finite and non-zero
small_exponents = st.one_of(st.just(0), st.integers(1, 6), st.integers(1, 200))


@given(exponent_matrices(small_exponents), st.integers(0, 2**32 - 1))
def test_evaluate_equals_mono_eval_on_random_matrices(m, seed):
    cols, exps = m
    h = generate_channel(dataclasses.replace(MATRIX_CONFIGS[cols], seed=seed))
    ds = direction_set(exps)
    assert evaluate(ds, h).tolist() == [mono_eval(d, h) for d in members(ds, cols)]


@pytest.mark.parametrize(
    "config",
    [c for c in lattice_configs() if closed_form_counts(c)[0] <= 1024],
    ids=lambda c: f"{c.K}-{c.M}-{c.N}-{c.gamma}",
)
def test_evaluate_equals_mono_eval(config):
    # every stream and interference set of the lattice configs with at
    # most the (3,1,2,1) stream count L = 1024, bit for bit
    plan = full_plan(config)
    h = generate_channel(config)
    cols = tuple(config.coefficient_ids())
    sets = list(plan.streams.values()) + [
        expand_received(plan, k, n).interference
        for k in range(1, config.K + 1)
        for n in range(1, config.N + 1)
    ]
    for ds in sets:
        assert evaluate(ds, h).tolist() == [mono_eval(d, h) for d in members(ds, cols)]
