"""Monomial direction tests.

DirectionSet keeps its members as an exponent matrix; the engine tests
check it against Direction objects, Python's sorted() and frozenset
algebra on random matrices.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iadof.alignment import build_transmit_directions, closed_form_counts, expand_received
from iadof.channel import SystemConfig, generate_channel
from iadof.directions import (
    MAX_EXPONENT,
    MAX_TOTAL_DEGREE,
    UNIT,
    Direction,
    DirectionSet,
    direction,
    mono_eval,
    mono_mul,
)
from test_acceptance import lattice_configs

CIDS = [(1, 1, 1, 1), (1, 2, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1)]

exponent_maps = st.dictionaries(
    st.sampled_from(CIDS), st.integers(min_value=0, max_value=6), max_size=4
)


def test_direction_canonicalization():
    d = direction({(2, 1, 1, 1): 3, (1, 1, 1, 1): 0, (1, 2, 1, 1): 1})
    # zero exponents dropped, remaining ids sorted
    assert d.flat == (1, 2, 1, 1, 1, 2, 1, 1, 1, 3)
    assert d.exponents() == {(1, 2, 1, 1): 1, (2, 1, 1, 1): 3}
    assert d.exponent((2, 1, 1, 1)) == 3
    assert d.exponent((9, 9, 9, 9)) == 0
    assert d.total_degree() == 4


def test_direction_rejects_negative():
    with pytest.raises(ValueError):
        direction({(1, 1, 1, 1): -1})


def test_direction_overflow():
    with pytest.raises(OverflowError):
        direction({(1, 1, 1, 1): MAX_EXPONENT + 1})
    big = direction({(1, 1, 1, 1): 600_000})
    with pytest.raises(OverflowError):
        mono_mul(big, big)


def test_unit_behaviour():
    assert UNIT.total_degree() == 0
    assert UNIT.text() == "1"
    d = direction({(1, 1, 1, 1): 2})
    assert mono_mul(UNIT, d) == d
    assert d * UNIT == d


def test_text_format():
    d = direction({(2, 1, 1, 1): 1, (1, 1, 1, 1): 2})
    assert d.text() == "H[1,1](1,1)^2 * H[2,1](1,1)"


def test_total_order():
    a = direction({(1, 1, 1, 1): 1})
    b = direction({(1, 1, 1, 1): 2})
    c = direction({(1, 2, 1, 1): 1})
    ordered = sorted([c, b, a, UNIT])
    assert ordered[0] == UNIT
    assert ordered == sorted(ordered)
    assert a < b < c or a < c  # lexicographic on the flat encoding
    assert not a < a
    assert a <= a and a >= a


@given(exponent_maps, exponent_maps)
def test_mono_mul_matches_dict_addition(ea, eb):
    a, b = direction(ea), direction(eb)
    out = mono_mul(a, b)
    expected = {}
    for src in (ea, eb):
        for cid, e in src.items():
            if e:
                expected[cid] = expected.get(cid, 0) + e
    assert out.exponents() == expected


@given(exponent_maps, exponent_maps, exponent_maps)
def test_mono_mul_associative_commutative(ea, eb, ec):
    a, b, c = direction(ea), direction(eb), direction(ec)
    assert mono_mul(a, b) == mono_mul(b, a)
    assert mono_mul(mono_mul(a, b), c) == mono_mul(a, mono_mul(b, c))


@given(exponent_maps, exponent_maps)
def test_mono_eval_multiplicative(ea, eb):
    h = generate_channel(SystemConfig(K=2, seed=13))
    a, b = direction(ea), direction(eb)
    lhs = mono_eval(mono_mul(a, b), h)
    rhs = mono_eval(a, h) * mono_eval(b, h)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_mono_eval_against_float_product():
    h = generate_channel(SystemConfig(K=2, seed=4))
    d = direction({(1, 1, 1, 1): 2, (2, 2, 1, 1): 3})
    expected = h.gains[(1, 1, 1, 1)] ** 2 * h.gains[(2, 2, 1, 1)] ** 3
    assert mono_eval(d, h) == pytest.approx(expected, rel=1e-15)
    assert mono_eval(UNIT, h) == 1.0


def test_direction_set_dedup_and_order():
    a = direction({(1, 1, 1, 1): 1})
    b = direction({(1, 1, 1, 1): 2})
    s = DirectionSet([b, a, b, UNIT])
    assert len(s) == 3
    assert list(s) == sorted(s)
    assert s[0] == UNIT
    assert a in s
    assert direction({(2, 1, 1, 1): 5}) not in s


def test_direction_set_ops():
    a = direction({(1, 1, 1, 1): 1})
    b = direction({(1, 1, 1, 1): 2})
    c = direction({(1, 2, 1, 1): 1})
    s1 = DirectionSet([a, b])
    s2 = DirectionSet([b, c])
    assert set(s1.union(s2)) == {a, b, c}
    assert set(s1.intersect(s2)) == {b}
    assert set(s1.difference(s2)) == {a}


def test_direction_set_scale_injective():
    a = direction({(1, 1, 1, 1): 1})
    b = direction({(1, 1, 1, 1): 2})
    s = DirectionSet([a, b, UNIT])
    scaled = s.scale(a)
    assert len(scaled) == len(s)
    assert set(scaled) == {a, b, mono_mul(a, b)}


def test_direction_set_head():
    a = direction({(1, 1, 1, 1): 1})
    b = direction({(1, 1, 1, 1): 2})
    s = DirectionSet([b, a, UNIT])
    assert list(s.head(2)) == [UNIT, a]
    assert s.head(10) == s
    assert len(s.head(0)) == 0
    with pytest.raises(ValueError):
        s.head(-1)


def test_direction_set_evaluate():
    h = generate_channel(SystemConfig(K=1, seed=0))
    a = direction({(1, 1, 1, 1): 2})
    s = DirectionSet([a, UNIT])
    vals = s.evaluate(h)
    assert vals.dtype == np.float64
    assert vals.tolist() == [1.0, h.gains[(1, 1, 1, 1)] ** 2]
    assert all(math.isfinite(v) for v in vals)
    assert DirectionSet().evaluate(h).shape == (0,)


# ------------------------------------------------------- exponent matrices

# five ids, so that two random column lists often differ
MATRIX_CIDS = CIDS + [(3, 1, 2, 1)]

# mostly small exponents; a large one widens every key, so that five
# columns need two packed words
exponents = st.one_of(st.just(0), st.integers(1, 6), st.integers(1, 190_000))


@st.composite
def exponent_matrices(draw, values=exponents):
    cols = sorted(draw(st.lists(st.sampled_from(MATRIX_CIDS), unique=True)))
    row = st.lists(values, min_size=len(cols), max_size=len(cols))
    rows = draw(st.lists(row, max_size=10))
    return tuple(cols), np.array(rows, dtype=np.int64).reshape(len(rows), len(cols))


def row_directions(cols, exps):
    return [direction(dict(zip(cols, row))) for row in exps.tolist()]


@given(exponent_matrices())
def test_matrix_order_is_sorted_directions(m):
    cols, exps = m
    ds = DirectionSet.from_matrix(cols, exps)
    expected = sorted(set(row_directions(cols, exps)))
    assert list(ds) == expected
    assert len(ds) == len(expected)
    # the rows themselves are the members, in the same order
    assert row_directions(ds.columns, ds.matrix) == expected
    assert ds == DirectionSet(expected)


@given(exponent_matrices(), exponent_matrices())
def test_set_operations_match_frozensets(m1, m2):
    a, b = DirectionSet.from_matrix(*m1), DirectionSet.from_matrix(*m2)
    fa, fb = frozenset(a), frozenset(b)
    for got, want in (
        (a.union(b), fa | fb),
        (a.intersect(b), fa & fb),
        (a.difference(b), fa - fb),
    ):
        assert list(got) == sorted(want)
    assert (a == b) == (fa == fb)
    assert all(d in a for d in fa)
    assert all((d in a) == (d in fa) for d in fb)


@given(exponent_matrices(), exponent_maps)
def test_scale_matches_mono_mul(m, factor):
    a = DirectionSet.from_matrix(*m)
    d = direction(factor)
    assert list(a.scale(d)) == sorted({mono_mul(x, d) for x in a})


def test_keys_span_several_words():
    # 40 columns with 20-bit keys: three keys per word, 14 words
    cols = [(1, j, n, 1) for j in range(1, 5) for n in range(1, 11)]
    rng = np.random.default_rng(5)
    exps = rng.integers(0, 3, size=(300, 40)) * (rng.random((300, 40)) < 0.3)
    exps[::7, 39] = 500_000
    exps[::11, 0] = 400_000
    exps = np.concatenate([exps, exps[:50]])
    ds = DirectionSet.from_matrix(cols, exps)
    assert list(ds) == sorted(set(row_directions(cols, exps)))


def test_set_guards():
    cid = (1, 1, 1, 1)
    big = DirectionSet([direction({cid: 600_000})])
    with pytest.raises(OverflowError):
        big.scale(direction({cid: 600_000}))
    with pytest.raises(OverflowError):
        DirectionSet.from_matrix([cid], [[MAX_EXPONENT + 1]])
    with pytest.raises(OverflowError):
        DirectionSet.from_matrix([cid, (1, 2, 1, 1)], [[MAX_TOTAL_DEGREE, 1]])
    with pytest.raises(ValueError):
        DirectionSet.from_matrix([cid], [[-1]])
    with pytest.raises(ValueError):
        DirectionSet.from_matrix([(1, 2, 1, 1), cid], [[1, 1]])
    with pytest.raises(ValueError):
        DirectionSet.from_matrix([cid], [[1, 1]])


# ------------------------------------------------------------- evaluation

# at most 5 * 200 factors of a gain in [0.5, 1.5): every power and every
# product stays finite and non-zero
small_exponents = st.one_of(st.just(0), st.integers(1, 6), st.integers(1, 200))


@given(exponent_matrices(small_exponents), st.integers(0, 2**32 - 1))
def test_evaluate_equals_mono_eval_on_random_matrices(m, seed):
    h = generate_channel(SystemConfig(K=3, N=2, seed=seed))
    ds = DirectionSet.from_matrix(*m)
    assert ds.evaluate(h).tolist() == [mono_eval(d, h) for d in ds]


@pytest.mark.parametrize(
    "config",
    [c for c in lattice_configs() if closed_form_counts(c)[0] <= 1024],
    ids=lambda c: f"{c.K}-{c.M}-{c.N}-{c.gamma}",
)
def test_evaluate_equals_mono_eval(config):
    # every stream and interference set of the lattice configs with at
    # most the (3,1,2,1) stream count L = 1024, bit for bit
    plan = build_transmit_directions(config)
    h = generate_channel(config)
    sets = list(plan.streams.values()) + [
        expand_received(plan, k, n).interference
        for k in range(1, config.K + 1)
        for n in range(1, config.N + 1)
    ]
    for ds in sets:
        assert ds.evaluate(h).tolist() == [mono_eval(d, h) for d in ds]
