"""Degrees-of-freedom bound tests.

The brute-force partition scan below is the oracle for the balance-family
minimum; acceptance criterion 3 compares the two exhaustively on a small
lattice.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iadof.bounds import (
    DofReport,
    achievable_dof,
    dof_report,
    dof_upper_bound,
    fraction_json,
    gou_jafar_reference,
    regime_classify,
)

sizes = st.integers(min_value=1, max_value=6)
users = st.integers(min_value=1, max_value=12)


# ---------------------------------------------------------------- two users


def two_user_dof(m1: int, m2: int, n1: int, n2: int) -> int:
    """Sum DoF of the two-user MIMO interference channel with antenna
    profile (m1, n1), (m2, n2): the oracle of the partition relaxation test.
    Zero counts are allowed so pooled-user partitions can degenerate to one
    side."""
    for v in (m1, m2, n1, n2):
        if v < 0:
            raise ValueError("antenna counts must be >= 0")
    return min(m1 + m2, n1 + n2, max(m1, n2), max(m2, n1))


def partition_bound(M: int, N: int, K: int, l1: int, l2: int) -> Fraction:
    """Upper bound on total DoF from one pooled-user partition, 1 <= l1+l2
    <= K: l1 users pool their transmit arrays against l2 users, the two-user
    region of the pooled pair caps the group's sum, and scaling by
    K/(l1+l2) caps the total.  Order of l1, l2 does not matter."""
    mn, mx = sorted((M, N))
    l_min, l_max = sorted((l1, l2))
    return Fraction(K * max(mx * l_min, mn * l_max), l1 + l2)


def partition_witness(M: int, N: int, K: int) -> tuple:
    """(value, sign, mu, l_min, l_max, l1, l2) of the least partition, ties
    to minus, then to the smaller mu: the oracle of dof_upper_bound's
    witness below the balanced threshold, where no partition is balanced.
    A partition sits mu = |mn*l_max - mx*l_min|/g steps off the even
    split, on the minus side when mn*l_max > mx*l_min."""
    mn, mx = sorted((M, N))
    g = gcd(M, N)
    best = None
    for l_min in range(0, K // 2 + 1):
        for l_max in range(max(l_min, 1), K - l_min + 1):
            off = mn * l_max - mx * l_min
            sign = "minus" if off > 0 else "plus"
            key = (partition_bound(M, N, K, l_min, l_max), sign != "minus", abs(off) // g)
            if best is None or key < best[0]:
                l1, l2 = (l_min, l_max) if M >= N else (l_max, l_min)
                best = key, (key[0], sign, key[2], l_min, l_max, l1, l2)
    return best[1]


def brute_force_upper_bound(M: int, N: int, K: int) -> Fraction:
    """Minimum of partition_bound over every admissible partition: the
    oracle of dof_upper_bound's balance-family scan."""
    return min(
        partition_bound(M, N, K, l1, total - l1)
        for total in range(1, K + 1)
        for l1 in range(0, total + 1)
    )


def test_two_user_examples():
    assert two_user_dof(1, 1, 1, 1) == 1
    assert two_user_dof(5, 5, 2, 2) == 4
    assert two_user_dof(2, 1, 1, 2) == 1
    # zero-sized pools are legal and give zero
    assert two_user_dof(0, 0, 0, 0) == 0
    assert two_user_dof(0, 3, 0, 2) == 2


def test_two_user_rejects_negative():
    with pytest.raises(ValueError):
        two_user_dof(-1, 1, 1, 1)


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
def test_two_user_symmetry(m1, m2, n1, n2):
    # swapping the users swaps transmit and receive roles pairwise
    assert two_user_dof(m1, m2, n1, n2) == two_user_dof(m2, m1, n2, n1)


# ---------------------------------------------------------------- achievable


def test_achievable_examples():
    assert achievable_dof(1, 2, 3) == Fraction(2)
    assert achievable_dof(5, 2, 4) == Fraction(40, 7)
    for K in range(1, 9):
        assert achievable_dof(1, 1, K) == Fraction(K, 2)


# ---------------------------------------------------------------- partitions


def test_partition_bound_examples():
    assert partition_bound(5, 2, 4, 1, 3) == Fraction(6)
    assert partition_bound(5, 2, 4, 2, 2) == Fraction(10)
    # order insensitive
    assert partition_bound(5, 2, 4, 3, 1) == Fraction(6)


def test_partition_bound_degenerate_group():
    # an empty group on one side degrades to min(M, N) per user
    for K in (1, 3, 6):
        assert partition_bound(5, 2, K, 0, 1) == Fraction(2 * K)
        assert partition_bound(2, 5, K, 1, 0) == Fraction(2 * K)


@given(sizes, sizes, users)
def test_partition_bound_vs_two_user_relaxation(M, N, K):
    # pooling l1 and l2 users gives a genuine two-user pair whose region
    # contains the partition value; the bound can only tighten it
    for total in range(1, K + 1):
        for l1 in range(0, total + 1):
            l2 = total - l1
            pooled = two_user_dof(l1 * M, l2 * M, l1 * N, l2 * N)
            l_min, l_max = sorted((l1, l2))
            mn, mx = sorted((M, N))
            assert pooled <= max(mx * l_min, mn * l_max)


# ------------------------------------------------------------- upper bound


def test_upper_bound_examples():
    val, w = dof_upper_bound(5, 2, 4)
    assert val == Fraction(6)
    assert (w.sign, w.mu, w.l_min, w.l_max, w.l1, w.l2) == ("minus", 1, 1, 3, 1, 3)

    val, w = dof_upper_bound(2, 1, 2)
    assert val == Fraction(2)
    assert (w.sign, w.mu, w.l_min, w.l_max) == ("minus", 1, 0, 1)

    val, w = dof_upper_bound(5, 2, 2)
    assert val == Fraction(4)
    assert (w.sign, w.mu, w.l_min, w.l_max) == ("minus", 2, 0, 1)

    val, w = dof_upper_bound(5, 2, 7)
    assert val == Fraction(10)
    assert (w.sign, w.mu) == ("exact", None)
    assert (w.l1, w.l2) == (2, 5)


def test_upper_bound_square_arrays():
    for M in range(1, 5):
        for K in range(2, 8):
            val, w = dof_upper_bound(M, M, K)
            assert val == Fraction(M * K, 2)
            assert w.sign == "exact"


def test_upper_bound_witness_is_attained():
    # the reported partition must reproduce the reported value exactly
    for M in range(1, 7):
        for N in range(1, 7):
            for K in range(1, 13):
                val, w = dof_upper_bound(M, N, K)
                assert partition_bound(M, N, K, w.l1, w.l2) == val
                assert w.bound_value == val


def test_upper_bound_witness_is_the_least_partition():
    # below the balanced threshold the witness is the partition oracle's,
    # sign, mu and orientation included
    for M in range(1, 13):
        for N in range(1, 13):
            for K in range(1, (M + N) // gcd(M, N)):
                val, w = dof_upper_bound(M, N, K)
                got = (val, w.sign, w.mu, w.l_min, w.l_max, w.l1, w.l2)
                assert got == partition_witness(M, N, K), (M, N, K)


@given(sizes, sizes, users)
def test_upper_bound_symmetry(M, N, K):
    assert dof_upper_bound(M, N, K)[0] == dof_upper_bound(N, M, K)[0]


@given(sizes, sizes, users)
def test_achievable_below_upper(M, N, K):
    ach = achievable_dof(M, N, K)
    up, _ = dof_upper_bound(M, N, K)
    assert ach <= up
    if regime_classify(M, N, K) == "exact_large_K":
        assert ach == up


def test_upper_bound_validation():
    with pytest.raises(ValueError):
        dof_upper_bound(2, 1, 0)
    with pytest.raises(ValueError):
        dof_upper_bound(0, 1, 2)


# ---------------------------------------------------------------- reference


def test_gou_jafar_examples():
    assert gou_jafar_reference(5, 2, 2) == (Fraction(4), Fraction(4))
    assert gou_jafar_reference(5, 2, 4) == (Fraction(16, 3), Fraction(20, 3))
    assert gou_jafar_reference(1, 1, 6) == (Fraction(3), Fraction(3))


@given(sizes, sizes, users)
def test_reference_dominance(M, N, K):
    # beyond the small-K regime the partition analysis is at least as good
    # on both ends
    mn, mx = sorted((M, N))
    gj_ach, gj_up = gou_jafar_reference(M, N, K)
    up, _ = dof_upper_bound(M, N, K)
    ach = achievable_dof(M, N, K)
    if K > mx // mn:
        assert up <= gj_up
        assert ach >= gj_ach
    else:
        assert gj_ach == gj_up == Fraction(K * mn)


def test_reference_strict_improvement_example():
    gj_ach, gj_up = gou_jafar_reference(5, 2, 4)
    up, _ = dof_upper_bound(5, 2, 4)
    assert up < gj_up
    assert achievable_dof(5, 2, 4) > gj_ach


# ------------------------------------------------------------------ regimes


def test_regime_examples():
    assert regime_classify(5, 2, 2) == "exact_small_K"
    assert regime_classify(5, 2, 4) == "open_gap"
    assert regime_classify(5, 2, 7) == "exact_large_K"
    assert regime_classify(1, 1, 1) == "exact_small_K"
    assert regime_classify(3, 3, 5) == "exact_large_K"


@given(sizes, sizes, users)
def test_regimes_are_disjoint_and_total(M, N, K):
    mn, mx = sorted((M, N))
    r = regime_classify(M, N, K)
    small = K <= mx // mn
    large = K >= (M + N) // gcd(M, N)
    assert not (small and large and r == "open_gap")
    if small:
        assert r == "exact_small_K"
    elif large:
        assert r == "exact_large_K"
    else:
        assert r == "open_gap"


# ------------------------------------------------------------------- report


def test_report_example():
    rep = dof_report(3, 3, 5)
    assert rep.upper_total == Fraction(15, 2)
    assert rep.achievable_total == Fraction(15, 2)
    assert rep.regime == "exact_large_K"
    assert rep.upper_per_user == Fraction(3, 2)


def test_report_json_shape():
    rep = dof_report(5, 2, 4)
    d = rep.to_json_dict()
    assert d["M"] == 5 and d["N"] == 2 and d["K"] == 4
    assert d["regime"] == "open_gap"
    assert d["upper_total"] == {"num": 6, "den": 1, "decimal": "6"}
    assert d["upper_per_user"] == {"num": 3, "den": 2, "decimal": "1.5"}
    assert d["witness"]["sign"] == "minus"
    assert d["witness"]["mu"] == 1
    assert d["witness"]["bound"]["num"] == 6


def test_report_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        DofReport(
            M=1,
            N=1,
            K=2,
            achievable_total=Fraction(3),
            upper_total=Fraction(1),
            witness=dof_upper_bound(1, 1, 2)[1],
            gj_achievable=Fraction(1),
            gj_upper=Fraction(1),
            regime="exact_large_K",
        )


def test_fraction_json_values():
    assert fraction_json(Fraction(40, 7)) == {
        "num": 40,
        "den": 7,
        "decimal": f"{40 / 7:.12g}",
    }
