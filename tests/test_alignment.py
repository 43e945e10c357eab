"""Direction-set construction and verification tests.

The construction is cross-checked three ways: closed-form counts, a
hand-rolled re-enumeration over pair templates on small configs, and the
symbolic membership verifier.  The interference count L' is the exact
union size at every receive antenna, so enumeration and closed form must
agree; a hand-built plan with one extra direction shows the verifier
flags any excess.  For M > 1 the construction's finite-gamma DoF falls
short of the paper's K*MN/(M+N), and a test pins that gap.  The exponent
matrix engine makes every acceptance-lattice config cheap, so the exact
counts are checked at all of them.
"""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from iadof.alignment import (
    EnumerationBudgetError,
    ReferenceFamily,
    _box,
    achievable_dof_gamma,
    build_transmit_directions,
    closed_form_counts,
    expand_received,
    families,
    family_pair,
    per_antenna_dof_gamma,
    stream_family_cap,
    truncate_plan,
    verify_alignment,
)
from iadof.bounds import achievable_dof
from iadof.channel import SystemConfig
from iadof.directions import DirectionSet
from test_acceptance import lattice_configs

CHECKS = (
    "desired_pairwise_disjoint",
    "desired_disjoint_from_interference",
    "interference_within_reference",
    "l_prime_within_bound",
    "stream_counts_match",
)


def cfg(K, M=1, N=1, gamma=1):
    return SystemConfig(K=K, M=M, N=N, gamma=gamma)


# ----------------------------------------------------------- pair families


def test_families_count_and_order():
    for K, M, N in [(2, 1, 1), (3, 2, 1), (2, 2, 2)]:
        for dest in range(1, N + 1):
            fams = families(K, M, N, dest)
            assert len(fams) == K * M * (K * N - 1)
            assert list(fams) == sorted(fams)
            for j, mp, np_, i in fams:
                assert 1 <= j <= K and 1 <= mp <= M
                assert 1 <= np_ <= N and 1 <= i <= K
                assert not (i == j and np_ == dest)


def test_families_bad_dest():
    with pytest.raises(IndexError):
        families(2, 1, 1, 2)
    with pytest.raises(IndexError):
        families(2, 1, 1, 0)


def test_family_pair_structure():
    dest = 1
    fam = (2, 1, 1, 3)  # source user 2, observed through user 3's direct link
    first, second = family_pair(fam, dest)
    assert first == (2, 2, dest, 1)
    assert second == (3, 2, 1, 1)


def test_stream_family_cap_rules():
    g = 3
    stream = (1, 1, 1)
    # own user, own transmit antenna: one slot held back
    assert stream_family_cap(stream, (1, 1, 2, 2), g) == g - 1
    # own user, other transmit antenna: frozen
    assert stream_family_cap(stream, (1, 2, 2, 2), g) == 0
    # other users: full range
    assert stream_family_cap(stream, (2, 1, 1, 1), g) == g


# ------------------------------------------------------------ closed forms


# Each L' equals an observed union pinned by enumeration elsewhere: 28,
# 4993 and 8 in test_verify_passes_with_observed_counts, 99792 as the
# inclusion-exclusion value in test_interference_count_exact_at_known_config.
# The case ids keep their first names, whose last field is the superseded
# figure (M-1)L + N(gamma+1)^(own+other); it neither counted nor bounded the
# construction, and the exact L' checked is the last argument.
@pytest.mark.parametrize(
    "K,M,N,gamma,L,lp",
    [
        pytest.param(3, 1, 1, 1, 16, 28, id="3-1-1-1-16-64"),
        pytest.param(3, 1, 2, 1, 1024, 4993, id="3-1-2-1-1024-65536"),
        pytest.param(2, 2, 1, 1, 4, 8, id="2-2-1-1-4-12"),
        pytest.param(3, 2, 1, 2, 26244, 99792, id="3-2-1-2-26244-85293"),
    ],
)
def test_closed_form_pins(K, M, N, gamma, L, lp):
    assert closed_form_counts(cfg(K, M, N, gamma)) == (L, lp)


def test_closed_form_single_antenna_reduction():
    for K in (2, 3, 4):
        for g in range(1, 7):
            L, lp = closed_form_counts(cfg(K, 1, 1, g))
            assert L == g ** (K - 1) * (g + 1) ** ((K - 1) ** 2)
            # A = (g+1)^(K-1) points per user block, B = A - g^(K-1) of
            # them outside that user's stream box
            A = (g + 1) ** (K - 1)
            assert lp == A**K - A * (A - g ** (K - 1)) ** (K - 1)
    # K = 2 leaves g(g+1): the observed 2 and 6 at gamma 1 and 2
    assert [closed_form_counts(cfg(2, 1, 1, g))[1] for g in (1, 2)] == [2, 6]


def test_closed_form_two_receive_antennas_reduction():
    for g in range(1, 7):
        L, lp = closed_form_counts(cfg(3, 1, 2, g))
        assert L == g**5 * (g + 1) ** 10
        A = (g + 1) ** 5
        B = A - g**5
        assert lp == 2 * A**3 - A * B**2 - B**3


def test_per_antenna_dof_values():
    # M*L / (1 + M*L + L') per antenna, from the pinned (L, L') pairs
    # (16, 28) and (1024, 4993)
    assert per_antenna_dof_gamma(cfg(3)) == Fraction(16, 1 + 16 + 28) == Fraction(16, 45)
    assert achievable_dof_gamma(cfg(3)) == Fraction(16, 15)
    assert achievable_dof_gamma(cfg(3, 1, 2)) == 6 * Fraction(1024, 1 + 1024 + 4993)
    assert achievable_dof_gamma(cfg(3, 1, 2)) == Fraction(1024, 1003)


def test_dof_gamma_monotone_and_convergent():
    prev = None
    for g in range(1, 31):
        v = achievable_dof_gamma(cfg(3, 1, 1, g))
        assert v < Fraction(3, 2)
        if prev is not None:
            assert v >= prev
        prev = v
    assert achievable_dof_gamma(cfg(3, 1, 1, 100)) >= Fraction(98, 100) * Fraction(3, 2)


def test_multi_antenna_dof_gap_to_paper():
    # With two transmit antennas per user the siblings' direction sets do
    # not align, so the construction's total DoF stays above 1 but falls
    # towards 1 as gamma grows, short of the paper's K*MN/(M+N) = 2.
    paper = achievable_dof(2, 1, 3)
    assert paper == 2
    values = [achievable_dof_gamma(cfg(3, 2, 1, g)) for g in range(1, 11)]
    assert all(1 < v < paper for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


# ------------------------------------------------------------ construction


def manual_stream(config, k, m, n):
    """Independent re-enumeration: walk every per-family exponent choice
    and multiply out the pair monomials with Counter arithmetic."""
    fams = families(config.K, config.M, config.N, n)
    caps = [stream_family_cap((k, m, n), f, config.gamma) for f in fams]
    active = [(f, c) for f, c in zip(fams, caps) if c > 0]
    out = set()
    for choice in itertools.product(*[range(c + 1) for _, c in active]):
        exps = Counter()
        for (f, _), e in zip(active, choice):
            if e:
                a, b = family_pair(f, n)
                exps[a] += e
                exps[b] += e
        out.add(tuple(sorted((cid, e) for cid, e in exps.items() if e)))
    return out


@pytest.mark.parametrize(
    "K,M,N,gamma",
    [(2, 1, 1, 1), (2, 1, 1, 2), (3, 1, 1, 1), (2, 2, 1, 1), (2, 1, 2, 1)],
)
def test_build_matches_manual_enumeration(K, M, N, gamma):
    config = cfg(K, M, N, gamma)
    plan = build_transmit_directions(config)
    L, _ = closed_form_counts(config)
    for k in range(1, K + 1):
        for m in range(1, M + 1):
            for n in range(1, N + 1):
                ds = plan.streams[(k, m, n)]
                assert len(ds) == L
                got = {
                    tuple((cid, e) for cid, e in zip(ds.columns, row) if e)
                    for row in ds.matrix.tolist()
                }
                assert got == manual_stream(config, k, m, n)


def test_build_contains_unit():
    plan = build_transmit_directions(cfg(3))
    for ds in plan.streams.values():
        # the unit, the all-zero row, sorts first
        assert not ds.matrix[0].any()


def test_build_budget_error():
    config = cfg(3, 1, 2, 3)
    with pytest.raises(EnumerationBudgetError) as exc:
        build_transmit_directions(config, budget=10**6)
    assert exc.value.required == 243 * 4**10
    assert exc.value.budget == 10**6


def test_truncate_plan():
    plan = build_transmit_directions(cfg(3))
    t = truncate_plan(plan, 5)
    for key, ds in t.streams.items():
        assert len(ds) == 5
        assert ds == plan.streams[key].head(5)
    one = truncate_plan(plan, 1)
    assert all(len(ds) == 1 and not ds.matrix.any() for ds in one.streams.values())
    with pytest.raises(ValueError):
        truncate_plan(plan, 0)


# -------------------------------------------------------------- reference

DEFAULT_REFERENCE_BUDGET = 10**6


def materialize(config, dest, budget=DEFAULT_REFERENCE_BUDGET):
    """The reference superset at dest enumerated outright, every product of
    dest families with exponents in [0, gamma]: the oracle that
    ReferenceFamily's membership tests are checked against."""
    fams = families(config.K, config.M, config.N, dest)
    size = (config.gamma + 1) ** len(fams)
    if size > budget:
        raise EnumerationBudgetError(size, budget, "reference enumeration")
    return _box(config, dest, dict.fromkeys(fams, config.gamma))


def test_reference_materialize_matches_contains():
    config = cfg(2, 1, 1, 2)
    ref = ReferenceFamily(config)
    members = materialize(config, 1, budget=10**4)
    assert len(members) == 9
    assert ref.within_at(members, (1,)).all()
    assert ref.within(members).all()
    # push every exponent of the last member past its cap: no longer
    # factorizable
    last = members.matrix[-1]
    bumped = DirectionSet.from_matrix(members.columns, [last + 3 * (last > 0)])
    assert last.any()
    assert not ref.within_at(bumped, (1,))[0, 0]


@pytest.mark.parametrize("K,M,N,gamma", [(2, 1, 1, 1), (2, 1, 2, 1), (2, 2, 1, 1)])
def test_reference_within_matches_materialized(K, M, N, gamma):
    # every exponent vector in [0, gamma + 1]^C, and every member of the
    # enumerated superset of each receive antenna
    config = cfg(K, M, N, gamma)
    cols = tuple(config.coefficient_ids())
    grid = list(itertools.product(range(gamma + 2), repeat=len(cols)))
    ds = DirectionSet.from_matrix(cols, grid)
    ref = ReferenceFamily(config)
    dests = range(1, N + 1)
    inside = ref.within_at(ds, dests)
    for i, dest in enumerate(dests):
        members = materialize(config, dest)
        assert ref.within_at(members, [dest]).all()
        members = {tuple(row) for row in members.matrix_over(cols).tolist()}
        assert [tuple(row) in members for row in ds.matrix.tolist()] == inside[:, i].tolist()
    assert ref.within(ds).tolist() == inside.any(axis=1).tolist()


def test_reference_rejects_foreign_monomial():
    config = cfg(2, 1, 1, 1)
    ref = ReferenceFamily(config)
    # a lone cross gain with no matching direct-link factor cannot arise
    foreign = DirectionSet.from_matrix([(1, 2, 1, 1)], [[1]])
    assert not ref.within_at(foreign, (1,))[0, 0]
    unit = DirectionSet.from_matrix([(1, 2, 1, 1)], [[0]])
    assert ref.within_at(unit, (1,))[0, 0]


# ------------------------------------------------------------ verification


def test_expand_received_single_user():
    # two transmit antennas, two receive antennas, nobody else: the only
    # interference is the user's own off-antenna leakage
    plan = build_transmit_directions(cfg(1, 2, 2, 2))
    prof = expand_received(plan, 1, 1)
    assert prof.m_star == 4
    assert closed_form_counts(plan.config)[1] == 4  # the union, exactly
    assert set(prof.desired) == {1, 2}
    assert prof.multiplicity.tolist() == [1] * 4


def test_multiplicity_counts_every_arrival():
    # each of the K*M*N - M streams not desired at an antenna arrives with
    # all L of its directions, and the interference set keeps one count per
    # distinct arrival, in its own order
    config = cfg(3, 1, 2, 1)
    plan = build_transmit_directions(config)
    L, _ = closed_form_counts(config)
    prof = expand_received(plan, 2, 1)
    counts = prof.multiplicity
    assert counts.dtype == np.int64 and not counts.flags.writeable
    assert counts.sum() == (3 * 1 * 2 - 1) * L
    assert len(counts) == len(prof.interference)
    assert counts.max() > 1
    # each arrival is its stream's set times the two gains it crossed
    cols = prof.interference.columns
    arrived = Counter()
    for (j, mp, np_), base in plan.streams.items():
        if (j, np_) != (2, 1):
            tag = {(j, j, np_, mp): 1, (2, j, 1, mp): 1}
            arrived.update(map(tuple, base.scale(tag).matrix_over(cols).tolist()))
    rows = map(tuple, prof.interference.matrix.tolist())
    assert dict(zip(rows, counts.tolist())) == arrived


def test_expand_received_no_cross_terms_when_alone():
    plan = build_transmit_directions(cfg(1, 1, 1))
    prof = expand_received(plan, 1, 1)
    assert len(prof.interference) == 0
    assert closed_form_counts(plan.config)[0] == 1
    assert prof.desired[1] == DirectionSet.from_matrix([(1, 1, 1, 1)], [[2]])


@pytest.mark.parametrize(
    "K,M,N,gamma,lp_observed",
    [
        (2, 1, 1, 1, 2),
        (2, 1, 1, 2, 6),
        (2, 2, 1, 1, 8),
        (3, 1, 1, 1, 28),
        (2, 1, 2, 1, 23),
        (3, 1, 2, 1, 4993),
        (3, 2, 1, 1, 960),
    ],
)
def test_verify_passes_with_observed_counts(K, M, N, gamma, lp_observed):
    config = cfg(K, M, N, gamma)
    plan = build_transmit_directions(config)
    report = verify_alignment(plan)
    assert report.passed
    L, lp_bound = closed_form_counts(config)
    for v in report.antennas:
        assert v.ok
        # desired union counts every own transmit antenna's arrived set
        assert v.l_observed == M * L
        assert v.l_prime_observed == lp_observed
        assert v.l_prime_observed == lp_bound
        assert set(v.checks) == set(CHECKS)


@pytest.mark.parametrize(
    "config", lattice_configs(), ids=lambda c: f"{c.K}-{c.M}-{c.N}-{c.gamma}"
)
def test_verify_counts_at_every_lattice_config(config):
    L, lp = closed_form_counts(config)
    report = verify_alignment(build_transmit_directions(config))
    assert report.passed
    assert len(report.antennas) == config.K * config.N
    for v in report.antennas:
        assert v.l_observed == config.M * L
        assert v.l_prime_observed == lp


def test_verify_report_json_shape():
    report = verify_alignment(build_transmit_directions(cfg(2)))
    d = report.to_json_dict()
    assert d["pass"] is True
    assert d["config"] == {"K": 2, "M": 1, "N": 1, "gamma": 1}
    assert len(d["per_antenna"]) == 2
    row = d["per_antenna"][0]
    assert set(row) == {"k", "n", "L_observed", "L_prime_observed", "checks"}


def test_verify_truncated_plan():
    plan = truncate_plan(build_transmit_directions(cfg(3)), 4)
    report = verify_alignment(plan)
    assert report.passed
    for v in report.antennas:
        assert v.l_observed == 4


def test_interference_count_exact_at_known_config(overcounted_plan):
    # With several transmit antennas per user and gamma = 2, sibling
    # streams of the same user land on disjoint direction sets.
    # Inclusion-exclusion over the M = 2 sibling pair gives the union size
    # below, and the closed form must count it exactly.
    config = cfg(3, 2, 1, 2)
    g = config.gamma
    L, lp = closed_form_counts(config)
    assert L == 26244
    expected_union = 4 * L - 4 * g**4 * (g + 1) ** 4
    assert expected_union == 99792
    assert lp == expected_union

    report = verify_alignment(build_transmit_directions(config))
    assert report.passed
    for v in report.antennas:
        assert v.l_prime_observed == expected_union

    # One direction more than the construction at (3,1,1,1) pushes antenna
    # (1,1) past the exact count, and only that check fails there.
    report = verify_alignment(overcounted_plan)
    assert not report.passed
    v = report.antennas[0]
    assert (v.k, v.n, v.l_prime_observed) == (1, 1, 29)
    assert closed_form_counts(overcounted_plan.config)[1] == 28
    failed = {name for name, ok in v.checks.items() if not ok}
    assert failed == {"l_prime_within_bound"}
