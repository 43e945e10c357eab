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

verify_alignment decides every count and check on boxes of family
exponents and forms no row; the row path stays for the simulator, which
keeps the first cap rows of each stream.  build_transmit_directions walks
straight to those rows, and the walk is pinned against the first rows of
the full construction (full_plan, in conftest.py) at every lattice config
and on random cap rules.  expand_received reads each antenna off one
canonical sort of its stacked rows, and expand_oracle rebuilds a profile
from pairwise set operations (scale, intersect, union) and is pinned
against it field by field, on full plans, kept prefixes and plans built
by hand.  Every set is over its config's coefficient ids, and a plan
refuses any other column list.  verify_oracle reads the report off the
oracle's profiles, desired sets and sibling overlap included, with
reference membership as int64 column sums (within_oracle, pinned against
the enumerated reference), and is pinned against verify_alignment at
every lattice config and on random cap rules, failing checks included.
"""

import dataclasses
import itertools
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import iadof.alignment
import iadof.directions
from iadof import cli
from iadof.alignment import (
    AlignmentReport,
    AntennaVerdict,
    EnumerationBudgetError,
    TransmitPlan,
    _meets,
    _reach,
    _Source,
    _union_size,
    achievable_dof_gamma,
    build_transmit_directions,
    closed_form_counts,
    expand_received,
    families,
    family_pair,
    per_antenna_dof_gamma,
    stream_family_cap,
    verify_alignment,
)
from iadof.bounds import achievable_dof
from iadof.channel import SystemConfig
from iadof.directions import MAX_TOTAL_DEGREE, DirectionSet, _check_exponents, _runs
from conftest import direction_set, full_box, full_plan
from test_acceptance import lattice_configs
from test_directions import assert_runs_match_oracle, intersect, monomials, scale, union

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
    # the full construction, and the walk kept to all L rows of it
    config = cfg(K, M, N, gamma)
    plan = full_plan(config)
    L, _ = closed_form_counts(config)
    walked = build_transmit_directions(config, L)
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
                assert np.array_equal(walked.streams[(k, m, n)].matrix, ds.matrix)


def test_build_contains_unit():
    for cap in (1, 16):
        for ds in build_transmit_directions(cfg(3), cap).streams.values():
            # the unit, the all-zero row, sorts first
            assert not ds.matrix[0].any()


def test_build_budget_error(monkeypatch):
    # at (3,1,2,3) each of 6 antennas stacks the kept rows of 6 streams,
    # 18 exponents a row: 648 entries a unit of cap.  Cap 1,543 fits 10^6
    # and cap 1,544 does not; the refusal comes before any row is walked,
    # and L (254,803,968) plays no part
    config = cfg(3, 1, 2, 3)
    plan = build_transmit_directions(config, 1543)
    assert {len(ds) for ds in plan.streams.values()} == {1543}

    def walked(*args):
        raise AssertionError("a row was walked past the budget")

    monkeypatch.setattr(iadof.alignment, "_stream_rows", walked)
    with pytest.raises(EnumerationBudgetError) as exc:
        build_transmit_directions(config, 1544)
    assert exc.value.required == 648 * 1544
    assert exc.value.budget == 10**6
    assert str(exc.value) == (
        "antenna stacks would hold 1000512 exponent entries, budget is 1000000"
    )


def test_build_keeps_first_cap_rows():
    config = cfg(3)
    full = full_plan(config)
    for cap in (1, 5):
        plan = build_transmit_directions(config, cap)
        assert list(plan.streams) == list(full.streams)
        for key, ds in plan.streams.items():
            assert np.array_equal(ds.matrix, full.streams[key].matrix[:cap])
            assert ds.columns == full.streams[key].columns
    with pytest.raises(ValueError, match="cap must be >= 1, got 0"):
        build_transmit_directions(config, 0)


def test_plan_refuses_sets_over_other_columns():
    # a plan's rows are read over its config's coefficient ids, so a set
    # over a subset of them, or over another config's four ids, is refused
    config = cfg(2)
    streams = build_transmit_directions(config, 2).streams
    cols = tuple(config.coefficient_ids())
    other = tuple(cfg(1, 2, 2).coefficient_ids())
    assert len(other) == len(cols) and other != cols
    for foreign in (cols[1:], other):
        bad = {**streams, (2, 1, 1): direction_set(foreign, [[0] * len(foreign)])}
        with pytest.raises(ValueError, match=r"^stream \(2, 1, 1\): "):
            TransmitPlan(config=config, streams=bad)


# Past this many rows a whole stream set takes a while to walk: 0.04 s at
# (2,2,2,2), L = 5,832, and 0.4 s at (3,2,1,2), L = 26,244 (best of 3).
SLOW_WALK = 1024


@pytest.mark.parametrize(
    "config", lattice_configs(), ids=lambda c: f"{c.K}-{c.M}-{c.N}-{c.gamma}"
)
def test_walk_equals_full_plan_prefix_at_every_lattice_config(config):
    # caps 1, 2, 3, L and L + 1 on every stream; past SLOW_WALK rows, L on
    # the first stream only and L + 1 on the last
    L, _ = closed_form_counts(config)
    streams = full_plan(config).streams
    for i, (stream, ds) in enumerate(streams.items()):
        caps = [1, 2, 3]
        if L <= SLOW_WALK:
            caps += [L, L + 1]
        elif i == 0:
            caps.append(L)
        elif i == len(streams) - 1:
            caps.append(L + 1)
        for cap in caps:
            rows = iadof.alignment._stream_rows(config, stream, cap).matrix
            assert np.array_equal(rows, ds.matrix[:cap])


# -------------------------------------------------------------- reference


def materialize(config, dest):
    """The reference superset at dest enumerated outright, every product of
    dest families with exponents in [0, gamma]: the oracle that
    within_oracle's membership tests are checked against."""
    fams = families(config.K, config.M, config.N, dest)
    return full_box(config, dest, dict.fromkeys(fams, config.gamma))


def within_oracle(config, cols, exps, dests):
    """Membership of every row of an exponent matrix over cols in the
    reference superset of each dest, as a (rows, len(dests)) boolean
    matrix, by int64 column sums.

    Columns fall into blocks by transmit antenna (t, m).  At dest a row is
    inside iff, in every block, the direct coefficient (t, t, dest, m)
    carries the sum of the block's other exponents and each of those stays
    within gamma.
    """
    dests = tuple(dests)
    blocks = sorted({(t, m) for _, t, _, m in cols})
    block = {b: i for i, b in enumerate(blocks)}
    balance = np.zeros((len(cols), len(dests), len(blocks)), dtype=np.int64)
    capped = np.ones((len(cols), len(dests)), dtype=np.int64)
    for c, (r, t, a, m) in enumerate(cols):
        b = block[(t, m)]
        balance[c, :, b] = -1
        for i, dest in enumerate(dests):
            if r == t and a == dest:
                balance[c, i, b] = 1
                capped[c, i] = 0
    exps = np.asarray(exps, dtype=np.int64)
    sums = exps @ balance.reshape(len(cols), len(dests) * len(blocks))
    balanced = ~np.any(sums.reshape(len(exps), len(dests), len(blocks)), axis=2)
    over = (exps > config.gamma).astype(np.int64) @ capped
    return balanced & (over == 0)


def within(config, ds):
    """For each member of ds, whether some receive antenna's superset
    holds it."""
    dests = range(1, config.N + 1)
    return within_oracle(config, ds.columns, ds.matrix, dests).any(axis=1)


def test_reference_materialize_matches_contains():
    config = cfg(2, 1, 1, 2)
    members = materialize(config, 1)
    assert len(members) == 9
    assert within_oracle(config, members.columns, members.matrix, (1,)).all()
    assert within(config, members).all()
    # push every exponent of the last member past its cap: no longer
    # factorizable
    last = members.matrix[-1]
    bumped = last + 3 * (last > 0)
    assert last.any()
    assert not within_oracle(config, members.columns, [bumped], (1,))[0, 0]


@pytest.mark.parametrize("K,M,N,gamma", [(2, 1, 1, 1), (2, 1, 2, 1), (2, 2, 1, 1)])
def test_reference_within_matches_materialized(K, M, N, gamma):
    # every exponent vector in [0, gamma + 1]^C, and every member of the
    # enumerated superset of each receive antenna
    config = cfg(K, M, N, gamma)
    cols = tuple(config.coefficient_ids())
    grid = list(itertools.product(range(gamma + 2), repeat=len(cols)))
    ds = direction_set(cols, grid)
    dests = range(1, N + 1)
    inside = within_oracle(config, ds.columns, ds.matrix, dests)
    for i, dest in enumerate(dests):
        members = materialize(config, dest)
        assert within_oracle(config, members.columns, members.matrix, [dest]).all()
        members = {tuple(row) for row in members.matrix.tolist()}
        assert [tuple(row) in members for row in ds.matrix.tolist()] == inside[:, i].tolist()
    assert within(config, ds).tolist() == inside.any(axis=1).tolist()


def test_reference_rejects_foreign_monomial():
    config = cfg(2, 1, 1, 1)
    # a lone cross gain with no matching direct-link factor cannot arise
    assert not within_oracle(config, [(1, 2, 1, 1)], [[1]], (1,))[0, 0]
    assert within_oracle(config, [(1, 2, 1, 1)], [[0]], (1,))[0, 0]


# ------------------------------------------------------------ verification


def test_expand_received_single_user():
    # two transmit antennas, two receive antennas, nobody else: the only
    # interference is the user's own off-antenna leakage
    plan = full_plan(cfg(1, 2, 2, 2))
    prof = expand_received(plan, 1, 1)
    assert len(prof.interference) == 4
    assert closed_form_counts(plan.config)[1] == 4  # the union, exactly
    assert prof.multiplicity.tolist() == [1] * 4


def test_multiplicity_counts_every_arrival():
    # each of the K*M*N - M streams not desired at an antenna arrives with
    # all L of its directions, and the interference set keeps one count per
    # distinct arrival, in its own order
    config = cfg(3, 1, 2, 1)
    plan = full_plan(config)
    L, _ = closed_form_counts(config)
    prof = expand_received(plan, 2, 1)
    counts = prof.multiplicity
    assert counts.dtype == np.int64 and not counts.flags.writeable
    assert counts.sum() == (3 * 1 * 2 - 1) * L
    assert len(counts) == len(prof.interference)
    assert counts.max() > 1
    # each arrival is its stream's set times the two gains it crossed
    arrived = Counter()
    for (j, mp, np_), base in plan.streams.items():
        if (j, np_) != (2, 1):
            tag = {(j, j, np_, mp): 1, (2, j, 1, mp): 1}
            arrived.update(map(tuple, scale(base, tag).matrix.tolist()))
    rows = map(tuple, prof.interference.matrix.tolist())
    assert dict(zip(rows, counts.tolist())) == arrived


def test_expand_received_no_cross_terms_when_alone():
    plan = full_plan(cfg(1, 1, 1))
    prof = expand_received(plan, 1, 1)
    assert len(prof.interference) == 0
    assert closed_form_counts(plan.config)[0] == 1
    # the one direction arriving is the desired H[1,1](1,1)^2
    assert prof.distinct_directions == 1
    assert prof.desired_overlap is None


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
    report = verify_alignment(config)
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
    report = verify_alignment(config)
    assert report.passed
    assert len(report.antennas) == config.K * config.N
    for v in report.antennas:
        assert v.l_observed == config.M * L
        assert v.l_prime_observed == lp


def test_verify_report_json_shape():
    report = verify_alignment(cfg(2))
    d = report.to_json_dict()
    assert d["pass"] is True
    assert d["config"] == {"K": 2, "M": 1, "N": 1, "gamma": 1}
    assert len(d["per_antenna"]) == 2
    row = d["per_antenna"][0]
    assert set(row) == {"k", "n", "L_observed", "L_prime_observed", "checks"}


def test_verify_truncated_plan():
    # the simulator's plans: verify_alignment takes the full construction
    # only, so the row oracle checks that a kept prefix stays aligned
    report = verify_oracle(build_transmit_directions(cfg(3), 4), cap=4)
    assert report.passed
    for v in report.antennas:
        assert v.l_observed == 4
    # a cap that cuts (3,1,2,1) streams of 1024 directions to 100
    report = verify_oracle(build_transmit_directions(cfg(3, 1, 2), 100), cap=100)
    assert report.passed
    assert {v.l_observed for v in report.antennas} == {100}


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

    report = verify_alignment(config)
    assert report.passed
    for v in report.antennas:
        assert v.l_prime_observed == expected_union

    # One direction more than the construction at (3,1,1,1) pushes antenna
    # (1,1) past the exact count, and only that check fails there.
    report = verify_oracle(overcounted_plan)
    assert not report.passed
    v = report.antennas[0]
    assert (v.k, v.n, v.l_prime_observed) == (1, 1, 29)
    assert closed_form_counts(overcounted_plan.config)[1] == 28
    failed = {name for name, ok in v.checks.items() if not ok}
    assert failed == {"l_prime_within_bound"}


# ------------------------------------------------------ single-pass profile


def expand_oracle(plan, k, n):
    """Antenna (k, n)'s profile from pairwise set operations, as
    expand_received built it before its single sorted pass: each desired
    set scaled by the squared direct gain, the arrivals tallied, then one
    intersection per desired set and a union of everything.  The fields
    come back as a dict keyed by ReceiverProfile's field names, with the
    desired sets and whether two of them share a direction beside them."""
    config = plan.config
    desired = {
        m: scale(plan.streams[(k, m, n)], {(k, k, n, m): 2})
        for m in range(1, config.M + 1)
    }
    cols = tuple(config.coefficient_ids())
    index = {cid: c for c, cid in enumerate(cols)}
    arrivals = [np.zeros((0, len(cols)), dtype=np.int64)]
    for (j, mp, np_), base in plan.streams.items():
        if j == k and np_ == n:
            continue
        tag = np.zeros(len(cols), dtype=np.int64)
        tag[[index[(j, j, np_, mp)], index[(k, j, n, mp)]]] = 1
        arrivals.append(base.matrix + tag)
    stack = np.concatenate(arrivals)
    _check_exponents(stack)
    order, start = _runs(stack)
    interference = DirectionSet._of(cols, stack[order[start]])
    counts = np.bincount(np.cumsum(start) - 1)
    overlap = None
    for dset in desired.values():
        shared = intersect(dset, interference)
        if len(shared):
            row = shared.matrix[0].tolist()
            overlap = {cid: e for cid, e in zip(shared.columns, row) if e}
            break
    siblings = any(
        len(intersect(desired[a], desired[b]))
        for a, b in itertools.combinations(desired, 2)
    )
    seen = reduce(union, desired.values(), interference)
    has_unit = bool((seen.matrix == 0).all(axis=1).any())
    return {
        "desired": desired,
        "interference": interference,
        "multiplicity": counts,
        "desired_overlap": overlap,
        "siblings_overlap": siblings,
        "distinct_directions": len(seen) - has_unit,
    }


def assert_profiles_match_oracle(plan):
    config = plan.config
    for k in range(1, config.K + 1):
        for n in range(1, config.N + 1):
            prof = expand_received(plan, k, n)
            want = expand_oracle(plan, k, n)
            assert prof.interference.columns == want["interference"].columns
            assert np.array_equal(prof.interference.matrix, want["interference"].matrix)
            assert prof.multiplicity.dtype == np.int64
            assert not prof.multiplicity.flags.writeable
            assert prof.multiplicity.tolist() == want["multiplicity"].tolist()
            assert prof.desired_overlap == want["desired_overlap"]
            assert prof.distinct_directions == want["distinct_directions"]


def with_rows(plan, added):
    """The plan with extra rows, given as {coefficient id: exponent}
    mappings over the config's ids, on the named streams."""
    streams = dict(plan.streams)
    cols = tuple(plan.config.coefficient_ids())
    for stream, rows in added.items():
        assert all(set(row) <= set(cols) for row in rows)
        extra = [[row.get(cid, 0) for cid in cols] for row in rows]
        streams[stream] = direction_set(cols, [*streams[stream].matrix.tolist(), *extra])
    return dataclasses.replace(plan, streams=streams)


@pytest.mark.parametrize(
    "config", lattice_configs(), ids=lambda c: f"{c.K}-{c.M}-{c.N}-{c.gamma}"
)
def test_profile_equals_oracle_at_every_lattice_config(config):
    # the full plan, and the plans simulate expands: each stream's first
    # cap rows
    assert_profiles_match_oracle(full_plan(config))
    for cap in (1, 2, 3):
        assert_profiles_match_oracle(build_transmit_directions(config, cap))


def test_expand_received_index_guard():
    plan = build_transmit_directions(cfg(2, 1, 2), 1)
    for k, n in [(0, 1), (3, 1), (1, 0), (1, 3)]:
        with pytest.raises(IndexError, match="out of range"):
            expand_received(plan, k, n)


def test_profile_equals_oracle_on_overcounted_plan(overcounted_plan):
    assert_profiles_match_oracle(overcounted_plan)
    assert len(expand_received(overcounted_plan, 1, 1).interference) == 29


def test_profile_equals_oracle_when_desired_is_interference():
    # the simulator's refusal path: stream (2,1,1) arrives at antenna (1,1)
    # on two of the desired directions, and the lower one is reported
    H11, H12, H22 = (1, 1, 1, 1), (1, 2, 1, 1), (2, 2, 1, 1)
    plan = TransmitPlan(
        config=cfg(2),
        streams={
            (1, 1, 1): monomials({}, {H11: 1, H12: 1, H22: 1}, {H12: 1, H22: 1}),
            (2, 1, 1): monomials({H11: 3}, {H11: 2}),
        },
    )
    assert_profiles_match_oracle(plan)
    prof = expand_received(plan, 1, 1)
    assert prof.desired_overlap == {H11: 2, H12: 1, H22: 1}
    checks = verify_oracle(plan).antennas[0].checks
    assert not checks["desired_disjoint_from_interference"]
    assert checks["desired_pairwise_disjoint"]


def test_profile_equals_oracle_when_siblings_overlap():
    # M = 2: sibling desired sets share x * H[1,1](1,1)^2 * H[1,1](1,2)^2
    # at antenna (1,1), and both meet interference from stream (2,1,1).
    # Antenna 2's overlap sorts first, but antenna 1's is the one reported.
    H111, H112 = (1, 1, 1, 1), (1, 1, 1, 2)
    H12, H22 = (1, 2, 1, 1), (2, 2, 1, 1)
    plan = with_rows(
        full_plan(cfg(2, 2, 1, 1)),
        {
            (1, 1, 1): [{H112: 2}, {H112: 5, H12: 1, H22: 1}],
            (1, 2, 1): [{H111: 2}, {H111: 1, H12: 1, H22: 1}],
            (2, 1, 1): [{H111: 2, H112: 5}, {H111: 1, H112: 2}],
        },
    )
    assert_profiles_match_oracle(plan)
    prof = expand_received(plan, 1, 1)
    assert prof.desired_overlap == {H111: 2, H112: 5, H12: 1, H22: 1}
    checks = verify_oracle(plan).antennas[0].checks
    assert not checks["desired_pairwise_disjoint"]
    assert not checks["desired_disjoint_from_interference"]


# ------------------------------------------------ boxes against rows


def verify_oracle(plan, cap=None):
    """The alignment report of a plan, read off each antenna's rows: its
    profile, desired sets and sibling overlap from pairwise set operations
    (expand_oracle, pinned against expand_received), then reference
    membership of the whole interference set (within_oracle).
    This is verify_alignment as it was before it decided on boxes, and it
    takes any plan, a kept prefix or built by hand: cap is the number of
    rows each stream was kept to, or None for the full construction."""
    config = plan.config
    L, l_prime = closed_form_counts(config)
    expected = L if cap is None else min(cap, L)
    verdicts = []
    for k in range(1, config.K + 1):
        for n in range(1, config.N + 1):
            prof = expand_oracle(plan, k, n)
            desired = prof["desired"]
            m_star = len(prof["interference"])
            inside = bool(within(config, prof["interference"]).all())
            counts_ok = all(len(ds) == expected for ds in desired.values()) and all(
                len(plan.streams[(k, m, n)]) == expected for m in desired
            )
            checks = {
                "desired_pairwise_disjoint": not prof["siblings_overlap"],
                "desired_disjoint_from_interference": prof["desired_overlap"] is None,
                "interference_within_reference": inside,
                "l_prime_within_bound": m_star <= l_prime,
                "stream_counts_match": counts_ok,
            }
            verdicts.append(
                AntennaVerdict(
                    k=k,
                    n=n,
                    l_observed=sum(len(ds) for ds in desired.values()),
                    l_prime_observed=m_star,
                    checks=checks,
                )
            )
    return AlignmentReport(config=config, antennas=tuple(verdicts))


@pytest.mark.parametrize(
    "config", lattice_configs(), ids=lambda c: f"{c.K}-{c.M}-{c.N}-{c.gamma}"
)
def test_verify_equals_oracle_at_every_lattice_config(config, capsys):
    # directions prints the oracle's report byte for byte, as text and JSON
    oracle = verify_oracle(full_plan(config))
    assert verify_alignment(config).to_json_dict() == oracle.to_json_dict()
    L, lp = closed_form_counts(config)
    argv = ["directions", "-K", str(config.K), "-M", str(config.M), "-N", str(config.N)]
    argv += ["--gamma", str(config.gamma)]
    assert cli.main(argv) == (cli.EXIT_OK if oracle.passed else cli.EXIT_CHECK_FAILED)
    assert capsys.readouterr().out == cli._render_alignment(oracle, L, lp)
    cli.main(argv + ["--json"])
    payload = {"schema": cli.SCHEMA, "command": "directions", **oracle.to_json_dict()}
    assert capsys.readouterr().out == cli._json_text(payload)


# Configs whose every stream fits a few hundred rows under the drawn caps.
RULE_CONFIGS = (
    cfg(2), cfg(2, gamma=2), cfg(3), cfg(2, 2, 1), cfg(2, 1, 2), cfg(1, 2, 2), cfg(1, 1, 3)
)
RULE_STREAM_ROWS = 300


@st.composite
def cap_rules(draw):
    """A config and a table of caps, one per (stream, family at its
    destination), each in [-1, gamma + 1] and clamped so that every
    stream keeps at most RULE_STREAM_ROWS rows."""
    config = draw(st.sampled_from(RULE_CONFIGS))
    K, M, N = config.K, config.M, config.N
    table = {}
    for stream in itertools.product(range(1, K + 1), range(1, M + 1), range(1, N + 1)):
        rows = 1
        for fam in families(K, M, N, stream[2]):
            cap = min(draw(st.integers(-1, config.gamma + 1)), RULE_STREAM_ROWS // rows - 1)
            rows *= max(cap, 0) + 1
            table[stream, fam] = cap
    return config, table


@given(cap_rules())
def test_verify_equals_oracle_on_random_cap_rules(rule):
    # the patched rule feeds both the row build and the boxes; counts,
    # reference membership and L' fail on most draws
    config, table = rule
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iadof.alignment, "stream_family_cap", lambda s, f, g: table[s, f])
        oracle = verify_oracle(full_plan(config))
        assert verify_alignment(config).to_json_dict() == oracle.to_json_dict()


@given(cap_rules(), st.data())
def test_walk_equals_full_plan_prefix_on_random_cap_rules(rule, data):
    # every stream of the patched rule, at one cap in 1..L + 1 for the
    # rule's largest stream set
    config, table = rule
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iadof.alignment, "stream_family_cap", lambda s, f, g: table[s, f])
        full = full_plan(config)
        top = max(len(ds) for ds in full.streams.values())
        cap = data.draw(st.integers(1, top + 1))
        for stream, ds in full.streams.items():
            rows = iadof.alignment._stream_rows(config, stream, cap).matrix
            assert np.array_equal(rows, ds.matrix[:cap])


def test_union_walk_skips_empty_intersections():
    # (2,19,1,1): each antenna sees 19 arrivals of 524,288 directions, one
    # from each transmit antenna of the other user.  They restrict the same
    # coordinates, so they form one group, and siblings are disjoint, so the
    # walk in it visits 19 intersections, not 2**19 - 1
    config = cfg(2, 19)
    t0 = time.perf_counter()
    report = verify_alignment(config)
    assert time.perf_counter() - t0 < 2.0
    assert report.passed
    assert {v.l_prime_observed for v in report.antennas} == {closed_form_counts(config)[1]}


def item1_l_prime(config):
    """L' with every sibling family run to gamma: N*A^K - A*B^(K-1) -
    (N-1)*B^K with A = (gamma+1)^(M(KN-1)) and B = ((gamma+1)^(KN-1) -
    gamma^(KN-1))^M."""
    K, M, N, G = config.K, config.M, config.N, config.gamma
    own = K * N - 1
    A = (G + 1) ** (M * own)
    B = ((G + 1) ** own - G**own) ** M
    return N * A**K - A * B ** (K - 1) - (N - 1) * B**K


@pytest.mark.parametrize("config", [cfg(2, 19), cfg(1, 40, 2)], ids=["2-19-1-1", "1-40-2-1"])
def test_union_factors_when_siblings_overlap(config, monkeypatch):
    # with sibling families run to gamma, every arrival of one user covers
    # its siblings' families, so the arrivals overlap pairwise: one walk
    # over them would visit 2**19 - 1 (2**40 - 1) intersections.  Each box
    # restricts only its own block, so the factored union walks one box a
    # group.  .passed is not asserted: closed_form_counts keeps the rule
    # that pins siblings at 0
    def sibling_to_gamma(stream, fam, gamma):
        if fam[0] == stream[0]:
            return gamma - 1 if fam[1] == stream[1] else gamma
        return gamma

    monkeypatch.setattr(iadof.alignment, "stream_family_cap", sibling_to_gamma)
    t0 = time.perf_counter()
    report = verify_alignment(config)
    assert time.perf_counter() - t0 < 2.0
    assert {v.l_prime_observed for v in report.antennas} == {item1_l_prime(config)}


def union_box(lo, hi):
    return _Source(1, tuple(lo), tuple(hi), (0,), frozenset())


@st.composite
def union_boxes(draw):
    """Boxes in up to 5 coordinates inside a base box [0, top]: each spans
    the base box outside a drawn set of coordinates, which may be empty."""
    top = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    boxes = []
    for _ in range(draw(st.integers(0, 5))):
        lo, hi = [0] * len(top), list(top)
        for c in sorted(draw(st.sets(st.integers(0, len(top) - 1)))):
            lo[c] = draw(st.integers(0, top[c]))
            hi[c] = draw(st.integers(lo[c], top[c]))
        boxes.append(union_box(lo, hi))
    return boxes


@given(union_boxes())
@example([])  # no box
@example([union_box([1, 0], [2, 3])])  # a single box
@example(  # one box equals the bounding box
    [union_box([0, 0], [3, 3]), union_box([1, 1], [2, 2]), union_box([0, 1], [3, 1])]
)
@example(  # three groups, each restricting its own coordinate
    [
        union_box([1, 0, 0], [1, 2, 2]),
        union_box([0, 0, 2], [2, 2, 2]),
        union_box([0, 1, 0], [2, 1, 2]),
    ]
)
@example(  # a group joined through a shared coordinate, beside a group of one
    [
        union_box([0, 0, 0, 0], [1, 3, 3, 3]),
        union_box([1, 2, 0, 0], [3, 3, 3, 3]),
        union_box([2, 0, 0, 0], [3, 1, 3, 3]),
        union_box([0, 0, 0, 1], [3, 3, 3, 1]),
    ]
)
def test_union_size_equals_point_count(boxes):
    # up to two boxes are walked whole; from three on they are grouped
    points = set()
    for box in boxes:
        points.update(itertools.product(*(range(l, h + 1) for l, h in zip(box.lo, box.hi))))
    assert _union_size(boxes) == len(points)


def test_verify_checks_arrivals_apart_across_destinations(monkeypatch):
    # L' adds up one union per destination, so the verifier refuses to
    # count when two arrivals of different destinations would meet
    monkeypatch.setattr(iadof.alignment, "_meets", lambda a, b, index: a.dest != b.dest)
    with pytest.raises(RuntimeError, match=r"arrivals of destinations 2 and 1 meet at antenna \(1,1\)"):
        verify_alignment(cfg(2, 1, 2))


def box_rows(config, src):
    """Every row of a source's box, as tuples over the config's columns:
    each family's exponent on its cross coefficient and on its block's
    direct at src.dest, plus each block's beta on that direct."""
    cols = tuple(config.coefficient_ids())
    blocks = [(t, m) for t in range(1, config.K + 1) for m in range(1, config.M + 1)]
    base = Counter({(t, t, src.dest, m): b for (t, m), b in zip(blocks, src.beta)})
    rows = set()
    for point in itertools.product(*(range(l, h + 1) for l, h in zip(src.lo, src.hi))):
        exps = base.copy()
        for fam, x in zip(families(config.K, config.M, config.N, src.dest), point):
            for cid in family_pair(fam, src.dest):
                exps[cid] += x
        rows.add(tuple(exps[cid] for cid in cols))
    return rows


def small_boxes(config):
    """Boxes at every destination with at most one positive lower bound, 1
    or 2, every interval of width 0 or 1, and beta 0, or 2 on one block."""
    blocks = config.K * config.M
    betas = [(0,) * blocks] + [tuple(2 * (i == b) for i in range(blocks)) for b in range(blocks)]
    for dest in range(1, config.N + 1):
        fams = families(config.K, config.M, config.N, dest)
        for raised, lift in [(None, 0), *itertools.product(range(len(fams)), (1, 2))]:
            lo = [0] * len(fams)
            if raised is not None:
                lo[raised] = lift
            for width, beta in itertools.product((0, 1), betas):
                hi = tuple(low + width for low in lo)
                reach = _reach(dest, lo, beta, fams, config.N)
                yield _Source(dest, tuple(lo), hi, beta, reach)


@pytest.mark.parametrize(
    "config", [cfg(2, 1, 2), cfg(1, 2, 2), cfg(1, 1, 3)], ids=lambda c: f"{c.K}-{c.M}-{c.N}"
)
def test_meets_equals_shared_rows(config):
    # the box lemmas, one destination or two, against the boxes' rows, over
    # every pair of small boxes; the construction's own sources only ever
    # reach the beta and reach tests
    index = {
        d: {f: i for i, f in enumerate(families(config.K, config.M, config.N, d))}
        for d in range(1, config.N + 1)
    }
    boxes = [(box, box_rows(config, box)) for box in small_boxes(config)]
    across = 0
    for (a, rows_a), (b, rows_b) in itertools.product(boxes, repeat=2):
        shared = bool(rows_a & rows_b)
        assert _meets(a, b, index) == shared
        across += shared and a.dest != b.dest
    assert across > 0


def test_codes_span_several_words(monkeypatch):
    # tagged rows at the degree limit put exponents of 10^6 at antenna
    # (1,1) and 10^6 - 1 at (2,1) in the stacks: the key sort of every
    # stack equals the oracle's sort on packed uint64 words (three keys to
    # a word), and every profile equals its oracle
    H11, H12, H21 = (1, 1, 1, 1), (1, 2, 1, 1), (2, 1, 1, 1)
    top = MAX_TOTAL_DEGREE - 2
    plan = with_rows(
        full_plan(cfg(2, 1, 1, 2)),
        {
            (1, 1, 1): [{H11: top}, {H12: top}, {H21: top}],
            (2, 1, 1): [{H12: top - 1, H21: 1}, {H21: top}],
        },
    )
    stacks = []
    runs = iadof.alignment._runs

    def kept(exps):
        stacks.append(exps.copy())
        return runs(exps)

    monkeypatch.setattr(iadof.alignment, "_runs", kept)
    for k in (1, 2):
        expand_received(plan, k, 1)
    monkeypatch.undo()
    assert [int(s.max()) for s in stacks] == [MAX_TOTAL_DEGREE, MAX_TOTAL_DEGREE - 1]
    for stack in stacks:
        assert_runs_match_oracle(stack)
    assert_profiles_match_oracle(plan)


def test_plan_degree_limit_matches_stack_check():
    # every stream is a source at every antenna and every tag adds 2 to a
    # row's degree: a stream row of degree MAX_TOTAL_DEGREE - 2 is accepted
    # and one unit more is refused, with the message the stacked rows gave
    H12, H21 = (1, 2, 1, 1), (2, 1, 1, 1)
    base = full_plan(cfg(2))
    at_limit = with_rows(base, {(2, 1, 1): [{H12: MAX_TOTAL_DEGREE - 3, H21: 1}]})
    over = with_rows(base, {(2, 1, 1): [{H12: MAX_TOTAL_DEGREE - 2, H21: 1}]})
    assert_profiles_match_oracle(at_limit)
    message = f"total degree {MAX_TOTAL_DEGREE + 1} exceeds {MAX_TOTAL_DEGREE}"
    for k in (1, 2):
        with pytest.raises(OverflowError, match=message):
            expand_received(over, k, 1)
        # the row is an arrival at antenna (1,1) and desired at (2,1): the
        # oracle's arrival tally and desired scale both refuse it
        with pytest.raises(OverflowError, match=message):
            expand_oracle(over, k, 1)
        expand_oracle(at_limit, k, 1)


# ------------------------------------------------------ work and memory


def test_directions_builds_no_rows(monkeypatch, capsys):
    # every row-path step raises, and directions prints what it printed
    # before, at (3,1,2,1) and at (3,2,2,1), where L = 1,048,576
    cases = [["-K", "3", "-M", "1", "-N", "2"], ["-K", "3", "-M", "2", "-N", "2"]]
    want = []
    for case in cases:
        assert cli.main(["directions", *case, "--json"]) == 0
        want.append(capsys.readouterr().out)

    def row_path(*args, **kwargs):
        raise AssertionError("directions formed exponent rows")

    for module, name in [
        (iadof.alignment, "_stream_rows"),
        (iadof.alignment, "_runs"),
        (iadof.directions, "_runs"),
        (iadof.alignment, "expand_received"),
    ]:
        monkeypatch.setattr(module, name, row_path)
    for case, out in zip(cases, want):
        assert cli.main(["directions", *case, "--json"]) == 0
        assert capsys.readouterr().out == out


def test_directions_memory_stays_small(capsys):
    # tracemalloc peak of the align_lattice workload's largest command,
    # warm: 25 KiB on boxes, 2.97 MiB grouping rows on codes, 3.8 MiB with
    # one stacked exponent matrix per antenna
    argv = ["directions", "-K", "3", "-M", "1", "-N", "2", "--json"]
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 64 * 2**10
