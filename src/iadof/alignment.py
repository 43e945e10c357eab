"""Monomial direction construction and symbolic alignment verification.

Each transmit stream gets a finite set of monomial directions built from
coefficient pairs; receivers then see desired streams on squared direct
gains and interference confined (by construction) to a common reference
family per receive antenna.  Verification is exact: set relations are
decided on integer exponents, never on evaluated floats.

verify_alignment decides every count and check on boxes and forms no
exponent row.  In the family coordinates of its destination antenna,
every stream set, arrival and desired set is a box: each pair family's
exponent in an interval, and each transmit-antenna block's direct exponent
the sum of the block's other exponents plus a fixed beta.  Sizes are
products of interval lengths, disjointness and reference membership are
read off the intervals (_meets), and the interference dimension L' is an
inclusion-exclusion over intersections of boxes (_union_size), all in
Python integers, so it decides configs whose rows could not be enumerated.

The simulator needs rows.  There every direction set is an integer
exponent matrix over the config's coefficient ids (see directions.py): a
stream set is a box of pair-family exponents times the family incidence
matrix, and an arrival is a row add.  expand_received stacks every row
arriving at a receive antenna, desired sets first, and reads the whole
profile off one canonical sort of the stack (directions._runs), whose runs
of equal rows are the distinct directions.  The integer products (sort
codes, box points) run as float64 products, which BLAS computes exactly
here; directions._code_weights gives the argument for the codes, and _box
for the box points.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from types import MappingProxyType
from typing import NamedTuple, Optional

import numpy as np

from .channel import CoefficientId, SystemConfig
from .directions import (
    MAX_TOTAL_DEGREE,
    Columns,
    DirectionSet,
    _check_exponents,
    _runs,
    merge_columns,
)

# (k, m, n): stream of user k, transmit antenna m, destined receive antenna n
Stream = tuple[int, int, int]
# (j, mp, np, i): direct gain of tx j antenna mp paired with the gain from
# that same antenna into receive antenna np of user i
PairFamily = tuple[int, int, int, int]

DEFAULT_STREAM_BUDGET = 10**6


def count_text(n: int) -> str:
    """A non-negative count in decimal, or, past the interpreter's limit on
    int to decimal conversion, as 2^B or more than 2^B."""
    try:
        return str(n)
    except ValueError:
        b = n.bit_length() - 1
        return f"2^{b}" if n == 1 << b else f"more than 2^{b}"


class EnumerationBudgetError(RuntimeError):
    """Raised before starting an enumeration whose exact size is over budget."""

    def __init__(self, required: int, budget: int, what: str = "enumeration"):
        super().__init__(
            f"{what} would produce {count_text(required)} directions, budget is {budget}"
        )
        self.required = required
        self.budget = budget


@lru_cache(maxsize=None)
def families(K: int, M: int, N: int, dest: int) -> tuple[PairFamily, ...]:
    """All pair families feeding receive antenna dest, in lexicographic order.

    i == j with np == dest would square one direct coefficient instead of
    pairing two distinct ones, so that diagonal is excluded; KM(KN-1)
    families remain.
    """
    if not 1 <= dest <= N:
        raise IndexError(f"dest antenna {dest} out of range (N={N})")
    out = []
    for j in range(1, K + 1):
        for mp in range(1, M + 1):
            for np_ in range(1, N + 1):
                for i in range(1, K + 1):
                    if i == j and np_ == dest:
                        continue
                    out.append((j, mp, np_, i))
    return tuple(out)


def family_pair(fam: PairFamily, dest: int) -> tuple[CoefficientId, CoefficientId]:
    """The two coefficient ids multiplied by one unit of this family."""
    j, mp, np_, i = fam
    return (j, j, dest, mp), (i, j, np_, mp)


def stream_family_cap(stream: Stream, fam: PairFamily, gamma: int) -> int:
    """Largest exponent stream (k, m, n) may put on fam within its dest system.

    Own-antenna families stop one step early so interference can take the
    final step and still land inside the reference family; other antennas of
    the same user stay silent; other users' families run the full range.
    """
    k, m, _ = stream
    j, mp = fam[0], fam[1]
    if j == k:
        return gamma - 1 if mp == m else 0
    return gamma


def closed_form_counts(config: SystemConfig) -> tuple[int, int]:
    """(directions per stream L, exact interference dimension L' per antenna).

    Each interfering stream arrives at a receive antenna as a box in the
    family coordinates of the stream's destination antenna index: its own
    user's block holds gamma^(KN-1) points with the sibling antennas'
    families pinned at 0, and every other user's block is the full
    A = (gamma+1)^(M(KN-1)) points.  Sibling boxes are disjoint and boxes of
    different destination indices share no monomial, so a point of one
    destination's coordinates misses every box iff each user's block misses
    that user's sibling boxes: B = A - M*gamma^(KN-1) points per user, or
    all A for the receiving user at its own index, whose streams there are
    desired.  The union at one receive antenna is therefore

        L' = N*A^K - A*B^(K-1) - (N-1)*B^K.

    Only for M = 1 does this grow like N*A^K, which the paper's K*MN/(M+N)
    needs; for M > 1 it grows like (KN-1)*M*L (see achievable_dof_gamma).
    """
    K, M, N, G = config.K, config.M, config.N, config.gamma
    own = K * N - 1
    A = (G + 1) ** (M * own)
    B = A - M * G**own
    L = G**own * A ** (K - 1)
    l_prime = N * A**K - A * B ** (K - 1) - (N - 1) * B**K
    return L, l_prime


def per_antenna_dof_gamma(config: SystemConfig) -> Fraction:
    """Exact DoF of one receive antenna at finite gamma: M*L desired
    dimensions over the whole space of M*L + L' + 1."""
    L, l_prime = closed_form_counts(config)
    M = config.M
    return Fraction(M * L, 1 + M * L + l_prime)


def achievable_dof_gamma(config: SystemConfig) -> Fraction:
    """Total DoF of the construction at finite gamma.

    For M = 1 it tends to the paper's K*MN/(M+N) = K*N/(1+N) as gamma
    grows.  For M > 1 it does not: sibling transmit antennas of one user
    use unaligned direction sets, L' grows like (KN-1)*M*L, and the total
    tends to 1 (at K=3, M=2, N=1 it falls from 1.043 at gamma=1 towards 1,
    against the paper's 2).
    """
    return config.K * config.N * per_antenna_dof_gamma(config)


@dataclass(frozen=True)
class TransmitPlan:
    """Direction sets for every stream of a config.

    truncation_cap is None for the full construction, or the per-stream cap
    applied by truncate_plan.  streams is a read-only copy of the mapping
    given, and direction sets are immutable, so a plan never changes after
    it is built; profiles, keyed by (k, n), keeps each receive antenna's
    ReceiverProfile once the simulator has expanded it.  Every plan starts
    with an empty memo of its own, including one made by
    dataclasses.replace.
    """

    config: SystemConfig
    streams: Mapping[Stream, DirectionSet]
    truncation_cap: Optional[int] = None
    profiles: dict[tuple[int, int], ReceiverProfile] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "streams", MappingProxyType(dict(self.streams)))


@lru_cache(maxsize=64)
def _columns(config: SystemConfig) -> Columns:
    return tuple(config.coefficient_ids())


def _box(config: SystemConfig, dest: int, caps: dict[PairFamily, int]) -> DirectionSet:
    """Every product of the given pair families at dest, family f raised to
    each power 0..caps[f]: the box of family exponents times the incidence
    matrix of families and coefficient ids, sorted into canonical order.

    A box point's total degree is 2 * sum(x), so the corner 2 * sum(caps)
    is held to MAX_TOTAL_DEGREE before the product; that keeps every
    partial sum of the float64 product an exact integer.  A family's second
    coefficient belongs to no other family at dest (families excludes the
    one family whose two coefficients coincide), so each point's exponents
    read back from its row: box points are distinct monomials, and the rows
    are sorted without being deduplicated.
    """
    total = 2 * sum(caps.values())
    if total > MAX_TOTAL_DEGREE:
        raise OverflowError(f"total degree {total} exceeds {MAX_TOTAL_DEGREE}")
    cols = _columns(config)
    index = {cid: c for c, cid in enumerate(cols)}
    incidence = np.zeros((len(caps), len(cols)))
    for f, fam in enumerate(caps):
        for cid in family_pair(fam, dest):
            incidence[f, index[cid]] += 1
    private = np.count_nonzero(incidence, axis=0) == 1
    if not incidence[:, private].any(axis=1).all():
        raise RuntimeError(f"a pair family at dest {dest} has no column of its own")
    shape = [cap + 1 for cap in caps.values()]
    choices = np.indices(shape, dtype=np.float64).reshape(len(shape), math.prod(shape))
    exps = (choices.T @ incidence).astype(np.int64)
    order, _ = _runs(exps)
    return DirectionSet._of(cols, exps[order])


def _build_stream(config: SystemConfig, k: int, m: int, n: int) -> DirectionSet:
    caps = {}
    for fam in families(config.K, config.M, config.N, n):
        cap = stream_family_cap((k, m, n), fam, config.gamma)
        if cap > 0:
            caps[fam] = cap
    return _box(config, n, caps)


def build_transmit_directions(
    config: SystemConfig, budget: int = DEFAULT_STREAM_BUDGET
) -> TransmitPlan:
    """Enumerate every stream's direction set exactly.

    The size is known in closed form before enumerating, so a config over
    budget fails fast with the required count attached.
    """
    L, _ = closed_form_counts(config)
    if L > budget:
        raise EnumerationBudgetError(L, budget, "per-stream enumeration")
    streams = {
        (k, m, n): _build_stream(config, k, m, n)
        for k in range(1, config.K + 1)
        for m in range(1, config.M + 1)
        for n in range(1, config.N + 1)
    }
    return TransmitPlan(config=config, streams=streams, truncation_cap=None)


def truncate_plan(plan: TransmitPlan, cap: int) -> TransmitPlan:
    """Keep only the first cap directions of every stream (canonical order)."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    return TransmitPlan(
        config=plan.config,
        streams={s: ds.head(cap) for s, ds in plan.streams.items()},
        truncation_cap=cap,
    )


@dataclass(frozen=True, eq=False)
class ReceiverProfile:
    """Everything one receive antenna observes under a plan.

    desired maps each own transmit antenna m to its arrived direction set
    (stream set times the squared direct gain); interference is the union of
    all other arrivals; multiplicity is a read-only count array aligned with
    interference's rows: the number of stream arrivals aligned onto each
    interference direction.

    desired_overlap is the first desired direction, by transmit antenna and
    then in member order, that is also an interference direction, as its
    {coefficient id: exponent} entries, or None when desired and
    interference are disjoint; siblings_overlap says whether two desired
    sets share a direction; distinct_directions counts the distinct
    non-unit directions arriving, desired and interference together.
    """

    k: int
    n: int
    desired: dict[int, DirectionSet]
    interference: DirectionSet
    multiplicity: np.ndarray
    desired_overlap: Optional[dict[CoefficientId, int]]
    siblings_overlap: bool
    distinct_directions: int

    @property
    def m_star(self) -> int:
        """Observed interference dimension (honest union size)."""
        return len(self.interference)


def expand_received(plan: TransmitPlan, k: int, n: int) -> ReceiverProfile:
    """Propagate every stream to receive antenna (k, n) symbolically.

    Each stream's rows arrive times two gains: the direct gain to its own
    receive antenna and the gain from its transmit antenna into (k, n).
    For an own stream (k, m, n) the two are one gain, squared, and its rows
    are desired set m; every other stream's rows are arrivals, repeats
    included.  The desired sets, then the arrivals, are stacked, held to
    the exponent limits (_check_exponents), and sorted once into canonical
    order (_runs), and each run of equal rows is one distinct direction.
    The runs that hold an arrival are the interference set, one row each,
    with their counts of arrivals as multiplicities; each desired set is
    its rows in run order; desired_overlap is the first of them, by
    transmit antenna, whose run holds an arrival.  A stream set has no
    repeated row and the squared gain keeps its rows apart, so a run holds
    at most one row of each desired set; every row carries two gains, so
    none is the unit.
    """
    config = plan.config
    if not 1 <= k <= config.K:
        raise IndexError(f"user {k} out of range (K={config.K})")
    if not 1 <= n <= config.N:
        raise IndexError(f"antenna {n} out of range (N={config.N})")
    stream_cols = (ds.columns for ds in plan.streams.values())
    cols = reduce(merge_columns, stream_cols, _columns(config))
    index = {cid: c for c, cid in enumerate(cols)}
    M = config.M
    sources = [(k, m, n) for m in range(1, M + 1)]
    sources += [(j, mp, np_) for j, mp, np_ in plan.streams if j != k or np_ != n]
    tags = np.zeros((len(sources), len(cols)), dtype=np.int64)
    for s, (j, mp, np_) in enumerate(sources):
        tags[s, index[(j, j, np_, mp)]] += 1
        tags[s, index[(k, j, n, mp)]] += 1
    lengths = [len(plan.streams[s]) for s in sources]
    stack = np.concatenate([plan.streams[s].matrix_over(cols) for s in sources])
    stack += np.repeat(tags, lengths, axis=0)
    _check_exponents(stack)
    order, start = _runs(stack)
    run = np.cumsum(start) - 1
    runs = int(np.count_nonzero(start))
    # each canonical position's source: desired set m is source m - 1
    source = np.repeat(np.arange(len(sources)), lengths)[order]
    arrived = source >= M
    arrivals = np.bincount(run[arrived], minlength=runs)
    hit = arrivals > 0
    counts = arrivals[hit]
    counts.flags.writeable = False
    desired = {}
    overlap = None
    for m in range(1, M + 1):
        mine = source == m - 1
        rows = stack[order[mine]]
        desired[m] = DirectionSet._of(cols, rows)
        shared = np.flatnonzero(hit[run[mine]])
        if overlap is None and shared.size:
            overlap = {cid: e for cid, e in zip(cols, rows[shared[0]].tolist()) if e}
    return ReceiverProfile(
        k=k,
        n=n,
        desired=desired,
        interference=DirectionSet._of(cols, stack[order[start][hit]]),
        multiplicity=counts,
        desired_overlap=overlap,
        siblings_overlap=bool((np.bincount(run[~arrived], minlength=runs) > 1).any()),
        distinct_directions=runs,
    )


@dataclass(frozen=True)
class AntennaVerdict:
    k: int
    n: int
    l_observed: int
    l_prime_observed: int
    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "L_observed": self.l_observed,
            "L_prime_observed": self.l_prime_observed,
            "checks": dict(self.checks),
        }


@dataclass(frozen=True)
class AlignmentReport:
    config: SystemConfig
    antennas: tuple[AntennaVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(a.ok for a in self.antennas)

    def to_json_dict(self) -> dict:
        c = self.config
        return {
            "config": {"K": c.K, "M": c.M, "N": c.N, "gamma": c.gamma},
            "per_antenna": [a.to_json_dict() for a in self.antennas],
            "pass": self.passed,
        }




class _Source(NamedTuple):
    """A stream set as it arrives at one receive antenna, as a box in the
    family coordinates of its destination antenna dest.

    The exponent of each family at dest, a cross exponent of the family's
    transmit-antenna block, lies in [lo, hi]; each block's direct exponent
    at dest is the sum of the block's crosses plus its beta, one entry per
    block in (t, m) order.  reach holds the other destinations at which
    some point of the box is balanced too (see _reach).
    """

    dest: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    beta: tuple[int, ...]
    reach: frozenset[int]


def _reach(dest: int, lo, beta, fams: tuple[PairFamily, ...], N: int) -> frozenset[int]:
    """The other destinations d2 at which some point of a box is balanced
    as well.

    At such a point each block solves 2R = -(beta1 + beta2), where R is the
    sum of the block's exponents off its directs at dest and d2; nothing is
    negative, so the point has beta 0 and R = 0 at both.  A box reaches d2
    only if its beta is 0 and every positive lower bound sits on a direct
    at d2, the family (t, m, d2, t).
    """
    if any(beta):
        return frozenset()
    raised = {(j == i, np_) for (j, _, np_, i), low in zip(fams, lo) if low}
    if not raised:
        return frozenset(range(1, N + 1)) - {dest}
    if len(raised) == 1:
        direct, d2 = raised.pop()
        if direct:
            return frozenset((d2,))
    return frozenset()


def _meets(a: _Source, b: _Source, index: dict[int, dict[PairFamily, int]]) -> bool:
    """Whether two sources at one antenna share a point.

    A row's crosses and beta at a destination read back from it.  So with
    one destination the boxes meet iff their betas agree and every family's
    intervals intersect.  With two, a shared point is balanced at both (see
    _reach): it is 0 off the two directs of every block, and y_d1 - y_d2 =
    R + beta1 = 0 puts one exponent on both.  The boxes then meet iff each
    reaches the other's destination and, in every block, a's interval for
    its direct at b.dest meets b's for its direct at a.dest.  index gives
    each family's position at each destination.
    """
    if a.dest == b.dest:
        return a.beta == b.beta and all(
            max(l1, l2) <= min(h1, h2) for l1, h1, l2, h2 in zip(a.lo, a.hi, b.lo, b.hi)
        )
    if b.dest not in a.reach or a.dest not in b.reach:
        return False
    # x: block (t, m)'s direct at b.dest in a's box, y: at a.dest in b's
    pairs = (
        (x, index[b.dest][t, m, a.dest, t])
        for (t, m, np_, i), x in index[a.dest].items()
        if i == t and np_ == b.dest
    )
    return all(max(a.lo[x], b.lo[y]) <= min(a.hi[x], b.hi[y]) for x, y in pairs)


def _union_size(boxes: list[_Source]) -> int:
    """The number of points in the union of boxes of one destination and
    one beta, by inclusion-exclusion: every intersection of boxes is the
    box of their per-family max lower and min upper bounds.  The walk
    extends only non-empty intersections, since every intersection that
    contains an empty one is empty: for a boxes it visits at most 2**a - 1
    of them, but only a when the boxes are pairwise disjoint, and it never
    forms them all at once."""
    total = 0
    stack = [(i + 1, box.lo, box.hi, 1) for i, box in enumerate(boxes)]
    while stack:
        start, lo, hi, sign = stack.pop()
        total += sign * math.prod(h - l + 1 for l, h in zip(lo, hi))
        for i in range(start, len(boxes)):
            lo2 = tuple(map(max, lo, boxes[i].lo))
            hi2 = tuple(map(min, hi, boxes[i].hi))
            if all(l <= h for l, h in zip(lo2, hi2)):
                stack.append((i + 1, lo2, hi2, -sign))
    return total


def verify_alignment(config: SystemConfig) -> AlignmentReport:
    """Run every check of the construction at every receive antenna, on
    boxes: no exponent row is formed.

    In the family coordinates of its destination antenna, every source at
    antenna (k, n) is a box (see _Source).  A stream set is the box of its
    caps (stream_family_cap) with beta 0.  An arrival adds one to the family
    of its two-gain tag, (j, mp, n, k) at the stream's destination, so it
    stays balanced; a desired set adds 2 to its own block's direct, beta 2.
    From that model:
    - a set's size is the product of its interval lengths (L_observed);
    - two sets are disjoint unless _meets finds a shared point;
    - an arrival lies in the reference family, every product of families
      at some destination with exponents in [0, gamma], iff its beta is 0
      and every interval lies in [0, gamma]: a point balanced at its own
      destination lies in another's reference only if balanced at both,
      where it has the same bounds in both;
    - L' is the sum over destinations of the union of that destination's
      arrivals (_union_size), once every pair of arrivals with different
      destinations has been checked to be disjoint (a RuntimeError if not).
    A failed check is reported, not raised; callers that need a hard
    failure (the CLI verify path) inspect .passed.
    """
    K, M, N, gamma = config.K, config.M, config.N, config.gamma
    L, l_prime = closed_form_counts(config)
    dests = range(1, N + 1)
    fams = {d: families(K, M, N, d) for d in dests}
    index = {d: {f: i for i, f in enumerate(fs)} for d, fs in fams.items()}
    caps = {
        (j, mp, d): [max(stream_family_cap((j, mp, d), f, gamma), 0) for f in fams[d]]
        for j in range(1, K + 1)
        for mp in range(1, M + 1)
        for d in dests
    }
    flat = (0,) * (K * M)

    def source(dest, lo, hi, beta):
        reach = _reach(dest, lo, beta, fams[dest], N)
        return _Source(dest, tuple(lo), tuple(hi), beta, reach)

    verdicts = []
    for k in range(1, K + 1):
        for n in dests:
            desired = []
            for m in range(1, M + 1):
                beta = list(flat)
                beta[(k - 1) * M + m - 1] = 2
                hi = caps[k, m, n]
                desired.append(source(n, [0] * len(hi), hi, tuple(beta)))
            arrivals = []
            for (j, mp, d), hi in caps.items():
                if j == k and d == n:
                    continue
                tag = index[d][j, mp, n, k]
                lo = [0] * len(hi)
                hi = list(hi)
                lo[tag] += 1
                hi[tag] += 1
                arrivals.append(source(d, lo, hi, flat))
            for a, b in combinations(arrivals, 2):
                if a.dest != b.dest and _meets(a, b, index):
                    raise RuntimeError(
                        f"arrivals of destinations {a.dest} and {b.dest} meet"
                        f" at antenna ({k},{n})"
                    )
            lengths = [math.prod(h + 1 for h in s.hi) for s in desired]
            l_prime_observed = sum(
                _union_size([a for a in arrivals if a.dest == d]) for d in dests
            )
            checks = {
                "desired_pairwise_disjoint": not any(
                    _meets(a, b, index) for a, b in combinations(desired, 2)
                ),
                "desired_disjoint_from_interference": not any(
                    _meets(a, b, index) for a in desired for b in arrivals
                ),
                "interference_within_reference": all(
                    not any(a.beta) and max(a.hi, default=0) <= gamma for a in arrivals
                ),
                "l_prime_within_bound": l_prime_observed <= l_prime,
                "stream_counts_match": all(size == L for size in lengths),
            }
            verdicts.append(
                AntennaVerdict(
                    k=k,
                    n=n,
                    l_observed=sum(lengths),
                    l_prime_observed=l_prime_observed,
                    checks=checks,
                )
            )
    return AlignmentReport(config=config, antennas=tuple(verdicts))
