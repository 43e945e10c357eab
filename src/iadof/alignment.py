"""Monomial direction construction and symbolic alignment verification.

Each transmit stream gets a finite set of monomial directions built from
coefficient pairs; receivers then see desired streams on squared direct
gains and interference confined (by construction) to a common reference
family per receive antenna.  Verification is exact: set relations are
checked on exponent vectors, never on evaluated floats.

Every direction set here is an integer exponent matrix over the config's
coefficient ids (see directions.py): a stream set is a box of pair-family
exponents times the family incidence matrix, an arrival is a row add, and
membership in the reference family is a set of column sums.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from types import MappingProxyType
from typing import Optional

import numpy as np

from .channel import CoefficientId, SystemConfig
from .directions import Columns, DirectionSet, merge_columns, tally

# (k, m, n): stream of user k, transmit antenna m, destined receive antenna n
Stream = tuple[int, int, int]
# (j, mp, np, i): direct gain of tx j antenna mp paired with the gain from
# that same antenna into receive antenna np of user i
PairFamily = tuple[int, int, int, int]

DEFAULT_STREAM_BUDGET = 10**6


class EnumerationBudgetError(RuntimeError):
    """Raised before starting an enumeration whose exact size is over budget."""

    def __init__(self, required: int, budget: int, what: str = "enumeration"):
        super().__init__(
            f"{what} would produce {required} directions, budget is {budget}"
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
    with an empty memo of its own, including one made by dataclasses.replace.
    """

    config: SystemConfig
    streams: Mapping[Stream, DirectionSet]
    truncation_cap: Optional[int] = None
    profiles: dict[tuple[int, int], ReceiverProfile] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "streams", MappingProxyType(dict(self.streams)))

    def stream(self, k: int, m: int, n: int) -> DirectionSet:
        return self.streams[(k, m, n)]


@lru_cache(maxsize=64)
def _columns(config: SystemConfig) -> Columns:
    return tuple(config.coefficient_ids())


def _box(config: SystemConfig, dest: int, caps: dict[PairFamily, int]) -> DirectionSet:
    """Every product of the given pair families at dest, family f raised to
    each power 0..caps[f]: the box of family exponents times the incidence
    matrix of families and coefficient ids."""
    cols = _columns(config)
    index = {cid: c for c, cid in enumerate(cols)}
    incidence = np.zeros((len(caps), len(cols)), dtype=np.int64)
    for f, fam in enumerate(caps):
        for cid in family_pair(fam, dest):
            incidence[f, index[cid]] += 1
    shape = [cap + 1 for cap in caps.values()]
    choices = np.indices(shape).reshape(len(shape), math.prod(shape)).T
    return DirectionSet.from_matrix(cols, choices @ incidence)


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


class ReferenceFamily:
    """Membership tests for the per-antenna interference superset.

    The superset at dest is every product of dest families with exponents in
    [0, gamma].  Membership needs no enumeration: second factors pin their
    family's exponent uniquely, so a direction is inside iff those pinned
    exponents stay within gamma and, per transmit antenna block, add up to
    the direct-coefficient exponent they must have produced.
    """

    __slots__ = ("config",)

    def __init__(self, config: SystemConfig):
        self.config = config

    def within_at(self, ds: DirectionSet, dests) -> np.ndarray:
        """Membership of every member of ds in the superset of each dest, as
        a (len(ds), len(dests)) boolean matrix.

        Columns fall into blocks by transmit antenna (t, m).  At dest, a
        block's direct coefficient (t, t, dest, m) must carry the sum of the
        block's other exponents, and each of those stays within gamma; both
        are column sums over the whole matrix, for every dest at once.
        """
        cols = ds.columns
        dests = tuple(dests)
        blocks = sorted({(t, m) for _, t, _, m in cols})
        block = {b: i for i, b in enumerate(blocks)}
        # +1 on a block's direct coefficient at a dest, -1 on its others
        balance = np.zeros((len(cols), len(dests), len(blocks)), dtype=np.int64)
        capped = np.ones((len(cols), len(dests)), dtype=np.int64)
        for c, (r, t, a, m) in enumerate(cols):
            b = block[(t, m)]
            balance[c, :, b] = -1
            for i, dest in enumerate(dests):
                if r == t and a == dest:
                    balance[c, i, b] = 1
                    capped[c, i] = 0
        exps = ds.matrix
        sums = exps @ balance.reshape(len(cols), len(dests) * len(blocks))
        balanced = ~np.any(sums.reshape(len(exps), len(dests), len(blocks)), axis=2)
        over = (exps > self.config.gamma).astype(np.int64) @ capped
        return balanced & (over == 0)

    def within(self, ds: DirectionSet) -> np.ndarray:
        """For each member of ds, whether some receive antenna's superset
        holds it."""
        return self.within_at(ds, range(1, self.config.N + 1)).any(axis=1)


@dataclass(frozen=True, eq=False)
class ReceiverProfile:
    """Everything one receive antenna observes under a plan.

    desired maps each own transmit antenna m to its arrived direction set
    (stream set times the squared direct gain); interference is the union of
    all other arrivals; multiplicity is a read-only count array aligned with
    interference's rows: the number of stream arrivals aligned onto each
    interference direction.
    """

    k: int
    n: int
    desired: dict[int, DirectionSet]
    interference: DirectionSet
    multiplicity: np.ndarray

    @property
    def m_star(self) -> int:
        """Observed interference dimension (honest union size)."""
        return len(self.interference)

    def desired_union(self) -> DirectionSet:
        return reduce(DirectionSet.union, self.desired.values())

    @cached_property
    def desired_overlap(self) -> Optional[dict[CoefficientId, int]]:
        """The first desired direction, by transmit antenna and then in
        member order, that is also an interference direction, as its
        {coefficient id: exponent} entries; None when desired and
        interference are disjoint."""
        for dset in self.desired.values():
            overlap = dset.intersect(self.interference)
            if len(overlap):
                row = overlap.matrix[0].tolist()
                return {cid: e for cid, e in zip(overlap.columns, row) if e}
        return None

    @cached_property
    def distinct_directions(self) -> int:
        """Number of distinct non-unit directions arriving at the antenna,
        desired and interference together."""
        seen = self.interference.union(self.desired_union())
        has_unit = bool((seen.matrix == 0).all(axis=1).any())
        return len(seen) - has_unit


def expand_received(plan: TransmitPlan, k: int, n: int) -> ReceiverProfile:
    """Propagate every stream to receive antenna (k, n) symbolically."""
    config = plan.config
    if not 1 <= k <= config.K:
        raise IndexError(f"user {k} out of range (K={config.K})")
    if not 1 <= n <= config.N:
        raise IndexError(f"antenna {n} out of range (N={config.N})")

    desired = {
        m: plan.streams[(k, m, n)].scale({(k, k, n, m): 2})
        for m in range(1, config.M + 1)
    }

    # every arrival, repeats included: each stream's rows plus its tag row
    stream_cols = (ds.columns for ds in plan.streams.values())
    cols = reduce(merge_columns, stream_cols, _columns(config))
    index = {cid: c for c, cid in enumerate(cols)}
    arrivals = [np.zeros((0, len(cols)), dtype=np.int64)]
    for (j, mp, np_), base in plan.streams.items():
        if j == k and np_ == n:
            continue
        # the direct gain to antenna np_ times the gain into (k, n); for
        # j == k that second factor is user k's own direct gain
        tag = np.zeros(len(cols), dtype=np.int64)
        tag[[index[(j, j, np_, mp)], index[(k, j, n, mp)]]] = 1
        arrivals.append(base.matrix_over(cols) + tag)
    interference, counts = tally(cols, np.concatenate(arrivals))
    counts.flags.writeable = False
    return ReceiverProfile(
        k=k, n=n, desired=desired, interference=interference, multiplicity=counts
    )


CHECK_NAMES = (
    "desired_pairwise_disjoint",
    "desired_disjoint_from_interference",
    "interference_within_reference",
    "l_prime_within_bound",
    "stream_counts_match",
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


def verify_alignment(plan: TransmitPlan) -> AlignmentReport:
    """Run every symbolic check at every receive antenna.

    All checks are exact.  A failed check is reported, not raised; callers
    that need a hard failure (the CLI verify path) inspect .passed.
    """
    config = plan.config
    L, l_prime = closed_form_counts(config)
    expected = L if plan.truncation_cap is None else min(plan.truncation_cap, L)
    reference = ReferenceFamily(config)
    verdicts = []
    for k in range(1, config.K + 1):
        for n in range(1, config.N + 1):
            prof = expand_received(plan, k, n)
            ms = list(prof.desired)
            pairwise = all(
                not prof.desired[m1].intersect(prof.desired[m2])
                for m1, m2 in itertools.combinations(ms, 2)
            )
            separated = prof.desired_overlap is None
            within = bool(reference.within(prof.interference).all())
            counts_ok = all(len(prof.desired[m]) == expected for m in ms) and all(
                len(plan.streams[(k, m, n)]) == expected for m in ms
            )
            checks = {
                "desired_pairwise_disjoint": pairwise,
                "desired_disjoint_from_interference": separated,
                "interference_within_reference": within,
                "l_prime_within_bound": prof.m_star <= l_prime,
                "stream_counts_match": counts_ok,
            }
            verdicts.append(
                AntennaVerdict(
                    k=k,
                    n=n,
                    l_observed=sum(len(ds) for ds in prof.desired.values()),
                    l_prime_observed=prof.m_star,
                    checks=checks,
                )
            )
    return AlignmentReport(config=config, antennas=tuple(verdicts))
