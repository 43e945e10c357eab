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
read off the intervals (_meets), and the interference dimension L' is a
union of boxes factored over groups of boxes (_union_size), all in Python
integers, so it decides any config the stack count admits (_check_stacks).

The simulator needs rows, and only the first cap of each stream set.  There
every direction set is an integer exponent matrix over the config's
coefficient ids (see directions.py).  build_transmit_directions walks each
stream's box straight to its first cap rows in canonical order
(_stream_rows), so no full box is ever formed, and an arrival is a row add.
expand_received stacks every row arriving at a receive antenna, desired
sets first, and reads the whole profile off one canonical sort of the stack
(directions._runs), whose runs of equal rows are the distinct directions.
A config has one column list, its coefficient ids (_columns), and a plan
refuses a stream matrix of any other width, so the stacks need no
re-laying.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, count, product
from operator import le, ne
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .channel import CoefficientId, SystemConfig
from .directions import _check_exponents, _columns, _runs

# Only the finite-gamma DoF, which no command prints, needs fractions (and
# with it decimal); it imports them when called.
if TYPE_CHECKING:
    from fractions import Fraction

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
    """Raised before building a plan or verifying a config whose antenna
    stacks, counted exactly, are over budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"antenna stacks would hold {count_text(required)} exponent entries,"
            f" budget is {budget}"
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


def achievable_dof_gamma(config: SystemConfig) -> Fraction:
    """Total DoF of the construction at finite gamma: each of the K*N
    receive antennas has M*L desired dimensions over the whole space of
    M*L + L' + 1.

    For M = 1 it tends to the paper's K*MN/(M+N) = K*N/(1+N) as gamma
    grows.  For M > 1 it does not: sibling transmit antennas of one user
    use unaligned direction sets, L' grows like (KN-1)*M*L, and the total
    tends to 1 (at K=3, M=2, N=1 it falls from 1.043 at gamma=1 towards 1,
    against the paper's 2).
    """
    from fractions import Fraction

    L, l_prime = closed_form_counts(config)
    M = config.M
    return config.K * config.N * Fraction(M * L, 1 + M * L + l_prime)


@dataclass(frozen=True)
class TransmitPlan:
    """Direction sets for every stream of a config.

    streams maps each stream to its set: an int64 exponent matrix over the
    config's coefficient ids (_columns), its rows distinct and in canonical
    order (directions._runs).  A matrix of another width, or with repeated
    or out-of-order rows, is refused with a ValueError naming the stream.
    The plan keeps a read-only copy of each matrix in a read-only mapping,
    so it never changes after it is built, whatever the caller does to
    what it passed in.
    """

    config: SystemConfig
    streams: Mapping[Stream, np.ndarray]

    def __post_init__(self) -> None:
        streams = {}
        for s, exps in self.streams.items():
            exps = np.array(exps, dtype=np.int64)
            if exps.shape[1:] != (self.config.coefficient_count,):
                raise ValueError(f"stream {s}: set is not over the config's coefficient ids")
            order, start = _runs(exps)
            if not start.all() or (order != np.arange(len(order))).any():
                raise ValueError(f"stream {s}: rows are not distinct and in canonical order")
            exps.flags.writeable = False
            streams[s] = exps
        object.__setattr__(self, "streams", MappingProxyType(streams))


def _stream_rows(config: SystemConfig, stream: Stream, cap: int) -> np.ndarray:
    """The first cap rows of a stream set, or all of them, in canonical
    order, walked without forming the set.

    Every column is a transmit-antenna block's direct at the stream's
    destination n, or a cross of the block in [0, its pair family's cap]
    (see _Source); a row is a box point when each direct is the sum of its
    block's crosses.  Column by column in id order, the walk takes the
    canonical keys (directions._runs) in order: the row ends here (every
    later column 0), then each positive exponent ascending, then a zero
    with a later column non-zero.  A column's positive exponents, given the
    columns before it, are one interval of its block's bounds, so every
    branch entered holds a row and a row takes O(columns) steps.  A block's
    state is 2 when its later columns must hold a non-zero, 1 when they
    may, else 0; tally counts the blocks in each state.
    """
    n = stream[2]
    cols = _columns(config)
    limit = {
        family_pair(f, n)[1]: max(stream_family_cap(stream, f, config.gamma), 0)
        for f in families(config.K, config.M, config.N, n)
    }
    blocks = {b: i for i, b in enumerate(sorted({(j, mp) for _, j, _, mp in cols}))}
    blk = [blocks[j, mp] for _, j, _, mp in cols]
    lim = [limit.get(cid, -1) for cid in cols]  # -1: the block's direct
    S = [0] * len(blocks)  # crosses walked
    D = [-1] * len(blocks)  # the direct, -1 until walked
    R = [0] * len(blocks)  # caps of the crosses not walked
    for b, cap_c in zip(blk, lim):
        R[b] += max(cap_c, 0)
    row = [0] * len(cols)

    def state(b):
        if S[b] if D[b] < 0 else D[b] - S[b]:
            return 2
        return int(D[b] < 0 and R[b] > 0)

    tally = Counter(map(state, range(len(blocks))))

    def move(c, old, new):
        """Column c from value old to new, None meaning not walked."""
        b = blk[c]
        tally[state(b)] -= 1
        if lim[c] < 0:
            D[b] = -1 if new is None else new
        else:
            S[b] += (new or 0) - (old or 0)
            R[b] += lim[c] * ((new is None) - (old is None))
        tally[state(b)] += 1
        row[c] = new or 0

    def frame(c):
        b, cap_c = blk[c], lim[c]
        if cap_c < 0:
            lo, hi = S[b], S[b] + R[b]
        elif D[b] < 0:
            lo, hi = 0, cap_c
        else:
            lo, hi = max(0, D[b] - S[b] - R[b] + cap_c), min(cap_c, D[b] - S[b])
        # [column, next positive, last positive, zero still to try, value set]
        return [c, max(lo, 1), hi, lo == 0, None]

    rows = [row.copy()]  # the unit
    frames = [frame(0)]
    while frames and len(rows) < cap:
        f = frames[-1]
        c, old = f[0], f[4]
        if f[1] <= f[2]:
            v = f[1]
            f[1] += 1
        elif f[3]:
            v = f[3] = 0
        else:
            if old is not None:
                move(c, old, None)
            frames.pop()
            continue
        move(c, old, v)
        f[4] = v
        if v == 0 and not tally[1] + tally[2]:
            move(c, 0, None)
            f[4] = None
            continue
        if v and not tally[2]:
            rows.append(row.copy())
        if c + 1 < len(cols):
            frames.append(frame(c + 1))
    return np.array(rows, dtype=np.int64)


def _check_stacks(config: SystemConfig, rows: int) -> None:
    """Refuse a config whose K*N antenna stacks, K*M*N*rows rows of K^2*N*M
    exponents each, would hold more than DEFAULT_STREAM_BUDGET entries."""
    K, M, N = config.K, config.M, config.N
    entries = K * N * (K * M * N * rows) * (K * K * N * M)
    if entries > DEFAULT_STREAM_BUDGET:
        raise EnumerationBudgetError(entries, DEFAULT_STREAM_BUDGET)


def build_transmit_directions(config: SystemConfig, cap: int) -> TransmitPlan:
    """Every stream's first min(cap, L) directions, in canonical order.

    The simulator stacks every stream's rows at each of the K*N receive
    antennas, K*M*N * min(cap, L) rows of K^2*N*M exponents there.  The
    entries of all those stacks are counted before any row is built
    (_check_stacks), and a config over DEFAULT_STREAM_BUDGET fails fast with
    the count attached.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    K, M, N = config.K, config.M, config.N
    _check_stacks(config, min(cap, closed_form_counts(config)[0]))
    streams = {
        s: _stream_rows(config, s, cap)
        for s in product(range(1, K + 1), range(1, M + 1), range(1, N + 1))
    }
    return TransmitPlan(config=config, streams=streams)


@dataclass(frozen=True, eq=False)
class ReceiverProfile:
    """What the simulator reads of one receive antenna under a plan.

    interference is the union of every arrival but the antenna's own
    streams, a read-only exponent matrix over the config's coefficient ids
    in canonical order; multiplicity is a read-only count array aligned
    with its rows: the number of stream arrivals aligned onto each
    interference direction.  desired_overlap is the first desired
    direction (an own stream's row times the squared direct gain), by
    transmit antenna and then in member order, that is also an
    interference direction, as its {coefficient id: exponent} entries, or
    None when desired and interference are disjoint; distinct_directions
    counts the distinct non-unit directions arriving, desired and
    interference together.
    """

    interference: np.ndarray
    multiplicity: np.ndarray
    desired_overlap: Optional[dict[CoefficientId, int]]
    distinct_directions: int


def expand_received(plan: TransmitPlan, k: int, n: int) -> ReceiverProfile:
    """Propagate every stream to receive antenna (k, n) symbolically.

    Each stream's rows arrive times two gains: the direct gain to its own
    receive antenna and the gain from its transmit antenna into (k, n).
    For an own stream (k, m, n) the two are one gain, squared, and its rows
    are desired set m; every other stream's rows are arrivals, repeats
    included.  Every stream's matrix is over the config's coefficient ids
    (TransmitPlan refuses any other width), so the desired sets, then the
    arrivals, stack as they are.  The stack is held to the exponent limits
    (_check_exponents) and sorted once into canonical order (_runs), and
    each run of equal rows is one distinct direction.  The runs that hold
    an arrival are the interference set, one row each, with their counts
    of arrivals as multiplicities; desired_overlap is the first desired
    row, by transmit antenna and then in run order, whose run holds an
    arrival.  Every row carries two gains, so none is the unit.
    """
    config = plan.config
    if not 1 <= k <= config.K:
        raise IndexError(f"user {k} out of range (K={config.K})")
    if not 1 <= n <= config.N:
        raise IndexError(f"antenna {n} out of range (N={config.N})")
    cols = _columns(config)
    index = {cid: c for c, cid in enumerate(cols)}
    M = config.M
    sources = [(k, m, n) for m in range(1, M + 1)]
    sources += [(j, mp, np_) for j, mp, np_ in plan.streams if j != k or np_ != n]
    tags = np.zeros((len(sources), len(cols)), dtype=np.int64)
    for s, (j, mp, np_) in enumerate(sources):
        tags[s, index[(j, j, np_, mp)]] += 1
        tags[s, index[(k, j, n, mp)]] += 1
    lengths = [len(plan.streams[s]) for s in sources]
    stack = np.concatenate([plan.streams[s] for s in sources])
    stack += np.repeat(tags, lengths, axis=0)
    _check_exponents(stack)
    order, start = _runs(stack)
    run = np.cumsum(start) - 1
    runs = int(np.count_nonzero(start))
    # each canonical position's source: desired set m is source m - 1
    source = np.repeat(np.arange(len(sources)), lengths)[order]
    arrivals = np.bincount(run[source >= M], minlength=runs)
    hit = arrivals > 0
    counts = arrivals[hit]
    counts.flags.writeable = False
    interference = stack[order[start][hit]]
    interference.flags.writeable = False
    overlap = None
    for m in range(1, M + 1):
        mine = source == m - 1
        shared = np.flatnonzero(hit[run[mine]])
        if shared.size:
            row = stack[order[mine][shared[0]]].tolist()
            overlap = {cid: e for cid, e in zip(cols, row) if e}
            break
    return ReceiverProfile(
        interference=interference,
        multiplicity=counts,
        desired_overlap=overlap,
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
    at d2, the family (t, m, d2, t).  With one destination there is no d2.
    """
    if N == 1 or any(beta):
        return frozenset()
    raised = {(f[0] == f[3], f[2]) for f in compress(fams, lo)}
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


def _walk(boxes: list[tuple[list[int], list[int]]]) -> int:
    """The number of points in a union of (lower, upper) boxes, by
    inclusion-exclusion over their intersections, extending only non-empty
    ones: at most 2**a - 1 for a boxes, and a if pairwise disjoint."""
    total = 0
    stack = [(i + 1, lo, hi, 1) for i, (lo, hi) in enumerate(boxes)]
    while stack:
        start, lo, hi, sign = stack.pop()
        total += sign * math.prod([h - l + 1 for l, h in zip(lo, hi)])
        for i, (lo2, hi2) in enumerate(boxes[start:], start):
            if all(map(le, map(max, lo, lo2), map(min, hi, hi2))):
                stack.append((i + 1, list(map(max, lo, lo2)), list(map(min, hi, hi2)), -sign))
    return total


def _union_size(boxes: list[_Source]) -> int:
    """The number of points in the union of boxes of one destination and
    one beta: their bounding box less the points that miss every box.
    Boxes that restrict (differ from the bounding box on) a shared
    coordinate form a group.  A point misses every box iff in each group its
    projection misses every box, so the misses are a product over groups of
    each group's size less its union (_walk).  Up to two boxes are walked
    whole, which costs less than grouping them."""
    if len(boxes) < 3:
        return _walk([(b.lo, b.hi) for b in boxes])
    lo = list(map(min, zip(*(b.lo for b in boxes))))
    hi = list(map(max, zip(*(b.hi for b in boxes))))
    bounds = list(zip(lo, hi))
    groups = []  # (coordinates, boxes) of each group
    for box in boxes:
        cut = set(compress(count(), map(ne, zip(box.lo, box.hi), bounds)))
        members = [box]
        for group in [g for g in groups if g[0] & cut]:
            groups.remove(group)
            cut |= group[0]
            members += group[1]
        groups.append((cut, members))
    total = missed = math.prod([h - l + 1 for l, h in zip(lo, hi)])
    for cut, members in groups:
        size = math.prod([hi[c] - lo[c] + 1 for c in cut])
        part = [([b.lo[c] for c in cut], [b.hi[c] for c in cut]) for b in members]
        missed = missed // size * (size - _walk(part))
    return total - missed


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
    failure (the CLI directions command) inspect .passed.  A config
    refused by the stack count at one row per stream (_check_stacks)
    forms no box.
    """
    _check_stacks(config, 1)
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
        return _Source(dest, tuple(lo), tuple(hi), beta, _reach(dest, lo, beta, fams[dest], N))

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
