"""Link-level simulation: encode over direction sets, propagate, decode.

A draw (_Draw) evaluates each stream set once, at the one antenna that
desires it, and reads its forward map W, its transmit powers and each
antenna's desired gains off those values.  The Monte Carlo loop is a
product on W.  Decoding is exact nearest-point search over the finite
constellation each antenna can see: desired symbols jointly with bounded
integer interference aggregates, of which only the desired symbols are
answered.  The constellation is never built: each antenna's distinct
interference sums are sorted once into a decode table, and every (desired
sum, query) pair is bisected in it (_kernels).  All randomness is keyed by
(seed, role) so every run replays bit for bit.

The plan is symbolic: every direction is a monomial in the channel gains,
so one plan, and each antenna's expansion of it, serves every channel draw
of a system.  The seed belongs to the draw, not to the plan; run_link_sim
builds the kept plan, each stream's first cap directions, and expands it
at every receive antenna once per seedless config and cap (_kept_plan).
The plan is a plain immutable value: its profiles are kept beside it, not
in it.

The channel is fixed and known at every node, so all a run derives from one
draw, before its operating points, is a function of (config, seed, cap,
trials): the channel, each antenna's gains, the forward map, the stream
powers, the symbols and noise, each antenna's decode table, the
unit-amplitude d_min and the separation slope.  A _Draw holds them, and
run_link_sim keeps the last one (_kept_draw).  Each call checks its
decode budget, then derives its amplitudes, decode and SER from the draw,
whether the draw is new or kept.  No other function computes d_min, the
slope or the amplitudes.  The decode budget is the module constant
DEFAULT_DECODE_BUDGET, so a call is refused on its draw and its query
count alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from ._kernels import (
    DecodeTable,
    _block_sums,
    decode_table,
    min_abs_combination,
    nearest_candidate_indices,
)
from .alignment import (
    ReceiverProfile,
    TransmitPlan,
    build_transmit_directions,
    count_text,
    expand_received,
)
from .channel import ChannelRealization, SystemConfig, generate_channel
from .directions import evaluate, monomial_text

DEFAULT_DECODE_BUDGET = 10**7
# The fixed epsilon of the separation floor -(m + eps): real interference
# alignment's Khintchine-Groshev bound holds for any fixed eps > 0.
EPSILON = 0.1
# The alphabet half-widths over which the separation slope is fitted.
SLOPE_Q = (2, 4, 8, 16)
# The least-squares system np.polyfit(np.log(SLOPE_Q), y, 1) solves, as it
# builds it: the Vandermonde matrix of log q over its column norms (the
# scale), and rcond = 4 * eps.
_SLOPE_DESIGN = np.vander(np.log(np.array(SLOPE_Q, dtype=float)), 2)
_SLOPE_SCALE = np.sqrt((_SLOPE_DESIGN * _SLOPE_DESIGN).sum(axis=0))
_SLOPE_DESIGN /= _SLOPE_SCALE
_SLOPE_RCOND = len(SLOPE_Q) * np.finfo(np.float64).eps
_SLOPE_DESIGN.flags.writeable = _SLOPE_SCALE.flags.writeable = False

# sub-seed roles so message and noise draws never share a stream
_MESSAGE_ROLE = 0xA1
_NOISE_ROLE = 0xB2


class DecodeBudgetError(RuntimeError):
    """An exhaustive enumeration would exceed its budget; .required says
    how big it would have been, and what names the enumeration."""

    def __init__(self, required: int, budget: int, what: str):
        super().__init__(f"{what} needs {count_text(required)}, budget is {budget}")
        self.required = required
        self.budget = budget


# One entry: a seed sweep runs one system over many draws (the sim_sweep
# workload's 80 commands share one key), and a second entry would only hold
# a finished system's plan and profiles.
@lru_cache(maxsize=1)
def _kept_plan(
    system: SystemConfig, cap: int
) -> tuple[TransmitPlan, tuple[ReceiverProfile, ...]]:
    """The first cap directions of every stream of a seedless config, built
    without the rest of the construction, and every receive antenna's
    profile of them, user-major.  Shared by every draw of the system."""
    plan = build_transmit_directions(system, cap)
    return plan, tuple(expand_received(plan, k, n) for k, n in _antennas(system.K, system.N))


def symbol_variance(Q: int) -> float:
    """Variance of a uniform integer symbol on -(Q-1)..(Q-1).  The decode
    budget admits only Q <= 5 * 10**6 (every antenna decodes 2Q - 1 sums
    on a desired axis), far inside the float range."""
    return Q * (Q - 1) / 3.0


def _antennas(K: int, per_user: int) -> list[tuple[int, int]]:
    """(user, antenna) pairs, user-major: the order of H's rows and columns."""
    return [(k, a) for k in range(1, K + 1) for a in range(1, per_user + 1)]


def _draw_symbols(seed: int, Q: int, trials: int, width: int) -> np.ndarray:
    """Uniform symbols on -(Q-1)..Q-1, one row per trial: the message role."""
    rng = np.random.default_rng((seed, _MESSAGE_ROLE))
    return rng.integers(-(Q - 1), Q, size=(trials, width))


def _draw_noise(seed: int, trials: int, width: int) -> np.ndarray:
    """Unit-variance Gaussian noise, one row per trial: the noise role."""
    return np.random.default_rng((seed, _NOISE_ROLE)).standard_normal((trials, width))


def _channel_matrix(h: ChannelRealization) -> np.ndarray:
    """H[(j, m), (k, n)] = h(k, j, n, m): one row per transmit antenna and
    one column per receive antenna, both user-major."""
    c = h.config
    g = np.array([h.gains[cid] for cid in c.coefficient_ids()])
    return g.reshape(c.K, c.K, c.N, c.M).transpose(1, 3, 0, 2).reshape(c.K * c.M, c.K * c.N)


# Smallest amplitude.  The decoder divides the unit-variance noise by the
# amplitude, and at this floor Z / A stays finite for every |Z| up to
# 1e-300 * float max = 1.8e8.  The largest |Z| in 10^7 standard-normal draws
# was 5.35, so the floor leaves a factor of over 3e7 before overflow.
MIN_AMPLITUDE = 1e-300


def _amplitudes(powers: list[float], rhos: tuple[float, ...]) -> dict[float, float]:
    """Largest common amplitude at each total power rho keeping every
    stream within its share rho/(K*M) of the budget, as {rho: A}.

    A single A across streams keeps every interference aggregate an exact
    integer multiple of one scale, which the decoder's candidate lattice
    relies on; the binding stream hits its cap, the rest sit below it.  The
    transmit antennas' unit-amplitude powers do not depend on rho, and a
    draw computes them once.  An A below MIN_AMPLITUDE is refused.
    """
    amplitudes = {}
    for rho in rhos:
        a = amplitudes[rho] = min(math.sqrt(rho / len(powers) / p) for p in powers)
        if a < MIN_AMPLITUDE:
            raise ValueError(f"amplitude {a} at rho={rho} is below {MIN_AMPLITUDE:g}")
    return amplitudes


def _decode_radii(mults: tuple[int, ...], n_desired: int, Q: int, queries: int) -> list[int]:
    """Radii of the decode lattice at Q of an antenna whose first n_desired
    axes are desired, refused before any work when its interference sums or
    its desired sums times the queries exceed the decode budget."""
    budget = DEFAULT_DECODE_BUDGET
    radii = [mult * (Q - 1) for mult in mults]
    n_i = math.prod(2 * r + 1 for r in radii[n_desired:])
    if n_i > budget:
        raise DecodeBudgetError(n_i, budget, "interference block")
    work = math.prod(2 * r + 1 for r in radii[:n_desired]) * queries
    if work > budget:
        raise DecodeBudgetError(work, budget, "desired sums times queries")
    return radii


def _distance_radii(mults: tuple[int, ...], Q: int) -> list[int]:
    """Radii of the difference box behind d_min at Q, refused before any
    work when the box is over the decode budget.  Desired differences range
    over -2(Q-1)..2(Q-1) and each aggregate's over twice its bound, so
    min_abs_combination over the box is the unit-amplitude d_min.  Every
    radius is at least 2, so the budget of 10**7 refuses 11 axes or more."""
    budget = DEFAULT_DECODE_BUDGET
    radii = [2 * (Q - 1) * mult for mult in mults]
    # exact: a 12-axis box at Q=16 is 61**12, past int64
    box = math.prod(2 * r + 1 for r in radii)
    if box > budget:
        raise DecodeBudgetError(box, budget, "distance enumeration")
    return radii


def separation_floor(profile: ReceiverProfile) -> float:
    """Theoretical slope floor -(m + EPSILON), with m the count of distinct
    non-unit directions arriving at the antenna."""
    return -(profile.distinct_directions + EPSILON)


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo operating points.

    Total power rho splits equally across users (and antennas within a
    user); _amplitudes derives each point's amplitude.
    """

    snr_points: tuple[float, ...]
    trials: int = 1000
    noiseless: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "snr_points", tuple(float(r) for r in self.snr_points))
        if not self.snr_points:
            raise ValueError("need at least one snr point")
        for r in self.snr_points:
            if not 0 < r < math.inf:
                raise ValueError(f"snr points must be positive and finite, got {r}")
        if len(set(self.snr_points)) < len(self.snr_points):
            raise ValueError(f"snr points must be distinct, got {list(self.snr_points)}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


@dataclass(frozen=True)
class SimResult:
    q: int
    cap: int
    trials: int
    d_min: float
    ser: dict[float, float]
    separation_slope: float
    separation_floor: float
    decoded_rate: float
    amplitudes: dict[float, float]

    def __post_init__(self) -> None:
        if not math.isnan(self.d_min) and self.d_min < 0:
            raise ValueError(f"d_min must be >= 0, got {self.d_min}")
        for rho, s in self.ser.items():
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"ser {s} at rho={rho} outside [0, 1]")

    def to_json_dict(self) -> dict:
        """The result's JSON fields; a NaN d_min or slope (a refused box or
        a zero distance) is None, so every float left is a number."""
        return {
            "q": self.q,
            "cap": self.cap,
            "trials": self.trials,
            "d_min": None if math.isnan(self.d_min) else self.d_min,
            "ser": [
                {"rho": rho, "ser": self.ser[rho], "amplitude": self.amplitudes[rho]}
                for rho in sorted(self.ser)
            ],
            "separation_slope": (
                None if math.isnan(self.separation_slope) else self.separation_slope
            ),
            "separation_floor": self.separation_floor,
            "decoded_rate": self.decoded_rate,
        }

    def to_csv(self) -> str:
        lines = ["rho,ser,trials"]
        for rho in sorted(self.ser):
            lines.append(f"{rho:.12g},{self.ser[rho]:.12g},{self.trials}")
        return "\n".join(lines) + "\n"


class _Draw:
    """One channel draw's numeric model at a trials count: everything a run
    derives from (plan, channel, trials) before its operating points.

    Built from a plan and its profiles at every receive antenna, user-major
    as _kept_plan returns them; a plan whose desired direction is also
    interference at some antenna is refused before any evaluation.  Stream
    (k, m, n) is desired at antenna (k, n) alone, so each stream set is
    evaluated once, sorted by stream, and the forward map is read off those
    values: coords, the plan coordinates (k, m, n, l) by sorted stream and
    member, and W = pre[:, None] * H[tx].  Coordinate i leaves transmit
    antenna tx[i] (a row of H) with weight pre[i], its direction value times
    the direct gain to its destination antenna, so one trial receives
    y = A * u @ W + z.

    Per antenna, user-major: columns, its desired symbols as columns of U in
    decode order; gains, the desired arrival gains, then one gain per
    distinct interference direction; mults, 1 per desired coordinate, then
    each direction's alignment multiplicity.  The decode lattice has radius
    mult*(Q-1) on an axis and the difference box 2*mult*(Q-1).  floor is
    the separation floor of antenna 0, whose slope is fitted.

    The unit-amplitude stream powers are computed, and the symbols U and
    y_unit = U @ W drawn, on the first decode, and the noise Z on the first
    noisy one, so a call refused by its budgets computes none of them.
    Decode tables are kept by antenna, since a draw fixes Q and with it
    each antenna's lattice radii mult*(Q-1), so a seed's noiseless and
    noisy runs sort each antenna's sums once.  d_min and the slope are
    kept, and so are the unit-amplitude distances behind them
    (min_abs_combination over a _distance_radii box) by (antenna, Q), so
    the two solve a shared box once.
    """

    def __init__(
        self,
        plan: TransmitPlan,
        profiles: tuple[ReceiverProfile, ...],
        h: ChannelRealization,
        trials: int,
    ):
        c = plan.config
        self.ants = _antennas(c.K, c.N)
        for (k, n), prof in zip(self.ants, profiles):
            if prof.desired_overlap is not None:
                raise ValueError(
                    f"desired direction {monomial_text(prof.desired_overlap)} aligned with "
                    f"interference at antenna ({k},{n}); exhaustive decoding is ill-posed"
                )
        self.plan = plan
        self.trials = trials
        self.h = h
        values = self.values = {
            (k, m, n): evaluate(plan.streams[(k, m, n)], h)
            for k in range(1, c.K + 1) for m in range(1, c.M + 1) for n in range(1, c.N + 1)
        }
        self.coords = [(*s, l) for s, v in values.items() for l in range(len(v))]
        tx = np.array([(k - 1) * c.M + m - 1 for (k, m, _, _) in self.coords], dtype=np.intp)
        pre = np.concatenate([h.coefficient(k, k, n, m) * v for (k, m, n), v in values.items()])
        self.W = pre[:, None] * _channel_matrix(h)[tx]
        col_of = {x: i for i, x in enumerate(self.coords)}
        self.columns, self.gains, self.mults = [], [], []
        for (k, n), prof in zip(self.ants, profiles):
            own = [(k, m, n) for m in range(1, c.M + 1)]
            self.columns.append([col_of[(*s, l)] for s in own for l in range(len(values[s]))])
            desired = [h.coefficient(k, k, n, s[1]) ** 2 * values[s] for s in own]
            self.gains.append(np.concatenate(desired + [evaluate(prof.interference, h)]))
            self.mults.append((1,) * len(self.columns[-1]) + tuple(prof.multiplicity.tolist()))
        self.floor = separation_floor(profiles[0])
        self.tables: dict[int, DecodeTable] = {}
        self.distances: dict[tuple[int, int], float] = {}

    @cached_property
    def powers(self) -> list[float]:
        """Exact E[X^2] of every transmit antenna (k, m), user-major, under
        independent uniform symbols at unit amplitude."""
        c = self.plan.config
        powers = []
        for k, m in _antennas(c.K, c.M):
            tot = 0.0
            for n in range(1, c.N + 1):
                s2 = sum(v**2 for v in self.values[(k, m, n)].tolist())
                tot += self.h.coefficient(k, k, n, m) ** 2 * s2
            powers.append(tot * symbol_variance(c.Q))
        return powers

    @cached_property
    def U(self) -> np.ndarray:
        return _draw_symbols(self.h.config.seed, self.plan.config.Q, self.trials, len(self.coords))

    @cached_property
    def y_unit(self) -> np.ndarray:
        return self.U.astype(np.float64) @ self.W

    @cached_property
    def Z(self) -> np.ndarray:
        return _draw_noise(self.h.config.seed, self.trials, len(self.ants))

    def table(self, ai: int, radii: list[int], queries: int) -> DecodeTable:
        """decode_table of antenna ai's lattice of radii, the same on every
        call of a draw, built for the first call's queries count: either
        form decodes every query alike."""
        t = self.tables.get(ai)
        if t is None:
            gains, nd = self.gains[ai], len(self.columns[ai])
            d_sum = _block_sums(gains, radii, 0, nd)
            i_sum = _block_sums(gains, radii, nd, len(radii))
            t = self.tables[ai] = decode_table(d_sum, i_sum, queries)
        return t

    def _distances(self, boxes: list[tuple[int, int]]) -> list[float] | None:
        """min_abs_combination of each (antenna, Q) difference box, or None
        if the decode budget refuses any of them: every box is checked
        before any is solved."""
        try:
            radii = [_distance_radii(self.mults[ai], q) for ai, q in boxes]
        except DecodeBudgetError:
            return None
        for (ai, q), r in zip(boxes, radii):
            if (ai, q) not in self.distances:
                self.distances[ai, q] = min_abs_combination(
                    self.gains[ai], r, len(self.columns[ai])
                )
        return [self.distances[box] for box in boxes]

    @cached_property
    def d_min(self) -> float:
        """Unit-amplitude d_min at the draw's Q: the least distance over
        the antennas, NaN if any antenna's box is refused."""
        Q = self.plan.config.Q
        d = self._distances([(ai, Q) for ai in range(len(self.ants))])
        return float("nan") if d is None else min(d)

    @cached_property
    def slope(self) -> float:
        """Least-squares slope of log d_min against log Q over SLOPE_Q at
        unit amplitude on the first antenna (_fit_slope)."""
        return _fit_slope(self._distances([(0, q) for q in SLOPE_Q]))


def _fit_slope(d: list[float] | None) -> float:
    """np.polyfit(np.log(SLOPE_Q), np.log(d), 1)[0], bit for bit: the same
    lstsq on the same kept design, over the same scale.  NaN if d is None
    (a refused box) or a distance is zero."""
    if d is None or any(v <= 0 for v in d):
        return float("nan")
    c = np.linalg.lstsq(_SLOPE_DESIGN, np.log(d), rcond=_SLOPE_RCOND)[0]
    return float(c[0] / _SLOPE_SCALE[0])


def _operate(draw: _Draw, sim_config: SimConfig) -> SimResult:
    """Monte Carlo SER over the SNR points of sim_config on a draw of its
    trials count.

    The draw's messages and noise serve every SNR point (common random
    numbers), so SER curves differ only through the amplitude.  A noiseless
    run receives the same values at every SNR point, so it decodes them
    once and counts the same errors at each.  A noisy run builds an
    antenna's queries of every SNR point with one broadcast,
    y + Z / A, pass-major, and searches them in one call; the decoder
    answers each query's desired index, unravelled into the desired
    symbols; a lone desired coordinate is that index itself.  The decode
    budget is checked here, on each call, before any antenna is decoded;
    d_min and the slope are the draw's, held to the same budget.  A0 > 0
    and rounding is monotone, so A0 * d_min is the least of A0 times each
    antenna's distance.
    """
    Q = draw.plan.config.Q
    trials = sim_config.trials
    rhos = sim_config.snr_points
    passes = 1 if sim_config.noiseless else len(rhos)
    # every antenna is checked before any is decoded
    radii = [
        _decode_radii(mults, len(cols), Q, trials * passes)
        for mults, cols in zip(draw.mults, draw.columns)
    ]
    amplitudes = _amplitudes(draw.powers, rhos)
    U, y_unit = draw.U, draw.y_unit

    # One antenna at a time, each searched once with the queries of every
    # pass stacked, pass-major: the queries are independent, so the indices
    # are those of one search per pass.
    A = np.array([amplitudes[rho] for rho in rhos])
    wrong = np.zeros(len(rhos), dtype=np.int64)
    total = 0
    for ai, (r, cols) in enumerate(zip(radii, draw.columns)):
        y = y_unit[:, ai]
        if not sim_config.noiseless:
            y = (y + draw.Z[:, ai] / A[:, None]).ravel()
        idx = nearest_candidate_indices(y, draw.table(ai, r, trials * passes))
        nd = len(cols)
        pos = (idx,) if nd == 1 else np.unravel_index(idx, [2 * x + 1 for x in r[:nd]])
        for d, col in enumerate(cols):
            decoded = (pos[d] - (Q - 1)).reshape(passes, trials)
            # a noiseless pass counts at every rho
            wrong += np.count_nonzero(decoded != U[:, col], axis=1)
            total += trials
    ser = {rho: int(w) / total for rho, w in zip(rhos, wrong)}

    n_streams = len(draw.columns[0])
    hit = [rho for rho in rhos if ser[rho] < 1e-3]
    rate = n_streams * math.log2(2 * Q - 1) if hit else 0.0

    return SimResult(
        q=Q,
        cap=max(len(ds) for ds in draw.plan.streams.values()),
        trials=trials,
        d_min=amplitudes[rhos[0]] * draw.d_min,
        ser=ser,
        separation_slope=draw.slope,
        separation_floor=draw.floor,
        decoded_rate=rate,
        amplitudes=amplitudes,
    )


# One entry, beside _kept_plan: a sweep runs each draw's operating points
# back to back (sim_sweep's noiseless command, then its noisy one, on every
# seed) and does not come back to an earlier draw.
@lru_cache(maxsize=1)
def _kept_draw(config: SystemConfig, cap: int, trials: int) -> _Draw:
    """The draw of a config, seed included, on its system's kept plan."""
    return _Draw(*_kept_plan(replace(config, seed=0), cap), generate_channel(config), trials)


def run_link_sim(config: SystemConfig, sim_config: SimConfig, cap: int) -> SimResult:
    """Simulate a bare config: its channel draw on the system's kept plan,
    both built on the first call that asks for them."""
    return _operate(_kept_draw(config, cap, sim_config.trials), sim_config)
