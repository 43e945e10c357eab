"""Link-level simulation: encode over direction sets, propagate, decode.

One forward model (_forward) carries every plan coordinate to every receive
antenna; the Monte Carlo loop is a product on it.
Decoding is exact nearest-point search over the finite constellation each
antenna can see: desired symbols jointly with bounded integer interference
aggregates.  The constellation is never built: each antenna's distinct
interference sums are sorted once into a decode table, and every (desired
sum, query) pair is bisected in it (_kernels).  All randomness is keyed by
(seed, role) so every run replays bit for bit.

The plan is symbolic: every direction is a monomial in the channel gains,
so one plan, and each antenna's expansion of it, serves every channel draw
of a system.  The seed belongs to the draw, not to the plan; run_link_sim
builds the kept plan once per seedless config and cap.

The channel is fixed and known at every node, so all a run derives from one
draw, before its operating points, is a function of (config, seed, cap,
trials): the channel, the forward map, the antenna models, the stream
powers, the symbols and noise, each antenna's decode table, each
unit-amplitude distance and the separation slope.  A _Draw holds them, and
run_link_sim keeps the last one (_kept_draw).  Each call checks its
budgets, then derives its amplitudes, decode, SER and d_min from the draw,
whether the draw is new or kept.
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
    truncate_plan,
)
from .channel import ChannelRealization, SystemConfig, generate_channel
from .directions import monomial_text

MAX_DISTANCE_DIRECTIONS = 12
DEFAULT_DECODE_BUDGET = 10**7
# The fixed epsilon of the separation floor -(m + eps): real interference
# alignment's Khintchine-Groshev bound holds for any fixed eps > 0.
EPSILON = 0.1
# The alphabet half-widths over which the separation slope is fitted.
SLOPE_Q = (2, 4, 8, 16)

# sub-seed roles so message and noise draws never share a stream
_MESSAGE_ROLE = 0xA1
_NOISE_ROLE = 0xB2


class DecodeBudgetError(RuntimeError):
    """An exhaustive enumeration would exceed its budget; .required says
    how big it would have been."""

    def __init__(self, required: int, budget: int, what: str = "exhaustive decode"):
        super().__init__(f"{what} needs {count_text(required)}, budget is {budget}")
        self.required = required
        self.budget = budget


class InconsistentPlanError(ValueError):
    """Plan, channel, and messages do not describe the same system."""


def _check_pair(plan: TransmitPlan, h: ChannelRealization) -> None:
    """A plan fits every channel draw of its system, whatever the seed."""
    a, b = plan.config, h.config
    if (a.K, a.M, a.N, a.gamma, a.Q) != (b.K, b.M, b.N, b.gamma, b.Q):
        raise InconsistentPlanError("plan and channel were built from different configs")


# One entry: a seed sweep runs one system over many draws (the sim_sweep
# workload's 80 commands share one key), and a second entry would only hold
# a finished system's plan and profiles.
@lru_cache(maxsize=1)
def _kept_plan(system: SystemConfig, cap: int) -> TransmitPlan:
    """The construction of a seedless config, cut to cap directions per
    stream.  Shared by every draw of the system, with the antenna profiles
    its simulations fill in."""
    return truncate_plan(build_transmit_directions(system), cap)


def _profile(plan: TransmitPlan, k: int, n: int) -> ReceiverProfile:
    """Antenna (k, n)'s view of the plan, expanded on the plan's first
    request for it."""
    prof = plan.profiles.get((k, n))
    if prof is None:
        prof = plan.profiles[(k, n)] = expand_received(plan, k, n)
    return prof


def symbol_variance(Q: int) -> float:
    """Variance of a uniform integer symbol on -(Q-1)..(Q-1); an OverflowError
    when it passes the float range."""
    try:
        return Q * (Q - 1) / 3.0
    except OverflowError:
        raise OverflowError(f"symbol variance at Q={Q} exceeds the float range") from None


def plan_coordinates(plan: TransmitPlan) -> list[tuple[int, int, int, int]]:
    """Every (k, m, n, l) coordinate of the plan in canonical order."""
    return [
        (k, m, n, l)
        for (k, m, n) in sorted(plan.streams)
        for l in range(len(plan.streams[(k, m, n)]))
    ]


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


def _forward(plan: TransmitPlan, h: ChannelRealization):
    """The linear map from plan coordinates to receive antennas, as
    (coords, W).

    coords are the plan coordinates; coordinate i leaves transmit antenna
    tx[i] (a row of H) with weight pre[i], its direction value times the
    direct gain to its destination antenna; W = pre[:, None] * H[tx] maps
    unit-amplitude symbols to every receive antenna, so one trial receives
    y = A * u @ W + z.
    """
    _check_pair(plan, h)
    M = plan.config.M
    coords = plan_coordinates(plan)
    tx = np.array([(j - 1) * M + m - 1 for (j, m, _, _) in coords], dtype=np.intp)
    pre = np.concatenate(
        [
            h.coefficient(j, j, n, m) * plan.streams[(j, m, n)].evaluate(h)
            for (j, m, n) in sorted(plan.streams)
        ]
    )
    return coords, pre[:, None] * _channel_matrix(h)[tx]


def stream_mean_power(plan: TransmitPlan, h: ChannelRealization, k: int, m: int) -> float:
    """Exact E[X_km^2] under independent uniform symbols at unit amplitude."""
    _check_pair(plan, h)
    c = plan.config
    tot = 0.0
    for n in range(1, c.N + 1):
        s2 = sum(v**2 for v in plan.streams[(k, m, n)].evaluate(h).tolist())
        tot += h.coefficient(k, k, n, m) ** 2 * s2
    return tot * symbol_variance(c.Q)


# Smallest amplitude.  The decoder divides the unit-variance noise by the
# amplitude, and at this floor Z / A stays finite for every |Z| up to
# 1e-300 * float max = 1.8e8.  The largest |Z| in 10^7 standard-normal draws
# was 5.35, so the floor leaves a factor of over 3e7 before overflow.
MIN_AMPLITUDE = 1e-300


def amplitude_scale(
    plan: TransmitPlan, h: ChannelRealization, rhos: tuple[float, ...]
) -> dict[float, float]:
    """Largest common amplitude at each total power rho keeping every
    stream within its share rho/(K*M) of the budget, as {rho: A}.

    A single A across streams keeps every interference aggregate an exact
    integer multiple of one scale, which the decoder's candidate lattice
    relies on; the binding stream hits its cap, the rest sit below it.  The
    unit-amplitude stream powers do not depend on rho and are computed once.
    An A below MIN_AMPLITUDE is refused.
    """
    return _amplitudes(_stream_powers(plan, h), rhos)


def _stream_powers(plan: TransmitPlan, h: ChannelRealization) -> list[float]:
    """The unit-amplitude power of every transmit antenna, user-major."""
    c = plan.config
    return [stream_mean_power(plan, h, k, m) for (k, m) in _antennas(c.K, c.M)]


def _amplitudes(powers: list[float], rhos: tuple[float, ...]) -> dict[float, float]:
    """amplitude_scale from the transmit antennas' unit-amplitude powers."""
    amplitudes = {}
    for rho in rhos:
        if rho <= 0:
            raise ValueError(f"rho must be positive, got {rho}")
        a = amplitudes[rho] = min(math.sqrt(rho / len(powers) / p) for p in powers)
        if a < MIN_AMPLITUDE:
            raise ValueError(f"amplitude {a} at rho={rho} is below {MIN_AMPLITUDE:g}")
    return amplitudes


@dataclass(frozen=True)
class AntennaModel:
    """What one receive antenna sees, numerically, at unit amplitude.

    coords lists the desired (m, l) stream coordinates in decode order.
    gains holds their arrival gains, then one gain per distinct
    interference direction; mults holds 1 per desired coordinate, then
    each direction's alignment multiplicity.  An axis of multiplicity mult
    carries symbol sums within mult*(Q-1) of zero, so the decode lattice
    has radius mult*(Q-1) on it and the difference box 2*mult*(Q-1).
    profile is the symbolic view the model was built from.
    """

    k: int
    n: int
    coords: tuple[tuple[int, int], ...]
    gains: np.ndarray
    mults: tuple[int, ...]
    profile: ReceiverProfile


def antenna_model(
    plan: TransmitPlan, h: ChannelRealization, k: int, n: int
) -> AntennaModel:
    _check_pair(plan, h)
    prof = _profile(plan, k, n)
    if prof.desired_overlap is not None:
        raise InconsistentPlanError(
            f"desired direction {monomial_text(prof.desired_overlap)} aligned with "
            f"interference at antenna ({k},{n}); exhaustive decoding is ill-posed"
        )
    own = {m: plan.streams[(k, m, n)] for m in range(1, plan.config.M + 1)}
    coords = tuple((m, l) for m, ds in own.items() for l in range(len(ds)))
    desired = [h.coefficient(k, k, n, m) ** 2 * ds.evaluate(h) for m, ds in own.items()]
    return AntennaModel(
        k=k,
        n=n,
        coords=coords,
        gains=np.concatenate(desired + [prof.interference.evaluate(h)]),
        mults=(1,) * len(coords) + tuple(prof.multiplicity.tolist()),
        profile=prof,
    )


def _decode_radii(model: AntennaModel, Q: int, queries: int, budget: int) -> list[int]:
    """Radii of the decode lattice at Q, refused before any work when its
    interference sums or its desired sums times the queries exceed budget."""
    radii = [mult * (Q - 1) for mult in model.mults]
    n_i = math.prod(2 * r + 1 for r in radii[len(model.coords) :])
    if n_i > budget:
        raise DecodeBudgetError(n_i, budget, "interference block")
    work = math.prod(2 * r + 1 for r in radii[: len(model.coords)]) * queries
    if work > budget:
        raise DecodeBudgetError(work, budget, "desired sums times queries")
    return radii


def _distance_radii(model: AntennaModel, Q: int, budget: int) -> list[int]:
    """Radii of the difference box behind min_distance at Q, refused before
    any work when the box is over budget."""
    if Q < 2:
        raise ValueError(f"Q must be >= 2, got {Q}")
    if len(model.mults) > MAX_DISTANCE_DIRECTIONS:
        raise DecodeBudgetError(
            len(model.mults), MAX_DISTANCE_DIRECTIONS, "distance enumeration directions"
        )
    radii = [2 * (Q - 1) * mult for mult in model.mults]
    # exact: a 12-axis box at Q=16 is 61**12, past int64
    box = math.prod(2 * r + 1 for r in radii)
    if box > budget:
        raise DecodeBudgetError(box, budget, "distance enumeration")
    return radii


def min_distance(
    model: AntennaModel,
    Q: int,
    amplitude: float = 1.0,
    budget: int = DEFAULT_DECODE_BUDGET,
) -> float:
    """Smallest gap between noiseless received points whose desired symbols
    differ, found exactly over the whole difference box.

    Differences of desired symbols range over -2(Q-1)..2(Q-1) (not all
    zero) and each aggregate difference over twice its own bound; this
    covers exactly the pairs of distinct-desired constellation points.
    """
    radii = _distance_radii(model, Q, budget)
    return amplitude * min_abs_combination(model.gains, radii, len(model.coords))


def separation_exponent(model: AntennaModel) -> float:
    """Least-squares slope of log d_min against log Q over SLOPE_Q at unit
    amplitude.

    Every Q's difference box is checked against the budget before any
    distance is computed, so a refusal at a large Q costs no work.
    """
    return _slope(model, lambda r: min_abs_combination(model.gains, r, len(model.coords)))


def _slope(model: AntennaModel, distance) -> float:
    """separation_exponent with each unit-amplitude distance read from
    distance(radii)."""
    radii = [_distance_radii(model, q, DEFAULT_DECODE_BUDGET) for q in SLOPE_Q]
    d = [distance(r) for r in radii]
    if any(v <= 0 for v in d):
        return float("nan")
    slope = np.polyfit(np.log(np.array(SLOPE_Q, dtype=float)), np.log(d), 1)[0]
    return float(slope)


def separation_floor(profile: ReceiverProfile) -> float:
    """Theoretical slope floor -(m + EPSILON), with m the count of distinct
    non-unit directions arriving at the antenna."""
    return -(profile.distinct_directions + EPSILON)


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo operating points.

    Total power rho splits equally across users (and antennas within a
    user); amplitude_scale derives each point's amplitude.
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
        return {
            "q": self.q,
            "cap": self.cap,
            "trials": self.trials,
            "d_min": self.d_min,
            "ser": [
                {"rho": rho, "ser": self.ser[rho], "amplitude": self.amplitudes[rho]}
                for rho in sorted(self.ser)
            ],
            "separation_slope": self.separation_slope,
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

    Built with the forward map (coords, W) and the antenna models.  The
    unit-amplitude stream powers are computed, and the symbols U and
    y_unit = U @ W drawn, on the first decode, and the noise Z on the first
    noisy one, so a call refused by its budgets computes none of them.
    Decode tables are kept by (antenna, lattice radii), so a seed's noiseless
    and noisy runs sort each antenna's sums once.  Unit-amplitude distances
    are kept by (antenna, box radii), so d_min and the slope solve a shared
    box once; the slope is kept too.
    """

    def __init__(self, plan: TransmitPlan, h: ChannelRealization, trials: int):
        self.coords, self.W = _forward(plan, h)
        c = plan.config
        self.plan = plan
        self.seed = h.config.seed
        self.trials = trials
        self.ants = _antennas(c.K, c.N)
        self.models = [antenna_model(plan, h, k, n) for (k, n) in self.ants]
        self.h = h
        col_of = {x: i for i, x in enumerate(self.coords)}
        # each antenna's desired symbols, as columns of U in decode order
        self.columns = [
            [col_of[(k, m, n, l)] for (m, l) in model.coords]
            for (k, n), model in zip(self.ants, self.models)
        ]
        self.tables: dict[tuple[int, tuple[int, ...]], DecodeTable] = {}
        self.distances: dict[tuple[int, tuple[int, ...]], float] = {}

    @cached_property
    def powers(self) -> list[float]:
        return _stream_powers(self.plan, self.h)

    @cached_property
    def U(self) -> np.ndarray:
        return _draw_symbols(self.seed, self.plan.config.Q, self.trials, len(self.coords))

    @cached_property
    def y_unit(self) -> np.ndarray:
        return self.U.astype(np.float64) @ self.W

    @cached_property
    def Z(self) -> np.ndarray:
        return _draw_noise(self.seed, self.trials, len(self.ants))

    def table(self, ai: int, radii: list[int], queries: int) -> DecodeTable:
        """decode_table of antenna ai's lattice of radii, built for the
        first call's queries count: either form decodes every query alike."""
        key = (ai, tuple(radii))
        t = self.tables.get(key)
        if t is None:
            gains, nd = self.models[ai].gains, len(self.models[ai].coords)
            d_sum = _block_sums(gains, radii, 0, nd)
            i_sum = _block_sums(gains, radii, nd, len(radii))
            t = self.tables[key] = decode_table(d_sum, i_sum, queries)
        return t

    def distance(self, ai: int, radii: list[int]) -> float:
        """min_abs_combination of antenna ai's model over the box radii."""
        key = (ai, tuple(radii))
        d = self.distances.get(key)
        if d is None:
            model = self.models[ai]
            d = self.distances[key] = min_abs_combination(model.gains, radii, len(model.coords))
        return d

    @cached_property
    def slope(self) -> float:
        """separation_exponent of the first antenna, NaN when refused; the
        refusal depends on the model alone, not on a call's budget."""
        try:
            return _slope(self.models[0], lambda r: self.distance(0, r))
        except DecodeBudgetError:
            return float("nan")


def simulate_plan(
    plan: TransmitPlan,
    h: ChannelRealization,
    sim_config: SimConfig,
    budget: int = DEFAULT_DECODE_BUDGET,
) -> SimResult:
    """Monte Carlo SER over the SNR points for a prepared plan and channel.

    Messages and noise are drawn once from the channel's seed and reused
    across SNR points (common random numbers), so SER curves differ only
    through the amplitude.  A noiseless run receives the same values at
    every SNR point, so it decodes them once and counts the same errors at
    each.
    """
    return _operate(_Draw(plan, h, sim_config.trials), sim_config, budget)


def _operate(draw: _Draw, sim_config: SimConfig, budget: int) -> SimResult:
    """The operating points of sim_config on a draw of its trials count.

    Every budget is checked here, on each call, before the work it guards.
    """
    Q = draw.plan.config.Q
    models = draw.models
    trials = sim_config.trials
    rhos = sim_config.snr_points
    passes = 1 if sim_config.noiseless else len(rhos)
    # every antenna is checked before any is decoded
    radii = [_decode_radii(m, Q, trials * passes, budget) for m in models]
    amplitudes = _amplitudes(draw.powers, rhos)
    U, y_unit = draw.U, draw.y_unit

    # One antenna at a time, each searched once with the queries of every
    # pass stacked: the queries are independent, so the indices are those
    # of one search per pass.
    wrong = np.zeros(len(rhos), dtype=np.int64)
    total = 0
    for ai, (r, cols) in enumerate(zip(radii, draw.columns)):
        y = y_unit[:, ai]
        if sim_config.noiseless:
            ys = [y]
        else:
            ys = [y + draw.Z[:, ai] / amplitudes[rho] for rho in rhos]
        table = draw.table(ai, r, trials * passes)
        idx = nearest_candidate_indices(np.concatenate(ys), table)
        pos = np.unravel_index(idx, [2 * x + 1 for x in r])
        for d, col in enumerate(cols):
            decoded = (pos[d] - (Q - 1)).reshape(passes, trials)
            # a noiseless pass counts at every rho
            wrong += np.sum(decoded != U[:, col], axis=1)
            total += trials
    ser = {rho: int(w) / total for rho, w in zip(rhos, wrong)}

    # the same product min_distance forms, on the draw's kept distances
    a0 = amplitudes[rhos[0]]
    try:
        d_min = min(
            a0 * draw.distance(ai, _distance_radii(model, Q, budget))
            for ai, model in enumerate(models)
        )
    except DecodeBudgetError:
        d_min = float("nan")

    n_streams = len(models[0].coords)
    hit = [rho for rho in rhos if ser[rho] < 1e-3]
    rate = n_streams * math.log2(2 * Q - 1) if hit else 0.0

    return SimResult(
        q=Q,
        cap=max(len(ds) for ds in draw.plan.streams.values()),
        trials=trials,
        d_min=d_min,
        ser=ser,
        separation_slope=draw.slope,
        separation_floor=separation_floor(models[0].profile),
        decoded_rate=rate,
        amplitudes=amplitudes,
    )


# One entry, beside _kept_plan: a sweep runs each draw's operating points
# back to back (sim_sweep's noiseless command, then its noisy one, on every
# seed) and does not come back to an earlier draw.
@lru_cache(maxsize=1)
def _kept_draw(config: SystemConfig, cap: int, trials: int) -> _Draw:
    """The draw of a config, seed included, on its system's kept plan."""
    return _Draw(_kept_plan(replace(config, seed=0), cap), generate_channel(config), trials)


def run_link_sim(
    config: SystemConfig,
    sim_config: SimConfig,
    cap: int,
    budget: int = DEFAULT_DECODE_BUDGET,
) -> SimResult:
    """Simulate a bare config: its channel draw on the system's kept plan,
    both built on the first call that asks for them."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    return _operate(_kept_draw(config, cap, sim_config.trials), sim_config, budget)
