"""Link-level simulation: encode over direction sets, propagate, decode.

One forward model (_forward) carries every plan coordinate to every receive
antenna; encode/propagate and the Monte Carlo loop are products on it.
Decoding is exhaustive nearest-point search over the exact finite
constellation each antenna can see: desired symbols jointly with bounded
integer interference aggregates.  All randomness is keyed by (seed, role)
so every run replays bit for bit.

The plan is symbolic: every direction is a monomial in the channel gains,
so one plan, and each antenna's expansion of it, serves every channel draw
of a system.  The seed belongs to the draw, not to the plan; run_link_sim
builds the kept plan once per seedless config and cap, and only the numeric
half (channel, evaluation, decode, distances) runs per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from ._kernels import _block_sums, min_abs_combination, nearest_candidate_indices
from .alignment import (
    ReceiverProfile,
    TransmitPlan,
    build_transmit_directions,
    expand_received,
    truncate_plan,
)
from .channel import ChannelRealization, SystemConfig, generate_channel
from .directions import monomial_text

MAX_DISTANCE_DIRECTIONS = 12
DEFAULT_DECODE_BUDGET = 10**7
# Smallest explicit amplitude.  The decoder divides the unit-variance noise
# by the amplitude, and at this floor Z / A stays finite for every |Z| up
# to 1e-300 * float max = 1.8e8.  The largest |Z| in 10^7 standard-normal
# draws was 5.35, so the floor leaves a factor of over 3e7 before overflow.
MIN_AMPLITUDE = 1e-300

# sub-seed roles so message and noise draws never share a stream
_MESSAGE_ROLE = 0xA1
_NOISE_ROLE = 0xB2


class DecodeBudgetError(RuntimeError):
    """An exhaustive enumeration would exceed its budget; .required says
    how big it would have been."""

    def __init__(self, required: int, budget: int, what: str = "exhaustive decode"):
        super().__init__(f"{what} needs {required}, budget is {budget}")
        self.required = required
        self.budget = budget


class InconsistentPlanError(ValueError):
    """Plan, channel, and messages do not describe the same system."""


def _system(config: SystemConfig) -> SystemConfig:
    """What a plan depends on: the config without the seed of the draw."""
    return replace(config, seed=0)


def _check_pair(plan: TransmitPlan, h: ChannelRealization) -> None:
    """A plan fits every channel draw of its system, whatever the seed."""
    if _system(plan.config) != _system(h.config):
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
    """Variance of a uniform integer symbol on -(Q-1)..(Q-1)."""
    return Q * (Q - 1) / 3.0


@dataclass(frozen=True)
class MessageMatrix:
    """Integer symbols u, one per (k, m, n, l) stream coordinate."""

    config: SystemConfig
    symbols: dict[tuple[int, int, int, int], int]

    def __post_init__(self) -> None:
        top = self.config.Q - 1
        for key, u in self.symbols.items():
            if abs(u) > top:
                raise ValueError(f"symbol {u} at {key} outside [-{top}, {top}]")


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
    (coords, tx, pre, W).

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
    return coords, tx, pre, pre[:, None] * _channel_matrix(h)[tx]


def draw_messages(plan: TransmitPlan, seed: int = 0) -> MessageMatrix:
    """Uniform random symbols for every plan coordinate, seeded: trial 0 of
    a simulation of the plan with that seed."""
    coords = plan_coordinates(plan)
    u = _draw_symbols(seed, plan.config.Q, 1, len(coords))[0]
    return MessageMatrix(plan.config, dict(zip(coords, u.tolist())))


def encode(
    plan: TransmitPlan,
    h: ChannelRealization,
    msgs: MessageMatrix,
    amplitude: float,
) -> dict[tuple[int, int], float]:
    """Transmit value of every antenna: each stream rides its directions,
    pre-weighted by the direct gain to its destination antenna."""
    coords, tx, pre, _ = _forward(plan, h)
    if set(msgs.symbols) != set(coords):
        raise InconsistentPlanError("message index set does not match the plan")
    c = plan.config
    u = np.array([msgs.symbols[coord] for coord in coords], dtype=np.float64)
    x = amplitude * np.bincount(tx, weights=u * pre, minlength=c.K * c.M)
    return dict(zip(_antennas(c.K, c.M), x.tolist()))


def propagate(
    h: ChannelRealization,
    X: dict[tuple[int, int], float],
    noise_seed: Optional[int] = None,
) -> dict[tuple[int, int], float]:
    """Received value at every antenna: linear mixing plus unit-variance
    Gaussian noise when noise_seed is given (trial 0 of that seed's noise),
    noiseless otherwise."""
    c = h.config
    tx = _antennas(c.K, c.M)
    if set(X) != set(tx):
        raise InconsistentPlanError("transmit values do not cover every (k, m)")
    rx = _antennas(c.K, c.N)
    y = np.array([X[a] for a in tx], dtype=np.float64) @ _channel_matrix(h)
    if noise_seed is not None:
        y = y + _draw_noise(noise_seed, 1, len(rx))[0]
    return dict(zip(rx, y.tolist()))


def stream_mean_power(
    plan: TransmitPlan, h: ChannelRealization, k: int, m: int, amplitude: float
) -> float:
    """Exact E[X_km^2] under independent uniform symbols."""
    _check_pair(plan, h)
    c = plan.config
    tot = 0.0
    for n in range(1, c.N + 1):
        s2 = sum(v**2 for v in plan.streams[(k, m, n)].evaluate(h).tolist())
        tot += h.coefficient(k, k, n, m) ** 2 * s2
    return amplitude**2 * tot * symbol_variance(c.Q)


def amplitude_scale(
    plan: TransmitPlan, h: ChannelRealization, rhos: tuple[float, ...]
) -> dict[float, float]:
    """Largest common amplitude at each total power rho keeping every
    stream within its share rho/(K*M) of the budget, as {rho: A}.

    A single A across streams keeps every interference aggregate an exact
    integer multiple of one scale, which the decoder's candidate lattice
    relies on; the binding stream hits its cap, the rest sit below it.  The
    unit-amplitude stream powers do not depend on rho and are computed once.
    """
    for rho in rhos:
        if rho <= 0:
            raise ValueError(f"rho must be positive, got {rho}")
    c = plan.config
    powers = [stream_mean_power(plan, h, k, m, 1.0) for (k, m) in _antennas(c.K, c.M)]
    return {rho: min(math.sqrt(rho / (c.K * c.M) / p) for p in powers) for rho in rhos}


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


def _lattice_values(model: AntennaModel, Q: int, budget: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Candidate received values (unit amplitude) in C order, plus axis dims.

    Axis order is desired coordinates then aggregates, values ascending, so
    the first index the argmin hits is the lexicographically smallest
    symbol vector; that is the documented tie-break.
    """
    radii = [mult * (Q - 1) for mult in model.mults]
    dims = tuple(2 * r + 1 for r in radii)
    n_cand = math.prod(dims)
    if n_cand > budget:
        raise DecodeBudgetError(n_cand, budget, "candidate lattice")
    return _block_sums(model.gains, radii, 0, len(dims)), dims


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


def separation_exponent(model: AntennaModel, q_list: tuple[int, ...]) -> float:
    """Least-squares slope of log d_min against log Q at unit amplitude.

    Every Q's difference box is checked against the budget before any
    distance is computed, so a refusal at a large Q costs no work.
    """
    if len(q_list) < 4:
        raise ValueError(f"need at least 4 Q values, got {len(q_list)}")
    radii = [_distance_radii(model, q, DEFAULT_DECODE_BUDGET) for q in q_list]
    d = [min_abs_combination(model.gains, r, len(model.coords)) for r in radii]
    if any(v <= 0 for v in d):
        return float("nan")
    slope = np.polyfit(np.log(np.array(q_list, dtype=float)), np.log(d), 1)[0]
    return float(slope)


def separation_floor(profile: ReceiverProfile, epsilon: float) -> float:
    """Theoretical slope floor -(m + eps), with m the count of distinct
    non-unit directions arriving at the antenna."""
    return -(profile.distinct_directions + epsilon)


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo operating points.

    Total power rho splits equally across users (and antennas within a
    user); amplitude, when set, overrides the derived power rule.  It must
    be finite and at least MIN_AMPLITUDE (1e-300), so that the noise it
    scales cannot overflow.
    """

    snr_points: tuple[float, ...]
    trials: int = 1000
    epsilon: float = 0.1
    amplitude: Optional[float] = None
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
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        a = self.amplitude
        if a is not None and not MIN_AMPLITUDE <= a < math.inf:
            raise ValueError(f"amplitude must be finite and >= {MIN_AMPLITUDE:g}, got {a}")


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


def simulate_plan(
    plan: TransmitPlan,
    h: ChannelRealization,
    sim_config: SimConfig,
    budget: int = DEFAULT_DECODE_BUDGET,
) -> SimResult:
    """Monte Carlo SER over the SNR points for a prepared plan and channel.

    Messages and noise are drawn once from the channel's seed and reused
    across SNR points (common random numbers), so SER curves differ only
    through the amplitude.
    """
    coords, _, _, W = _forward(plan, h)
    config = plan.config
    Q = config.Q
    col_of = {c: i for i, c in enumerate(coords)}
    ants = _antennas(config.K, config.N)
    models = [antenna_model(plan, h, k, n) for (k, n) in ants]

    trials = sim_config.trials
    U = _draw_symbols(h.config.seed, Q, trials, len(coords))
    Z = _draw_noise(h.config.seed, trials, len(ants))
    y_unit = U.astype(np.float64) @ W

    rhos = sim_config.snr_points
    if sim_config.amplitude is None:
        amplitudes = amplitude_scale(plan, h, rhos)
    else:
        amplitudes = dict.fromkeys(rhos, sim_config.amplitude)
    # One lattice at a time, each searched once with the queries of every
    # rho stacked: the queries are independent, so the indices are those
    # of one search per rho.
    wrong = np.zeros(len(rhos), dtype=np.int64)
    total = 0
    for ai, ((k, n), model) in enumerate(zip(ants, models)):
        values, dims = _lattice_values(model, Q, budget)
        y = y_unit[:, ai]
        if sim_config.noiseless:
            ys = [y] * len(rhos)
        else:
            ys = [y + Z[:, ai] / amplitudes[rho] for rho in rhos]
        idx = nearest_candidate_indices(np.concatenate(ys), values)
        pos = np.unravel_index(idx, dims)
        for d, (m, l) in enumerate(model.coords):
            decoded = (pos[d] - (Q - 1)).reshape(len(rhos), trials)
            wrong += np.sum(decoded != U[:, col_of[(k, m, n, l)]], axis=1)
            total += trials
    ser = {rho: int(w) / total for rho, w in zip(rhos, wrong)}

    a0 = amplitudes[rhos[0]]
    try:
        d_min = min(min_distance(model, Q, a0, budget) for model in models)
    except DecodeBudgetError:
        d_min = float("nan")
    try:
        slope = separation_exponent(models[0], (2, 4, 8, 16))
    except DecodeBudgetError:
        slope = float("nan")

    n_streams = len(models[0].coords)
    hit = [rho for rho in sim_config.snr_points if ser[rho] < 1e-3]
    rate = n_streams * math.log2(2 * Q - 1) if hit else 0.0

    cap = plan.truncation_cap
    if cap is None:
        cap = max(len(ds) for ds in plan.streams.values())
    return SimResult(
        q=Q,
        cap=cap,
        trials=trials,
        d_min=d_min,
        ser=ser,
        separation_slope=slope,
        separation_floor=separation_floor(models[0].profile, sim_config.epsilon),
        decoded_rate=rate,
        amplitudes=amplitudes,
    )


def run_link_sim(
    config: SystemConfig,
    sim_config: SimConfig,
    cap: int,
    budget: int = DEFAULT_DECODE_BUDGET,
) -> SimResult:
    """Simulate a bare config: its channel draw on the system's kept plan,
    built on the first call for the system and cap."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    plan = _kept_plan(_system(config), cap)
    return simulate_plan(plan, generate_channel(config), sim_config, budget)
