"""Link-level simulation: encode over direction sets, propagate, decode.

Decoding is exhaustive nearest-point search over the exact finite
constellation each antenna can see: desired symbols jointly with bounded
integer interference aggregates.  All randomness is keyed by (seed, role)
so every run replays bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
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
from .directions import UNIT, Direction, DirectionSet, mono_eval

MAX_DISTANCE_DIRECTIONS = 12
DEFAULT_DECODE_BUDGET = 10**7

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


def _check_pair(plan: TransmitPlan, h: ChannelRealization) -> None:
    if plan.config != h.config:
        raise InconsistentPlanError("plan and channel were built from different configs")


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


def draw_messages(plan: TransmitPlan, seed: int = 0) -> MessageMatrix:
    """Uniform random symbols for every plan coordinate, seeded."""
    coords = plan_coordinates(plan)
    rng = np.random.default_rng((seed, _MESSAGE_ROLE))
    top = plan.config.Q - 1
    vals = rng.integers(-top, top + 1, size=len(coords))
    return MessageMatrix(plan.config, dict(zip(coords, vals.tolist())))


def encode(
    plan: TransmitPlan,
    h: ChannelRealization,
    msgs: MessageMatrix,
    amplitude: float,
) -> dict[tuple[int, int], float]:
    """Transmit value of every antenna: each stream rides its directions,
    pre-weighted by the direct gain to its destination antenna."""
    _check_pair(plan, h)
    expected = set(plan_coordinates(plan))
    if set(msgs.symbols) != expected:
        raise InconsistentPlanError("message index set does not match the plan")
    c = plan.config
    X = {}
    for k in range(1, c.K + 1):
        for m in range(1, c.M + 1):
            total = 0.0
            for n in range(1, c.N + 1):
                ds = plan.streams[(k, m, n)]
                s = 0.0
                for l in range(len(ds)):
                    s += msgs.symbols[(k, m, n, l)] * mono_eval(ds[l], h)
                total += h.coefficient(k, k, n, m) * amplitude * s
            X[(k, m)] = total
    return X


def propagate(
    h: ChannelRealization,
    X: dict[tuple[int, int], float],
    noise_seed: Optional[int] = None,
) -> dict[tuple[int, int], float]:
    """Received value at every antenna: linear mixing plus unit-variance
    Gaussian noise when noise_seed is given, noiseless otherwise."""
    c = h.config
    expected = {(k, m) for k in range(1, c.K + 1) for m in range(1, c.M + 1)}
    if set(X) != expected:
        raise InconsistentPlanError("transmit values do not cover every (k, m)")
    ants = [(k, n) for k in range(1, c.K + 1) for n in range(1, c.N + 1)]
    if noise_seed is None:
        noise = np.zeros(len(ants))
    else:
        noise = np.random.default_rng((noise_seed, _NOISE_ROLE)).standard_normal(
            len(ants)
        )
    Y = {}
    for idx, (k, n) in enumerate(ants):
        v = 0.0
        for j in range(1, c.K + 1):
            for m in range(1, c.M + 1):
                v += h.coefficient(k, j, n, m) * X[(j, m)]
        Y[(k, n)] = v + float(noise[idx])
    return Y


def stream_mean_power(
    plan: TransmitPlan, h: ChannelRealization, k: int, m: int, amplitude: float
) -> float:
    """Exact E[X_km^2] under independent uniform symbols."""
    _check_pair(plan, h)
    c = plan.config
    tot = 0.0
    for n in range(1, c.N + 1):
        s2 = sum(mono_eval(d, h) ** 2 for d in plan.streams[(k, m, n)])
        tot += h.coefficient(k, k, n, m) ** 2 * s2
    return amplitude**2 * tot * symbol_variance(c.Q)


def amplitude_scale(plan: TransmitPlan, h: ChannelRealization, rho: float) -> float:
    """Largest common amplitude keeping every stream within its share
    rho/(K*M) of the total power budget.

    A single A across streams keeps every interference aggregate an exact
    integer multiple of one scale, which the decoder's candidate lattice
    relies on; the binding stream hits its cap, the rest sit below it.
    """
    _check_pair(plan, h)
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    c = plan.config
    cap = rho / (c.K * c.M)
    best = None
    for k in range(1, c.K + 1):
        for m in range(1, c.M + 1):
            p1 = stream_mean_power(plan, h, k, m, 1.0)
            a = math.sqrt(cap / p1)
            if best is None or a < best:
                best = a
    assert best is not None
    return best


@dataclass(frozen=True)
class AntennaModel:
    """What one receive antenna sees, numerically, at unit amplitude.

    coords lists the desired (m, l) stream coordinates in decode order;
    desired_gains their arrival gains; the aggregate entries describe each
    distinct interference direction with its alignment multiplicity.
    profile is the symbolic view the model was built from.
    """

    k: int
    n: int
    coords: tuple[tuple[int, int], ...]
    desired_gains: np.ndarray
    agg_directions: tuple[Direction, ...]
    agg_mults: tuple[int, ...]
    agg_gains: np.ndarray
    profile: ReceiverProfile


def antenna_model(
    plan: TransmitPlan, h: ChannelRealization, k: int, n: int
) -> AntennaModel:
    _check_pair(plan, h)
    prof = expand_received(plan, k, n)
    for dset in prof.desired.values():
        overlap = dset.intersect(prof.interference)
        if overlap:
            raise InconsistentPlanError(
                f"desired direction {overlap[0].text()} aligned with interference "
                f"at antenna ({k},{n}); exhaustive decoding is ill-posed"
            )
    coords = []
    gains = []
    for m in range(1, plan.config.M + 1):
        ds = plan.streams[(k, m, n)]
        h2 = h.coefficient(k, k, n, m) ** 2
        for l in range(len(ds)):
            coords.append((m, l))
            gains.append(h2 * mono_eval(ds[l], h))
    aggs = tuple(prof.interference)
    return AntennaModel(
        k=k,
        n=n,
        coords=tuple(coords),
        desired_gains=np.array(gains),
        agg_directions=aggs,
        agg_mults=tuple(prof.multiplicity.values()),
        agg_gains=np.array([mono_eval(d, h) for d in aggs]),
        profile=prof,
    )


def _lattice_values(model: AntennaModel, Q: int, budget: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Candidate received values (unit amplitude) in C order, plus axis dims.

    Axis order is desired coordinates then aggregates, values ascending, so
    the first index the argmin hits is the lexicographically smallest
    symbol vector; that is the documented tie-break.
    """
    dims = [2 * Q - 1] * len(model.coords) + [
        2 * mult * (Q - 1) + 1 for mult in model.agg_mults
    ]
    n_cand = math.prod(dims)
    if n_cand > budget:
        raise DecodeBudgetError(n_cand, budget, "candidate lattice")
    gains = np.concatenate([model.desired_gains, model.agg_gains])
    radii = [(dim - 1) // 2 for dim in dims]
    return _block_sums(gains, radii, 0, len(dims)), tuple(dims)


def min_distance(
    plan: TransmitPlan,
    h: ChannelRealization,
    k: int,
    n: int,
    Q: Optional[int] = None,
    amplitude: float = 1.0,
    budget: int = DEFAULT_DECODE_BUDGET,
) -> float:
    """Smallest gap between noiseless received points whose desired symbols
    differ, found exactly over the whole difference box.

    Differences of desired symbols range over -2(Q-1)..2(Q-1) (not all
    zero) and each aggregate difference over twice its own bound; this
    covers exactly the pairs of distinct-desired constellation points.
    """
    if Q is None:
        Q = plan.config.Q
    return _min_distance(antenna_model(plan, h, k, n), Q, amplitude, budget)


def _min_distance(
    model: AntennaModel, Q: int, amplitude: float, budget: int
) -> float:
    """min_distance on an antenna model already built."""
    if Q < 2:
        raise ValueError(f"Q must be >= 2, got {Q}")
    nd = len(model.coords)
    na = len(model.agg_directions)
    if nd + na > MAX_DISTANCE_DIRECTIONS:
        raise DecodeBudgetError(
            nd + na, MAX_DISTANCE_DIRECTIONS, "distance enumeration directions"
        )
    radii = np.array(
        [2 * (Q - 1)] * nd + [2 * mult * (Q - 1) for mult in model.agg_mults],
        dtype=np.int64,
    )
    box = int(np.prod(2 * radii + 1))
    if box > budget:
        raise DecodeBudgetError(box, budget, "distance enumeration")
    gains = (
        np.concatenate([model.desired_gains, model.agg_gains])
        if na
        else model.desired_gains
    )
    return amplitude * min_abs_combination(gains, radii, nd)


def separation_exponent(
    plan: TransmitPlan,
    h: ChannelRealization,
    k: int,
    n: int,
    q_list: tuple[int, ...],
) -> float:
    """Least-squares slope of log d_min against log Q at unit amplitude."""
    if len(q_list) < 4:
        raise ValueError(f"need at least 4 Q values, got {len(q_list)}")
    return _separation_exponent(antenna_model(plan, h, k, n), q_list)


def _separation_exponent(model: AntennaModel, q_list: tuple[int, ...]) -> float:
    """separation_exponent on an antenna model already built."""
    d = [_min_distance(model, q, 1.0, DEFAULT_DECODE_BUDGET) for q in q_list]
    if any(v <= 0 for v in d):
        return float("nan")
    slope = np.polyfit(np.log(np.array(q_list, dtype=float)), np.log(d), 1)[0]
    return float(slope)


def separation_floor(plan: TransmitPlan, k: int, n: int, epsilon: float) -> float:
    """Theoretical slope floor -(m + eps), with m the count of distinct
    non-unit directions arriving at the antenna."""
    return _separation_floor(expand_received(plan, k, n), epsilon)


def _separation_floor(prof: ReceiverProfile, epsilon: float) -> float:
    """separation_floor on a receiver profile already expanded."""
    seen = reduce(DirectionSet.union, prof.desired.values(), prof.interference)
    return -(len(seen) - (UNIT in seen) + epsilon)


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo operating points.

    Total power rho splits equally across users (and antennas within a
    user); amplitude, when set, overrides the derived power rule.
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
        if any(r <= 0 for r in self.snr_points):
            raise ValueError("snr points must be positive")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.amplitude is not None and self.amplitude <= 0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")


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

    Messages and noise are drawn once and reused across SNR points (common
    random numbers), so SER curves differ only through the amplitude.
    """
    _check_pair(plan, h)
    config = plan.config
    Q = config.Q
    coords = plan_coordinates(plan)
    col_of = {c: i for i, c in enumerate(coords)}
    ants = [
        (k, n) for k in range(1, config.K + 1) for n in range(1, config.N + 1)
    ]

    W = np.zeros((len(coords), len(ants)))
    for ci, (j, m, np_, l) in enumerate(coords):
        pre = h.coefficient(j, j, np_, m) * mono_eval(plan.streams[(j, m, np_)][l], h)
        for ai, (k, n) in enumerate(ants):
            W[ci, ai] = h.coefficient(k, j, n, m) * pre

    models = [antenna_model(plan, h, k, n) for (k, n) in ants]

    trials = sim_config.trials
    U = np.random.default_rng((config.seed, _MESSAGE_ROLE)).integers(
        -(Q - 1), Q, size=(trials, len(coords))
    )
    Z = np.random.default_rng((config.seed, _NOISE_ROLE)).standard_normal(
        (trials, len(ants))
    )
    y_unit = U.astype(np.float64) @ W

    rhos = sim_config.snr_points
    amplitudes: dict[float, float] = {
        rho: (
            sim_config.amplitude
            if sim_config.amplitude is not None
            else amplitude_scale(plan, h, rho)
        )
        for rho in rhos
    }
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
        d_min = min(_min_distance(model, Q, a0, budget) for model in models)
    except DecodeBudgetError:
        d_min = float("nan")
    try:
        slope = _separation_exponent(models[0], (2, 4, 8, 16))
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
        separation_floor=_separation_floor(models[0].profile, sim_config.epsilon),
        decoded_rate=rate,
        amplitudes=amplitudes,
    )


def run_link_sim(
    config: SystemConfig,
    sim_config: SimConfig,
    cap: int,
    budget: int = DEFAULT_DECODE_BUDGET,
) -> SimResult:
    """Build, truncate, and simulate in one shot from a bare config."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    h = generate_channel(config)
    plan = truncate_plan(build_transmit_directions(config), cap)
    return simulate_plan(plan, h, sim_config, budget)
