"""Link-level simulator tests.

The decoder is checked against a hand-rolled per-trial nearest-point
search on the single-user channel, where the constellation is a scaled
integer grid and every quantity can be recomputed in a few lines.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

from iadof._kernels import min_abs_combination
from iadof.alignment import (
    TransmitPlan,
    build_transmit_directions,
    expand_received,
    truncate_plan,
    verify_alignment,
)
from iadof.channel import SystemConfig, generate_channel
from iadof.directions import DirectionSet
from iadof.simulate import (
    MIN_AMPLITUDE,
    DecodeBudgetError,
    InconsistentPlanError,
    MessageMatrix,
    SimConfig,
    SimResult,
    amplitude_scale,
    antenna_model,
    draw_messages,
    encode,
    min_distance,
    plan_coordinates,
    propagate,
    run_link_sim,
    separation_exponent,
    separation_floor,
    simulate_plan,
    stream_mean_power,
    symbol_variance,
)
from test_directions import members, mono_eval

SNR3 = (1e2, 1e4, 1e6)


def make(K, M=1, N=1, gamma=1, Q=2, seed=0, cap=None):
    config = SystemConfig(K=K, M=M, N=N, gamma=gamma, Q=Q, seed=seed)
    h = generate_channel(config)
    plan = build_transmit_directions(config)
    if cap is not None:
        plan = truncate_plan(plan, cap)
    return config, h, plan


# ------------------------------------------------------------------ symbols


def test_symbol_variance_matches_uniform_grid():
    for Q in (2, 3, 4, 8):
        grid = np.arange(-(Q - 1), Q)
        assert symbol_variance(Q) == pytest.approx(grid.var())


def test_draw_messages_deterministic_and_in_range():
    _, _, plan = make(2, Q=4, seed=9)
    a = draw_messages(plan, seed=3)
    b = draw_messages(plan, seed=3)
    c = draw_messages(plan, seed=4)
    assert a.symbols == b.symbols
    assert a.symbols != c.symbols
    assert set(a.symbols) == set(plan_coordinates(plan))
    assert all(abs(u) <= 3 for u in a.symbols.values())


def test_message_matrix_rejects_out_of_range():
    config = SystemConfig(K=1, Q=2)
    with pytest.raises(ValueError):
        MessageMatrix(config, {(1, 1, 1, 0): 2})


# ------------------------------------------------------------------- encode


def test_encode_single_direction_is_direct_gain():
    config, h, plan = make(1, seed=5)
    msgs = MessageMatrix(config, {(1, 1, 1, 0): 1})
    X = encode(plan, h, msgs, amplitude=1.0)
    assert X[(1, 1)] == pytest.approx(h.coefficient(1, 1, 1, 1), rel=1e-15)


def test_encode_linearity():
    config, h, plan = make(2, gamma=2, Q=4, seed=1)
    coords = plan_coordinates(plan)
    a = MessageMatrix(config, {c: (i * 7) % 3 - 1 for i, c in enumerate(coords)})
    b = MessageMatrix(config, {c: (i * 5) % 3 - 1 for i, c in enumerate(coords)})
    both = MessageMatrix(config, {c: a.symbols[c] + b.symbols[c] for c in coords})
    Xa = encode(plan, h, a, 1.0)
    Xb = encode(plan, h, b, 1.0)
    Xboth = encode(plan, h, both, 1.0)
    for key in Xa:
        assert Xboth[key] == pytest.approx(Xa[key] + Xb[key], rel=1e-10, abs=1e-12)
    # amplitude scaling is exactly linear too
    X2 = encode(plan, h, a, 2.0)
    for key in Xa:
        assert X2[key] == pytest.approx(2 * Xa[key], rel=1e-12)


def test_encode_zero_messages():
    config, h, plan = make(2, seed=0)
    zero = MessageMatrix(config, {c: 0 for c in plan_coordinates(plan)})
    X = encode(plan, h, zero, amplitude=3.0)
    assert all(v == 0.0 for v in X.values())


def test_encode_rejects_wrong_index_set():
    config, h, plan = make(2, seed=0)
    msgs = MessageMatrix(config, {(1, 1, 1, 0): 1})
    with pytest.raises(InconsistentPlanError):
        encode(plan, h, msgs, 1.0)


# ---------------------------------------------------------------- propagate


def test_propagate_noiseless_single_user():
    config, h, plan = make(1, seed=5)
    msgs = MessageMatrix(config, {(1, 1, 1, 0): 1})
    X = encode(plan, h, msgs, 1.0)
    Y = propagate(h, X)
    H = h.coefficient(1, 1, 1, 1)
    assert Y[(1, 1)] == pytest.approx(H * H, rel=1e-15)


def test_propagate_zero_in_zero_out():
    config, h, _ = make(3, seed=2)
    X = {(k, 1): 0.0 for k in range(1, 4)}
    Y = propagate(h, X)
    assert all(v == 0.0 for v in Y.values())


def test_propagate_noise_statistics():
    config = SystemConfig(K=8, N=8, seed=0)
    h = generate_channel(config)
    X = {(k, 1): 0.0 for k in range(1, 9)}
    draws = []
    for s in range(300):
        Y = propagate(h, X, noise_seed=s)
        draws.extend(Y.values())
    z = np.array(draws)
    assert z.shape[0] == 300 * 64
    assert abs(z.mean()) < 0.05
    assert abs(z.var() - 1.0) < 0.1


def test_propagate_noise_deterministic():
    config, h, plan = make(2, seed=1)
    X = {(1, 1): 0.5, (2, 1): -0.25}
    assert propagate(h, X, noise_seed=7) == propagate(h, X, noise_seed=7)
    assert propagate(h, X, noise_seed=7) != propagate(h, X, noise_seed=8)


@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
@pytest.mark.parametrize(
    "K,M,N,gamma,cap", [(3, 1, 1, 1, 1), (2, 2, 2, 1, 1), (2, 1, 2, 2, 2)]
)
def test_forward_model_matches_encode_propagate(K, M, N, gamma, cap, noisy):
    # trial 0 of the matrix model simulate_plan decodes, A*(U@W)[0] + Z[0],
    # is what the one-shot draw_messages -> encode -> propagate path receives
    from iadof import simulate as sim

    config, h, plan = make(K, M, N, gamma, Q=3, seed=7, cap=cap)
    coords, _, _, W = sim._forward(plan, h)
    U = sim._draw_symbols(config.seed, config.Q, 5, len(coords)).astype(np.float64)
    Z = sim._draw_noise(config.seed, 5, K * N)
    A = 0.6
    want = A * (U @ W)[0] + (Z[0] if noisy else 0.0)
    X = encode(plan, h, draw_messages(plan, config.seed), A)
    Y = propagate(h, X, noise_seed=config.seed if noisy else None)
    got = [Y[(k, n)] for k in range(1, K + 1) for n in range(1, N + 1)]
    # the two paths sum in different orders: relative 1e-12, with a floor
    # scaled by the summed magnitudes for outputs that cancel to near zero
    floor = 1e-12 * (A * np.abs(U[0]) @ np.abs(W)).max()
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=floor)


# -------------------------------------------------------------------- power


def test_stream_mean_power_exact_identity():
    config, h, plan = make(2, gamma=2, Q=4, seed=3)
    for k in (1, 2):
        got = stream_mean_power(plan, h, k, 1, amplitude=0.7)
        want = (
            0.7**2
            * symbol_variance(4)
            * sum(
                h.coefficient(k, k, n, 1) ** 2
                * sum(mono_eval(d, h) ** 2 for d in members(plan.streams[(k, 1, n)]))
                for n in (1,)
            )
        )
        assert got == pytest.approx(want, rel=1e-12)


def test_stream_mean_power_matches_monte_carlo():
    config, h, plan = make(2, seed=4, cap=2, gamma=2)
    target = stream_mean_power(plan, h, 1, 1, amplitude=1.0)
    acc = 0.0
    n = 4000
    for s in range(n):
        X = encode(plan, h, draw_messages(plan, seed=s), 1.0)
        acc += X[(1, 1)] ** 2
    assert acc / n == pytest.approx(target, rel=0.1)


def test_amplitude_scale_binding():
    config, h, plan = make(3, seed=1, cap=1)
    rho = 100.0
    A = amplitude_scale(plan, h, (rho,))[rho]
    cap = rho / (config.K * config.M)
    powers = [stream_mean_power(plan, h, k, 1, A) for k in (1, 2, 3)]
    assert max(powers) == pytest.approx(cap, rel=1e-12)
    assert all(p <= cap * (1 + 1e-9) for p in powers)


def test_amplitude_scale_rejects_bad_rho():
    config, h, plan = make(2, seed=0)
    with pytest.raises(ValueError):
        amplitude_scale(plan, h, (0.0,))


# ----------------------------------------------------------------- distance


def test_min_distance_single_user_is_squared_gain():
    config, h, plan = make(1, seed=5)
    H = h.coefficient(1, 1, 1, 1)
    model = antenna_model(plan, h, 1, 1)
    d = min_distance(model, 2, amplitude=1.0)
    assert d == H * H
    assert d == pytest.approx(1.7030326309839905, rel=1e-12)
    assert min_distance(model, 2, amplitude=2.5) == pytest.approx(
        2.5 * d, rel=1e-12
    )


def test_min_distance_positive_across_seeds():
    for seed in range(30):
        config, h, plan = make(3, seed=seed, cap=1)
        for Q in (2, 4):
            d = min_distance(antenna_model(plan, h, 1, 1), Q, amplitude=1.0)
            assert d > 1e-9


def test_min_distance_rejects_large_direction_count():
    config, h, plan = make(3, seed=0)  # untruncated: 16 + 28 directions
    with pytest.raises(DecodeBudgetError) as exc:
        min_distance(antenna_model(plan, h, 1, 1), config.Q)
    assert exc.value.required == 44
    assert exc.value.budget == 12


def test_min_distance_budget():
    config, h, plan = make(3, seed=0, cap=1)
    with pytest.raises(DecodeBudgetError):
        min_distance(antenna_model(plan, h, 1, 1), 2, budget=10)


def test_min_distance_box_past_int64_refused():
    # antenna (1,1) of K=4, cap=3 has 12 axes of multiplicity 1, so at
    # Q=16 the difference box is 61**12, which an int64 product wraps to a
    # negative number that would pass the budget check
    config, h, plan = make(4, Q=16, seed=0, cap=3)
    model = antenna_model(plan, h, 1, 1)
    assert model.mults == (1,) * 12
    assert int(np.prod(np.full(12, 61, dtype=np.int64))) < 0
    with pytest.raises(DecodeBudgetError) as exc:
        min_distance(model, 16)
    assert exc.value.required == 61**12
    assert exc.value.budget == 10**7


def test_min_distance_rejects_small_q():
    config, h, plan = make(1, seed=0)
    with pytest.raises(ValueError):
        min_distance(antenna_model(plan, h, 1, 1), 1)


# --------------------------------------------------------------- separation


def test_separation_exponent_frozen_and_deterministic():
    config, h, plan = make(3, seed=1, cap=1)
    s1 = separation_exponent(antenna_model(plan, h, 1, 1), (2, 4, 8, 16))
    s2 = separation_exponent(antenna_model(plan, h, 1, 1), (2, 4, 8, 16))
    assert s1 == s2
    assert s1 == pytest.approx(-1.9371274729698718, rel=1e-9)


def test_separation_exponent_refuses_before_any_distance(monkeypatch):
    # at K=3, Q=4, cap=2 the q=8 box is 29**6, over budget: no distance at
    # q=2 or q=4 is computed first only to be thrown away
    import iadof.simulate as sim

    config, h, plan = make(3, Q=4, seed=0, cap=2)
    model = antenna_model(plan, h, 1, 1)
    calls = []

    def counted(*args):
        calls.append(args)
        return min_abs_combination(*args)

    monkeypatch.setattr(sim, "min_abs_combination", counted)
    with pytest.raises(DecodeBudgetError) as exc:
        separation_exponent(model, (2, 4, 8, 16))
    assert exc.value.required == 29**6
    assert calls == []


def test_separation_exponent_needs_four_points():
    config, h, plan = make(3, seed=0, cap=1)
    with pytest.raises(ValueError):
        separation_exponent(antenna_model(plan, h, 1, 1), (2, 4, 8))


def test_separation_floor_counts_directions():
    config, h, plan = make(3, seed=0, cap=1)
    # one squared direct-gain desired direction plus two cross aggregates
    assert separation_floor(expand_received(plan, 1, 1), 0.1) == -3.1


def test_separation_slope_near_floor():
    # the floor is the large-Q limit; a 4-point fit can undershoot it on
    # unlucky channels, so the per-seed check carries one unit of slack
    # and the floor itself is required only for most seeds
    hits = 0
    for seed in range(20):
        config, h, plan = make(3, seed=seed, cap=1)
        slope = separation_exponent(antenna_model(plan, h, 1, 1), (2, 4, 8, 16))
        floor = separation_floor(expand_received(plan, 1, 1), 0.1)
        assert floor == -3.1
        assert slope >= floor - 1.0
        if slope >= floor:
            hits += 1
    assert hits >= 15


# ------------------------------------------------------------ inconsistency


def test_antenna_model_rejects_overlapping_plan():
    # the kept plan of the same system is warm; the hand-built plan is
    # expanded on its own and refused on every request
    config = SystemConfig(K=2, seed=0)
    run_link_sim(config, SimConfig(snr_points=(1e2,), trials=10), cap=1)
    h = generate_channel(config)
    fake = TransmitPlan(
        config=config,
        streams={
            (1, 1, 1): DirectionSet.from_matrix([(1, 2, 1, 1), (2, 2, 1, 1)], [[1, 1]]),
            (2, 1, 1): DirectionSet.from_matrix([(1, 1, 1, 1)], [[2]]),
        },
        truncation_cap=None,
    )
    refusal = (
        "desired direction H[1,1](1,1)^2 * H[1,2](1,1) * H[2,2](1,1) aligned with"
        " interference at antenna (1,1); exhaustive decoding is ill-posed"
    )
    for _ in range(2):
        with pytest.raises(InconsistentPlanError) as err:
            antenna_model(fake, h, 1, 1)
        assert str(err.value) == refusal
    with pytest.raises(InconsistentPlanError):
        simulate_plan(fake, h, SimConfig(snr_points=(1e2,), trials=10))


def test_replaced_plan_starts_without_profiles(overcounted_plan):
    # a plan made by dataclasses.replace of a warm plan expands its own
    # streams: the overcounted one sees 29 interference directions at
    # antenna (1,1), its source the exact 28
    config = SystemConfig(K=3)
    h = generate_channel(config)
    plan = build_transmit_directions(config)
    assert antenna_model(plan, h, 1, 1).profile.m_star == 28
    assert list(plan.profiles) == [(1, 1)]
    extra = dataclasses.replace(plan, streams=overcounted_plan.streams)
    assert extra.profiles == {}
    assert antenna_model(extra, h, 1, 1).profile.m_star == 29
    assert antenna_model(plan, h, 1, 1).profile.m_star == 28
    assert not verify_alignment(overcounted_plan).passed


def test_plan_streams_cannot_change_under_its_profiles(overcounted_plan):
    # the profile memo is sound only because a plan never changes: its
    # streams are a read-only copy of the mapping it was built from
    config = SystemConfig(K=3)
    h = generate_channel(config)
    streams = dict(build_transmit_directions(config).streams)
    plan = TransmitPlan(config=config, streams=streams)
    assert antenna_model(plan, h, 1, 1).profile.m_star == 28
    streams[(2, 1, 1)] = overcounted_plan.streams[(2, 1, 1)]
    with pytest.raises(TypeError):
        plan.streams[(2, 1, 1)] = overcounted_plan.streams[(2, 1, 1)]
    assert antenna_model(plan, h, 1, 1).profile.m_star == 28
    assert expand_received(plan, 1, 1).m_star == 28


def test_encode_rejects_mismatched_channel():
    config, h, plan = make(2, seed=0)
    other = generate_channel(SystemConfig(K=3, seed=0))
    msgs = draw_messages(plan)
    with pytest.raises(ValueError):
        encode(plan, other, msgs, 1.0)


# ------------------------------------------------------------------ end to end


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(snr_points=())
    with pytest.raises(ValueError):
        SimConfig(snr_points=(0.0,))
    with pytest.raises(ValueError):
        SimConfig(snr_points=(1e2,), trials=0)
    with pytest.raises(ValueError):
        SimConfig(snr_points=(1e2,), epsilon=0.0)
    with pytest.raises(ValueError):
        SimConfig(snr_points=(1e2,), amplitude=-1.0)
    for bad in ((math.nan,), (math.inf,), (1e2, -math.inf), (1e2, 1e4, 1e2)):
        with pytest.raises(ValueError, match="snr points"):
            SimConfig(snr_points=bad)
    for bad in (math.nan, math.inf, 1e-310, 5e-324, 0.99e-300):
        with pytest.raises(ValueError, match="amplitude"):
            SimConfig(snr_points=(1e2,), amplitude=bad)


def test_amplitude_near_float_min_rejected():
    # at float_info.min, Z / amplitude overflows once |Z| passes about 4,
    # which 100,000 trials reach; SimConfig refuses it before any draw
    with pytest.raises(ValueError, match="amplitude"):
        run_link_sim(
            SystemConfig(K=2),
            SimConfig(snr_points=(1e2,), trials=100000, amplitude=sys.float_info.min),
            cap=1,
        )


def test_amplitude_floor_runs_clean():
    # every warning is an error here, so an overflow in the decoder fails
    result = run_link_sim(
        SystemConfig(K=2),
        SimConfig(snr_points=(1e2,), trials=100000, amplitude=MIN_AMPLITUDE),
        cap=1,
    )
    assert 0 < result.ser[1e2] < 1
    assert result.amplitudes == {1e2: MIN_AMPLITUDE}


def test_sim_result_validation():
    with pytest.raises(ValueError):
        SimResult(
            q=2, cap=1, trials=10, d_min=-1.0, ser={1e2: 0.1},
            separation_slope=-1.0, separation_floor=-3.1,
            decoded_rate=0.0, amplitudes={1e2: 1.0},
        )
    with pytest.raises(ValueError):
        SimResult(
            q=2, cap=1, trials=10, d_min=0.5, ser={1e2: 1.5},
            separation_slope=-1.0, separation_floor=-3.1,
            decoded_rate=0.0, amplitudes={1e2: 1.0},
        )


def test_noiseless_run_is_error_free():
    config = SystemConfig(K=3, seed=1)
    result = run_link_sim(config, SimConfig(snr_points=SNR3, noiseless=True), cap=1)
    assert all(s == 0.0 for s in result.ser.values())
    assert result.d_min == pytest.approx(0.14100875690158676, rel=1e-12)
    assert result.separation_slope == pytest.approx(-1.9371274729698718, rel=1e-9)
    assert result.separation_floor == -3.1
    assert result.decoded_rate == pytest.approx(math.log2(3), rel=1e-12)


def test_noisy_run_frozen_values():
    config = SystemConfig(K=3, seed=1)
    result = run_link_sim(config, SimConfig(snr_points=SNR3), cap=1)
    assert result.ser[1e2] == pytest.approx(0.408, abs=1e-12)
    assert result.ser[1e4] == pytest.approx(0.011666666666666667, abs=1e-12)
    assert result.ser[1e6] == 0.0
    assert result.decoded_rate > 0


def test_simulate_plan_expands_each_antenna_once(monkeypatch):
    # one symbolic expansion per receive antenna feeds the decoder, d_min,
    # the separation slope and its floor, which equal the public functions
    # run on antenna models built afresh
    import iadof.simulate as sim

    config, h, plan = make(3, seed=4, cap=1)
    calls = []

    def counted(plan, k, n):
        calls.append((k, n))
        return expand_received(plan, k, n)

    monkeypatch.setattr(sim, "expand_received", counted)
    result = simulate_plan(plan, h, SimConfig(snr_points=(1e2, 1e4), trials=200))
    assert sorted(calls) == [(1, 1), (2, 1), (3, 1)]
    monkeypatch.undo()
    a0 = result.amplitudes[1e2]
    models = [antenna_model(plan, h, k, 1) for k in (1, 2, 3)]
    d_min = [min_distance(model, config.Q, amplitude=a0) for model in models]
    assert result.d_min == min(d_min)
    assert result.separation_slope == separation_exponent(models[0], (2, 4, 8, 16))
    assert result.separation_floor == separation_floor(models[0].profile, 0.1)


def test_stream_powers_computed_once(monkeypatch):
    # the unit-amplitude stream powers do not depend on rho: one per
    # transmit antenna per run, however many SNR points
    import iadof.simulate as sim

    config, h, plan = make(3, seed=1, cap=1)
    calls = []

    def counted(plan, h, k, m, amplitude):
        calls.append((k, m))
        return stream_mean_power(plan, h, k, m, amplitude)

    monkeypatch.setattr(sim, "stream_mean_power", counted)
    simulate_plan(plan, h, SimConfig(snr_points=(1e2, 1e4, 1e6, 1e8), trials=50))
    assert sorted(calls) == [(1, 1), (2, 1), (3, 1)]


def test_kept_plan_cache_replays_fresh():
    # the kept plan and its profiles, shared by every seed of the system,
    # give what a cold cache gives, seed by seed
    import iadof.simulate as sim

    sim_config = SimConfig(snr_points=(1e2, 1e6), trials=200)
    warm = [
        run_link_sim(SystemConfig(K=3, seed=s), sim_config, cap=1).to_json_dict()
        for s in range(10)
    ]
    hits = sim._kept_plan.cache_info().hits
    run_link_sim(SystemConfig(K=3, seed=0), sim_config, cap=1)
    assert sim._kept_plan.cache_info().hits == hits + 1
    for s in range(10):
        sim._kept_plan.cache_clear()
        cold = run_link_sim(SystemConfig(K=3, seed=s), sim_config, cap=1)
        assert cold.to_json_dict() == warm[s]


def test_plan_serves_every_draw_of_its_system():
    # the seed belongs to the channel draw: a plan built at seed 0 decodes
    # the seed-5 draw with seed 5's symbols and noise
    _, _, plan = make(3, seed=0, cap=1)
    config = SystemConfig(K=3, seed=5)
    sim_config = SimConfig(snr_points=(1e2, 1e4), trials=300)
    got = simulate_plan(plan, generate_channel(config), sim_config)
    want = run_link_sim(config, sim_config, cap=1)
    assert got.to_json_dict() == want.to_json_dict()
    # any other difference is still a different system
    other = generate_channel(SystemConfig(K=3, Q=3, seed=5))
    with pytest.raises(InconsistentPlanError):
        simulate_plan(plan, other, sim_config)


def test_kept_plans_bounded_and_read_only():
    import iadof.simulate as sim

    maxsize = sim._kept_plan.cache_info().maxsize
    assert maxsize is not None
    for Q in range(2, maxsize + 4):
        sim._kept_plan(SystemConfig(K=1, Q=Q), 1)
    assert sim._kept_plan.cache_info().currsize == maxsize

    run_link_sim(SystemConfig(K=3, seed=7), SimConfig(snr_points=(1e2,), trials=10), cap=1)
    plan = sim._kept_plan(SystemConfig(K=3), 1)
    assert sorted(plan.profiles) == [(1, 1), (2, 1), (3, 1)]
    sets = list(plan.streams.values())
    for prof in plan.profiles.values():
        sets += [*prof.desired.values(), prof.interference]
    for ds in sets:
        assert not ds.matrix.flags.writeable
    # kept rows own their memory, so the cache holds no untruncated build
    assert all(ds.matrix.base is None for ds in plan.streams.values())


def test_run_determinism():
    config = SystemConfig(K=3, seed=2)
    sim = SimConfig(snr_points=SNR3, trials=500)
    a = run_link_sim(config, sim, cap=1)
    b = run_link_sim(config, sim, cap=1)
    assert a.to_json_dict() == b.to_json_dict()
    assert a.to_csv() == b.to_csv()


def test_ser_decays_with_snr():
    hits = 0
    for seed in range(20):
        config = SystemConfig(K=3, seed=seed)
        r = run_link_sim(config, SimConfig(snr_points=(1e2, 1e6), trials=500), cap=1)
        if r.ser[1e6] < r.ser[1e2]:
            hits += 1
    assert hits >= 18


def test_larger_amplitude_never_hurts():
    config = SystemConfig(K=3, seed=3)
    base = run_link_sim(config, SimConfig(snr_points=(1e3,), trials=800), cap=1)
    a0 = base.amplitudes[1e3]
    boosted = run_link_sim(
        config, SimConfig(snr_points=(1e3,), trials=800, amplitude=2 * a0), cap=1
    )
    # same messages and noise, twice the signal scale
    assert boosted.ser[1e3] <= base.ser[1e3]


def test_decoded_rate_zero_when_noisy_everywhere():
    config = SystemConfig(K=3, seed=1)
    r = run_link_sim(config, SimConfig(snr_points=(10.0,), trials=200), cap=1)
    assert r.ser[10.0] >= 1e-3
    assert r.decoded_rate == 0.0


def test_simulate_budget_error_bubbles_up():
    config = SystemConfig(K=3, seed=0)
    with pytest.raises(DecodeBudgetError):
        run_link_sim(config, SimConfig(snr_points=(1e2,)), cap=16)


def test_run_link_sim_rejects_bad_cap():
    with pytest.raises(ValueError):
        run_link_sim(SystemConfig(K=2), SimConfig(snr_points=(1e2,)), cap=0)


def test_decoder_matches_manual_search_single_user():
    # independent oracle: on the single-user channel the constellation is
    # c * H^2 for c in -(Q-1)..Q-1 and decoding is a 1-d nearest search
    config = SystemConfig(K=1, Q=4, seed=6)
    h = generate_channel(config)
    plan = build_transmit_directions(config)
    A = 0.8
    trials = 400
    result = simulate_plan(
        plan, h, SimConfig(snr_points=(123.0,), trials=trials, amplitude=A)
    )
    H2 = h.coefficient(1, 1, 1, 1) ** 2
    U = np.random.default_rng((config.seed, 0xA1)).integers(-3, 4, size=(trials, 1))
    Z = np.random.default_rng((config.seed, 0xB2)).standard_normal((trials, 1))
    wrong = 0
    grid = np.arange(-3, 4)
    for t in range(trials):
        y = U[t, 0] * H2 + Z[t, 0] / A
        guess = grid[int(np.argmin(np.abs(y - grid * H2)))]
        if guess != U[t, 0]:
            wrong += 1
    assert result.ser[123.0] == pytest.approx(wrong / trials, abs=1e-15)
