"""Link-level simulator tests.

The decoder is checked against a hand-rolled per-trial nearest-point
search on the single-user channel, where the constellation is a scaled
integer grid and every quantity can be recomputed in a few lines.  The
forward model is checked entry by entry against an oracle built from the
gains alone.
"""

import contextlib
import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest

from iadof._kernels import decode_table, min_abs_combination, nearest_candidate_indices
from iadof.alignment import TransmitPlan, build_transmit_directions, expand_received
from iadof.channel import SystemConfig, generate_channel
from iadof.cli import main
from iadof.directions import DirectionSet
from iadof.simulate import (
    DEFAULT_DECODE_BUDGET,
    MIN_AMPLITUDE,
    DecodeBudgetError,
    SimConfig,
    SimResult,
    _distance_radii,
    _Draw,
    _draw_noise,
    _draw_symbols,
    _operate,
    antenna_model,
    run_link_sim,
    separation_floor,
    symbol_variance,
)
from conftest import direction_set, full_plan
from test_directions import members, mono_eval

SNR3 = (1e2, 1e4, 1e6)


def make(K, M=1, N=1, gamma=1, Q=2, seed=0, cap=None):
    config = SystemConfig(K=K, M=M, N=N, gamma=gamma, Q=Q, seed=seed)
    h = generate_channel(config)
    plan = full_plan(config) if cap is None else build_transmit_directions(config, cap)
    return config, h, plan


def transmit_oracle(plan, h):
    """{(j, m, n', l): h(j,j,n',m) * dir_l}: each plan coordinate's weight
    on its transmit antenna (j, m), from the gains alone, in stream and
    then member order."""
    return {
        (j, m, n, l): h.coefficient(j, j, n, m) * mono_eval(d, h)
        for (j, m, n) in sorted(plan.streams)
        for l, d in enumerate(members(plan.streams[(j, m, n)]))
    }


def unit_distance(model, Q, budget=DEFAULT_DECODE_BUDGET):
    """d_min of an antenna model at unit amplitude: min_abs_combination over
    its difference box, refused as the simulator refuses it."""
    return min_abs_combination(model.gains, _distance_radii(model, Q, budget), len(model.coords))


def forward_oracle(plan, h):
    """W as {coordinate: row}: coordinate (j, m, n', l) reaches receive
    antenna (k, n), user-major, with h(j,j,n',m) * dir_l * h(k,j,n,m)."""
    c = plan.config
    rx = [(k, n) for k in range(1, c.K + 1) for n in range(1, c.N + 1)]
    return {
        (j, m, n2, l): [t * h.coefficient(k, j, n, m) for (k, n) in rx]
        for (j, m, n2, l), t in transmit_oracle(plan, h).items()
    }


# ------------------------------------------------------------------ symbols


def test_symbol_variance_matches_uniform_grid():
    for Q in (2, 3, 4, 8):
        grid = np.arange(-(Q - 1), Q)
        assert symbol_variance(Q) == pytest.approx(grid.var())


def test_draw_messages_deterministic_and_in_range():
    _, h, plan = make(2, Q=4, seed=9)
    width = len(_Draw(plan, h, 1).coords)
    a = _draw_symbols(3, 4, 5, width)
    assert a.shape == (5, width)
    assert np.array_equal(a, _draw_symbols(3, 4, 5, width))
    assert not np.array_equal(a, _draw_symbols(4, 4, 5, width))
    assert a.min() >= -3 and a.max() <= 3


# ------------------------------------------------------------ forward model


def test_encode_single_direction_is_direct_gain():
    config, h, plan = make(1, seed=5)
    H = h.coefficient(1, 1, 1, 1)
    assert transmit_oracle(plan, h) == {(1, 1, 1, 0): H}
    [power] = _Draw(plan, h, 1).powers
    assert power == pytest.approx(H * H * symbol_variance(config.Q), rel=1e-15)


def test_propagate_noiseless_single_user():
    config, h, plan = make(1, seed=5)
    draw = _Draw(plan, h, 1)
    H = h.coefficient(1, 1, 1, 1)
    assert draw.coords == [(1, 1, 1, 0)]
    assert draw.W[0, 0] == pytest.approx(H * H, rel=1e-15)


def test_propagate_noise_statistics():
    z = _draw_noise(0, 300, 64)
    assert z.shape == (300, 64)
    assert abs(z.mean()) < 0.05
    assert abs(z.var() - 1.0) < 0.1


def test_propagate_noise_deterministic():
    assert np.array_equal(_draw_noise(7, 3, 2), _draw_noise(7, 3, 2))
    assert not np.array_equal(_draw_noise(7, 3, 2), _draw_noise(8, 3, 2))


@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
@pytest.mark.parametrize(
    "K,M,N,gamma,cap", [(3, 1, 1, 1, 1), (2, 2, 2, 1, 1), (2, 1, 2, 2, 2)]
)
def test_forward_model_matches_coordinate_oracle(K, M, N, gamma, cap, noisy):
    # every entry of W, and trial 0 of the matrix model _operate decodes,
    # A*(U@W)[0] + Z[0], against sums over the gain oracle
    config, h, plan = make(K, M, N, gamma, Q=3, seed=7, cap=cap)
    draw = _Draw(plan, h, 5)
    coords, W = draw.coords, draw.W
    oracle = forward_oracle(plan, h)
    assert list(oracle) == coords
    np.testing.assert_allclose(W, list(oracle.values()), rtol=1e-12)
    U = _draw_symbols(config.seed, config.Q, 5, len(coords)).astype(np.float64)
    Z = _draw_noise(config.seed, 5, K * N)
    A = 0.6
    want = A * (U @ W)[0] + (Z[0] if noisy else 0.0)
    got = [
        A * sum(u * row[a] for u, row in zip(U[0].tolist(), oracle.values()))
        + (Z[0, a] if noisy else 0.0)
        for a in range(K * N)
    ]
    # the two sum in different orders: relative 1e-12, with a floor scaled
    # by the summed magnitudes for outputs that cancel to near zero
    floor = 1e-12 * (A * np.abs(U[0]) @ np.abs(W)).max()
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=floor)


# -------------------------------------------------------------------- power


def test_draw_powers_exact_identity():
    config, h, plan = make(2, gamma=2, Q=4, seed=3)
    powers = _Draw(plan, h, 1).powers
    for k in (1, 2):
        got = powers[k - 1]
        want = (
            symbol_variance(4)
            * sum(
                h.coefficient(k, k, n, 1) ** 2
                * sum(mono_eval(d, h) ** 2 for d in members(plan.streams[(k, 1, n)]))
                for n in (1,)
            )
        )
        assert got == pytest.approx(want, rel=1e-12)


def test_draw_powers_match_monte_carlo():
    config, h, plan = make(2, seed=4, cap=2, gamma=2)
    target = _Draw(plan, h, 1).powers[0]
    weights = transmit_oracle(plan, h)
    own = [t if coord[:2] == (1, 1) else 0.0 for coord, t in weights.items()]
    U = _draw_symbols(config.seed, config.Q, 4000, len(weights))
    X = U @ np.array(own)
    assert np.mean(X**2) == pytest.approx(target, rel=0.1)


def test_run_amplitude_binds_the_strongest_antenna():
    config, h, plan = make(3, seed=1, cap=1)
    rho = 100.0
    A = run_link_sim(config, SimConfig(snr_points=(rho,), trials=10), 1).amplitudes[rho]
    cap = rho / (config.K * config.M)
    powers = [A**2 * p for p in _Draw(plan, h, 10).powers]
    assert len(powers) == 3
    assert max(powers) == pytest.approx(cap, rel=1e-12)
    assert all(p <= cap * (1 + 1e-9) for p in powers)


# ----------------------------------------------------------------- distance


def test_min_distance_single_user_is_squared_gain():
    config, h, plan = make(1, seed=5)
    H = h.coefficient(1, 1, 1, 1)
    d = unit_distance(antenna_model(plan, h, 1, 1), 2)
    assert d == H * H
    assert d == pytest.approx(1.7030326309839905, rel=1e-12)
    # the simulator's d_min is that distance at the first point's amplitude
    sim_config = SimConfig(snr_points=(1e2, 1e4), trials=10)
    result = _operate(_Draw(plan, h, 10), sim_config, DEFAULT_DECODE_BUDGET)
    assert result.d_min == result.amplitudes[1e2] * d


def test_min_distance_positive_across_seeds():
    for seed in range(30):
        config, h, plan = make(3, seed=seed, cap=1)
        for Q in (2, 4):
            d = unit_distance(antenna_model(plan, h, 1, 1), Q)
            assert d > 1e-9


def test_min_distance_refuses_44_axis_box():
    # the full plan: 16 + 28 directions, four of them of multiplicity 2, so
    # at Q=2 the box is 5**40 * 9**4 points, refused by the box budget
    config, h, plan = make(3, seed=0)
    model = antenna_model(plan, h, 1, 1)
    assert len(model.mults) == 44 and model.mults.count(2) == 4
    with pytest.raises(DecodeBudgetError) as exc:
        unit_distance(model, config.Q)
    assert exc.value.required == 5**40 * 9**4
    assert exc.value.budget == DEFAULT_DECODE_BUDGET


def test_distance_box_bounds_the_axis_count():
    # every radius 2*mult*(Q-1) is at least 2, so a 13-axis box holds at
    # least 5**13 points: the box budget alone refuses many axes, with no
    # cap on the count.  _distance_radii reads only the multiplicities.
    config, h, plan = make(3, seed=0, cap=1)
    model = dataclasses.replace(antenna_model(plan, h, 1, 1), mults=(1,) * 13)
    assert _distance_radii(model, 2, 5**13) == [2] * 13
    with pytest.raises(DecodeBudgetError) as exc:
        _distance_radii(model, 2, 5**13 - 1)
    assert exc.value.required == 5**13


def test_min_distance_budget():
    config, h, plan = make(3, seed=0, cap=1)
    with pytest.raises(DecodeBudgetError):
        unit_distance(antenna_model(plan, h, 1, 1), 2, budget=10)


def test_min_distance_box_past_int64_refused():
    # antenna (1,1) of K=4, cap=3 has 12 axes of multiplicity 1, so at
    # Q=16 the difference box is 61**12, which an int64 product wraps to a
    # negative number that would pass the budget check
    config, h, plan = make(4, Q=16, seed=0, cap=3)
    model = antenna_model(plan, h, 1, 1)
    assert model.mults == (1,) * 12
    assert int(np.prod(np.full(12, 61, dtype=np.int64))) < 0
    with pytest.raises(DecodeBudgetError) as exc:
        unit_distance(model, 16)
    assert exc.value.required == 61**12
    assert exc.value.budget == 10**7


# --------------------------------------------------------------- separation


def test_separation_exponent_frozen_and_deterministic():
    config, h, plan = make(3, seed=1, cap=1)
    s1 = _Draw(plan, h, 1).slope
    s2 = _Draw(plan, h, 1).slope
    assert s1 == s2
    assert s1 == pytest.approx(-1.9371274729698718, rel=1e-9)


def test_separation_exponent_refuses_before_any_distance(monkeypatch):
    # at K=3, Q=4, cap=2 the q=8 box is 29**6, over budget: the slope is
    # NaN, and no distance at q=2 or q=4 is computed first only to be
    # thrown away
    import iadof.simulate as sim

    config, h, plan = make(3, Q=4, seed=0, cap=2)
    draw = _Draw(plan, h, 1)
    with pytest.raises(DecodeBudgetError) as exc:
        _distance_radii(draw.models[0], 8, DEFAULT_DECODE_BUDGET)
    assert exc.value.required == 29**6
    calls = []

    def counted(*args):
        calls.append(args)
        return min_abs_combination(*args)

    monkeypatch.setattr(sim, "min_abs_combination", counted)
    assert math.isnan(draw.slope)
    assert calls == []


def test_separation_floor_counts_directions():
    config, h, plan = make(3, seed=0, cap=1)
    # one squared direct-gain desired direction plus two cross aggregates
    assert separation_floor(expand_received(plan, 1, 1)) == -3.1


def test_separation_slope_near_floor():
    # the floor is the large-Q limit; a 4-point fit can undershoot it on
    # unlucky channels, so the per-seed check carries one unit of slack
    # and the floor itself is required only for most seeds
    hits = 0
    for seed in range(20):
        config, h, plan = make(3, seed=seed, cap=1)
        slope = _Draw(plan, h, 1).slope
        floor = separation_floor(expand_received(plan, 1, 1))
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
    cols = tuple(config.coefficient_ids())
    fake = TransmitPlan(
        config=config,
        streams={
            (1, 1, 1): direction_set(cols, [[0, 1, 0, 1]]),
            (2, 1, 1): direction_set(cols, [[2, 0, 0, 0]]),
        },
    )
    refusal = (
        "desired direction H[1,1](1,1)^2 * H[1,2](1,1) * H[2,2](1,1) aligned with"
        " interference at antenna (1,1); exhaustive decoding is ill-posed"
    )
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            antenna_model(fake, h, 1, 1)
        assert str(err.value) == refusal
    with pytest.raises(ValueError) as err:
        _Draw(fake, h, 10)
    assert str(err.value) == refusal


def test_replaced_plan_starts_without_profiles(overcounted_plan):
    # a plan made by dataclasses.replace of a warm plan expands its own
    # streams: the overcounted one sees 29 interference directions at
    # antenna (1,1), its source the exact 28
    config = SystemConfig(K=3)
    h = generate_channel(config)
    plan = full_plan(config)
    assert len(antenna_model(plan, h, 1, 1).profile.interference) == 28
    assert list(plan.profiles) == [(1, 1)]
    extra = dataclasses.replace(plan, streams=overcounted_plan.streams)
    assert extra.profiles == {}
    assert len(antenna_model(extra, h, 1, 1).profile.interference) == 29
    assert len(antenna_model(plan, h, 1, 1).profile.interference) == 28


def test_plan_streams_cannot_change_under_its_profiles(overcounted_plan):
    # the profile memo is sound only because a plan never changes: its
    # streams are a read-only copy of the mapping it was built from
    config = SystemConfig(K=3)
    h = generate_channel(config)
    streams = dict(full_plan(config).streams)
    plan = TransmitPlan(config=config, streams=streams)
    assert len(antenna_model(plan, h, 1, 1).profile.interference) == 28
    streams[(2, 1, 1)] = overcounted_plan.streams[(2, 1, 1)]
    with pytest.raises(TypeError):
        plan.streams[(2, 1, 1)] = overcounted_plan.streams[(2, 1, 1)]
    assert len(antenna_model(plan, h, 1, 1).profile.interference) == 28
    assert len(expand_received(plan, 1, 1).interference) == 28


# ------------------------------------------------------------------ end to end


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(snr_points=())
    with pytest.raises(ValueError):
        SimConfig(snr_points=(0.0,))
    with pytest.raises(ValueError):
        SimConfig(snr_points=(1e2,), trials=0)
    for bad in ((math.nan,), (math.inf,), (1e2, -math.inf), (1e2, 1e4, 1e2)):
        with pytest.raises(ValueError, match="snr points"):
            SimConfig(snr_points=bad)


def test_amplitude_near_float_min_rejected():
    # at rho = 5e-324 the derived amplitude underflows to 0, and Z / A
    # would divide by zero; the amplitudes refuse it before any draw,
    # and the CLI exits 2 with nothing on stdout
    with pytest.raises(ValueError, match="amplitude 0.0 at rho=5e-324"):
        run_link_sim(SystemConfig(K=2), SimConfig(snr_points=(5e-324,), trials=20), cap=1)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main("simulate -K 2 -M 1 -N 1 --snr 5e-324 --trials 20 --json".split())
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: amplitude 0.0 at rho=5e-324")


def test_amplitude_floor_runs_clean():
    # every warning is an error here, so an overflow in the decoder fails
    result = run_link_sim(
        SystemConfig(K=2), SimConfig(snr_points=(1e-320,), trials=100000), cap=1
    )
    assert MIN_AMPLITUDE < result.amplitudes[1e-320] < 1e-160
    assert 0 < result.ser[1e-320] < 1


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


def test_noiseless_run_decodes_each_query_once(monkeypatch):
    # a noiseless run receives the same values at every rho: each antenna's
    # table is built for the 1,000 trials and queried with them once, and
    # the |D|*T budget is charged 3 * 1,000, not 3 * 3,000, so a budget of
    # 5,000 runs
    import iadof.simulate as sim

    config = SystemConfig(K=3, seed=1)
    sim_config = SimConfig(snr_points=SNR3, noiseless=True)
    want = _cold_run(config, sim_config)
    sim._kept_draw.cache_clear()
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return nearest_candidate_indices(*args)

    def built(d_sum, i_sum, queries):
        calls.append(("table", queries))
        return decode_table(d_sum, i_sum, queries)

    monkeypatch.setattr(sim, "nearest_candidate_indices", counted)
    monkeypatch.setattr(sim, "decode_table", built)
    assert run_link_sim(config, sim_config, cap=1, budget=5000).to_json_dict() == want
    assert calls == [("table", 1000), 1000] * 3
    with pytest.raises(DecodeBudgetError) as exc:
        run_link_sim(config, SimConfig(snr_points=SNR3), cap=1, budget=5000)
    assert exc.value.required == 9000


def test_run_expands_each_antenna_once(monkeypatch):
    # one symbolic expansion per receive antenna feeds the decoder, d_min,
    # the separation slope and its floor, which equal an oracle computed
    # here on antenna models built afresh: min_abs_combination over each
    # difference box of radii 2*mult*(Q-1), and a fit over Q = 2, 4, 8, 16
    import iadof.simulate as sim

    def distance(model, Q):
        radii = [2 * mult * (Q - 1) for mult in model.mults]
        return min_abs_combination(model.gains, radii, len(model.coords))

    config, h, plan = make(3, seed=4, cap=1)
    calls = []

    def counted(plan, k, n):
        calls.append((k, n))
        return expand_received(plan, k, n)

    sim._kept_draw.cache_clear()
    sim._kept_plan.cache_clear()
    monkeypatch.setattr(sim, "expand_received", counted)
    result = run_link_sim(config, SimConfig(snr_points=(1e2, 1e4), trials=200), 1)
    assert sorted(calls) == [(1, 1), (2, 1), (3, 1)]
    monkeypatch.undo()
    a0 = result.amplitudes[1e2]
    models = [antenna_model(plan, h, k, 1) for k in (1, 2, 3)]
    assert result.d_min == min(a0 * distance(model, config.Q) for model in models)
    qs = (2, 4, 8, 16)
    d = [distance(models[0], q) for q in qs]
    slope = np.polyfit(np.log(np.array(qs, dtype=float)), np.log(d), 1)[0]
    assert result.separation_slope == float(slope)
    assert result.separation_floor == separation_floor(models[0].profile)


def test_stream_powers_computed_once(monkeypatch):
    # the unit-amplitude stream powers do not depend on rho: one symbol
    # variance per transmit antenna per run, however many SNR points
    import iadof.simulate as sim

    config = SystemConfig(K=3, seed=1)
    calls = []

    def counted(Q):
        calls.append(Q)
        return symbol_variance(Q)

    sim._kept_draw.cache_clear()
    monkeypatch.setattr(sim, "symbol_variance", counted)
    run_link_sim(config, SimConfig(snr_points=(1e2, 1e4, 1e6, 1e8), trials=50), 1)
    assert calls == [config.Q] * 3


@pytest.mark.parametrize("K,M,N,evaluations", [(3, 1, 1, 6), (2, 2, 2, 12)])
def test_draw_evaluates_each_direction_set_once(monkeypatch, K, M, N, evaluations):
    # the antenna models evaluate each stream set at its one destination and
    # each antenna's interference set: K*M*N + K*N calls for a whole run,
    # forward map and transmit powers included
    import iadof.simulate as sim

    config = SystemConfig(K=K, M=M, N=N, seed=1)
    evaluate = DirectionSet.evaluate
    calls = []

    def counted(self, h):
        calls.append(self)
        return evaluate(self, h)

    sim._kept_draw.cache_clear()
    monkeypatch.setattr(DirectionSet, "evaluate", counted)
    run_link_sim(config, SimConfig(snr_points=(1e2, 1e4), trials=20), 1)
    assert len(calls) == K * M * N + K * N == evaluations


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
        # a kept draw holds its plan, so a cold run clears both caches
        sim._kept_draw.cache_clear()
        sim._kept_plan.cache_clear()
        cold = run_link_sim(SystemConfig(K=3, seed=s), sim_config, cap=1)
        assert cold.to_json_dict() == warm[s]


def _cold_run(config, sim_config, **kw):
    import iadof.simulate as sim

    sim._kept_draw.cache_clear()
    sim._kept_plan.cache_clear()
    return run_link_sim(config, sim_config, cap=1, **kw).to_json_dict()


def test_kept_draw_replays_cold():
    # a draw kept from the previous call, noiseless or noisy, gives what a
    # draw built afresh gives, in either order of the two calls
    quiet = SimConfig(snr_points=(1e2,), trials=1000, noiseless=True)
    noisy = SimConfig(snr_points=(1e2, 1e6), trials=1000)
    for s in range(10):
        config = SystemConfig(K=3, seed=s)
        cold = [_cold_run(config, quiet), _cold_run(config, noisy)]
        for order in ((0, 1), (1, 0)):
            runs = [None, None]
            for i in order:
                runs[i] = run_link_sim(config, (quiet, noisy)[i], cap=1).to_json_dict()
            assert runs == cold


def test_kept_draw_checks_budgets_on_every_call(capsys):
    # the noiseless call keeps the draw; the noisy call on it charges its
    # 3 * 3,000 queries against the budget all the same
    import iadof.simulate as sim

    config = SystemConfig(K=3, seed=1)
    run_link_sim(config, SimConfig(snr_points=SNR3, noiseless=True), cap=1)
    hits = sim._kept_draw.cache_info().hits
    with pytest.raises(DecodeBudgetError) as exc:
        run_link_sim(config, SimConfig(snr_points=SNR3), cap=1, budget=5000)
    assert exc.value.required == 9000
    base = ["simulate", "-K", "3", "-M", "1", "-N", "1", "--seed", "1", "--snr", "1e2,1e4,1e6"]
    assert main(base + ["--noiseless"]) == 0
    assert main(base + ["--budget", "5000"]) == 4
    assert "needs 9000" in capsys.readouterr().err
    assert sim._kept_draw.cache_info().hits == hits + 3


def test_draw_solves_each_distance_box_once(monkeypatch):
    # at K=3, Q=2, d_min's box at antenna (1,1) is the slope's q=2 box: 3
    # d_min boxes and 3 more slope boxes.  A second call on the kept draw
    # solves none, builds no decode table and queries each antenna once.
    import iadof.simulate as sim

    config = SystemConfig(K=3, Q=2, seed=2)
    sim_config = SimConfig(snr_points=(1e2, 1e4), trials=200)
    want = _cold_run(config, sim_config)
    calls = {"min_abs": 0, "table": 0, "nearest": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(sim, "min_abs_combination", counting("min_abs", min_abs_combination))
    monkeypatch.setattr(sim, "decode_table", counting("table", decode_table))
    monkeypatch.setattr(
        sim, "nearest_candidate_indices", counting("nearest", nearest_candidate_indices)
    )
    assert _cold_run(config, sim_config) == want
    assert calls == {"min_abs": 6, "table": 3, "nearest": 3}
    assert run_link_sim(config, sim_config, cap=1).to_json_dict() == want
    assert calls == {"min_abs": 6, "table": 3, "nearest": 6}


def test_noisy_run_queries_the_kept_tables(monkeypatch):
    # sim_sweep's pair: a cold noiseless K=3 run builds one table per
    # antenna and queries each once; the noisy run on the kept draw builds
    # none, queries each once with both rhos' trials, and prints what a
    # cold noisy run prints
    import iadof.simulate as sim

    config = SystemConfig(K=3, seed=4)
    quiet = SimConfig(snr_points=(1e2,), trials=1000, noiseless=True)
    noisy = SimConfig(snr_points=(1e2, 1e6), trials=1000)
    want = _cold_run(config, noisy)
    calls = []

    def counted(y, table):
        calls.append(("query", len(y)))
        return nearest_candidate_indices(y, table)

    def built(d_sum, i_sum, queries):
        calls.append(("table", queries))
        return decode_table(d_sum, i_sum, queries)

    monkeypatch.setattr(sim, "nearest_candidate_indices", counted)
    monkeypatch.setattr(sim, "decode_table", built)
    _cold_run(config, quiet)
    assert calls == [("table", 1000), ("query", 1000)] * 3
    calls.clear()
    assert run_link_sim(config, noisy, cap=1).to_json_dict() == want
    assert calls == [("query", 2000)] * 3


def test_plan_serves_every_draw_of_its_system():
    # the seed belongs to the channel draw: a plan built at seed 0 decodes
    # the seed-5 draw with seed 5's symbols and noise
    _, _, plan = make(3, seed=0, cap=1)
    config = SystemConfig(K=3, seed=5)
    sim_config = SimConfig(snr_points=(1e2, 1e4), trials=300)
    draw = _Draw(plan, generate_channel(config), sim_config.trials)
    got = _operate(draw, sim_config, DEFAULT_DECODE_BUDGET)
    want = run_link_sim(config, sim_config, cap=1)
    assert got.to_json_dict() == want.to_json_dict()


def test_kept_plans_bounded_and_read_only():
    import iadof.simulate as sim

    # a kept draw holds its own plan, so run_link_sim below must not find one
    sim._kept_draw.cache_clear()
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
        sets.append(prof.interference)
    for ds in sets:
        assert not ds.matrix.flags.writeable
    # kept rows own their memory: the cache holds no view of a larger array
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
    # four times the power is exactly twice the amplitude; the two points
    # share messages and noise, so only the signal scale differs
    config = SystemConfig(K=3, seed=3)
    r = run_link_sim(config, SimConfig(snr_points=(1e3, 4e3), trials=800), cap=1)
    assert r.amplitudes[4e3] == 2 * r.amplitudes[1e3]
    assert r.ser[4e3] <= r.ser[1e3]


def test_decoded_rate_zero_when_noisy_everywhere():
    config = SystemConfig(K=3, seed=1)
    r = run_link_sim(config, SimConfig(snr_points=(10.0,), trials=200), cap=1)
    assert r.ser[10.0] >= 1e-3
    assert r.decoded_rate == 0.0


def test_simulate_budget_error_bubbles_up():
    config = SystemConfig(K=3, seed=0)
    with pytest.raises(DecodeBudgetError):
        run_link_sim(config, SimConfig(snr_points=(1e2,)), cap=16)


def test_decode_budget_refuses_before_any_antenna_is_decoded(monkeypatch):
    # user 1 keeps one direction and user 2 three: antenna (1,1) decodes 3
    # desired sums against 9 interference sums, antenna (2,1) 9 against 3.
    # With 10 queries and a budget of 50, antenna (1,1) fits (30 <= 50) and
    # antenna (2,1) does not (90 > 50), so no antenna may be decoded first.
    import iadof.simulate as sim

    config, h, full = make(2, seed=0)
    streams = {
        s: direction_set(ds.columns, ds.matrix[: 1 if s[0] == 1 else 3])
        for s, ds in full.streams.items()
    }
    plan = TransmitPlan(config=config, streams=streams)
    calls = []

    def built(d_sum, i_sum, queries):
        calls.append(d_sum.shape + i_sum.shape)
        return decode_table(d_sum, i_sum, queries)

    def counted(y, table):
        calls.append(len(y))
        return nearest_candidate_indices(y, table)

    monkeypatch.setattr(sim, "decode_table", built)
    monkeypatch.setattr(sim, "nearest_candidate_indices", counted)
    sim_config = SimConfig(snr_points=(1e2,), trials=10)
    draw = _Draw(plan, h, sim_config.trials)
    with pytest.raises(DecodeBudgetError) as exc:
        _operate(draw, sim_config, 50)
    assert exc.value.required == 90
    assert calls == []
    _operate(draw, sim_config, 90)
    assert calls == [(3, 9), 10, (9, 3), 10]


def test_sim_curve_decode_stays_small():
    # tracemalloc peak of one new draw's run on the sim_curve system, its
    # plan kept beforehand, whose lattice has 117,649 points per antenna:
    # the decoder holds the 2,401 interference sums and the 400 queries,
    # never the lattice (0.6 MiB; 5.5 MiB when the lattice was built)
    import iadof.simulate as sim

    config = SystemConfig(K=3, Q=4, seed=1)
    sim_config = SimConfig(snr_points=(1e2, 1e4, 1e6, 1e8), trials=100)
    sim._kept_draw.cache_clear()
    sim._kept_plan(dataclasses.replace(config, seed=0), 2)
    tracemalloc.start()
    try:
        run_link_sim(config, sim_config, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_run_link_sim_rejects_bad_cap():
    with pytest.raises(ValueError):
        run_link_sim(SystemConfig(K=2), SimConfig(snr_points=(1e2,)), cap=0)


def test_decoder_matches_manual_search_single_user():
    # independent oracle: on the single-user channel the constellation is
    # c * H^2 for c in -(Q-1)..Q-1 and decoding is a 1-d nearest search
    config = SystemConfig(K=1, Q=4, seed=6)
    h = generate_channel(config)
    plan = full_plan(config)
    trials = 400
    # at rho 2.5 over half of the symbols are wrong, at 123 two in 400
    sim_config = SimConfig(snr_points=(2.5, 123.0), trials=trials)
    result = _operate(_Draw(plan, h, trials), sim_config, DEFAULT_DECODE_BUDGET)
    H2 = h.coefficient(1, 1, 1, 1) ** 2
    U = np.random.default_rng((config.seed, 0xA1)).integers(-3, 4, size=(trials, 1))
    Z = np.random.default_rng((config.seed, 0xB2)).standard_normal((trials, 1))
    grid = np.arange(-3, 4)
    for rho in (2.5, 123.0):
        A = result.amplitudes[rho]
        wrong = 0
        for t in range(trials):
            y = U[t, 0] * H2 + Z[t, 0] / A
            guess = grid[int(np.argmin(np.abs(y - grid * H2)))]
            if guess != U[t, 0]:
                wrong += 1
        assert wrong > 0
        assert result.ser[rho] == pytest.approx(wrong / trials, abs=1e-15)
