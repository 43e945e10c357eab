"""Channel configuration and realization tests."""

import numpy as np
import pytest

from iadof.channel import (
    GAIN_HIGH,
    GAIN_LOW,
    ChannelRealization,
    SystemConfig,
    generate_channel,
)


def test_config_defaults():
    c = SystemConfig(K=3)
    assert (c.M, c.N, c.gamma, c.Q, c.seed) == (1, 1, 1, 2, 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"K": 0},
        {"K": 2, "M": 0},
        {"K": 2, "N": -1},
        {"K": 2, "gamma": 0},
        {"K": 2, "Q": 1},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SystemConfig(**kwargs)


def test_coefficient_ids_lexicographic():
    c = SystemConfig(K=2, M=2, N=2)
    ids = list(c.coefficient_ids())
    assert len(ids) == c.coefficient_count == 2 * 2 * 2 * 2
    assert ids == sorted(ids)
    assert ids[0] == (1, 1, 1, 1)
    assert ids[-1] == (2, 2, 2, 2)


def test_generate_deterministic():
    c = SystemConfig(K=3, M=2, N=2, seed=7)
    h1 = generate_channel(c)
    h2 = generate_channel(c)
    assert h1.config == h2.config
    assert h1.gains == h2.gains


def test_generate_seed_sensitivity():
    a = generate_channel(SystemConfig(K=2, seed=0))
    b = generate_channel(SystemConfig(K=2, seed=1))
    assert a != b


def test_gain_range():
    h = generate_channel(SystemConfig(K=4, M=3, N=2, seed=11))
    vals = np.array(list(h.gains.values()))
    assert np.all(vals >= GAIN_LOW)
    assert np.all(vals < GAIN_HIGH)


def test_generate_draw_order_matches_id_order():
    # Gains are drawn as one vector over the lexicographic id stream, so
    # the realization is reproducible from (seed, K, M, N) alone.
    c = SystemConfig(K=2, M=2, N=1, seed=3)
    h = generate_channel(c)
    rng = np.random.default_rng(c.seed)
    expected = GAIN_LOW + (GAIN_HIGH - GAIN_LOW) * rng.random(c.coefficient_count)
    ids = list(c.coefficient_ids())
    for cid, v in zip(ids, expected):
        assert h.gains[cid] == pytest.approx(v, rel=0, abs=0)


def test_coefficient_accessors():
    h = generate_channel(SystemConfig(K=2, M=2, N=2, seed=0))
    assert h.coefficient(2, 1, 2, 1) == h.gains[(2, 1, 2, 1)]
    with pytest.raises(IndexError):
        h.coefficient(3, 1, 1, 1)
    with pytest.raises(IndexError):
        h.coefficient(1, 1, 0, 1)


def test_realization_rejects_bad_gains():
    c = SystemConfig(K=2)
    h = generate_channel(c)
    gains = dict(h.gains)
    gains.pop((1, 1, 1, 1))
    with pytest.raises(ValueError):
        ChannelRealization(c, gains)
    bad = dict(h.gains)
    bad[(1, 1, 1, 1)] = 0.0
    with pytest.raises(ValueError):
        ChannelRealization(c, bad)
    bad[(1, 1, 1, 1)] = float("nan")
    with pytest.raises(ValueError):
        ChannelRealization(c, bad)
