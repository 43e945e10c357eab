"""Shared test configuration, and the full construction as an oracle.

The library builds only the first rows of each stream set
(build_transmit_directions walks them).  full_plan enumerates every stream
set outright, as a box of pair-family exponents times the family incidence
matrix, for the tests that need whole sets: the walk is pinned against its
first rows, and the row oracles (verify_oracle, within_oracle) read whole
plans.  antenna_of reads one receive antenna's numbers off a draw.
"""

import dataclasses
import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from iadof import alignment
from iadof.alignment import TransmitPlan, expand_received, families, family_pair
from iadof.channel import SystemConfig
from iadof.directions import _check_exponents, _runs
from iadof.simulate import _antennas, _Draw

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

# pytest puts src/ on sys.path (pyproject's pythonpath); the fresh
# interpreters some tests start import iadof from the same checkout
SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def direction_set(exps):
    """The distinct rows of an exponent matrix, held to the exponent
    limits, in canonical order (_runs)."""
    exps = np.asarray(exps, dtype=np.int64)
    _check_exponents(exps)
    order, start = _runs(exps)
    return exps[order[start]]


def full_box(config, dest, caps):
    """Every product of the given pair families at dest, family f raised to
    each power 0..caps[f], in canonical order: the box of family exponents
    times the incidence matrix of families and coefficient ids, by numpy's
    int64 product, sorted by direction_set."""
    cols = tuple(config.coefficient_ids())
    incidence = np.zeros((len(caps), len(cols)), dtype=np.int64)
    for f, fam in enumerate(caps):
        for cid in family_pair(fam, dest):
            incidence[f, cols.index(cid)] += 1
    shape = [cap + 1 for cap in caps.values()]
    choices = np.indices(shape).reshape(len(shape), math.prod(shape))
    return direction_set(choices.T @ incidence)


def full_plan(config):
    """Every stream's whole direction set: the box of its families at its
    destination, each up to its stream_family_cap (looked up on
    iadof.alignment, so that a patched rule applies here too)."""
    streams = {}
    K, M, N = config.K, config.M, config.N
    for k, m, n in itertools.product(range(1, K + 1), range(1, M + 1), range(1, N + 1)):
        caps = {}
        for fam in families(K, M, N, n):
            cap = alignment.stream_family_cap((k, m, n), fam, config.gamma)
            if cap > 0:
                caps[fam] = cap
        streams[k, m, n] = full_box(config, n, caps)
    return TransmitPlan(config=config, streams=streams)


def antenna_of(plan, h, k, n):
    """(gains, mults, desired count) of receive antenna (k, n) under the
    channel h: what a _Draw of the plan, expanded afresh at every receive
    antenna, holds for it."""
    ants = _antennas(plan.config.K, plan.config.N)
    draw = _Draw(plan, tuple(expand_received(plan, *a) for a in ants), h, 1)
    i = ants.index((k, n))
    return draw.gains[i], draw.mults[i], len(draw.columns[i])


@pytest.fixture
def overcounted_plan():
    """The (K=3, M=1, N=1, gamma=1) plan with one extra direction on stream
    (2,1,1): one unit of pair family (2,1,1,3) in its destination system.

    Its arrival at antenna (1,1) stays inside the reference family and off
    the desired set, but no other arrival aligns with it, so that antenna
    sees 29 interference dimensions against the exact count of 28.
    """
    plan = full_plan(SystemConfig(K=3))
    cols = tuple(plan.config.coefficient_ids())
    extra = np.zeros((1, len(cols)), dtype=np.int64)
    extra[0, [cols.index(cid) for cid in family_pair((2, 1, 1, 3), 1)]] = 1
    streams = dict(plan.streams)
    streams[(2, 1, 1)] = direction_set(np.concatenate([streams[(2, 1, 1)], extra]))
    return dataclasses.replace(plan, streams=streams)
