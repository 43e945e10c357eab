"""Shared test configuration."""

import dataclasses

import pytest
from hypothesis import HealthCheck, settings

from iadof.alignment import build_transmit_directions, family_pair
from iadof.channel import SystemConfig
from iadof.directions import DirectionSet

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def overcounted_plan():
    """The (K=3, M=1, N=1, gamma=1) plan with one extra direction on stream
    (2,1,1): one unit of pair family (2,1,1,3) in its destination system.

    Its arrival at antenna (1,1) stays inside the reference family and off
    the desired set, but no other arrival aligns with it, so that antenna
    sees 29 interference dimensions against the exact count of 28.
    """
    plan = build_transmit_directions(SystemConfig(K=3))
    extra = DirectionSet.from_matrix(sorted(family_pair((2, 1, 1, 3), 1)), [[1, 1]])
    streams = dict(plan.streams)
    streams[(2, 1, 1)] = streams[(2, 1, 1)].union(extra)
    return dataclasses.replace(plan, streams=streams)
