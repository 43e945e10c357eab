"""Shared test configuration."""

import dataclasses
import os
from pathlib import Path

import numpy as np
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

# pytest puts src/ on sys.path (pyproject's pythonpath); the fresh
# interpreters some tests start import iadof from the same checkout
SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def overcounted_plan():
    """The (K=3, M=1, N=1, gamma=1) plan with one extra direction on stream
    (2,1,1): one unit of pair family (2,1,1,3) in its destination system.

    Its arrival at antenna (1,1) stays inside the reference family and off
    the desired set, but no other arrival aligns with it, so that antenna
    sees 29 interference dimensions against the exact count of 28.
    """
    plan = build_transmit_directions(SystemConfig(K=3))
    base = plan.streams[(2, 1, 1)]
    extra = np.zeros((1, len(base.columns)), dtype=np.int64)
    extra[0, [base.columns.index(cid) for cid in family_pair((2, 1, 1, 3), 1)]] = 1
    streams = dict(plan.streams)
    streams[(2, 1, 1)] = DirectionSet.from_matrix(
        base.columns, np.concatenate([base.matrix, extra])
    )
    return dataclasses.replace(plan, streams=streams)
