"""Constant real K-user MxN Gaussian interference channel model.

Gains are drawn once per (config, seed) and never change; all user and
antenna indices are 1-based throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

# (k, j, n, m): gain seen by receiver k from transmitter j, between
# tx antenna m and rx antenna n.
CoefficientId = tuple[int, int, int, int]

GAIN_LOW = 0.5
GAIN_HIGH = 1.5


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters.

    K users, each with M transmit and N receive antennas; gamma controls the
    depth of the direction construction, Q the integer symbol alphabet
    -(Q-1)..Q-1.
    """

    K: int
    M: int = 1
    N: int = 1
    gamma: int = 1
    Q: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.K < 1 or self.M < 1 or self.N < 1:
            raise ValueError(
                f"K, M, N must all be >= 1, got K={self.K} M={self.M} N={self.N}"
            )
        if self.gamma < 1:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if self.Q < 2:
            raise ValueError(f"Q must be >= 2, got {self.Q}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def coefficient_ids(self) -> Iterator[CoefficientId]:
        """All coefficient ids in canonical (k, j, n, m) lexicographic order."""
        for k in range(1, self.K + 1):
            for j in range(1, self.K + 1):
                for n in range(1, self.N + 1):
                    for m in range(1, self.M + 1):
                        yield (k, j, n, m)

    @property
    def coefficient_count(self) -> int:
        return self.K * self.K * self.N * self.M


class ChannelRealization:
    """One draw of all K^2*N*M channel gains for a config.

    Treated as immutable after construction; the gain table is a plain dict
    keyed by CoefficientId.
    """

    __slots__ = ("config", "gains")

    def __init__(self, config: SystemConfig, gains: dict[CoefficientId, float]):
        expected = config.coefficient_count
        if len(gains) != expected:
            raise ValueError(f"expected {expected} gains, got {len(gains)}")
        for cid, v in gains.items():
            _check_id(config, *cid)
            if not np.isfinite(v) or v == 0.0:
                raise ValueError(f"gain {cid} must be finite and nonzero, got {v}")
        self.config = config
        self.gains = gains

    def coefficient(self, k: int, j: int, n: int, m: int) -> float:
        _check_id(self.config, k, j, n, m)
        return self.gains[(k, j, n, m)]


def _check_id(config: SystemConfig, k: int, j: int, n: int, m: int) -> None:
    if not (1 <= k <= config.K and 1 <= j <= config.K):
        raise IndexError(f"user index out of range: k={k} j={j} (K={config.K})")
    if not 1 <= n <= config.N:
        raise IndexError(f"receive antenna out of range: n={n} (N={config.N})")
    if not 1 <= m <= config.M:
        raise IndexError(f"transmit antenna out of range: m={m} (M={config.M})")


def generate_channel(config: SystemConfig) -> ChannelRealization:
    """Draw all gains i.i.d. uniform on [0.5, 1.5), deterministically in seed.

    The draw order is the canonical coefficient order, so a given
    (config, seed) pair always yields bit-identical gains.
    """
    ids = list(config.coefficient_ids())
    rng = np.random.default_rng(config.seed)
    vals = GAIN_LOW + (GAIN_HIGH - GAIN_LOW) * rng.random(len(ids))
    return ChannelRealization(config, dict(zip(ids, vals.tolist())))
