"""Exact degrees-of-freedom bounds for the K-user MxN interference channel.

Everything in this module is exact rational arithmetic.  Floats only appear
in formatting helpers, never in a comparison that decides a bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional


def _roles(M: int, N: int, K: int) -> tuple[int, int, int]:
    """(smaller side, larger side, gcd) with validation, antennas first."""
    if M < 1 or N < 1:
        raise ValueError(f"antenna counts must be >= 1, got M={M} N={N}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    mn, mx = sorted((M, N))
    return mn, mx, math.gcd(M, N)


def fraction_str(x: Fraction) -> str:
    """Canonical rational rendering: p/q, or a bare integer when q = 1."""
    return str(Fraction(x))


def fraction_dec(x: Fraction) -> str:
    return f"{float(x):.12g}"


def fraction_json(x: Fraction) -> dict:
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator, "decimal": fraction_dec(x)}


def achievable_dof(M: int, N: int, K: int) -> Fraction:
    """Total DoF achieved by the asymptotic alignment scheme: K*MN/(M+N)."""
    _roles(M, N, K)
    return Fraction(M * N * K, M + N)


def solve_partition_balance(
    M: int, N: int, K: int, mu: int, sign: str
) -> tuple[frozenset[int], int]:
    """Partitions sitting exactly mu balance steps off the even split.

    sign="minus" solves mx*l_min = mn*l_max - g*mu and returns the feasible
    l_min values; sign="plus" solves mx*l_min = mn*l_max + g*mu and returns
    the feasible l_max values.  The extremal is the maximum, or 0 for an
    empty set (the degenerate convention used by the bound).
    """
    mn, mx, g = _roles(M, N, K)
    if mu < 1:
        raise ValueError(f"mu must be >= 1, got {mu}")
    if sign not in ("minus", "plus"):
        raise ValueError(f"sign must be 'minus' or 'plus', got {sign!r}")
    offset = -g * mu if sign == "minus" else g * mu
    values = []
    for l_max in range(0, K + 1):
        num = mn * l_max + offset
        if num < 0 or num % mx:
            continue
        l_min = num // mx
        if l_min <= l_max and l_min + l_max <= K:
            values.append(l_min if sign == "minus" else l_max)
    if not values:
        return frozenset(), 0
    return frozenset(values), max(values)


def _balance_pair(
    mn: int, mx: int, g: int, mu: int, sign: str, extremal: int
) -> tuple[int, int]:
    """Recover the (l_min, l_max) pair behind an extremal balance value."""
    if sign == "minus":
        l_min = extremal
        l_max, rem = divmod(mx * l_min + g * mu, mn)
    else:
        l_max = extremal
        l_min, rem = divmod(mn * l_max + g * mu, mx)
    assert rem == 0, "extremal value does not satisfy its balance equation"
    return l_min, l_max


def _oriented(M: int, N: int, l_min: int, l_max: int) -> tuple[int, int]:
    """(l1, l2) with l1 counting users pooled on the M side.

    The balance equations pair l_min with the larger array, so the side
    with more antennas is the one pooling fewer users.
    """
    return (l_min, l_max) if M >= N else (l_max, l_min)


@dataclass(frozen=True)
class PartitionWitness:
    """The partition attaining the reported upper bound.

    l1/l2 are the M-side/N-side group sizes; l_min/l_max the same pair
    sorted.  sign is "exact" on the large-K branch where the balanced
    partition is feasible and mu is meaningless.
    """

    l1: int
    l2: int
    l_min: int
    l_max: int
    mu: Optional[int]
    sign: str
    bound_value: Fraction

    def to_json_dict(self) -> dict:
        return {
            "l1": self.l1,
            "l2": self.l2,
            "l_min": self.l_min,
            "l_max": self.l_max,
            "mu": self.mu,
            "sign": self.sign,
            "bound": fraction_json(self.bound_value),
        }


def _witness(
    M: int, N: int, l_min: int, l_max: int, mu: Optional[int], sign: str,
    value: Fraction,
) -> PartitionWitness:
    l1, l2 = _oriented(M, N, l_min, l_max)
    return PartitionWitness(
        l1=l1, l2=l2, l_min=l_min, l_max=l_max, mu=mu, sign=sign,
        bound_value=value,
    )


def dof_upper_bound(M: int, N: int, K: int) -> tuple[Fraction, PartitionWitness]:
    """Tightest partition upper bound on total DoF, with its witness.

    For K >= (M+N)/gcd(M,N) the balanced partition is feasible and the
    bound is exactly K*MN/(M+N).  Below that threshold the bound is the
    minimum over both off-balance families with mu capped where each
    family provably empties out.
    """
    mn, mx, g = _roles(M, N, K)
    threshold = (M + N) // g
    if K >= threshold:
        bound = Fraction(M * N * K, M + N)
        return bound, _witness(M, N, mn // g, mx // g, None, "exact", bound)

    best: Optional[tuple[Fraction, PartitionWitness]] = None
    for sign in ("minus", "plus"):
        if sign == "minus":
            mu_cap = (mn * K) // g
        else:
            mu_cap = ((mx - mn) * K) // (2 * g)
        if mu_cap > (M + N) * K:  # pragma: no cover - scan size sanity check
            raise RuntimeError(f"balance scan cap {mu_cap} out of range")
        for mu in range(1, mu_cap + 1):
            members, ext = solve_partition_balance(M, N, K, mu, sign)
            if not members:
                continue
            side = mn if sign == "minus" else mx
            term = Fraction(
                K * (M * N * ext + mu * side * g), (M + N) * ext + mu * g
            )
            if best is None or term < best[0]:
                l_min, l_max = _balance_pair(mn, mx, g, mu, sign, ext)
                best = (term, _witness(M, N, l_min, l_max, mu, sign, term))
    if best is None:  # pragma: no cover - minus family is never globally empty
        raise RuntimeError(f"no partition candidate for M={M} N={N} K={K}")
    return best


def gou_jafar_reference(M: int, N: int, K: int) -> tuple[Fraction, Fraction]:
    """(achievable, upper) totals from the decomposition-based reference
    analysis that keeps only the integer part of the array-size ratio."""
    mn, mx, _ = _roles(M, N, K)
    R = mx // mn
    if K <= R:
        exact = Fraction(K * mn)
        return exact, exact
    return Fraction(R * mn * K, R + 1), Fraction(mx * K, R + 1)


def regime_classify(M: int, N: int, K: int) -> str:
    """One of exact_small_K, exact_large_K, open_gap.

    Small K: everyone gets min(M, N) and interference costs nothing.
    Large K: the balanced partition pins the bound to the achievable value.
    The regimes cannot overlap because floor(mx/mn) < (M+N)/gcd always.
    """
    mn, mx, g = _roles(M, N, K)
    if K <= mx // mn:
        return "exact_small_K"
    if K >= (M + N) // g:
        return "exact_large_K"
    return "open_gap"


@dataclass(frozen=True)
class DofReport:
    """Everything the bounds CLI shows for one (M, N, K)."""

    M: int
    N: int
    K: int
    achievable_total: Fraction
    upper_total: Fraction
    witness: PartitionWitness
    gj_achievable: Fraction
    gj_upper: Fraction
    regime: str

    def __post_init__(self) -> None:
        if self.achievable_total > self.upper_total:
            raise ValueError(
                f"achievable {self.achievable_total} exceeds upper bound "
                f"{self.upper_total} for M={self.M} N={self.N} K={self.K}"
            )

    @property
    def achievable_per_user(self) -> Fraction:
        return self.achievable_total / self.K

    @property
    def upper_per_user(self) -> Fraction:
        return self.upper_total / self.K

    def to_json_dict(self) -> dict:
        out = {
            "M": self.M,
            "N": self.N,
            "K": self.K,
            "regime": self.regime,
            "witness": self.witness.to_json_dict(),
        }
        for name, val in (
            ("achievable_total", self.achievable_total),
            ("upper_total", self.upper_total),
            ("achievable_per_user", self.achievable_per_user),
            ("upper_per_user", self.upper_per_user),
            ("gj_achievable", self.gj_achievable),
            ("gj_upper", self.gj_upper),
        ):
            out[name] = fraction_json(val)
        return out


def dof_report(M: int, N: int, K: int) -> DofReport:
    upper, witness = dof_upper_bound(M, N, K)
    gj_ach, gj_up = gou_jafar_reference(M, N, K)
    return DofReport(
        M=M,
        N=N,
        K=K,
        achievable_total=achievable_dof(M, N, K),
        upper_total=upper,
        witness=witness,
        gj_achievable=gj_ach,
        gj_upper=gj_up,
        regime=regime_classify(M, N, K),
    )
