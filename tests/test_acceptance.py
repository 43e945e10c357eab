"""Acceptance gate: one test per shipped claim, each printing a single
PASS/FAIL line with its runtime.

Criterion 5 holds every lattice config's interference union to the
closed-form count L', which is the exact union size of the construction.
That construction reaches the paper's K*MN/(M+N) only for M = 1, which is
why criterion 6 checks convergence at M = 1; the M > 1 gap is pinned in
test_alignment.py::test_multi_antenna_dof_gap_to_paper.
"""

import time
from fractions import Fraction

import pytest

from iadof.alignment import (
    achievable_dof_gamma,
    closed_form_counts,
    verify_alignment,
)
from iadof.bounds import (
    achievable_dof,
    dof_report,
    dof_upper_bound,
    gou_jafar_reference,
)
from iadof.channel import SystemConfig
from iadof.cli import EXIT_OK, main
from iadof.simulate import SimConfig, run_link_sim
from conftest import full_plan
from test_bounds import brute_force_upper_bound


def report(n, ok, t0):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({time.perf_counter() - t0:.2f}s)")


def lattice_configs():
    """Every (K<=3, M<=2, N<=2, gamma<=2) config whose stream count fits
    the enumeration budget of 10^5."""
    out = []
    for K in (1, 2, 3):
        for M in (1, 2):
            for N in (1, 2):
                for gamma in (1, 2):
                    config = SystemConfig(K=K, M=M, N=N, gamma=gamma)
                    if closed_form_counts(config)[0] <= 10**5:
                        out.append(config)
    return out


@pytest.fixture(scope="module")
def lattice_plans():
    return [(c, full_plan(c)) for c in lattice_configs()]


def test_criterion_1_worked_example(capsys):
    t0 = time.perf_counter()
    rep = dof_report(5, 2, 4)
    ok = (
        rep.upper_per_user == Fraction(3, 2)
        and rep.witness.mu == 1
        and rep.witness.l_min == 1
        and main(["bounds", "-M", "5", "-N", "2", "-K", "4"]) == EXIT_OK
    )
    cli_out = capsys.readouterr().out
    ok = ok and "per-user upper: 3/2 (1.5)" in cli_out
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 1.0, t0)
    assert rep.upper_per_user == Fraction(3, 2)
    assert rep.witness.mu == 1
    assert rep.witness.l_min == 1
    assert "per-user upper: 3/2 (1.5)" in cli_out
    assert elapsed < 1.0


def test_criterion_2_threshold():
    t0 = time.perf_counter()
    ok = True
    for K in range(2, 51):
        rep = dof_report(5, 2, K)
        if K >= 7:
            ok = ok and rep.upper_total == rep.achievable_total == Fraction(10 * K, 7)
        if K <= 2:
            ok = ok and rep.upper_total == Fraction(2 * K)
    elapsed = time.perf_counter() - t0
    report(2, ok and elapsed < 1.0, t0)
    assert ok
    assert elapsed < 1.0


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    for M in range(1, 7):
        for N in range(1, 7):
            for K in range(1, 13):
                ok = ok and dof_upper_bound(M, N, K)[0] == brute_force_upper_bound(
                    M, N, K
                )
    elapsed = time.perf_counter() - t0
    report(3, ok and elapsed < 10.0, t0)
    assert ok
    assert elapsed < 10.0


def test_criterion_4_cardinality(lattice_plans):
    t0 = time.perf_counter()
    assert len(lattice_plans) == 21
    ok = True
    for config, plan in lattice_plans:
        L, _ = closed_form_counts(config)
        ok = ok and all(len(ds) == L for ds in plan.streams.values())
    pins = dict(
        (
            ((3, 1, 1, 1), 16),
            ((3, 1, 2, 1), 1024),
        )
    )
    for (K, M, N, g), want in pins.items():
        ok = ok and closed_form_counts(SystemConfig(K=K, M=M, N=N, gamma=g))[0] == want
    elapsed = time.perf_counter() - t0
    report(4, ok and elapsed < 60.0, t0)
    assert ok
    assert elapsed < 60.0


def test_criterion_5_alignment_verification():
    t0 = time.perf_counter()
    failures = []
    for config in lattice_configs():
        rep = verify_alignment(config)
        if not rep.passed:
            bad = sorted(
                {
                    name
                    for a in rep.antennas
                    for name, passed in a.checks.items()
                    if not passed
                }
            )
            failures.append(
                f"(K={config.K}, M={config.M}, N={config.N},"
                f" gamma={config.gamma}): {', '.join(bad)}"
            )
    report(5, not failures, t0)
    assert not failures, "alignment checks failed at " + "; ".join(failures)


def test_criterion_6_dof_convergence():
    t0 = time.perf_counter()
    values = [
        achievable_dof_gamma(SystemConfig(K=3, gamma=g)) for g in range(1, 101)
    ]
    ok = values[-1] >= Fraction(98, 100) * Fraction(3, 2)
    ok = ok and all(a <= b for a, b in zip(values, values[1:]))
    report(6, ok, t0)
    assert values[-1] >= Fraction(98, 100) * Fraction(3, 2)
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_criterion_7_simulation_soundness():
    t0 = time.perf_counter()
    decayed = 0
    noiseless_clean = True
    dmin_positive = True
    for seed in range(100):
        config = SystemConfig(K=3, seed=seed)
        quiet = run_link_sim(
            config,
            SimConfig(snr_points=(1e2,), trials=1000, noiseless=True),
            cap=1,
        )
        noiseless_clean = noiseless_clean and all(
            s == 0.0 for s in quiet.ser.values()
        )
        dmin_positive = dmin_positive and quiet.d_min > 0
        noisy = run_link_sim(
            config, SimConfig(snr_points=(1e2, 1e6), trials=1000), cap=1
        )
        if noisy.ser[1e6] < noisy.ser[1e2]:
            decayed += 1
    elapsed = time.perf_counter() - t0
    ok = noiseless_clean and dmin_positive and decayed >= 95 and elapsed < 300.0
    report(7, ok, t0)
    assert noiseless_clean
    assert dmin_positive
    assert decayed >= 95
    assert elapsed < 300.0


def test_criterion_8_dominance():
    t0 = time.perf_counter()
    ok = True
    for M in range(1, 7):
        for N in range(1, 7):
            mn, mx = sorted((M, N))
            for K in range(1, 13):
                if K <= mx // mn:
                    continue
                gj_ach, gj_up = gou_jafar_reference(M, N, K)
                ok = ok and dof_upper_bound(M, N, K)[0] <= gj_up
                ok = ok and achievable_dof(M, N, K) >= gj_ach
    strict_up = dof_upper_bound(5, 2, 4)[0]
    strict_ach = achievable_dof(5, 2, 4)
    gj_ach, gj_up = gou_jafar_reference(5, 2, 4)
    ok = ok and strict_up == Fraction(6) < gj_up == Fraction(20, 3)
    ok = ok and strict_ach == Fraction(40, 7) > gj_ach == Fraction(16, 3)
    report(8, ok, t0)
    assert ok
