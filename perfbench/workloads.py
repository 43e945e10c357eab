"""The four benchmark workloads: fixed CLI command lists built from a seed.

Every workload is a closed loop with one client: commands run one at a time,
in list order, each after the previous one has returned.  A pass is one run
of the whole list; ``wall_s`` is the time of one pass.

The workload seed only moves the ``--seed`` values of the two simulate
workloads.  It is reduced modulo ``SEED_PERIOD`` so that every seed maps onto
inputs whose outputs ``reference.json`` holds.
"""

from __future__ import annotations

import math

SEED_PERIOD = 64


# sim_curve runs every command as `python -m iadof` in a fresh interpreter.
# The same numpy decode call measured 962 us/query in a fresh process and
# 172 us/query after the process had freed one large block (glibc's dynamic
# mmap threshold), so a warm process would measure a different program; CLI
# users start cold.  The other workloads call iadof.cli.main in-process, in
# an interpreter of their own.
FRESH_PROCESS = frozenset({"sim_curve"})

# Latencies are taken per group of this many consecutive commands (the
# group's mean per command).  sim_sweep issues a noiseless and a noisy command
# per seed, about 1.5x apart in cost; a median over single commands would sit
# in the gap between the two kinds, so its sample is the seed's pair.
LATENCY_GROUP = {"sim_sweep": 2}

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)


def tail_percentile(n_samples: int) -> float:
    """Percentile reported as cmd_tail_ms over n_samples latencies: the
    highest ladder step that leaves at least ten samples beyond it, or the
    median when there are too few for any step to (then cmd_tail_ms repeats
    cmd_p50_ms).  It depends on the pass length only, so runs with different
    numbers of passes stay comparable."""
    best = 50.0
    for p in TAIL_LADDER:
        if n_samples * (100.0 - p) / 100.0 >= 10.0:
            best = p
    return best


# The acceptance lattice (every K<=3, M<=2, N<=2, gamma<=2 config whose
# per-stream count L fits 10^5) without (2,2,2,2) and (3,2,1,2): those two
# take about 22 s of a 23 s pass, which left one pass, and so one latency
# sample per command, in a run.  Without them a pass takes about 1 s, of
# which (3,1,2,1) takes most.  Fixed here, not recomputed, so that a change
# to closed_form_counts cannot silently change the workload.
ALIGN_LATTICE = (
    (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 1), (1, 1, 2, 2),
    (1, 2, 1, 1), (1, 2, 1, 2), (1, 2, 2, 1), (1, 2, 2, 2),
    (2, 1, 1, 1), (2, 1, 1, 2), (2, 1, 2, 1), (2, 1, 2, 2),
    (2, 2, 1, 1), (2, 2, 1, 2), (2, 2, 2, 1),
    (3, 1, 1, 1), (3, 1, 1, 2), (3, 1, 2, 1), (3, 2, 1, 1),
)

# bounds_sweep covers 1 <= M,N <= BOUNDS_MAX_ANTENNAS, so that a pass takes
# about 1 s and a run holds some 25 of them (at 24 a pass takes about 10 s).
BOUNDS_MAX_ANTENNAS = 14


def bounds_sweep(offset: int) -> list[list[str]]:
    cmds = []
    for m in range(1, BOUNDS_MAX_ANTENNAS + 1):
        for n in range(1, BOUNDS_MAX_ANTENNAS + 1):
            k_max = (m + n) // math.gcd(m, n) + 1
            cmds.append(
                ["sweep", "-M", str(m), "-N", str(n), "--k-min", "1", "--k-max", str(k_max)]
            )
    return cmds


def align_lattice(offset: int) -> list[list[str]]:
    return [
        ["directions", "-K", str(k), "-M", str(m), "-N", str(n), "--gamma", str(g), "--json"]
        for (k, m, n, g) in ALIGN_LATTICE
    ]


def sim_curve(offset: int) -> list[list[str]]:
    # 100 trials and three seeds: a command takes about 1.4 s, of which decode
    # is about 70%, and a run holds some 5 passes.  With 400 trials and four
    # seeds a pass takes about 20 s, one per run.
    return [
        [
            "simulate", "-K", "3", "-M", "1", "-N", "1", "--q", "4", "--cap", "2",
            "--trials", "100", "--snr", "1e2,1e4,1e6,1e8", "--seed", str(offset + s),
            "--json",
        ]
        for s in range(3)
    ]


def sim_sweep(offset: int) -> list[list[str]]:
    # 40 seeds, so that a pass takes about 2 s and a run holds some 10.
    cmds = []
    for s in range(offset, offset + 40):
        base = [
            "simulate", "-K", "3", "-M", "1", "-N", "1", "--cap", "1",
            "--trials", "1000", "--json", "--seed", str(s),
        ]
        cmds.append(base + ["--noiseless", "--snr", "1e2"])
        cmds.append(base + ["--snr", "1e2,1e6"])
    return cmds


WORKLOADS = {
    "bounds_sweep": bounds_sweep,
    "align_lattice": align_lattice,
    "sim_curve": sim_curve,
    "sim_sweep": sim_sweep,
}


def commands(name: str, seed: int) -> list[list[str]]:
    """The workload's command list (iadof argv, without the program name)."""
    return WORKLOADS[name](seed % SEED_PERIOD)


def command_key(argv: list[str]) -> str:
    return " ".join(argv)
