"""Runs one workload in a fresh interpreter and prints its raw samples.

Started by run.py, never by hand.  Prints one JSON object on its last
stdout line: the set-up times of SETUP_PROBES fresh interpreters started
between passes, every pass with its wall time and per-command (latency,
exit code, stdout sha256), the peak resident set, and, for traced passes,
the per-layer totals.  Each pass and each set-up probe carries the times of
the calibration loop run just before and just after it.  Raw spans of
traced passes are written to .perfbench/ when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads

import iadof.cli  # timed as part of set-up

COMMAND_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30
SETUP_PROBES = 12
CALIBRATION_LOOPS = 20_000
CALIBRATION_REPEATS = 5
OUT_DIR = ".perfbench"


def run_inproc(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = iadof.cli.main(argv)
    except Exception as e:  # counted as a failed command by run.py
        code = f"raised {type(e).__name__}: {e}"
    elapsed = time.perf_counter() - t0
    return [elapsed, code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()]


def run_fresh(argv: list[str], prefix: list[str]) -> list:
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *prefix, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        out, _ = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    elapsed = time.perf_counter() - t0
    return [elapsed, proc.returncode, hashlib.sha256(out).hexdigest()]


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop that touches no iadof code:
    a reading of the host's current speed, which run.py divides out.  The
    median of a few short timings, so that a pause in one does not count."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        s = 0
        for i in range(CALIBRATION_LOOPS):
            s += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup_probe(name: str, seed: int) -> dict:
    """Seconds from starting a fresh interpreter to its set-up being done."""
    before = calibrate()
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    seconds = json.loads(proc.stdout.splitlines()[-1])["ready"] - t0
    return {"seconds": seconds, "calibration_s": [before, calibrate()]}


def run_pass(name: str, cmds: list[list[str]], traced: bool, pass_no: int) -> dict:
    """One pass over the command list.  A traced pass also returns its
    exported span sets under "spans" and their totals under "layers"."""
    fresh = name in workloads.FRESH_PROCESS
    exported = []
    results = []
    tracer = None
    if traced:
        import spans

        if not fresh:
            tracer = spans.Tracer()
            tracer.install()
    before = calibrate()
    t0 = time.perf_counter()
    for i, argv in enumerate(cmds):
        if not fresh:
            if tracer is not None:
                tracer.command = i
            results.append(run_inproc(argv))
        elif traced:
            span_file = os.path.join(OUT_DIR, f"spans-{os.getpid()}-{pass_no}-{i}.json")
            traced_cli = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")
            results.append(run_fresh(argv, [traced_cli, span_file, str(i)]))
            with open(span_file, encoding="utf-8") as f:
                exported.append(json.load(f))
            os.remove(span_file)
        else:
            results.append(run_fresh(argv, ["-m", "iadof"]))
    wall_s = time.perf_counter() - t0
    record = {"traced": traced, "wall_s": wall_s, "calibration_s": [before, calibrate()],
              "commands": results}
    if traced:
        if tracer is not None:
            tracer.uninstall()
            exported.append(tracer.export())
        record["layers"] = spans.layer_totals(exported)
        record["spans"] = exported
    return record


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    cmds = workloads.commands(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    # Untraced passes only, or pairs of one untraced and one traced pass in
    # alternating order; another cycle starts only if a typical one still
    # fits in the time budget.  Between cycles, set-up probes keep pace with
    # the clock, so that they sample the host over the whole run as the
    # passes do.
    passes, cycle_times, setup = [], [], []
    start = time.perf_counter()
    while True:
        while (len(setup) < SETUP_PROBES
               and time.perf_counter() - start >= len(setup) * args.seconds / SETUP_PROBES):
            setup.append(setup_probe(args.workload, args.seed))
        c0 = time.perf_counter()
        if not args.trace:
            cycle = [False]
        elif len(cycle_times) % 2 == 0:
            cycle = [False, True]
        else:
            cycle = [True, False]
        for traced in cycle:
            passes.append(run_pass(args.workload, cmds, traced, len(passes)))
        cycle_times.append(time.perf_counter() - c0)
        if time.perf_counter() - start + statistics.median(cycle_times) > args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args.workload, args.seed))

    spans = [p.pop("spans") for p in passes if p["traced"]]
    if spans:
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(spans, f)

    who = resource.RUSAGE_CHILDREN if args.workload in workloads.FRESH_PROCESS else resource.RUSAGE_SELF
    import numpy

    from iadof import _kernels

    print(
        json.dumps(
            {
                "setup": setup,
                "passes": passes,
                "peak_rss_kb": resource.getrusage(who).ru_maxrss,
                "iadof_file": os.path.abspath(iadof.cli.__file__),
                "numpy": numpy.__version__,
                "use_numba": bool(_kernels.USE_NUMBA),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
