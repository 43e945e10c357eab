"""iadof benchmark: one workload of CLI commands, checked and timed.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in workloads.py.  The workload runs in a fresh
interpreter of its own (worker.py), which repeats whole passes over the
command list while another pass fits in --seconds and times set-up in
further fresh interpreters between them.  Every command's exit
code and stdout sha256 are checked against reference.json before any
figure is reported.  Reported times are brought to a reference host speed
by a calibration loop timed around every pass and probe (see end_to_end).

Output: an environment line, one ``digest`` line per command, one line per
metric with its median, quartiles and sample count, and, as the last line,
one JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the untraced
passes alternate with traced ones and the metrics are per layer.  The full
record goes to .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORKER_TIMEOUT_S = 160
PROBE_TIMEOUT_S = 30
OUT_DIR = ".perfbench"
# Timings are reported at the host speed at which worker.calibrate() reads
# this many seconds, about its typical reading on a 2-vCPU VM.
REFERENCE_LOOP_S = 0.0015


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(values: list[float]) -> str:
    return (
        f"median {statistics.median(values):.6g}, q1 {percentile(values, 25):.6g},"
        f" q3 {percentile(values, 75):.6g}, n={len(values)}"
    )


def spawn(argv: list[str], env: dict, timeout: float) -> str:
    """Run a child to completion; returns its stdout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{argv[1]} timed out after {timeout} s")
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{err}")
    return out


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "iadof")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read() + b"\0")
    return h.hexdigest()


def git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment(root: str, worker_out: dict) -> dict:
    return {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": worker_out["numpy"],
        "glibc": os.confstr("CS_GNU_LIBC_VERSION"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "use_numba": worker_out["use_numba"],
    }


def check_outputs(name: str, cmds: list[list[str]], passes: list[dict]) -> list[str]:
    """Every command of every pass against the reference; returns the
    failures, one line each."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        reference = json.load(f)[name]
    failures = []
    for p in passes:
        for argv, (_, code, digest) in zip(cmds, p["commands"]):
            key = workloads.command_key(argv)
            want = reference.get(key)
            if want is None:
                failures.append(f"no reference for: {key}")
            elif [code, digest] != want:
                failures.append(f"exit {code} sha256 {digest}, reference {want}: {key}")
    return failures


def at_reference_speed(sample: dict) -> float:
    """Factor that brings a sample's times to the host speed at which the
    calibration loop takes REFERENCE_LOOP_S: the reference time over the
    mean of the loop's times just before and just after the sample."""
    return REFERENCE_LOOP_S / statistics.fmean(sample["calibration_s"])


def end_to_end(name, cmds, passes, setup, worker_out) -> dict:
    """The end-to-end metrics, every time brought to the reference speed.

    The host's speed drifts by up to 2x over tens of seconds to minutes, in
    CPU time as well as wall time, and a 30 s run can spend all its time
    at one level, which no statistic over the run's own samples undoes.  A
    fixed pure-Python loop, timed just before and just after every pass and
    every set-up probe, slows down with the host by about the same factor as
    the in-process workloads, numpy-bound ones included (not as the fresh
    processes of sim_curve, which spend much of their time starting up and
    on page faults).  In 300 s traces on a 2-vCPU VM,
    the quartile distance over 30 s windows, as a share of the median, of
    the pass time was 0.18 (align_lattice) and 0.11 (sim_sweep) as measured,
    and 0.06 and 0.04 with each pass divided by the loop's time.
    """
    plain = [p for p in passes if not p["traced"]]
    scales = [at_reference_speed(p) for p in plain]
    # wall_s is the mean pass time.  A single command of a few ms is hit by
    # pauses of 10-20 ms now and then, which a mean over passes would carry,
    # so a command's latency is its median over the passes.  The percentiles
    # are taken over latency samples, each the mean per command of a group of
    # consecutive commands (a group is one command except where LATENCY_GROUP
    # says otherwise), so their sample count is fixed by the pass whatever
    # the number of passes.
    cmd_s = [
        statistics.median(p["commands"][i][0] * k for p, k in zip(plain, scales))
        for i in range(len(cmds))
    ]
    group = workloads.LATENCY_GROUP.get(name, 1)
    lat_ms = [statistics.fmean(cmd_s[i:i + group]) * 1e3 for i in range(0, len(cmd_s), group)]
    walls = [p["wall_s"] * k for p, k in zip(plain, scales)]
    setup_s = [x["seconds"] * at_reference_speed(x) for x in setup]
    tail = workloads.tail_percentile(len(lat_ms))
    what = "commands" if group == 1 else f"groups of {group} commands"
    print(f"host speed: measured times x {summary(scales)} (passes)")
    print(f"wall_s: mean {statistics.fmean(walls):.6g}, {summary(walls)} (passes of {len(cmds)} commands)")
    print(f"cmd_p50_ms: {summary(lat_ms)} ({what}, each its median over {len(plain)} passes)")
    dup = " (too few for a tail: repeats cmd_p50_ms)" if tail == 50.0 else ""
    print(f"cmd_tail_ms: p{tail:g} of the same {len(lat_ms)} {what}{dup}")
    print(f"setup_s: {summary(setup_s)}")
    return {
        "wall_s": (statistics.fmean(walls), "s"),
        "cmd_p50_ms": (statistics.median(lat_ms), "ms"),
        "cmd_tail_ms": (percentile(lat_ms, tail), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (worker_out["peak_rss_kb"] / 1024.0, "MiB"),
    }


def _layer_metrics(totals: dict) -> dict:
    layers = totals["layers"]

    def get(layer, key):
        return layers.get(layer, {}).get(key, 0)

    def count(layer, key):
        return layers.get(layer, {}).get("counts", {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    nearest_self = get("kernels.nearest", "self_s")
    queries = count("kernels.nearest", "queries")
    arrivals = count("alignment.expand", "arrivals")
    distinct = count("alignment.expand", "distinct")
    return {
        "cli.calls": (get("cli", "calls"), "count"),
        "cli.self_s": (get("cli", "self_s"), "s"),
        "bounds.dof_report.calls": (get("bounds.dof_report", "calls"), "count"),
        "bounds.dof_report.self_s": (get("bounds.dof_report", "self_s"), "s"),
        "bounds.dof_upper_bound.self_s": (get("bounds.dof_upper_bound", "self_s"), "s"),
        "bounds.balance_solves": (totals["counters"].get("bounds.balance_solves", 0), "count"),
        "alignment.build.calls": (get("alignment.build", "calls"), "count"),
        "alignment.build.self_s": (get("alignment.build", "self_s"), "s"),
        "alignment.build.directions": (count("alignment.build", "directions"), "count"),
        "alignment.expand.calls": (get("alignment.expand", "calls"), "count"),
        "alignment.expand.self_s": (get("alignment.expand", "self_s"), "s"),
        "alignment.expand.arrivals": (arrivals, "count"),
        "alignment.expand.distinct": (distinct, "count"),
        "alignment.expand.align_ratio": (ratio(distinct, arrivals), "ratio"),
        "alignment.verify.self_s": (get("alignment.verify", "self_s"), "s"),
        "channel.generate.self_s": (get("channel.generate", "self_s"), "s"),
        "simulate.simulate_plan.self_s": (get("simulate.simulate_plan", "self_s"), "s"),
        "simulate.antenna_model.self_s": (get("simulate.antenna_model", "self_s"), "s"),
        "simulate.amplitude.self_s": (get("simulate.amplitude", "self_s"), "s"),
        "simulate.lattice.self_s": (get("simulate.lattice", "self_s"), "s"),
        "simulate.lattice.points": (count("simulate.lattice", "points"), "count"),
        "simulate.min_distance.calls": (get("simulate.min_distance", "calls"), "count"),
        "simulate.min_distance.self_s": (get("simulate.min_distance", "self_s"), "s"),
        "simulate.budget_refusals": (get("simulate.min_distance", "refusals"), "count"),
        "kernels.nearest.calls": (get("kernels.nearest", "calls"), "count"),
        "kernels.nearest.self_s": (nearest_self, "s"),
        "kernels.nearest.queries": (queries, "count"),
        "kernels.nearest.us_per_query": (ratio(nearest_self * 1e6, queries), "us"),
        "kernels.min_abs.calls": (get("kernels.min_abs", "calls"), "count"),
        "kernels.min_abs.self_s": (get("kernels.min_abs", "self_s"), "s"),
        "kernels.min_abs.box_points": (count("kernels.min_abs", "box_points"), "count"),
    }


def per_layer(passes: list[dict]) -> dict:
    """Median over traced passes of each layer metric, plus the tracing
    overhead: the median over cycles of the traced pass time minus the
    untraced pass time of the same cycle."""
    traced = [p for p in passes if p["traced"]]
    per_pass = [_layer_metrics(p["layers"]) for p in traced]
    metrics = {
        k: (statistics.median(m[k][0] for m in per_pass), unit)
        for k, (_, unit) in per_pass[0].items()
    }
    # The worker runs whole cycles of one untraced and one traced pass.
    overheads = [
        sum(p["wall_s"] if p["traced"] else -p["wall_s"] for p in passes[i:i + 2])
        for i in range(0, len(passes), 2)
    ]
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    print(f"trace.overhead_s: {summary(overheads)} (cycles)")

    layers = traced[0]["layers"]
    total = sum(t["self_s"] for t in layers["layers"].values())
    for name, t in sorted(layers["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        missing = " (counts missing)" if t.get("counts_missing") else ""
        print(
            f"layer {name}: self {t['self_s']:.6g} s ({100 * t['self_s'] / total:.1f}% of"
            f" traced self time), calls {t['calls']}, counts {t['counts']}{missing}"
        )
    for name in layers["absent"]:
        print(f"layer {name}: absent (entry point not found)")
    return metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "iadof", "cli.py")):
        print("src/iadof not found: run from the root of an iadof checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed)]

    # One untimed start first, so byte-compilation is not timed as set-up.
    spawn(worker + ["--setup-only"], env, PROBE_TIMEOUT_S)
    out = spawn(
        worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, WORKER_TIMEOUT_S
    )
    worker_out = json.loads(out.splitlines()[-1])
    setup = worker_out["setup"]
    if not worker_out["iadof_file"].startswith(os.path.join(root, "src") + os.sep):
        print(f"imported {worker_out['iadof_file']}, not this checkout's", file=sys.stderr)
        return 2

    env_block = environment(root, worker_out)
    print("env " + json.dumps(env_block, sort_keys=True))
    cmds = workloads.commands(args.workload, args.seed)
    passes = worker_out["passes"]
    for argv, (_, code, digest) in zip(cmds, passes[0]["commands"]):
        print(f"digest {code} {digest} {workloads.command_key(argv)}")

    failures = check_outputs(args.workload, cmds, passes)
    attempted = sum(len(p["commands"]) for p in passes)
    for line in failures:
        print(f"FAIL {line}")
    print(f"error_rate: {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")

    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics = end_to_end(args.workload, cmds, passes, setup, worker_out)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as f:
        json.dump({"env": env_block, "setup": setup, "passes": passes, "result": result}, f)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
