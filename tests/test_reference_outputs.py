"""Output lock: every in-process benchmark command keeps its recorded output.

perfbench/reference.json holds the exit code and stdout sha256 of each
command the benchmark workloads run.  Each in-process row is replayed here
through iadof.cli.main with stdout captured, as the benchmark's worker
does, so a change to any layer that alters an output fails tier-1.  The
sim_curve rows differ only in their seed and the benchmark runs them in
fresh interpreters; every ninth of them (8 of 66 seeds) is replayed here.
Two row sets are replayed once more in a fresh interpreter of their own:
the bounds_sweep rows with numpy unimportable, since the bound commands
must not need it, and the sim_sweep rows in seed order and then reversed,
since the simulator keeps one plan per system and its last channel draw
across commands and earlier tests in this process may have warmed them.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from iadof.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def _rows(workload):
    with open(REFERENCE, encoding="utf-8") as f:
        table = json.load(f)[workload]
    rows = sorted(table.items())
    return rows[::9] if workload == "sim_curve" else rows


def _replay(command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split(" "))
    return [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()]


@pytest.mark.parametrize(
    "workload,count",
    [("align_lattice", 19), ("bounds_sweep", 196), ("sim_sweep", 206), ("sim_curve", 8)],
)
def test_reference_outputs_unchanged(workload, count):
    rows = _rows(workload)
    assert len(rows) == count
    changed = [command for command, want in rows if _replay(command) != want]
    assert not changed, f"{len(changed)} of {count} outputs changed, first: {changed[0]}"


# Replays the commands read from stdin in a fresh interpreter and prints
# their [exit code, stdout sha256] pairs; with the argument "no-numpy",
# numpy is made unimportable first.
FRESH_REPLAY = f"""
import json, sys
if sys.argv[1:] == ["no-numpy"]:
    sys.modules["numpy"] = None
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from test_reference_outputs import _replay
print(json.dumps([_replay(command) for command in json.load(sys.stdin)]))
"""


def _replay_fresh(rows, *args):
    """Commands of rows whose output differs in a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, "-c", FRESH_REPLAY, *args],
        input=json.dumps([command for command, _ in rows]),
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    assert len(got) == len(rows)
    return [command for (command, want), have in zip(rows, got) if have != want]


def test_bounds_sweep_replays_without_numpy():
    rows = _rows("bounds_sweep")
    assert len(rows) == 196
    changed = _replay_fresh(rows, "no-numpy")
    assert not changed, f"{len(changed)} of 196 outputs changed, first: {changed[0]}"


def _seed(row):
    words = row[0].split(" ")
    return int(words[words.index("--seed") + 1])


def test_sim_sweep_replays_fresh_in_both_seed_orders():
    rows = sorted(_rows("sim_sweep"), key=_seed)
    assert len(rows) == 206
    changed = _replay_fresh(rows + rows[::-1])
    assert not changed, f"{len(changed)} of 412 outputs changed, first: {changed[0]}"
