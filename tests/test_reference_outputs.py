"""Output lock: every in-process benchmark command keeps its recorded output.

perfbench/reference.json holds the exit code and stdout sha256 of each
command the benchmark workloads run.  Each in-process row is replayed here
through iadof.cli.main with stdout captured, as the benchmark's worker
does, so a change to any layer that alters an output fails tier-1.  The
sim_curve rows differ only in their seed and the benchmark runs them in
fresh interpreters; every ninth of them (8 of 66 seeds) is replayed here.
The bounds_sweep rows are replayed once more in an interpreter that cannot
import numpy, since the bound commands must not need it.
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


# Replays the commands read from stdin with numpy made unimportable, and
# prints their [exit code, stdout sha256] pairs.
NUMPY_BLOCKED_REPLAY = f"""
import json, sys
sys.modules["numpy"] = None
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
from test_reference_outputs import _replay
print(json.dumps([_replay(command) for command in json.load(sys.stdin)]))
"""


def test_bounds_sweep_replays_without_numpy():
    rows = _rows("bounds_sweep")
    res = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED_REPLAY],
        input=json.dumps([command for command, _ in rows]),
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    changed = [command for (command, want), have in zip(rows, got) if have != want]
    assert len(got) == len(rows) == 196
    assert not changed, f"{len(changed)} of 196 outputs changed, first: {changed[0]}"
