"""Output lock: every in-process benchmark command keeps its recorded output.

perfbench/reference.json holds the exit code and stdout sha256 of each
command the benchmark workloads run.  Each in-process row is replayed here
through iadof.cli.main with stdout captured, as the benchmark's worker
does, so a change to any layer that alters an output fails tier-1.  The
sim_curve rows differ only in their seed and the benchmark runs them in
fresh interpreters; one of them is replayed here.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from iadof.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def _rows(workload):
    with open(REFERENCE, encoding="utf-8") as f:
        table = json.load(f)[workload]
    rows = sorted(table.items())
    return rows[:1] if workload == "sim_curve" else rows


def _replay(command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split(" "))
    return [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()]


@pytest.mark.parametrize(
    "workload,count",
    [("align_lattice", 19), ("bounds_sweep", 196), ("sim_sweep", 206), ("sim_curve", 1)],
)
def test_reference_outputs_unchanged(workload, count):
    rows = _rows(workload)
    assert len(rows) == count
    changed = [command for command, want in rows if _replay(command) != want]
    assert not changed, f"{len(changed)} of {count} outputs changed, first: {changed[0]}"
