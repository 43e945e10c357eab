"""Record reference.json: exit code and stdout sha256 of every command any
workload can run, over every seed offset.

Usage, from the repository root: python3 perfbench/record.py

Re-record only when a change alters the program's output on purpose, and
say so in the change's description; run.py fails every command whose output
differs from this file.
"""

import json
import os
import sys

ROOT = os.getcwd()
os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
import worker  # noqa: E402


def main() -> int:
    reference = {}
    for name in workloads.WORKLOADS:
        table = {}
        for seed in range(workloads.SEED_PERIOD):
            for argv in workloads.commands(name, seed):
                key = workloads.command_key(argv)
                if key in table:
                    continue
                if name in workloads.FRESH_PROCESS:
                    _, code, digest = worker.run_fresh(argv, ["-m", "iadof"])
                else:
                    _, code, digest = worker.run_inproc(argv)
                if not isinstance(code, int):
                    raise SystemExit(f"{key}: {code}")
                table[key] = [code, digest]
        reference[name] = table
        print(f"{name}: {len(table)} commands", file=sys.stderr)
    write_reference(reference, os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json"))
    return 0


def write_reference(reference: dict, path: str) -> None:
    """One command per line, so a re-recording diffs line by line."""
    blocks = []
    for name in sorted(reference):
        rows = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(reference[name].items())]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    with open(path, "w", encoding="utf-8") as f:
        f.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
