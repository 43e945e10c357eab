"""`python -m iadof` with layer spans: runs one CLI command traced.

Usage: python perfbench/traced_cli.py SPAN_FILE COMMAND_ID ARGS...

Writes the command's stdout and exit code exactly as `python -m iadof ARGS`
would, and the spans to SPAN_FILE when the command ends.
"""

import json
import sys

import spans

import iadof.cli


def main() -> int:
    span_file, command_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = spans.Tracer()
    tracer.install()
    tracer.command = command_id
    try:
        code = iadof.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(span_file, "w", encoding="utf-8") as f:
            json.dump(tracer.export(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
