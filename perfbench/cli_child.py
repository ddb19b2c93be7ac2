"""Traced stand-in for the `qsubgroups` entry point.

Usage: python -S cli_child.py SPANS_JSON [qsubgroups arguments...]

Imports the CLI, wraps every layer as `spans.Tracer` does in process,
runs `main` on the arguments, writes the span snapshot to SPANS_JSON and
exits with main's status.  Standard output is the CLI's own.
"""

import json
import sys

import qsubgroups.cli

from spans import Tracer, library_modules


def run() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(library_modules())
    tracer.install()
    try:
        code = qsubgroups.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(run())
