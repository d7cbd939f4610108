"""Traced stand-in for ``python -m serrecalc.cli``.

Usage: cli_shim.py SUMMARY_JSONL SPANS_CSV [CLI ARGS...]

Imports the CLI, installs the tracer, runs ``serrecalc.cli.main`` on the
arguments and exits with its code.  An exception still ends the process in
a traceback with exit 1, as under ``-m``.  On the way out it appends the
tracer's summary (with the import time) to SUMMARY_JSONL and its spans to
SPANS_CSV.
"""

import json
import sys
import time

_t0 = time.perf_counter()
import serrecalc.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import tracer  # noqa: E402


def main() -> int:
    summary_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tr = tracer.install()
    try:
        return serrecalc.cli.main(argv)
    finally:
        summary = tr.summary()
        summary["import_s"] = IMPORT_S
        with open(summary_path, "a") as fh:
            fh.write(json.dumps(summary) + "\n")
        tr.write_spans(spans_path)


if __name__ == "__main__":
    sys.exit(main())
