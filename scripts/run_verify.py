#!/usr/bin/env python3
"""Run the verification suites and write a JSON report.

Usage: python scripts/run_verify.py [--out report.json] [--suite NAME ...]
"""

import argparse
import json
import sys
import time

from serrecalc import verify


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--suite", action="append", choices=sorted(verify.SUITES))
    ap.add_argument("--out", default="verify_report.json")
    args = ap.parse_args()

    names = args.suite or sorted(verify.SUITES)
    report = []
    for name in names:
        t0 = time.perf_counter()
        records = verify.run_suites([name])
        elapsed = time.perf_counter() - t0
        passed = sum(r.ok for r in records)
        print(f"{name:18s} {passed}/{len(records)} in {elapsed:6.2f}s")
        report.extend(
            {"suite": r.suite, "check": r.check, "ok": r.ok, "detail": r.detail}
            for r in records
        )
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    bad = [r for r in report if not r["ok"]]
    print(f"wrote {args.out}; {len(report) - len(bad)}/{len(report)} checks passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
