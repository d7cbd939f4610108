"""Acceptance criteria: each one runs its verification suite at the stated scale.

The suites in ``serrecalc.verify`` are the one definition of every check,
and ``verify.run_suites`` is the entry point the CLI also calls, scale caps
included.  A row names a suite, the f the criteria state, the wall-clock
bound on the whole call where a criterion has one, and the criteria it
covers.  Each suite runs once per session; a criterion asserts the records
it covers and prints one PASS line with their cases and seconds (visible
with -s).  A failing record names its first failing case and the values
that disagree.  ``acceptance_cases.json`` pins each record's case count at
the stated scale, so a check that silently skips a case fails too.
"""

import functools
import json
import time
from pathlib import Path

import pytest

from serrecalc import verify

CRITERIA = {
    1: "Hilbert series, f <= 5, all cases",
    2: "split layer series, 0 <= i <= f <= 5",
    3: "per-|A| counts and their closed forms, f <= 5",
    4: "Stanley-Reisner Tor closed form, k <= 5",
    5: "padded Ext dims f <= 3 and the f <= 12 identity",
    6: "degree-3 truncation ranks, f <= 3",
    7: "character shells f <= 5 and the aggregate identity f <= 12",
    8: "semisimple matching, f <= 4, all J_rho, all i0",
    9: "patched-module intersections, f <= 5",
    10: "invariant index sets vs degree-0 totals, f <= 8",
    11: "property suites: PBW, window relations, theta chains f <= 4, binomials",
}

# suite: (stated f, bound on the whole call in seconds or None, criteria); the
# stated f replaces the suite's first scale, its other scales keep their defaults
ROWS = {
    "hilbert": (5, 5.0, (1, 3, 11)),
    "split-ni": (5, None, (2,)),
    "tor": (5, 10.0, (4, 5)),
    "degenerates": (12, 30.0, (6, 7)),
    "xcounts": (5, None, (7,)),
    "semisimple-match": (4, None, (8,)),
    "patched": (5, None, (9,)),
    "gr-subquot": (8, None, (10,)),
    "pbw": (6, None, (11,)),
    "theta": (4, None, (11,)),
}

# suites whose records are split between the criterion tests below
SPLIT = ("hilbert", "tor", "xcounts")

# {suite: {check: cases}} at each row's stated f
CASES = json.loads(Path(__file__).with_name("acceptance_cases.json").read_text(encoding="utf-8"))


@functools.cache
def _run(suite):
    f, _, _ = ROWS[suite]
    t0 = time.perf_counter()
    records = verify.run_suites([suite], f)
    return records, time.perf_counter() - t0


def _assert_records(label, suite, keep=lambda check: True):
    f, bound, _ = ROWS[suite]
    records, elapsed = _run(suite)
    records = [r for r in records if keep(r.check)]
    assert records, f"no {suite} record selected for {label}"
    pinned = {check: cases for check, cases in CASES[suite].items() if keep(check)}
    assert {r.check: r.cases for r in records} == pinned, f"{suite} records cover other cases than pinned"
    failed = [f"{r.check}: {r.detail}" for r in records if not r.ok]
    assert not failed, "\n".join(failed)
    if bound is not None:
        assert elapsed < bound, f"{suite} took {elapsed:.1f}s against its {bound:.0f}s bound"
    print(f"[acceptance] {label} ({suite} f={f}): PASS, "
          f"{sum(r.cases for r in records)} cases in {sum(r.elapsed_s for r in records):.1f}s")


def test_every_criterion_has_a_row():
    assert sorted({c for *_, criteria in ROWS.values() for c in criteria}) == sorted(CRITERIA)
    assert sorted(CASES) == sorted(ROWS)


@pytest.mark.parametrize("suite", [s for s in ROWS if s not in SPLIT])
def test_criteria(suite):
    _assert_records("criteria " + ", ".join(map(str, ROWS[suite][2])), suite)


def _a_counts(check):
    return check.endswith("|A|-counts")


def _ext(check):
    return "Ext" in check


def test_criterion_01_hilbert_series():
    # the series and t=0 records, and criterion 11's binomial identities
    _assert_records("criteria 1, 11", "hilbert", lambda check: not _a_counts(check))


def test_criterion_03_counting_lemma():
    _assert_records("criterion 3", "hilbert", _a_counts)


def test_criterion_04_stanley_reisner_tor():
    # the pairing-ideal closed form, and the dual oracles on the ideal corpus
    _assert_records("criterion 4", "tor", lambda check: not _ext(check))


def test_criterion_05_ext_dims():
    _assert_records("criterion 5", "tor", _ext)


def test_criterion_07_shell_counts_and_aggregate():
    _assert_records("criterion 7", "xcounts")
    _assert_records("criterion 7", "degenerates", lambda check: check.startswith("aggregate identity"))


def test_every_record_covers_a_case_at_the_smallest_scale():
    records = verify.run_suites(sorted(verify.SUITES), 1)
    assert [f"{r.suite}: {r.check}" for r in records if r.cases < 1] == []


def test_cli_verify_all_under_budget():
    from serrecalc.cli import main

    t0 = time.perf_counter()
    rc = main(["verify", "--all"])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert elapsed < 60.0, f"verify --all took {elapsed:.1f}s"
