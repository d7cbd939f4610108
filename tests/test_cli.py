import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import serrecalc
from serrecalc import cli, ideals, pbw, predictions, verify
from serrecalc.cli import main
from serrecalc.homology import VERTEX_CAP
from serrecalc.ideals import FACE_CAP, PATCHED_F_CAP, TABLE_CAP, MonomialIdeal
from serrecalc.pbw import TOR1_F_CAP
from serrecalc.predictions import HILBERT_F_CAP, K1_CYCLE_F_CAP, SOCLE_F_CAP, THETA_POINT_CAP, X_COUNTS_F_CAP
from serrecalc.series import EXPANSION_CAP, dumps_canonical
from serrecalc.weights import (
    CONTEXT_F_CAP,
    PRIME_TEST_BOUND,
    PROFILE_F_CAP,
    WeightProfile,
    enumerate_profiles,
    nonsplit_context,
    profile_stats,
)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_hilbert_table(capsys):
    rc, out = run(capsys, "hilbert", "--f", "2", "--case", "split", "--jrho", "all", "--format", "table")
    assert rc == 0
    lines = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert lines["numerator"] == "10 4 2"
    assert lines["equal"] == "True"


def test_enumerate_counts(capsys):
    rc, out = run(capsys, "enumerate", "--f", "1", "--case", "nonsplit", "--jrho", "0", "--which", "P")
    assert rc == 0
    data = json.loads(out)
    assert data["count"] == "2"
    assert data["profiles"] == [["X0"], ["P1"]]


def test_stringify_converts_lists_in_place():
    """Every payload builds fresh containers, so its lists are converted where they stand, not copied."""
    rows = [[1, 2], [3, 10 ** 30]]
    payload = {"j_sets": rows, "count": 2, "pair": (4, True), "eps": {"0": -1}}
    out = cli._stringify(payload)
    assert out is payload and out["j_sets"] is rows
    assert out == {"j_sets": [["1", "2"], ["3", str(10 ** 30)]], "count": "2", "pair": ["4", True], "eps": {"0": "-1"}}
    assert cli._stringify({7: [1], "a": (2,)}) == {"7": ["1"], "a": ["2"]}


def test_stringify_keeps_no_second_copy_of_a_large_payload():
    tracemalloc.start()
    size = tracemalloc.get_traced_memory()[0]
    big = {"j_sets": [list(range(j % 9)) for j in range(20_000)]}
    size = tracemalloc.get_traced_memory()[0] - size
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    cli._stringify(big)
    extra = tracemalloc.get_traced_memory()[1] - before
    tracemalloc.stop()
    assert extra < size / 4, (extra, size)  # a copy of the lists would take about their size again


def test_round_trip_enumerate_stats(capsys, tmp_path):
    rc, out = run(capsys, "enumerate", "--f", "2", "--case", "split", "--jrho", "all", "--which", "P")
    assert rc == 0
    path = tmp_path / "profiles.json"
    path.write_text(out)
    rc, out1 = run(capsys, "stats", "--f", "2", "--case", "split", "--jrho", "all", "--from-json", str(path))
    assert rc == 0
    # feeding the parsed profiles back one by one reproduces the same records
    records = json.loads(out1)["stats"]
    for rec in records:
        rc, single = run(
            capsys, "stats", "--f", "2", "--case", "split", "--jrho", "all",
            "--profile", ",".join(rec["profile"]),
        )
        assert rc == 0
        assert json.loads(single)["stats"][0] == rec


def test_determinism(capsys):
    args = ("grsubquot", "--f", "2", "--case", "nonsplit", "--jrho", "1", "--i0", "0", "--i0p", "1")
    rc1, out1 = run(capsys, *args)
    rc2, out2 = run(capsys, *args)
    assert rc1 == rc2 == 0 and out1 == out2


def test_ideal_subcommand(capsys):
    rc, out = run(capsys, "ideal", "--f", "1", "--case", "split", "--jrho", "all", "--profile", "X0")
    assert rc == 0
    data = json.loads(out)
    assert data["gens"] == [["0", "1"]]
    assert data["hilbert"] == {"num": ["1"], "pole": "1"}


def test_tor_subcommand(capsys):
    gens = json.dumps([[1, 1, 0], [0, 1, 1]])
    rc, out = run(capsys, "tor", "--gens", gens, "--method", "both")
    assert rc == 0
    data = json.loads(out)
    assert data["taylor"][:3] == ["1", "2", "1"]
    assert data["hochster"][:3] == ["1", "2", "1"]


def test_grtor_subcommand(capsys):
    rc, out = run(capsys, "grtor", "--f", "1", "--case", "split", "--jrho", "all", "--profile", "X0")
    assert rc == 0
    data = json.loads(out)
    assert data["tor1"] == "7" and data["matches_closed_forms"] is True


def test_verify_suite_exit_codes(capsys):
    rc, out = run(capsys, "verify", "--suite", "degenerates", "--f", "12")
    assert rc == 0
    assert "degenerates" in out


def test_verify_report_json(capsys):
    rc, out = run(capsys, "verify", "--suite", "split-ni", "--report", "json")
    assert rc == 0
    records = json.loads(out)
    assert all(r["ok"] for r in records)


def test_verify_names_its_suites_in_help_and_errors(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one help line per flag
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    (line,) = [x for x in capsys.readouterr().out.splitlines() if x.strip().startswith("--suite")]
    assert line.split("one of ", 1)[1].split(", ") == sorted(verify.SUITES)
    assert main(["verify", "--suite", "nope"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: unknown suite 'nope'; the suites are {', '.join(sorted(verify.SUITES))}\n"


def test_k1cycle(capsys):
    rc, out = run(capsys, "k1cycle", "--f", "3", "--i0", "0", "--i0p", "2")
    assert rc == 0
    assert json.loads(out)["value"] == "6"


def test_match_subcommand(capsys):
    rc, out = run(capsys, "match", "--f", "2", "--case", "nonsplit", "--jrho", "1", "--i0", "0")
    assert rc == 0
    data = json.loads(out)
    assert data["bijection_ok"] is True and data["hilbert_ok"] is True


def test_patched_subcommand(capsys):
    rc, out = run(capsys, "patched", "--f", "2", "--case", "split", "--jrho", "all", "--profile", "X0,X0")
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_xcounts_subcommand(capsys):
    rc, out = run(capsys, "xcounts", "--f", "2", "--case", "nonsplit", "--jrho", "1", "--profile", "X0,X0")
    assert rc == 0
    data = json.loads(out)
    assert [data["x0"], data["x1"], data["x2"]] == ["1", "3", "5"]


def test_match_takes_no_trunc(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["match", "--f", "2", "--case", "nonsplit", "--jrho", "1", "--i0", "0", "--trunc", "5"])
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert exc.value.code == 2 and len(errors) == 1 and "--trunc" in errors[0]


def test_large_prime_p_is_decided_quickly():
    argv = ["hilbert", "--f", "1", "--case", "split", "--jrho", "all", "--p", "1000000000000000003"]
    env = {**os.environ, "PYTHONPATH": str(Path(serrecalc.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "serrecalc.cli", *argv], capture_output=True, env=env, timeout=30)
    assert done.returncode == 0 and json.loads(done.stdout)["equal"] is True


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--f", "1", "--case", "split", "--jrho", "all", "--bogus"])
    assert exc.value.code == 2


def test_bad_profile_exits_2(capsys):
    rc = main(["ideal", "--f", "2", "--case", "split", "--jrho", "all", "--profile", "X0"])
    assert rc == 2


def test_invalid_context_exits_2(capsys):
    rc = main(["hilbert", "--f", "2", "--case", "nonsplit", "--jrho", "3"])
    assert rc == 2


def test_theta_subcommand(capsys):
    rc, out = run(
        capsys, "theta", "--f", "1", "--case", "nonsplit", "--jrho", "0",
        "--profile", "X0", "--i0", "0",
    )
    assert rc == 0
    data = json.loads(out)
    assert data["jh_theta"] == [["-3"], ["-2"], ["-1"]]
    assert data["chain_ok"] is True


def test_theta_walks_a_ball_whose_box_is_larger_than_the_cap(capsys):
    # the box of this call is 13^5 = 371,293 points; its l1 ball has 3,653
    rc, out = run(capsys, "theta", "--f", "5", "--case", "nonsplit", "--jrho", "0",
                  "--profile", "X0,X0,X0,X0,X0", "--i0", "0", "--n", "7")
    assert rc == 0
    assert len(json.loads(out)["points"]) == 3653


def test_taylor_profile_ignores_zero_columns(capsys):
    gens = [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 2], [2, 0, 0, 0, 1]]
    padded = [[0] * 3 + row[:2] + [0] + row[2:] + [0] * 40 for row in gens]
    profiles = []
    for rows in (gens, padded):
        rc, out = run(capsys, "tor", "--gens", json.dumps(rows), "--method", "taylor")
        assert rc == 0
        profiles.append(json.loads(out)["taylor"])
    assert profiles[0] == profiles[1] and profiles[0][:2] == ["1", "5"]


def test_enumerate_csv(capsys):
    rc, out = run(capsys, "enumerate", "--f", "2", "--case", "split", "--jrho", "all", "--which", "Dss", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == "X0,X0"


# Inputs that are not usage errors to argparse but must still end in exit 2
# with one `error:` line; TMP is replaced by a scratch directory.
BAD_INPUT = {
    "jrho-outside-mask": ["enumerate", "--f", "2", "--case", "nonsplit", "--jrho", "9", "--which", "P"],
    "gens-not-nested": ["tor", "--gens", "[1,2]"],
    "gens-object": ["tor", "--gens", '{"a":1}'],
    "gens-non-integer": ["tor", "--gens", '[["a"]]'],
    "from-json-missing": ["stats", "--f", "2", "--case", "split", "--jrho", "all", "--from-json", "TMP/missing.json"],
    "from-json-shape": ["stats", "--f", "2", "--case", "split", "--jrho", "all", "--from-json", "TMP/x.json"],
    # 1,000 nested arrays: the JSON decoder passes the recursion limit
    "gens-nested-too-deeply": ["tor", "--gens", "[" * 1000 + "]" * 1000],
    "from-json-nested-too-deeply": ["stats", "--f", "2", "--case", "split", "--jrho", "all",
                                    "--from-json", "TMP/deep.json"],
    "hochster-above-vertex-cap": ["tor", "--gens", json.dumps([[1] + [0] * VERTEX_CAP]), "--method", "hochster"],
    "verify-f-zero": ["verify", "--suite", "tor", "--f", "0"],
    "verify-f-negative": ["verify", "--suite", "hilbert", "--f", "-1"],
    "enumerate-above-profile-cap": ["enumerate", "--f", str(PROFILE_F_CAP + 1), "--case", "split", "--jrho", "all",
                                    "--which", "P"],
    "p-above-prime-test-bound": ["hilbert", "--f", "1", "--case", "split", "--jrho", "all",
                                 "--p", str(PRIME_TEST_BOUND)],
    "tor-ambient": ["tor", "--gens", "[]", "--ambient", "3"],
    "grsubquot-negative-trunc-split": ["grsubquot", "--f", "2", "--case", "split", "--jrho", "all", "--i0", "0",
                                       "--i0p", "1", "--trunc", "-1"],
    "grsubquot-negative-trunc-nonsplit": ["grsubquot", "--f", "2", "--case", "nonsplit", "--jrho", "1", "--i0", "0",
                                          "--i0p", "1", "--trunc", "-1"],
    # C(TABLE_CAP + 2, 2) monomials of degree <= TABLE_CAP in y_0, z_0
    "grsubquot-above-table-cap": ["grsubquot", "--f", "1", "--case", "split", "--jrho", "all", "--i0", "-1",
                                  "--i0p", "1", "--trunc", str(TABLE_CAP)],
    # trunc + 1 coefficients, one past the cap
    "hilbert-above-trunc-cap": ["hilbert", "--f", "1", "--case", "split", "--jrho", "all",
                                "--trunc", str(EXPANSION_CAP)],
    # one coordinate, 2n - 1 points: the cap is met by the counted ball, not by a walk
    "theta-above-box-cap": ["theta", "--f", "1", "--case", "nonsplit", "--jrho", "0", "--profile", "X0",
                            "--i0", "0", "--n", str(THETA_POINT_CAP // 2 + 1)],
    **{f"verify-{name}-above-profile-cap": ["verify", "--suite", name, "--f", str(PROFILE_F_CAP + 1)]
       for name in ("hilbert", "split-ni", "gr-subquot", "semisimple-match", "theta", "xcounts", "patched")},
    "verify-all-f-12": ["verify", "--all", "--f", "12"],
    "verify-theta-box-above-cap": ["verify", "--suite", "theta", "--f", "5"],
    # Hochster on the pairing ideal at k = 7 would take 14 vertices, above the vertex cap
    "verify-tor-above-scale-cap": ["verify", "--suite", "tor", "--f", str(verify.SCALE_CAP["tor"] + 1)],
    **{f"verify-{name}-above-scale-cap": ["verify", "--suite", name, "--f", str(verify.SCALE_CAP[name] + 1)]
       for name in ("pbw", "degenerates")},
    # 17 coordinate variables: no face is pruned, so the walk passes its cap of 2^16 faces
    "tor-taylor-above-cap": ["tor", "--gens", json.dumps([[int(i == j) for j in range(FACE_CAP.bit_length())]
                                                          for i in range(FACE_CAP.bit_length())]),
                             "--method", "taylor"],
    # two 20,000-variable rows, one with a 4,000-digit exponent: refused at the vertex cap, not slowed by packing
    "hochster-wide-rows-huge-exponent": ["tor", "--gens", json.dumps([[1] * 20_000, [1] * 19_999 + [10**3999]]),
                                         "--method", "hochster"],
    "tor-negative-max-i": ["tor", "--gens", "[[1,1,0],[0,1,1]]", "--max-i", "-2"],
    "k1cycle-f-zero": ["k1cycle", "--f", "0", "--i0", "-1", "--i0p", "0"],
    "k1cycle-above-f-cap": ["k1cycle", "--f", str(K1_CYCLE_F_CAP + 1), "--i0", "-1", "--i0p", "0"],
    # theta takes -1 <= i0 <= f - 1, as match and the theta suite do
    "theta-i0-above-range": ["theta", "--f", "1", "--case", "nonsplit", "--jrho", "0", "--profile", "X0",
                             "--i0", "1"],
    "theta-i0-below-range": ["theta", "--f", "1", "--case", "nonsplit", "--jrho", "0", "--profile", "X0",
                             "--i0", "-2"],
    # one past each f cap, on inputs that run fast below it; the cap is checked before any work
    "grtor-above-f-cap": ["grtor", "--f", str(TOR1_F_CAP + 1), "--case", "split", "--jrho", "all",
                          "--profile", ",".join(["X0"] * (TOR1_F_CAP + 1))],
    "xcounts-above-f-cap": ["xcounts", "--f", str(X_COUNTS_F_CAP + 1), "--case", "nonsplit", "--jrho", "0",
                            "--profile", ",".join(["X0"] * (X_COUNTS_F_CAP + 1))],
    "socle-above-f-cap": ["socle", "--f", str(SOCLE_F_CAP + 1), "--case", "nonsplit", "--jrho", "0", "--i0", "-1",
                          "--i0p", "0"],
    "patched-above-f-cap": ["patched", "--f", str(PATCHED_F_CAP + 1), "--case", "split", "--jrho", "all",
                            "--profile", ",".join(["X0"] * (PATCHED_F_CAP + 1))],
    "hilbert-irreducible-above-f-cap": ["hilbert", "--f", str(HILBERT_F_CAP + 1), "--case", "irreducible",
                                        "--trunc", "0"],
    "stats-above-context-cap": ["stats", "--f", str(CONTEXT_F_CAP + 1), "--case", "split", "--jrho", "all",
                                "--profile", ",".join(["X0"] * (CONTEXT_F_CAP + 1))],
    "hilbert-negative-trunc": ["hilbert", "--f", "2", "--case", "split", "--jrho", "all", "--trunc", "-4"],
    "verify-unknown-suite": ["verify", "--suite", "nope"],
    "verify-cap-checked-first": ["verify", "--suite", "pbw", "--suite", "hilbert", "--f", str(PROFILE_F_CAP + 1)],
}


@pytest.mark.parametrize("argv", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_exits_2_with_one_error_line(capsys, tmp_path, argv):
    (tmp_path / "x.json").write_text('{"x":1}')
    (tmp_path / "deep.json").write_text("[" * 1000 + "]" * 1000)
    start = time.perf_counter()
    try:
        rc = main([a.replace("TMP", str(tmp_path)) for a in argv])
    except SystemExit as exc:  # an unknown flag: argparse prints its usage, then one error line
        rc = exc.code
        usage, error = capsys.readouterr().err.rsplit("\n", 2)[:2]
        assert "error:" not in usage and error.startswith("serrecalc: error:"), error
    else:
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == ""
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert rc == 2 and time.perf_counter() - start < 5


# f = 10^11: each mask of f bits would take 12.5 GB
HUGE_F = ["--f", str(10**11)]


@pytest.mark.parametrize("argv", [
    ["enumerate", *HUGE_F, "--case", "split", "--jrho", "all", "--which", "P"],
    ["enumerate", *HUGE_F, "--case", "nonsplit", "--jrho", "1", "--which", "P"],
    ["hilbert", *HUGE_F, "--case", "irreducible"],
], ids=["jrho-all", "jrho-bitmask", "irreducible"])
def test_a_huge_f_is_refused_before_any_mask_is_built(argv):
    """In a child under a 1 GiB address-space limit, so that building a 2^f mask fails at once instead of paging."""
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    env = {**os.environ, "PYTHONPATH": str(Path(serrecalc.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "serrecalc.cli", *argv], capture_output=True, text=True, env=env,
                          timeout=60, preexec_fn=limit)
    error = f"error: f = {10**11} exceeds the context cap of {CONTEXT_F_CAP}\n"
    assert (done.returncode, done.stdout, done.stderr) == (2, "", error)


@pytest.mark.parametrize("f", ["-1", "0"])
def test_an_f_below_1_with_a_bitmask_jrho_is_refused_by_the_context(capsys, f):
    """The bitmask's range is not read against an f < 1, so the answer is the one --jrho all gets."""
    rc = main(["enumerate", "--f", f, "--case", "nonsplit", "--jrho", "1", "--which", "P"])
    assert (rc, capsys.readouterr().err) == (2, "error: f must be positive\n")


# a(lambda)'s f generators share no variable, so the Lyubeznik walk prunes no face: it visits all
# 2^f and refuses exactly when 2^f > FACE_CAP, first at f = FACE_CAP.bit_length()
@pytest.mark.parametrize("f", [FACE_CAP.bit_length(), CONTEXT_F_CAP])
def test_ideal_past_the_face_cap_is_refused_before_a_generator_is_built(capsys, monkeypatch, f):
    def refuse(*args):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(ideals, "paired", refuse)
    rc = main(["ideal", "--f", str(f), "--case", "split", "--jrho", "all", "--profile", ",".join(["X0"] * f)])
    assert (rc, capsys.readouterr().err) == (2, f"error: the Lyubeznik walk passed its cap of {FACE_CAP} faces\n")


def test_ideal_below_the_face_cap_walks_every_face(capsys):
    f = FACE_CAP.bit_length() - 1
    rc, out = run(capsys, "ideal", "--f", str(f), "--case", "split", "--jrho", "all", "--profile", ",".join(["X0"] * f))
    assert rc == 0 and len(json.loads(out)["gens"]) == f


@pytest.mark.parametrize("f", [3, CONTEXT_F_CAP])
def test_ideal_names_a_profile_outside_p_at_every_f(capsys, f):
    rc = main(["ideal", "--f", str(f), "--case", "nonsplit", "--jrho", "0", "--profile", ",".join(["X2"] * f)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: ") and err.endswith(" is not in P for this context\n")


def test_a_window_ideal_of_26_generators_is_answered(capsys):
    """C(6,3) + 6 = 26 generators, 11,776 faces; each table equals the window's monomials counted one by one."""
    ctx, i0, i0p = nonsplit_context(6, []), 1, 2
    rc, out = run(capsys, "grsubquot", "--f", "6", "--case", "nonsplit", "--jrho", "0", "--i0", str(i0),
                  "--i0p", str(i0p), "--trunc", "0")
    assert rc == 0
    want, sizes = [], set()
    for lam in enumerate_profiles(ctx, "P"):
        big, small = ideals.a1(ctx, lam, i0), ideals.a1(ctx, lam, i0p)
        sizes |= {len(big.gens), len(small.gens)}
        shift = ideals.d_shift(profile_stats(ctx, lam), i0)  # trunc 0: only stored degree 0, polynomial degree shift
        standard = ideals.standard_monomials(small, shift)[shift]
        counts = Counter(ideals.Monomial.bigrade(m)[1] for m in standard if big.member(m))
        entries = [{"deg": "0", "mult": str(v), "offset": list(map(str, c))} for c, v in sorted(counts.items())]
        want.append({"profile": lam.tags(), "series": {"entries": entries, "trunc": "0"}})
    assert max(sizes) == 26 and json.loads(out)["summands"] == want


def test_tor_answers_a_42_generator_window_ideal(capsys):
    # 49,920 faces, within the walk's cap; the face masks are wider than 32 bits
    ideal = ideals.a1(nonsplit_context(7, []), WeightProfile.from_tags(["X0"] * 7), 3)
    rc, out = run(capsys, "tor", "--gens", json.dumps(ideal.gens), "--method", "taylor",
                  "--max-i", "7")
    assert rc == 0 and len(ideal.gens) == 42
    assert json.loads(out)["taylor"] == ["1", "42", "245", "630", "832", "595", "224", "35"]


def test_verify_tor_runs_at_its_scale_cap(capsys):
    # k = 6: the pairing ideal has 6 + C(6, 2) = 21 generators and Hochster's formula 12 vertices
    assert verify.SCALE_CAP["tor"] == VERTEX_CAP // 2 == 6
    rc, out = run(capsys, "verify", "--suite", "tor", "--f", "6", "--report", "json")
    records = json.loads(out)
    assert rc == 0 and all(r["ok"] for r in records) and records[0]["check"] == "pairing-ideal closed form k<=6"


def test_a_kernel_that_raises_fails_its_record_not_the_run(capsys, monkeypatch):
    argv = ["verify", "--suite", "tor", "--f", "2", "--report", "json"]
    rc, out = run(capsys, *argv)
    healthy = json.loads(out)
    real = verify.hochster_profile

    def broken(ideal):
        if len(ideal.gens) > 2:
            raise ArithmeticError("kernel fault")
        return real(ideal)

    monkeypatch.setattr(verify, "hochster_profile", broken)
    assert main(argv) == 1
    captured = capsys.readouterr()
    records = json.loads(captured.out)
    assert rc == 0 and captured.err == "" and [r["check"] for r in records] == [r["check"] for r in healthy]
    # the pairing ideal at k = 2 has three generators: its Taylor case completes, its Hochster case raises
    assert records[0]["detail"] == "raised ArithmeticError: kernel fault after 3 cases, the last k=2 taylor"
    assert records[0]["cases"] == "3" and not records[0]["ok"]
    assert all(r["ok"] for r in records if "Ext" in r["check"])


SPLIT2 = ["--f", "2", "--case", "split", "--jrho", "all"]
NONSPLIT1 = ["--f", "1", "--case", "nonsplit", "--jrho", "0"]
# the payloads import their functions when they run, so the defining module is patched
FLAGGED = {
    "hilbert": (["hilbert", *SPLIT2], predictions, "hilbert_pi", lambda r: r._replace(equal=False)),
    "ni": (["ni", *SPLIT2, "--i", "1"], predictions, "hilbert_Ni", lambda r: r._replace(equal=False)),
    "theta": (["theta", *NONSPLIT1, "--profile", "X0", "--i0", "0"], predictions, "theta_lattice",
              lambda r: r._replace(chain_ok=False)),
    "match": (["match", "--f", "2", "--case", "nonsplit", "--jrho", "1", "--i0", "0"], predictions,
              "semisimple_match", lambda r: r._replace(hilbert_ok=False)),
    "grtor": (["grtor", *SPLIT2, "--profile", "X0,X0"], pbw, "tor1_gr", lambda r: r._replace(ok=False)),
    "xcounts": (["xcounts", *SPLIT2, "--profile", "X0,X0"], predictions, "x_counts",
                lambda r: r._replace(ok=False)),
    "patched": (["patched", *SPLIT2, "--profile", "X0,X0"], ideals, "patched_ideals",
                lambda r: (r[0], MonomialIdeal.zero(r[0].ambient))),
}


@pytest.mark.parametrize("argv,module,name,falsify", FLAGGED.values(), ids=FLAGGED.keys())
def test_false_flag_exits_1(monkeypatch, capsys, argv, module, name, falsify):
    assert main(argv) == 0
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: falsify(real(*args)))
    assert main(argv) == 1
    assert "false" in capsys.readouterr().out.splitlines()[-1]


# A cheap valid argv for every subcommand, each run in a fresh interpreter.
WINDOW2 = ["--f", "2", "--case", "nonsplit", "--jrho", "1", "--i0", "0", "--i0p", "1"]
CHEAP = {
    "enumerate": ["enumerate", *NONSPLIT1, "--which", "P"],
    "stats": ["stats", *SPLIT2, "--profile", "X0,X0"],
    "ideal": ["ideal", *SPLIT2, "--profile", "X0,X0"],
    "hilbert": FLAGGED["hilbert"][0],
    "ni": FLAGGED["ni"][0],
    "grsubquot": ["grsubquot", *WINDOW2],
    "i1": ["i1", *WINDOW2],
    "socle": ["socle", *WINDOW2],
    "k1cycle": ["k1cycle", "--f", "3", "--i0", "0", "--i0p", "2"],
    "theta": FLAGGED["theta"][0],
    "match": FLAGGED["match"][0],
    "tor": ["tor", "--gens", "[[1,1,0],[0,1,1]]"],
    "grtor": FLAGGED["grtor"][0],
    "xcounts": FLAGGED["xcounts"][0],
    "patched": FLAGGED["patched"][0],
    "verify": ["verify", "--suite", "split-ni", "--f", "1"],
}
LOADED_PROBE = """
import contextlib, io, sys
import serrecalc, serrecalc.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = serrecalc.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(*sorted(m for m in sys.modules if m.startswith("serrecalc.") or m in ("dataclasses", "inspect")))
sys.exit(rc)
"""


@pytest.mark.parametrize("name", ["import", *CHEAP])
def test_a_subcommand_loads_only_the_modules_it_uses(name):
    assert set(CHEAP) == set(cli.COMMANDS)
    env = {**os.environ, "PYTHONPATH": str(Path(serrecalc.__file__).parents[1])}
    argv = CHEAP.get(name, [])
    done = subprocess.run([sys.executable, "-c", LOADED_PROBE, *argv], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    heavy = {"serrecalc.ideals", "serrecalc.homology", "serrecalc.linalg", "serrecalc.pbw", "serrecalc.predictions",
             "serrecalc.verify"}
    loaded = heavy & set(done.stdout.split())
    assert not {"dataclasses", "inspect"} & set(done.stdout.split())
    if name in ("import", "enumerate", "stats"):
        assert loaded == set()
    assert ("serrecalc.verify" in loaded) == (name == "verify")


IMPORT_PROBE = """
import sys
before = set(sys.modules)
import serrecalc.cli
print(*sorted(set(sys.modules) - before))
"""


def test_importing_the_cli_loads_no_argparse():
    """Library importers and benchmark workers never build a parser, so the import leaves argparse out."""
    env = {**os.environ, "PYTHONPATH": str(Path(serrecalc.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    new = set(done.stdout.split())
    assert "serrecalc.cli" in new and not {"argparse", "gettext"} & new


@pytest.mark.parametrize("name", sorted(set(CHEAP) - {"verify"}))  # verify reports table or json only
def test_csv_parses_back_to_the_cells_of_the_table_rows(capsys, name):
    """csv.reader returns each row's cells whole, JSON cells with their commas and quotes included."""
    cmd = cli.COMMANDS[name]
    rc, out = run(capsys, *CHEAP[name], "--format", "json")
    data = json.loads(out)
    rows = cmd.rows(data) if cmd.rows else [[k, dumps_canonical(v)] for k, v in sorted(data.items())]
    rc_csv, out_csv = run(capsys, *CHEAP[name], "--format", "csv")
    assert rc_csv == rc and list(csv.reader(io.StringIO(out_csv))) == rows


@pytest.mark.parametrize("f", [1, 2, 3])
def test_stats_prints_the_t_rule_of_every_p_profile(capsys, monkeypatch, f):
    """t_assign and eps on the CLI, against the rule written out from the tags, not read from profile_stats."""
    rule = {"X2": "Y", "P1": "Y", "X0": "Z", "P3": "Z", "X1": "YZ", "P2": "YZ"}  # inside J_rho; YZ outside
    for ctx in verify.reducible_contexts(f):
        tag_lists = [lam.tags() for lam in enumerate_profiles(ctx, "P")]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(tag_lists)))
        rc, out = run(capsys, "stats", "--f", str(f), "--case", ctx.case.value, "--jrho", str(ctx.j_rho),
                      "--from-json", "-")
        assert rc == 0
        for tags, rec in zip(tag_lists, json.loads(out)["stats"], strict=True):
            t = [rule[s] if ctx.j_rho >> j & 1 else "YZ" for j, s in enumerate(tags)]
            assert (rec["profile"], rec["t_assign"]) == (tags, t), ctx
            assert rec["eps"] == {str(j): "-1" if g == "Y" else "1" for j, g in enumerate(t) if g != "YZ"}, (ctx, tags)


def test_stats_refuses_too_deep_json_on_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 1000 + "]" * 1000))
    rc = main(["stats", "--f", "2", "--case", "split", "--jrho", "all", "--from-json", "-"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and captured.err == "error: - is nested too deeply to decode\n"


# -- argv fuzzing ----------------------------------------------------------

# Free text has no decimal digits, so junk never reaches an int flag as a large size.
JUNK = st.sampled_from(["", "x", "all", "-1", "1e3", "X0,Q9", "[]", "{", "nan", "--f"]) | st.text(
    st.characters(blacklist_categories=("Nd",)), max_size=6
)
TAGS = st.sampled_from(["X0", "X1", "X2", "P3", "P2", "P1", "XM1"])


@st.composite
def argvs(draw):
    """A subcommand with its required flags, some optional ones, and now and then a junk token.

    Values are drawn so that many invocations get past the context checks:
    --case, --jrho and --profile often fit the drawn f.  The first choice of
    each draw is a valid one, so failures shrink toward valid input.
    """
    # one in ten, at a middle value: Hypothesis favours the ends of a range
    junk = lambda: draw(st.integers(0, 9)) == 4
    f = draw(st.sampled_from([2, 1, 3, 0, -1]))
    case = draw(st.sampled_from(["split", "nonsplit", "irreducible"]))
    jrho = "all" if case == "split" else str(draw(st.integers(0, max(2 ** f - 2, 0))))
    values = {
        "--f": st.just(str(f)),
        "--case": st.just(case),
        "--jrho": st.just(jrho) | st.sampled_from(["all"]) | st.integers(-1, 2 ** max(f, 0)).map(str),
        "--profile": st.lists(TAGS, min_size=max(f, 0), max_size=max(f, 0)).map(",".join),
        "--p": st.sampled_from(["31", "29", "23", "4", "-1"]),
        "--gens": st.lists(st.lists(st.integers(-1, 2), max_size=4), max_size=4).map(json.dumps),
        "--from-json": st.sampled_from(["-", "no-such-profiles.json"]),
        "--suite": st.sampled_from(sorted(verify.SUITES)),
    }
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    argv = [name]
    for flag, kwargs in cli.COMMANDS[name].flags:
        # verify always gets --f: its default scales run the full suites
        if not (kwargs.get("required") or flag in ("--f", "--jrho") or draw(st.booleans())):
            continue
        if kwargs.get("action") == "store_true":
            argv.append(flag)
        elif junk():
            argv += [flag, draw(JUNK)]
        elif flag in values:
            argv += [flag, draw(values[flag])]
        elif "choices" in kwargs:
            argv += [flag, draw(st.sampled_from(kwargs["choices"]))]
        else:
            argv += [flag, draw(st.integers(-2, 6).map(str))]
    return argv + ([draw(JUNK)] if junk() else [])


@settings(max_examples=150, deadline=timedelta(seconds=30))
@given(argvs())
def test_fuzzed_argv_ends_in_a_known_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), mock.patch("sys.stdin", io.StringIO("[]")):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        else:
            if rc == 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err.getvalue())
    assert rc in (0, 1, 2), argv
    event(f"{argv[0]} exit {rc}")
