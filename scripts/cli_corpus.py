"""Write the CLI corpus: one JSON line per invocation of a fixed argv list.

Usage (from anywhere):

    python3 scripts/cli_corpus.py OUT.jsonl

Each line holds the argv, the exit code and the SHA-256 digests of stdout
and stderr, with every ``elapsed_s`` value masked before hashing.  Two
checkouts behave the same on the corpus when their files are equal, and
``diff`` of two files lists the invocations that changed.  The argvs cover
every subcommand over every context at f <= 2 (profiles over all six core
symbols, so those outside P too), ``k1cycle`` up to f = 6 and at its cap,
``tor`` on the pairing ideals k <= 3, ``tor --method hochster`` and ``both``
on the zero, unit and 12-coordinate ideals, the patched shapes at f <= 3 and
an ideal padded with zero columns, each suite at ``verify --f 1``, a list
of usage errors, and ``stats --from-json -`` on both accepted JSON shapes
fed through stdin, whose lines also record that text.  ``serrecalc.cli.main``
runs in-process from this checkout's ``src/``, under ``PYTHONHASHSEED=0``
(the script re-executes itself to set it) and an 80-column terminal for
argparse.  Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
from itertools import combinations, product
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SYMBOLS = ("X0", "X1", "X2", "P3", "P2", "P1")
FORMATS = (["--format", "csv"], ["--format", "table"])
SUITES = ("degenerates", "gr-subquot", "hilbert", "patched", "pbw", "semisimple-match", "split-ni", "theta", "tor",
          "xcounts")
SPLIT2 = ["--f", "2", "--case", "split", "--jrho", "all"]
NONSPLIT2 = ["--f", "2", "--case", "nonsplit", "--jrho", "1"]
USAGE_ERRORS = [
    [],
    ["nope"],
    ["hilbert", *SPLIT2, "--bogus"],
    ["hilbert", "--f", "2", "--case", "split"],
    ["hilbert", "--f", "2", "--case", "nonsplit", "--jrho", "4"],
    ["hilbert", "--f", "x", "--case", "split", "--jrho", "all"],
    ["hilbert", *SPLIT2, "--trunc", "-4"],
    ["enumerate", "--f", "0", "--case", "split", "--jrho", "all", "--which", "P"],
    ["enumerate", *SPLIT2, "--which", "Q"],
    ["stats", *SPLIT2],
    ["stats", *SPLIT2, "--from-json", "no-such-profiles.json"],
    ["ideal", *SPLIT2, "--profile", "X0"],
    ["ideal", *SPLIT2, "--profile", "X0,Q9"],
    ["ideal", *SPLIT2, "--profile", "XM1,X0"],
    ["ni", *NONSPLIT2, "--i", "1"],
    ["ni", *SPLIT2, "--i", "3"],
    ["grsubquot", *NONSPLIT2, "--i0", "1", "--i0p", "1"],
    ["grsubquot", *NONSPLIT2, "--i0", "0", "--i0p", "3"],
    ["grsubquot", *NONSPLIT2, "--i0", "0", "--i0p", "1", "--trunc", "-1"],
    ["i1", *SPLIT2, "--i0", "0", "--i0p", "1"],
    ["socle", *SPLIT2, "--i0", "0", "--i0p", "1"],
    ["k1cycle", "--f", "0", "--i0", "-1", "--i0p", "0"],
    ["k1cycle", "--f", "2", "--i0", "-2", "--i0p", "0"],
    ["k1cycle", "--f", "2001", "--i0", "-1", "--i0p", "0"],
    ["theta", *NONSPLIT2, "--profile", "X0,X0", "--i0", "0", "--n", "0"],
    ["theta", "--f", "1", "--case", "nonsplit", "--jrho", "0", "--profile", "X0", "--i0", "9"],
    ["theta", "--f", "1", "--case", "nonsplit", "--jrho", "0", "--profile", "X0", "--i0", "-3"],
    ["match", *SPLIT2, "--i0", "0"],
    ["match", *NONSPLIT2, "--i0", "2"],
    ["tor", "--gens", "[1,2]"],
    ["tor", "--gens", "[[1,0],[1]]"],
    ["tor", "--gens", "[[-1]]"],
    ["tor", "--gens", "[[1,1,0],[0,1,1]]", "--max-i", "-2"],
    ["tor", "--gens", "[[1,1,0],[0,1,1]]", "--method", "nope"],
    ["grtor", *SPLIT2, "--profile", "X0,X0", "--side", "up"],
    ["verify", "--suite", "nope"],
    ["verify", "--suite", "tor", "--f", "0"],
    ["verify", "--suite", "theta", "--f", "5"],
    ["verify", "--suite", "hilbert", "--report", "csv"],
]
# (argv, stdin): the profiles as a plain list of tag arrays, and as an object holding one under "profiles"
PROFILES_JSON = '[["X0","X0"],["X1","P2"],["P3","P1"]]'
STDIN_CASES = [
    (["stats", *SPLIT2, "--from-json", "-"], PROFILES_JSON),
    (["stats", *NONSPLIT2, "--from-json", "-", "--format", "table"], PROFILES_JSON),
    (["stats", *SPLIT2, "--from-json", "-"], '{"profiles":%s}' % PROFILES_JSON),
    (["stats", *NONSPLIT2, "--from-json", "-", "--format", "csv"], '{"profiles":%s}' % PROFILES_JSON),
]


def _contexts(f: int):
    yield ["--case", "irreducible"]
    yield ["--case", "split", "--jrho", "all"]
    for mask in range(1 << f):
        yield ["--case", "nonsplit", "--jrho", str(mask)]


def _windows(f: int):
    for i0 in range(-1, f):
        for i0p in range(i0 + 1, f + 1):
            yield ["--i0", str(i0), "--i0p", str(i0p)]


def _pairing_gens(k: int) -> list[list[int]]:
    """X_j Y_j and Y_i Y_j in 2k variables, X_j at index 2j and Y_j at 2j + 1."""
    def mono(*idx: int) -> list[int]:
        return [int(i in idx) for i in range(2 * k)]

    pairs = [mono(2 * j, 2 * j + 1) for j in range(k)]
    return pairs + [mono(2 * i + 1, 2 * j + 1) for i, j in combinations(range(k), 2)]


def _patched_gens(f: int, ell: int, k: int) -> list[list[int]]:
    """X_j Y_j for j < ell, Y_i Y_j for i < j < k, then 2f - ell single variables: the patched shapes."""
    n = 2 * ell + (2 * f - ell)

    def mono(*idx: int) -> list[int]:
        return [int(i in idx) for i in range(n)]

    pairs = [mono(2 * j, 2 * j + 1) for j in range(ell)]
    y_pairs = [mono(2 * i + 1, 2 * j + 1) for i, j in combinations(range(k), 2)]
    return pairs + y_pairs + [mono(2 * ell + m) for m in range(2 * f - ell)]


def corpus() -> list[list[str]]:
    out = []
    for f in (1, 2):
        for ctx in _contexts(f):
            c = ["--f", str(f), *ctx]
            out += [["enumerate", *c, "--which", w] for w in ("Pss", "P", "Dss", "D", "Pbar")]
            out += [["enumerate", *c, "--which", "P", *fmt] for fmt in FORMATS]
            out += [["hilbert", *c, *extra] for extra in ([], ["--trunc", "0"], ["--trunc", "9"], *FORMATS)]
            out += [["ni", *c, "--i", str(i)] for i in range(f + 1)]
            out += [[cmd, *c, *w] for w in _windows(f) for cmd in ("grsubquot", "i1", "socle")]
            out += [["grsubquot", *c, *w, "--trunc", "0"] for w in _windows(f)]
            out += [["match", *c, "--i0", str(i0)] for i0 in range(-1, f)]
            for tags in product(SYMBOLS, repeat=f):
                p = [*c, "--profile", ",".join(tags)]
                out += [[cmd, *p] for cmd in ("stats", "ideal", "xcounts", "patched")]
                out += [["grtor", *p, "--side", side] for side in ("right", "left")]
                out += [["theta", *p, "--i0", str(i0)] for i0 in range(-1, f)]
            out += [["stats", *c, "--profile", ",".join(("X0",) * f), *fmt] for fmt in FORMATS]
    out += [["k1cycle", "--f", str(f), *w] for f in range(1, 7) for w in _windows(f)]
    for k in (1, 2, 3):
        gens = json.dumps(_pairing_gens(k), separators=(",", ":"))
        out += [["tor", "--gens", gens, "--method", m] for m in ("taylor", "hochster", "both")]
        out += [["tor", "--gens", gens, "--max-i", str(i)] for i in range(2 * k + 1)]
    squarefree = [[], [[0, 0, 0]], [[int(i == j) for j in range(12)] for i in range(12)],
                  [row + [0, 0, 0] for row in _pairing_gens(2)]]
    squarefree += [_patched_gens(f, ell, k) for f in (1, 2, 3) for ell in range(f + 1) for k in range(ell + 1)]
    for gens in squarefree:
        out += [["tor", "--gens", json.dumps(gens, separators=(",", ":")), "--method", m] for m in ("hochster", "both")]
    out += [["k1cycle", "--f", "2000", "--i0", "-1", "--i0p", "1"]]
    out += [["verify", "--suite", name, "--f", "1", "--report", "json"] for name in SUITES]
    out += [["verify", "--suite", "pbw", "--f", "1"]]
    return out + USAGE_ERRORS


def _digest(text: str) -> str:
    return hashlib.sha256(re.sub(r'"elapsed_s":[-+.0-9eE]+', '"elapsed_s":0', text).encode()).hexdigest()


def run(main, argv: list[str], stdin: str = "") -> dict:
    """Exit code and output digests of one in-process ``main(argv)`` reading ``stdin``.

    An escaping exception is recorded by type.
    """
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          mock.patch.object(sys, "stdin", io.StringIO(stdin))):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception as exc:
            code = f"raised {type(exc).__name__}"
    return {"argv": argv, "exit": code, "stdout": _digest(out.getvalue()), "stderr": _digest(err.getvalue())}


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from serrecalc.cli import main as cli_main

    with open(sys.argv[1], "w") as fh:
        for argv in corpus():
            fh.write(json.dumps(run(cli_main, argv), sort_keys=True) + "\n")
        for argv, stdin in STDIN_CASES:
            fh.write(json.dumps({**run(cli_main, argv, stdin), "stdin": stdin}, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
