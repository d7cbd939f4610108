"""The four workloads: their operations, made from the seed, and their checks.

An operation is a JSON-able list ``[kind, *params]``; ``worker.py`` runs it
against serrecalc and returns a small JSON summary of the result.
``check_round`` compares a round's summaries with answers from ``checks``,
which shares no code with the program.  This module does not import
serrecalc.

The seed draws the random squarefree ideals of ``oracles``; in every
workload it also fixes the order in which the operations run.  The sets of
operations are otherwise fixed, so every round of a workload attempts the
same operations.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from math import comb

import checks

WORKLOADS = ("matching", "oracles", "ranks", "cli")

#: f = 4 contexts of ``matching``; all fifteen would take about 25 s a round
MATCH_F4_JRHOS = ((), (0, 2))
RANDOM_IDEALS = 24
#: ``verify --suite S --f F`` runs of the cli workload; ``ranks`` calls suite_pbw too
CLI_SUITES = (("hilbert", 2), ("split-ni", 2), ("theta", 2), ("xcounts", 2), ("degenerates", 3),
              ("pbw", 2), ("patched", 2), ("semisimple-match", 2), ("tor", 2))
#: path of the ``stats --from-json`` input that the cli workload expects to be absent
MISSING_JSON = ".bench_build/perfbench/no-such-profiles.json"


def nonsplit_jrhos(f: int) -> list[tuple[int, ...]]:
    return [sub for r in range(f) for sub in combinations(range(f), r)]


def reducible_jrhos(f: int) -> list[tuple[int, ...]]:
    return [tuple(range(f))] + nonsplit_jrhos(f)


# -- matching -------------------------------------------------------------------

def matching_ops() -> list[list]:
    ops = []
    for f in range(1, 5):
        for jrho in nonsplit_jrhos(f) if f < 4 else MATCH_F4_JRHOS:
            ops += [["match", f, list(jrho), i0] for i0 in range(-1, f)]
    for f in range(1, 4):
        for jrho in nonsplit_jrhos(f):
            for i0 in range(-1, f):
                ops += [["grsub", f, list(jrho), i0, i0p] for i0p in range(i0 + 1, f + 1)]
    return ops


# -- oracles ----------------------------------------------------------------------

def _masks_to_exps(nvars: int, gens) -> list[list[int]]:
    return [[(g >> i) & 1 for i in range(nvars)] for g in gens]


def oracle_ideals(seed: int) -> list[tuple[str, int, tuple[int, ...], list[int] | None]]:
    """(label, variable count, squarefree generator masks, closed Betti profile or None)."""
    out = []
    for k in range(1, 6):
        # X_j at bit 2(j-1), Y_j at 2(j-1)+1: X_j Y_j and Y_i Y_j
        gens = [0b11 << (2 * j) for j in range(k)]
        gens += [(1 << (2 * a + 1)) | (1 << (2 * b + 1)) for a, b in combinations(range(k), 2)]
        out.append((f"pairing k={k}", 2 * k, checks.minimal(gens), checks.pairing_closed(k)))
    for d in range(5):
        for e in range(d + 1):
            # the patched shape at f = 4 with |J_rho| = d and |J''| = e
            nvars, gens = checks.patched_ideal(4, d, range(e, d))
            out.append((f"patched f=4 d={d} e={e}", nvars, gens, None))
    seen = set()
    for f in range(1, 5):
        for jrho in reducible_jrhos(f):
            for lam in checks.p_family(f, frozenset(jrho)):
                gens = checks.a_lambda(lam, frozenset(jrho))
                if (f, gens) not in seen:
                    seen.add((f, gens))
                    out.append((f"a_lambda f={f} {','.join(lam)}", 2 * f, gens, None))
    rng = random.Random(seed)
    for i in range(RANDOM_IDEALS):
        gens = [sum(1 << v for v in rng.sample(range(7), rng.randint(2, 3))) for _ in range(5)]
        out.append((f"random {i}", 7, checks.minimal(gens), None))
    return out


def oracle_ops(seed: int) -> list[list]:
    ops = []
    for label, nvars, gens, closed in oracle_ideals(seed):
        exps = _masks_to_exps(nvars, gens)
        ops += [["taylor", label, nvars, exps, closed], ["hochster", label, nvars, exps, closed]]
    return ops


# -- ranks ------------------------------------------------------------------------

def rank_ops() -> list[list]:
    ops = []
    for f in range(1, 5):
        for jrho in reducible_jrhos(f):
            for lam in checks.p_family(f, frozenset(jrho)):
                ops.append(["tor1", f, list(jrho), list(lam), "right"])
                if f <= 3:
                    ops.append(["tor1", f, list(jrho), list(lam), "left"])
    ops += [["pbw_basis", f] for f in range(1, 7)]
    ops.append(["suite_pbw"])
    return ops


# -- cli --------------------------------------------------------------------------

def _ctx_args(cmd: str, f: int, jrho: tuple[int, ...]) -> list[str]:
    case = "split" if len(jrho) == f else "nonsplit"
    mask = "all" if case == "split" else str(sum(1 << j for j in jrho))
    return [cmd, "--f", str(f), "--case", case, "--jrho", mask]


def cli_ops() -> list[list]:
    """About a hundred invocations covering every subcommand at small sizes."""
    ops: list[list] = []

    def add(argv, check, **params):
        ops.append(["cli", [str(a) for a in argv], check, params])

    ctxs = [(f, jrho) for f in (1, 2, 3) for jrho in reducible_jrhos(f)]
    for f, jrho in ctxs:
        add(_ctx_args("enumerate", f, jrho) + ["--which", "P"], "enumerate", f=f, jrho=jrho)
    for f in (1, 2, 3):
        add(_ctx_args("enumerate", f, tuple(range(f))) + ["--which", "Pss"], "pss", f=f)
    for f, jrho in ctxs:
        lam = checks.p_family(f, frozenset(jrho))[-1]
        add(_ctx_args("ideal", f, jrho) + ["--profile", ",".join(lam)], "ideal", f=f, jrho=jrho, lam=lam)
    for f, jrho in ctxs[2:8]:
        lam = checks.p_family(f, frozenset(jrho))[0]
        add(_ctx_args("stats", f, jrho) + ["--profile", ",".join(lam)], "stats", f=f, jrho=jrho, lam=lam)
    for f in (1, 2, 3):
        for jrho in (tuple(range(f)), ()):
            add(_ctx_args("hilbert", f, jrho), "hilbert", f=f, jrho=jrho)
    for i in range(3):
        add(_ctx_args("ni", 2, (0, 1)) + ["--i", i], "ni", f=2, i=i)
    for i0, i0p in ((-1, 0), (0, 1), (-1, 2)):
        add(_ctx_args("grsubquot", 2, (0,)) + ["--i0", i0, "--i0p", i0p], "grsubquot", f=2, jrho=(0,), i0=i0, i0p=i0p)
    windows = ((2, (1,), -1, 1), (2, (1,), 0, 2), (3, (0, 2), 0, 2), (3, (0, 2), 1, 3))
    for cmd in ("i1", "socle"):
        for f, jrho, i0, i0p in windows:
            add(_ctx_args(cmd, f, jrho) + ["--i0", i0, "--i0p", i0p], cmd, f=f, jrho=jrho, i0=i0, i0p=i0p)
    for f, i0, i0p in ((2, -1, 2), (3, 0, 2), (4, -1, 2), (5, 1, 4), (6, 2, 5)):
        add(["k1cycle", "--f", f, "--i0", i0, "--i0p", i0p], "k1cycle", f=f, i0=i0, i0p=i0p)
    for lam in checks.p_family(2, frozenset({0}))[:3]:
        add(_ctx_args("theta", 2, (0,)) + ["--profile", ",".join(lam), "--i0", 0], "theta", f=2, jrho=(0,), lam=lam)
    for f, jrho, i0 in ((2, (), 0), (2, (0,), 0), (2, (1,), 1), (3, (), 1)):
        add(_ctx_args("match", f, jrho) + ["--i0", i0], "match", f=f, i0=i0)
    ideals = oracle_ideals(0)
    for label, nvars, gens, closed in ideals[1:3] + ideals[20:22]:  # pairing k = 2, 3 and two a_lambda
        add(["tor", "--gens", json.dumps(_masks_to_exps(nvars, gens))], "tor", n_gens=len(gens), closed=closed)
    for f, jrho in ctxs[2:6]:
        lam = checks.p_family(f, frozenset(jrho))[0]
        add(_ctx_args("grtor", f, jrho) + ["--profile", ",".join(lam)], "grtor", f=f, jrho=jrho, lam=lam)
    lam = checks.p_family(2, frozenset({1}))[1]
    add(_ctx_args("grtor", 2, (1,)) + ["--profile", ",".join(lam), "--side", "left"], "grtor", f=2, jrho=(1,), lam=lam)
    for f, jrho in ctxs[3:8]:
        lam = checks.p_family(f, frozenset(jrho))[-1]
        add(_ctx_args("xcounts", f, jrho) + ["--profile", ",".join(lam)], "xcounts", f=f, jrho=jrho, lam=lam)
    for f, jrho in ((2, (0, 1)), (2, (1,)), (3, (0, 2))):
        lam = checks.p_family(f, frozenset(jrho))[-1]
        add(_ctx_args("patched", f, jrho) + ["--profile", ",".join(lam)], "patched", f=f, jrho=jrho, lam=lam)
    for suite, f in CLI_SUITES:
        add(["verify", "--suite", suite, "--f", f, "--report", "json"], "verify")
    add(["enumerate", "--f", 2, "--case", "split", "--jrho", "all", "--which", "P", "--bogus"], "usage")
    add(_ctx_args("ideal", 2, (0, 1)) + ["--profile", "X0,Q9"], "usage")
    add(["enumerate", "--f", 2, "--case", "split", "--jrho", 1, "--which", "P"], "usage")
    # known faults: each should exit 2 with one `error:` line, and today ends in a traceback
    add(["enumerate", "--f", 2, "--case", "nonsplit", "--jrho", 9, "--which", "P"], "fault")
    add(["tor", "--gens", "[1,2]"], "fault")
    add(_ctx_args("stats", 2, (0, 1)) + ["--from-json", MISSING_JSON], "fault")
    return ops


def build(workload: str, seed: int) -> list[list]:
    """The workload's operations, in the order the seed fixes."""
    if workload == "matching":
        ops = matching_ops()
    elif workload == "oracles":
        ops = oracle_ops(seed)
    elif workload == "ranks":
        ops = rank_ops()
    elif workload == "cli":
        ops = cli_ops()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops


# -- checks -------------------------------------------------------------------------

def op_failed(op: list, summary) -> bool:
    """An operation fails when it raised, or, on the CLI, ended otherwise than it must.

    Every invocation must end with exit 0, or exit 2 and one ``error:`` line
    for a usage error; a traceback is always a failure.
    """
    if isinstance(summary, dict) and "error" in summary:
        return True
    if op[0] != "cli":
        return False
    code, _, err = summary
    if "Traceback" in err:
        return True
    if op[2] == "fault":
        lines = [ln for ln in err.splitlines() if ln.strip()]
        return not (code == 2 and len(lines) == 1 and lines[0].startswith("error:"))
    return code != (2 if op[2] == "usage" else 0)


def _cli_problems(op: list, out: str) -> list[str]:
    _, _, kind, p = op
    if kind in ("usage", "fault"):
        return []
    data = json.loads(out)
    f = p.get("f")
    jrho = frozenset(p.get("jrho", ()))
    lam = tuple(p.get("lam", ()))
    if kind == "enumerate":
        want = checks.enumerate_count(f, jrho)
        got = {int(data["count"]), len(data["profiles"]), len(checks.p_family(f, jrho))}
        return [] if got == {want} else [f"count {got} != {want}"]
    if kind == "pss":
        return [] if int(data["count"]) == len(checks.pss(f)) else ["P^ss count"]
    if kind == "ideal":
        gens = checks.a_lambda(lam, jrho)
        got = sorted(_mask(g) for g in data["gens"])
        num = [int(c) for c in data["hilbert"]["num"]]
        series = checks.expand_rational(num, int(data["hilbert"]["pole"]), 6)
        brute = checks.standard_counts(gens, 2 * f, 6)
        out = [] if got == sorted(gens) else [f"gens {got} != {sorted(gens)}"]
        return out + ([] if series == brute else [f"Hilbert {series} != brute force {brute}"])
    if kind == "stats":
        st = data["stats"][0]
        ok = st["t_assign"] == list(checks.t_assign(lam, jrho)) and int(st["ell"]) == checks.j_size(lam)
        return [] if ok else ["t-assignment or |J|"]
    if kind == "hilbert":
        ok = data["equal"] and int(data["closed"]["num"][0]) == len(checks.p_family(f, jrho))
        return [] if ok else ["closed t=0 value or equality"]
    if kind == "ni":
        want = sum(1 for lam in checks.p_family(f, frozenset(range(f))) if checks.j_size(lam) == p["i"])
        return [] if data["equal"] and int(data["closed"]["num"][0]) == want else ["layer count"]
    if kind == "grsubquot":
        summands = [
            (
                tuple(s["profile"]),
                {(int(e["deg"]), tuple(int(x) for x in e["offset"])): int(e["mult"]) for e in s["series"]["entries"]},
            )
            for s in data["summands"]
        ]
        want = checks.expected_window_digest(f, jrho, p["i0"], p["i0p"], f + 4)
        got = (checks.table_digest(summands), int(data["degree0_total"]))
        return [] if got == want else ["window tables"]
    if kind == "i1":
        want = sum(
            1
            for lam in checks.pss(f)
            if (p["i0"] < checks.j_size(lam) <= p["i0p"] if checks.in_p(lam, jrho) else checks.j_size(lam) == p["i0"] + 1)
        )
        return [] if int(data["count"]) == want else [f"i1 count {data['count']} != {want}"]
    if kind == "socle":
        want = sum(
            1
            for r in range(f + 1)
            for sub in combinations(range(f), r)
            if (p["i0"] < r <= p["i0p"] if set(sub) <= jrho else r == p["i0"] + 1)
        )
        return [] if int(data["count"]) == want else [f"socle count {data['count']} != {want}"]
    if kind == "k1cycle":
        want = sum(comb(f, i) for i in range(p["i0"] + 1, p["i0p"] + 1))
        return [] if int(data["value"]) == want else [f"k1cycle {data['value']} != {want}"]
    if kind == "theta":
        n = 4  # the CLI default radius i0 + 4 at i0 = 0
        per_degree = [0] * n
        for pt in data["points"]:
            per_degree[sum(abs(int(x)) for x in pt)] += 1
        brute = checks.standard_counts(checks.a_lambda(lam, jrho), 2 * f, n - 1)
        return [] if data["chain_ok"] and per_degree == brute else [f"lattice {per_degree} != {brute}"]
    if kind == "match":
        ok = data["bijection_ok"] and data["hilbert_ok"] and int(data["pairs"]) == checks.matching_pairs(f, p["i0"])
        return [] if ok else ["matching"]
    if kind == "tor":
        return checks.check_betti(
            [int(x) for x in data["taylor"]], [int(x) for x in data["hochster"]], p["n_gens"], p["closed"]
        )
    if kind == "grtor":
        want = checks.tor1_closed(f, checks.linear_count(lam, jrho))
        return [] if data["matches_closed_forms"] and int(data["tor1"]) == want else ["tor1"]
    if kind == "xcounts":
        got = [int(data[k]) for k in ("x0", "x1", "x2")]
        want = checks.x_counts_closed(f, checks.linear_count(lam, jrho))
        return [] if data["ok"] and got == want else [f"xcounts {got} != {want}"]
    if kind == "patched":
        rho = sorted(jrho)
        free = [i for i, j in enumerate(rho) if lam[j] not in ("X1", "P2")]
        gens = set(checks.patched_ideal(f, len(rho), free)[1])
        got = [{_mask(g) for g in data[key]} for key in ("intersection", "expected")]
        ok = data["ok"] and got[0] == gens == got[1]
        return [] if ok else ["patched generators"]
    if kind == "verify":
        return [] if data and all(r["ok"] for r in data) else ["verify report"]
    raise ValueError(f"no check for {kind!r}")


def check_round(ops: list[list], summaries: list) -> list[str]:
    """Problems with one round's answers, skipping the operations that failed."""
    problems = []
    pairs: dict[str, dict] = {}
    sides: dict[tuple, dict[str, tuple]] = {}
    for op, s in zip(ops, summaries):
        if op_failed(op, s):
            continue
        kind = op[0]
        if kind == "match":
            bij, hil, n = s
            want = checks.matching_pairs(op[1], op[3])
            if not (bij and hil and n == want):
                problems.append(f"{op}: got {s}, want pairs {want} and both flags true")
        elif kind == "grsub":
            f, jrho, i0, i0p = op[1], frozenset(op[2]), op[3], op[4]
            want = list(_window_digest(f, jrho, i0, i0p))
            if s != want:
                problems.append(f"{op}: window tables differ from brute force (deg-0 {s[1]} vs {want[1]})")
        elif kind in ("taylor", "hochster"):
            pairs.setdefault(op[1], {"op": op})[kind] = s
        elif kind == "tor1":
            f, jrho, lam, side = op[1], frozenset(op[2]), tuple(op[3]), op[4]
            im1, ker1, im2, tor1, ok = s
            want = checks.tor1_closed(f, checks.linear_count(lam, jrho))
            if not (ok and tor1 == want == ker1 - im2):
                problems.append(f"{op}: tor1 {tor1}, want {want}")
            sides.setdefault((f, tuple(op[2]), lam), {})[side] = (im1, ker1, im2)
        elif kind == "pbw_basis":
            if s != checks.pbw_dim(op[1]):
                problems.append(f"{op}: {s} monomials, want {checks.pbw_dim(op[1])}")
        elif kind == "suite_pbw":
            if not (s and all(s)):
                problems.append(f"{op}: records {s}")
        elif kind == "cli":
            try:
                msgs = _cli_problems(op, s[1])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                msgs = [f"unreadable output: {type(exc).__name__}: {exc}"]
            problems += [f"{op[1]}: {msg}" for msg in msgs]
    for label, got in pairs.items():
        if "taylor" in got and "hochster" in got:
            # generators were made minimal when the ideal was built, so beta_1 is their number
            n_gens, closed = len(got["op"][3]), got["op"][4]
            for msg in checks.check_betti(got["taylor"], got["hochster"], n_gens, closed):
                problems.append(f"{label}: {msg}")
    for key, got in sides.items():
        if len(set(got.values())) > 1:
            problems.append(f"tor1 {key}: left and right ranks differ: {got}")
    return problems


_window_cache: dict[tuple, tuple[str, int]] = {}


def _window_digest(f, jrho, i0, i0p):
    key = (f, jrho, i0, i0p)
    if key not in _window_cache:
        _window_cache[key] = checks.expected_window_digest(f, jrho, i0, i0p, f + 4)
    return _window_cache[key]


def _mask(exps) -> int:
    return sum(1 << i for i, e in enumerate(exps) if int(e))
