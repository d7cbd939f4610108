"""Command-line front end: one table of subcommands and one dispatcher.

Every subcommand prints deterministic output: JSON with sorted keys, CSV,
or an aligned table.  This module alone decides how values print: payloads
hand over plain ints, tuples and dicts, and ``main`` turns every integer,
unbounded, into a decimal string once, with ``_stringify``, before it builds
rows or output.
Exit codes: 0 success, 1 when a payload flag listed in the table is false,
2 for usage errors and bad input, with one ``error:`` line on stderr.
Each payload imports the modules it computes with when it runs, so a process
loads only what its subcommand uses.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from functools import lru_cache

from .weights import (
    CASES, FAMILIES, GaloisContext, WeightProfile, enumerate_profiles, full_mask, indices, profile_stats,
)


def _parse_jrho(text: str | None, f: int) -> int | None:
    if text is None:
        return None
    if text == "all":
        return full_mask(f)  # an f < 1 is refused by GaloisContext
    mask = int(text)
    if f >= 1 and (mask < 0 or mask >> f):  # a shift builds no 2^f; GaloisContext refuses a huge f or f < 1
        raise ValueError(f"jrho bitmask {mask} outside 0..2^f-1")
    return mask


def _profile(tags: list[str], f: int) -> WeightProfile:
    if len(tags) != f:
        raise ValueError(f"profile has {len(tags)} entries, expected f = {f}")
    return WeightProfile.from_tags(t.strip() for t in tags)


def _resolve(a: argparse.Namespace) -> None:
    """Set ``a.ctx``, ``a.lam`` and ``a.spec`` from whichever common flags the row has."""
    if hasattr(a, "case"):
        jrho = _parse_jrho(a.jrho, a.f)
        if a.case == "irreducible":
            jrho = 0
        elif jrho is None:
            raise ValueError("--jrho is required for reducible cases ('all' or a bitmask)")
        a.ctx = GaloisContext(a.f, a.case, jrho, a.p)
    if getattr(a, "profile", None) is not None:
        a.lam = _profile(a.profile.split(","), a.f)
    if hasattr(a, "i0p"):
        from .predictions import SubquotientSpec
        a.spec = SubquotientSpec(a.i0, a.i0p)
        a.spec.check(a.f)


def _list_of_lists(data, kind: type, what: str) -> list[list]:
    """Shape check for JSON input: a list of lists of ``kind`` (bool is not int)."""
    if not (isinstance(data, list) and all(isinstance(x, list) for x in data)
            and all(type(e) is kind for x in data for e in x)):
        raise ValueError(f"expected {what}")
    return data


def _decode(text: str, what: str):
    """``json.loads``, refusing as bad input a nesting deeper than the decoder's recursion limit."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply to decode") from None


def _read_profiles(path: str, f: int) -> list[WeightProfile]:
    """Profiles from a JSON tag-array list, or an object holding one under "profiles"."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    data = _decode(text, path)
    if isinstance(data, dict):
        data = data.get("profiles")
    tag_lists = _list_of_lists(data, str, f"{path} to hold a list of profile tag arrays")
    return [_profile(tags, f) for tags in tag_lists]


_decimal = lru_cache(maxsize=256)(str)  # one string per recent integer: socle at f = 18 prints 1.2 million


def _stringify(obj):
    """Deep-convert integers to decimal strings for safe JSON, in place: every payload builds fresh containers.

    No copy of a large payload is alive beside it; only tuples and dicts with a non-string key are rebuilt.
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return _decimal(obj)
    if isinstance(obj, dict):
        for k, v in obj.items():
            obj[k] = _stringify(v)
        return obj if all(type(k) is str for k in obj) else {str(k): v for k, v in obj.items()}
    if isinstance(obj, tuple):
        obj = list(obj)
    if isinstance(obj, list):
        for i, v in enumerate(obj):
            obj[i] = _stringify(v)
    return obj


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(payload, fmt: str, table_rows: list[list[str]] | None):
    """Print a stringified payload as JSON, or its rows (by default its sorted key/value pairs) as CSV or a table."""
    if fmt == "json":
        print(_dumps(payload))
        return
    rows = table_rows or [[k, _dumps(v)] for k, v in sorted(payload.items())]
    if fmt == "csv":
        import csv
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
        return
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))] if rows else []
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


# -- payloads: each takes the parsed flags after _resolve ---------------------

def _enumerate(a) -> dict:
    profiles = [p.tags() for p in enumerate_profiles(a.ctx, a.which)]
    return {"which": a.which, "profiles": profiles, "count": len(profiles)}


def _stats(a) -> dict:
    if a.profile is not None:
        lams = [a.lam]
    elif a.from_json:
        lams = _read_profiles(a.from_json, a.f)
    else:
        raise ValueError("stats needs --profile or --from-json")
    out = []
    for lam in lams:
        st = profile_stats(a.ctx, lam)
        out.append({
            "profile": lam.tags(),
            "j_lambda": indices(st.j_lambda),
            "ell": st.ell,
            "t_assign": ["Y" if st.ty >> j & 1 else "Z" if st.tz >> j & 1 else "YZ" for j in range(a.f)],
            "a_set": indices(st.a_set),
            "k": st.k,
            "j1": indices(st.j1),
            "j2": indices(st.j2),
            "eps": {j: -1 if st.ty >> j & 1 else 1 for j in indices(st.ty | st.tz)},
        })
    return {"stats": out}


def _ideal(a) -> dict:
    from .ideals import FACE_CAP, a_lambda, hilbert
    from .weights import in_p
    # a(lambda)'s f generators share no variable, so the walk would visit all 2^f faces: refuse such an f
    # before one is built; a profile outside P goes on to a_lambda's error
    if 1 << a.f > FACE_CAP and in_p(a.ctx, a.lam):
        raise ValueError(f"the Lyubeznik walk passed its cap of {FACE_CAP} faces")
    ideal = a_lambda(a.ctx, a.lam)
    return {"gens": ideal.gens, "hilbert": hilbert(ideal).reduced()._asdict()}


def _series_check(res) -> dict:
    return {"closed": res.closed._asdict(), "enumerated": res.enumerated._asdict(), "equal": res.equal}


def _hilbert(a) -> dict:
    from .predictions import default_trunc, hilbert_pi
    from .series import expand
    res = hilbert_pi(a.ctx)
    n = default_trunc(a.f) if a.trunc is None else a.trunc
    if n < 0:
        raise ValueError("truncation must be nonnegative")
    return {**_series_check(res), "expansion": expand(res.closed, n)}


def _hilbert_rows(d: dict) -> list[list[str]]:
    return [
        ["numerator", " ".join(d["closed"]["num"])],
        ["pole", d["closed"]["pole"]],
        ["equal", str(d["equal"])],
        ["expansion", " ".join(d["expansion"])],
    ]


def _ni(a) -> dict:
    from .predictions import hilbert_Ni
    return {"i": a.i, **_series_check(hilbert_Ni(a.ctx, a.i))}


def _grsubquot(a) -> dict:
    from .predictions import gr_subquotient
    data = gr_subquotient(a.ctx, a.spec, a.trunc)
    return {
        "i0": a.spec.i0,
        "i0p": a.spec.i0p,
        "summands": [
            {"profile": lam.tags(), "series": {"trunc": b.trunc, "entries": [
                {"deg": d, "offset": c, "mult": m} for (d, c), m in sorted(b.entries.items())]}}
            for lam, b in data
        ],
        "degree0_total": sum(b.total(0) for _, b in data),
    }


def _i1(a) -> dict:
    from .predictions import i1_invariants
    lams = i1_invariants(a.ctx, a.spec)
    return {"profiles": [p.tags() for p in lams], "count": len(lams)}


def _socle(a) -> dict:
    from .predictions import socle_jsets
    jsets = socle_jsets(a.ctx, a.spec)
    return {"j_sets": [indices(J) for J in jsets], "count": len(jsets)}


def _k1cycle(a) -> dict:
    from .predictions import k1_cycle
    return {"value": k1_cycle(a.f, a.spec)}


def _theta(a) -> dict:
    from .predictions import theta_lattice
    box = theta_lattice(a.ctx, a.lam, a.i0 + 4 if a.n is None else a.n, a.i0)
    return {
        "d_lambda": box.d_lambda,
        "points": sorted(box.points),
        "jh_theta": sorted(box.jh_theta),
        "chain_ok": box.chain_ok,
    }


def _match(a) -> dict:
    from .predictions import semisimple_match
    return semisimple_match(a.ctx, a.i0)._asdict()


def _tor(a) -> dict:
    from .homology import hochster_profile, taylor_profile
    from .ideals import Monomial, MonomialIdeal
    gens = _list_of_lists(_decode(a.gens, "--gens"), int, "--gens to be a JSON list of integer exponent arrays")
    if a.max_i is not None and a.max_i < 0:
        raise ValueError(f"--max-i must be nonnegative, got {a.max_i}")
    ideal = MonomialIdeal(len(gens[0]) if gens else 0, tuple([Monomial(g) for g in gens]))
    payload: dict = {"gens": ideal.gens}
    for key, oracle in (("taylor", taylor_profile), ("hochster", hochster_profile)):
        if a.method in (key, "both"):
            payload[key] = oracle(ideal)[: None if a.max_i is None else a.max_i + 1]
    return payload


def _grtor(a) -> dict:
    from .pbw import tor1_gr
    r = tor1_gr(a.ctx, a.lam, a.side)
    return {
        "dim_im_d1": r.dim_im_d1,
        "dim_ker_d1": r.dim_ker_d1,
        "dim_im_d2": r.dim_im_d2,
        "tor1": r.tor1,
        "matches_closed_forms": r.ok,
    }


def _xcounts(a) -> dict:
    from .predictions import x_counts
    return x_counts(a.ctx, a.lam)._asdict()


def _patched(a) -> dict:
    from .ideals import patched_ideals
    inter, expected = patched_ideals(a.ctx, a.lam)
    return {
        "intersection": inter.gens,
        "expected": expected.gens,
        "ok": inter.gens == expected.gens,
    }


def _verify(a) -> list[dict]:
    from . import verify
    names = sorted(verify.SUITES) if (a.all or not a.suite) else a.suite
    return [r._asdict() for r in verify.run_suites(names, a.f)]


def _verify_rows(records: list[dict]) -> list[list[str]]:
    lines = [f"[{'PASS' if r['ok'] else 'FAIL'}] {r['suite']}: {r['check']}" for r in records]
    lines = [line + (f" ({r['detail']})" if r["detail"] else "") for line, r in zip(lines, records)]
    return [[line] for line in lines + [f"{sum(r['ok'] for r in records)}/{len(records)} checks passed"]]


_FORMAT = ("--format", dict(dest="fmt", choices=["json", "csv", "table"], default="json"))
_F = ("--f", dict(type=int, required=True))
_CTX = (
    _F,
    ("--case", dict(choices=CASES, required=True)),
    ("--jrho", dict(help="bitmask over {0..f-1}, or 'all'")),
    ("--p", dict(type=int, default=None)),
    _FORMAT,
)
_PROFILE = ("--profile", dict(required=True, help="comma-separated symbol tags"))
_I0 = ("--i0", dict(type=int, required=True))
_WINDOW = (_I0, ("--i0p", dict(type=int, required=True)))
_TRUNC = ("--trunc", dict(type=int, default=None))


class Command(namedtuple("Command", "help flags payload ok rows", defaults=((), None))):
    """One subcommand: help, (flag, add_argument kwargs) pairs and a payload function.

    The payload maps the parsed arguments to a dict or a list of dicts.  Exit
    0 needs every ``ok`` key true in the payload, or in every record of a
    list payload.  ``rows`` maps the payload to table/CSV rows; the default
    is the payload's sorted key/value pairs.
    """

    __slots__ = ()


COMMANDS: dict[str, Command] = {
    "enumerate": Command(
        "list a profile family",
        _CTX + (("--which", dict(choices=FAMILIES, required=True)),),
        _enumerate, rows=lambda d: d["profiles"],
    ),
    "stats": Command(
        "t-assignment and index data of profiles",
        _CTX + (
            ("--profile", dict(help="comma-separated symbol tags")),
            ("--from-json", dict(dest="from_json", help="JSON file of profile tag arrays, '-' for stdin")),
        ),
        _stats,
    ),
    "ideal": Command("minimal generators and Hilbert numerator", _CTX + (_PROFILE,), _ideal),
    "hilbert": Command(
        "closed vs enumerated Hilbert series", _CTX + (_TRUNC,), _hilbert, ("equal",), _hilbert_rows
    ),
    "ni": Command("split-case layer series", _CTX + (("--i", dict(type=int, required=True)),), _ni, ("equal",)),
    "grsubquot": Command("per-profile bigraded window tables", _CTX + _WINDOW + (_TRUNC,), _grsubquot),
    "i1": Command("invariant index set of a window", _CTX + _WINDOW, _i1),
    "socle": Command("socle J-sets of a window", _CTX + _WINDOW, _socle),
    "k1cycle": Command("binomial window count", (_F, _FORMAT) + _WINDOW, _k1cycle),
    "theta": Command(
        "sign-constrained lattice model",
        _CTX + (_PROFILE, _I0, ("--n", dict(type=int, default=None))),
        _theta, ("chain_ok",),
    ),
    "match": Command("semisimple layer matching", _CTX + (_I0,), _match, ("bijection_ok", "hilbert_ok")),
    "tor": Command(
        "Tor dims of a monomial ideal",
        (
            ("--gens", dict(required=True, help="JSON list of exponent arrays")),
            ("--method", dict(choices=["hochster", "taylor", "both"], default="both")),
            ("--max-i", dict(dest="max_i", type=int, default=None)),
            _FORMAT,
        ),
        _tor,
    ),
    "grtor": Command(
        "rank data in the degree-3 truncation",
        _CTX + (_PROFILE, ("--side", dict(choices=["right", "left"], default="right"))),
        _grtor, ("matches_closed_forms",),
    ),
    "xcounts": Command("character shell sizes around a profile", _CTX + (_PROFILE,), _xcounts, ("ok",)),
    "patched": Command("patched-module intersection check", _CTX + (_PROFILE,), _patched, ("ok",)),
    "verify": Command(
        "run named verification suites",
        (
            ("--suite", dict(action="append", default=None, help="repeatable; one of degenerates, gr-subquot, hilbert, "
                             "patched, pbw, semisimple-match, split-ni, theta, tor, xcounts")),
            ("--all", dict(action="store_true")),
            ("--f", dict(type=int, default=None, help="override the default scale")),
            ("--report", dict(dest="fmt", choices=["json"], default="table")),
        ),
        _verify, ("ok",), _verify_rows,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # here, not at the top: importing the module for its payloads builds no parser
    ap = argparse.ArgumentParser(prog="serrecalc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        for flag, kwargs in cmd.flags:
            sp.add_argument(flag, **kwargs)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cmd = COMMANDS[args.command]
    try:
        _resolve(args)
        payload = _stringify(cmd.payload(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args.fmt, cmd.rows(payload) if cmd.rows and args.fmt != "json" else None)
    records = payload if isinstance(payload, list) else [payload]
    return 0 if all(r[k] for r in records for k in cmd.ok) else 1


if __name__ == "__main__":
    sys.exit(main())
