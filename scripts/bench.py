"""Write the end-to-end bench file BENCH_<n>.json.

Usage (from anywhere):

    python3 scripts/bench.py BENCH_9.json

It runs ``serrecalc verify --all --report json`` in a fresh process and
records its wall time, the process's peak RSS and every record it printed,
grouped by suite with each suite's summed ``elapsed_s``.  It then runs the
tier-1 test command and records its wall time, exit code and summary line.
The ``setup`` row is the median and quartiles, over ``SETUP_PROBES`` fresh
processes after one warm-up, of the time from spawn until
``import serrecalc, serrecalc.cli`` returns, measured as the benchmark worker
measures ``setup_s``: the parent passes its ``time.monotonic_ns()`` reading
and the child, which inherits this process's environment, subtracts it.
Then it times fixed-size kernels, at least one per module, in this process, in
dependency order: the median time per call over repeats, each repeat as
many calls as ``timeit`` autoranges to (at least 0.2 s).  Cached kernels
are timed cold, their cache cleared before each call; the caches of the
layers below stay warm.  The ``cli.main`` rows time the print path, from the
argv to the JSON text, with standard output sent to ``os.devnull``.  Each
kernel's ``peak_kib`` is the ``tracemalloc`` peak of one such call, made
before the timed repeats.  Beside them go the ``src/`` line and module
counts, ``nproc`` and the Python version.  Standard library only; the output
path is the one argument.

Before the kernels it runs fixed passes, the ``matching`` benchmark
workload's operations, in one fresh child process (``bench.py --passes``),
which reads its own ``VmHWM`` from ``/proc/self/status`` before and after each
pass.  That growth of the process's peak RSS shows what ``tracemalloc`` cannot:
memory that the allocator holds in fragmented pools.  Each pass's
``peak_kib`` is its ``tracemalloc`` peak, run once more in this process.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import timeit
import tracemalloc
from itertools import combinations

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1_ARGS = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
SETUP_PROBES = 11
SETUP_CHILD = "import sys, time; import serrecalc, serrecalc.cli; print(time.monotonic_ns() - int(sys.argv[1]))"


def _env() -> dict:
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


def _timed(cmd: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True)
    return proc, time.perf_counter() - start


def verify_all() -> dict:
    """Wall time, peak RSS and records of one ``verify --all`` process (run before any other child)."""
    proc, wall = _timed([sys.executable, "-m", "serrecalc.cli", "verify", "--all", "--report", "json"])
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"verify --all exited {proc.returncode}: {proc.stderr.strip()}")
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    suites: dict[str, dict] = {}
    for record in json.loads(proc.stdout):
        suite = suites.setdefault(record["suite"], {"elapsed_s": 0.0, "records": []})
        suite["elapsed_s"] += record["elapsed_s"]
        suite["records"].append(record)
    return {"wall_s": wall, "exit_code": proc.returncode, "peak_rss_mib": peak_kib / 1024, "suites": suites}


def tier1() -> dict:
    proc, wall = _timed([sys.executable, *TIER1_ARGS])
    lines = proc.stdout.strip().splitlines()
    return {"command": " ".join(["python", *TIER1_ARGS]), "wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def setup() -> dict:
    """Spawn-to-import time of ``serrecalc.cli`` in fresh processes, after one warm-up that writes the bytecode."""
    def probe() -> float:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(spawn_ns)], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, check=True)
        return int(proc.stdout) / 1e9

    probe()
    q1, median, q3 = statistics.quantiles([probe() for _ in range(SETUP_PROBES)], n=4, method="inclusive")
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "probes": SETUP_PROBES}


def _each(call, arg_tuples: list[tuple]) -> None:
    for args in arg_tuples:  # each result is dropped before the next call, as the benchmark worker drops it
        call(*args)


def _passes() -> list[tuple[str, str, object]]:
    """The ``matching`` workload's operations, grouped into two passes: (kernel, input, call)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from serrecalc import predictions, weights

    def contexts(f: int):  # every nonsplit J_rho at f <= 3; at f = 4 the two the workload takes
        jrhos = [[], [0, 2]] if f == 4 else [list(sub) for r in range(f) for sub in combinations(range(f), r)]
        return [weights.nonsplit_context(f, jrho) for jrho in jrhos]

    windows = [(ctx, predictions.SubquotientSpec(i0, i0p)) for f in range(1, 4) for ctx in contexts(f)
               for i0 in range(-1, f) for i0p in range(i0 + 1, f + 1)]
    matches = [(ctx, i0) for f in range(1, 5) for ctx in contexts(f) for i0 in range(-1, f)]
    return [
        ("predictions.gr_subquotient", f"every window of every nonsplit context at f <= 3 ({len(windows)} calls)",
         lambda: _each(predictions.gr_subquotient, windows)),
        ("predictions.semisimple_match", "every i0 of every nonsplit context at f <= 3 and of J_rho = {}, {0, 2} "
         f"at f = 4 ({len(matches)} calls)", lambda: _each(predictions.semisimple_match, matches)),
    ]


def _hwm_kib() -> int:
    """This process's peak resident set size, from its own ``/proc/self/status``."""
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def _child_passes() -> list[dict]:
    """Run in the fresh child: each pass's growth of this process's ``VmHWM``, in order."""
    out = []
    for name, size, call in _passes():
        before = _hwm_kib()
        call()
        out.append({"kernel": name, "input": size, "hwm_before_kib": before, "hwm_growth_kib": _hwm_kib() - before})
    return out


def passes() -> list[dict]:
    """The fresh child's ``VmHWM`` growth per pass, beside each pass's ``tracemalloc`` peak in this process."""
    proc, _ = _timed([sys.executable, os.path.abspath(__file__), "--passes"])
    if proc.returncode:
        raise RuntimeError(f"bench.py --passes exited {proc.returncode}: {proc.stderr.strip()}")
    rows = json.loads(proc.stdout)
    for row, (_, _, call) in zip(rows, _passes(), strict=True):
        tracemalloc.start()
        call()
        row["peak_kib"] = tracemalloc.get_traced_memory()[1] / 1024
        tracemalloc.stop()
    return rows


def _cli_main(cli, argv: list[str]) -> None:
    """One ``serrecalc.cli.main`` call, its standard output sent to ``os.devnull``."""
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        cli.main(argv)


def _list_p(weights, contexts: list) -> None:
    """P in each context, after clearing the P^ss list cache."""
    weights._pss_list.cache_clear()
    for ctx in contexts:
        weights.enumerate_profiles(ctx, "P")


def kernels(repeats: int = 5) -> list[dict]:
    """Median seconds per call of fixed-size kernels, at least one per module, in dependency order."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from serrecalc import cli, homology, ideals, pbw, predictions, series, verify, weights

    window = ideals.a1(weights.nonsplit_context(5, []), weights.WeightProfile.from_tags(["X0"] * 5), 1)
    pairing = ideals.pairing_ideal(5, 31, 0)
    coordinates = ideals.MonomialIdeal(16, tuple(ideals.Monomial.variable(16, i) for i in range(16)))
    ns3, full = weights.nonsplit_context(3, [1, 2]), predictions.SubquotientSpec(-1, 3)
    ns4, full4 = weights.nonsplit_context(4, [0, 2]), predictions.SubquotientSpec(-1, 4)
    xcap, scap, pcap = predictions.X_COUNTS_F_CAP, predictions.SOCLE_F_CAP, weights.PROFILE_F_CAP
    x_split, x_all_x0 = weights.split_context(xcap), weights.WeightProfile.from_tags(["X0"] * xcap)
    s_ctx, s_full = weights.nonsplit_context(scap, range(scap - 1)), predictions.SubquotientSpec(-1, scap)
    socle_argv = ["socle", "--f", str(scap), "--case", "nonsplit", "--jrho", str(s_ctx.j_rho), "--i0", "-1",
                  "--i0p", str(scap)]
    grsub_argv = ["grsubquot", "--f", "3", "--case", "nonsplit", "--jrho", "6", "--i0", "-1", "--i0p", "3",
                  "--trunc", "7"]
    pss8_tags = [(lam.tags(),) for lam in weights._pss_list(8)]
    f8 = [weights.nonsplit_context(8, sub) for r in range(8) for sub in combinations(range(8), r)]
    p8 = [(ctx, lam) for ctx in (weights.split_context(8), weights.nonsplit_context(8, [0, 2, 4, 6]))
          for lam in weights.enumerate_profiles(ctx, "P")]
    a1_f4 = [(ctx, lam, i) for ctx in verify.reducible_contexts(4) for lam in weights.enumerate_profiles(ctx, "P")
             for i in range(-1, 5)]
    patched6 = weights.WeightProfile.from_tags(["X1", "P2"] * 3)
    irreducible16 = series.RationalSeries(series.IntPoly((3, 1)) ** 16 - series.IntPoly((1, -1)) ** 16, 16)
    cold = lambda cached, *args: lambda: (cached.cache_clear(), cached(*args))
    cases = [
        ("series.expand", "(3 + t)^10 / (1 - t)^10 to degree 200",
         lambda: series.expand(series.RationalSeries(series.IntPoly((3, 1)) ** 10, 10), 200)),
        ("series.expand", "((3 + t)^16 - (1 - t)^16) / (1 - t)^16, the irreducible f = 16 Hilbert series, "
         "to degree 99,999", lambda: series.expand(irreducible16, 99_999)),
        ("weights._pss_list", "f = 8", cold(weights._pss_list, 8)),
        ("weights._pss_list", f"f = {pcap} = PROFILE_F_CAP", cold(weights._pss_list, pcap)),
        ("weights.WeightProfile.from_tags", f"every P^ss profile's tags at f = 8 ({len(pss8_tags)} calls)",
         lambda: _each(weights.WeightProfile.from_tags, pss8_tags)),
        ("weights.enumerate_profiles", f"P in each of the {len(f8)} nonsplit contexts at f = 8, P^ss cold",
         lambda: _list_p(weights, f8)),
        ("weights.enumerate_profiles", f"P in each of the {len(f8)} nonsplit contexts at f = 8, P^ss warm",
         lambda: _each(weights.enumerate_profiles, [(ctx, "P") for ctx in f8])),
        ("weights.profile_stats", f"every P-profile of split f = 8 and of nonsplit f = 8, J_rho = {{0, 2, 4, 6}} "
         f"({len(p8)} calls)", lambda: _each(weights.profile_stats, p8)),
        ("ideals.numerator", "a1(i = 1) of X0^5, nonsplit f = 5, J_rho = {}, bigraded",
         lambda: ideals.numerator(window, ideals.Monomial.bigrade)),
        ("ideals.hilbert", "a1(i = 1) of X0^5, nonsplit f = 5, J_rho = {}", lambda: ideals.hilbert(window)),
        ("ideals.a1", f"every reducible context, P-profile and i at f = 4 ({len(a1_f4)} calls)",
         lambda: _each(ideals.a1, a1_f4)),
        ("ideals.patched_ideals", "split f = 6, profile X1,P2,X1,P2,X1,P2",
         lambda: ideals.patched_ideals(weights.split_context(6), patched6)),
        ("homology.taylor_profile", "pairing_ideal(5, 31, 0)", lambda: homology.taylor_profile(pairing)),
        ("homology.taylor_profile", "16 coordinate variables, 65,536 faces = FACE_CAP in one-face blocks",
         lambda: homology.taylor_profile(coordinates)),
        ("homology.hochster_profile", "pairing_ideal(5, 31, 0)", lambda: homology.hochster_profile(pairing)),
        ("pbw.pbw_basis", "f = 6, n = 3", cold(pbw.pbw_basis, 6, 3)),
        ("pbw.pbw_basis", "f = 40, n = 3, a ball of 7,381 points over 120 coordinates", cold(pbw.pbw_basis, 40, 3)),
        ("pbw._tor1_dims", "f = 4, t = (YZ,) * 4, right", cold(pbw._tor1_dims, 4, 0, 0, "right")),
        ("pbw._tor1_dims", "f = 4, t = (Y, Z, YZ, Y), right", cold(pbw._tor1_dims, 4, 0b1001, 0b0010, "right")),
        ("pbw._tor1_dims", f"f = {pbw.TOR1_F_CAP} = TOR1_F_CAP, t = (Y,) * f, right",
         cold(pbw._tor1_dims, pbw.TOR1_F_CAP, 2 ** pbw.TOR1_F_CAP - 1, 0, "right")),
        ("predictions.semisimple_match", "nonsplit f = 4, J_rho = {}, i0 = 1",
         lambda: predictions.semisimple_match(weights.nonsplit_context(4, []), 1)),
        ("predictions.gr_subquotient", "nonsplit f = 3, J_rho = {1, 2}, window (-1, 3), trunc 7",
         lambda: predictions.gr_subquotient(ns3, full, 7)),
        ("predictions.gr_subquotient", "nonsplit f = 4, J_rho = {0, 2}, window (-1, 4), trunc 8",
         lambda: predictions.gr_subquotient(ns4, full4, 8)),
        ("predictions._i1_histograms", f"each of the {len(f8)} nonsplit contexts at f = 8, cold",
         lambda: [cold(predictions._i1_histograms, ctx)() for ctx in f8]),
        ("predictions.x_counts", f"split f = {xcap} = X_COUNTS_F_CAP, all X0 (k = f)",
         lambda: predictions.x_counts(x_split, x_all_x0)),
        ("predictions.socle_jsets", f"nonsplit f = {scap} = SOCLE_F_CAP, |J_rho| = f - 1, window (-1, f)",
         lambda: predictions.socle_jsets(s_ctx, s_full)),
        ("cli.main", f"socle, nonsplit f = {scap} = SOCLE_F_CAP, |J_rho| = f - 1, window (-1, f), "
         "JSON to os.devnull", lambda: _cli_main(cli, socle_argv)),
        ("cli.main", "grsubquot, nonsplit f = 3, J_rho = {1, 2}, window (-1, 3), trunc 7, JSON to os.devnull",
         lambda: _cli_main(cli, grsub_argv)),
    ]
    out = []
    for name, size, call in cases:
        tracemalloc.start()
        call()
        peak_kib = tracemalloc.get_traced_memory()[1] / 1024
        tracemalloc.stop()
        timer = timeit.Timer(call)
        loops = timer.autorange()[0]
        runs = timer.repeat(repeats, loops)
        out.append({"kernel": name, "input": size, "median_s": statistics.median(runs) / loops,
                    "loops": loops, "repeats": repeats, "peak_kib": peak_kib})
    return out


def _src_paths() -> list[str]:
    return sorted(glob.glob(os.path.join(ROOT, "src", "serrecalc", "*.py")))


def src_lines() -> int:
    total = 0
    for path in _src_paths():
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def main(argv: list[str]) -> int:
    if argv == ["--passes"]:
        print(json.dumps(_child_passes()))
        return 0
    if len(argv) != 1:
        print("usage: bench.py OUTPUT.json", file=sys.stderr)
        return 2
    report = {"verify_all": verify_all(), "setup": setup(), "tier1": tier1(), "passes": passes(), "kernels": kernels()}
    report.update(
        src_lines=src_lines(),
        src_modules=len(_src_paths()),
        nproc=len(os.sched_getaffinity(0)),
        python=platform.python_version(),
        machine=platform.machine(),
    )
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
