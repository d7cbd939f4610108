"""One round of a workload, or one set-up probe, in a fresh interpreter.

Usage: worker.py {probe|round} WORKLOAD SEED SPAWN_NS TRACE

SPAWN_NS is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time counts interpreter start-up too.  The last
line of standard output is one JSON object: set-up and import time, the
latency of every operation, a small summary of each result, CPU time and
peak RSS of this process and its children, and, with TRACE = 1, the
tracer's per-layer summary.
"""

import json
import os
import resource
import sys
import time

_t0 = time.perf_counter()
import serrecalc  # noqa: E402
import serrecalc.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0
IMPORTED_NS = time.monotonic_ns()

import subprocess  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from serrecalc import homology, ideals, pbw, predictions, verify, weights  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(".bench_build", "perfbench")


def _context(f: int, jrho: list[int]):
    return weights.split_context(f) if len(jrho) == f else weights.nonsplit_context(f, jrho)


def _ideal(nvars: int, exps: list[list[int]]):
    return ideals.MonomialIdeal(nvars, tuple(ideals.Monomial(tuple(e)) for e in exps))


def _window_summary(data) -> list:
    summands = [(tuple(lam.tags()), {(d, c.exps): m for (d, c), m in b.entries.items()}) for lam, b in data]
    return [checks.table_digest(summands), sum(b.total(0) for _, b in data)]


def prepare(op: list, trace_files: tuple[str, str] | None):
    """(call, summarize) for one operation; inputs are built here, outside the timing."""
    kind = op[0]
    if kind == "match":
        ctx, i0 = _context(op[1], op[2]), op[3]
        return (lambda: predictions.semisimple_match(ctx, i0)), (lambda r: [r.bijection_ok, r.hilbert_ok, r.pairs])
    if kind == "grsub":
        ctx, spec = _context(op[1], op[2]), predictions.SubquotientSpec(op[3], op[4])
        return (lambda: predictions.gr_subquotient(ctx, spec)), _window_summary
    if kind in ("taylor", "hochster"):
        ideal = _ideal(op[2], op[3])
        if kind == "taylor":
            return (lambda: homology.taylor_profile(ideal)), list
        return (lambda: homology.hochster_profile(ideal)), list
    if kind == "tor1":
        ctx, side = _context(op[1], op[2]), op[4]
        lam = weights.WeightProfile.from_tags(op[3])
        return (lambda: pbw.tor1_gr(ctx, lam, side)), (lambda r: [r.dim_im_d1, r.dim_ker_d1, r.dim_im_d2, r.tor1, r.ok])
    if kind == "pbw_basis":
        f = op[1]
        return (lambda: pbw.pbw_basis(f, 3)), len
    if kind == "suite_pbw":
        return (lambda: verify.suite_pbw(fmax=6, syzygy_fmax=3)), (lambda recs: [r.ok for r in recs])
    if kind == "cli":
        if trace_files is None:
            cmd = [sys.executable, "-m", "serrecalc.cli"] + op[1]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), *trace_files] + op[1]

        def run_cli():
            return subprocess.run(cmd, capture_output=True, text=True, timeout=120)

        return run_cli, (lambda p: [p.returncode, p.stdout, p.stderr])
    raise ValueError(f"unknown operation {kind!r}")


def run_round(workload: str, seed: int, trace: bool) -> dict:
    ops = workloads.build(workload, seed)
    trace_files = None
    if trace:
        trace_files = (
            os.path.join(OUT_DIR, f"cli-summaries-{workload}.jsonl"),
            os.path.join(OUT_DIR, f"spans-{workload}.csv"),
        )
    prepared = [prepare(op, trace_files) for op in ops]
    tracer_obj = None
    if trace:
        import tracer

        tracer_obj = tracer.install()
    latencies, summaries = [], []
    output_bytes = 0
    for op, (call, summarize) in zip(ops, prepared):
        t = time.perf_counter()
        try:
            if tracer_obj is None:
                result = call()
            else:
                with tracer_obj.span("op." + op[0]):
                    result = call()
        except Exception as exc:  # recorded as a failed operation; the round goes on
            latencies.append(time.perf_counter() - t)
            summaries.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        latencies.append(time.perf_counter() - t)
        summaries.append(summarize(result))
        if op[0] == "cli":
            output_bytes += len(result.stdout.encode())
    out = {"latencies": latencies, "summaries": summaries, "output_bytes": output_bytes}
    if tracer_obj is not None:
        out["trace"] = tracer_obj.summary()
        tracer_obj.write_spans(trace_files[1])
    return out


def main():
    mode, workload, seed, trace = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[5] == "1"
    out = {"setup_s": (IMPORTED_NS - int(sys.argv[4])) / 1e9, "import_s": IMPORT_S}
    if mode == "round":
        out.update(run_round(workload, seed, trace))
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    out["cpu_s"] = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    out["maxrss_kib"] = max(me.ru_maxrss, kids.ru_maxrss)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
