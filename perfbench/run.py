"""serrecalc benchmark: one command, four workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {matching,oracles,ranks,cli} \\
        --seed N --seconds S --trace {0,1}

A closed loop: one client runs the workload's operations one after
another, in one process, with no threads.  A round is one pass over all of
them in a fresh interpreter, so lazy set-up and every ``lru_cache`` start
cold, as they do for a CLI user.  Rounds repeat until the next one would
end after S seconds; there is always at least one.  Set-up is measured
apart, by fresh interpreters that only import the package.

With ``--trace 0`` the last line of output is a JSON object with the gated
end-to-end metrics, set-up time and peak RSS; wall time, CPU time and the
latency percentiles are printed above it.  With ``--trace 1`` one untraced
and one traced round give the per-layer metrics and the tracing overhead.  Every round's answers
are checked against ``checks.py``, which does not share code with the
program.  See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

#: set-up probes made before the rounds, and as many again after them
SETUP_PROBES = 5
ROUND_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _spawn(mode: str, workload: str, seed: int, trace: bool, env: dict) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed)]
    spawn_ns = time.monotonic_ns()
    proc = subprocess.run(
        cmd + [str(spawn_ns), "1" if trace else "0"],
        capture_output=True, text=True, env=env, timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _score(ops: list, rnd: dict) -> tuple[int, list[str]]:
    """(failed operations, problems with the answers of the others)."""
    failed = sum(workloads.op_failed(op, s) for op, s in zip(ops, rnd["summaries"]))
    return failed, workloads.check_round(ops, rnd["summaries"])


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "serrecalc", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: dict, import_times: list[float], output_bytes: int) -> dict:
    calls, self_s, total_s, counts = tr["calls"], tr["self_s"], tr["total_s"], tr["counts"]
    m: dict[str, tuple[float, str]] = {}

    def span(name: str, *fields: str):
        for field in fields:
            if field == "calls":
                m[f"{name}.calls"] = (calls.get(name, 0), "count")
            else:
                m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")

    span("series.bigraded_init", "calls", "self_s")
    m["series.bigraded_entries"] = (counts.get("series.bigraded_entries", 0), "count")
    span("series.bigraded_shift_twist", "self_s")
    span("series.bigraded_sum", "self_s")
    span("ideals.bigraded_standard", "calls", "self_s")
    span("ideals.bigraded_difference", "calls", "self_s")
    m["ideals.bigraded.monomials"] = (counts.get("ideals.bigraded.monomials", 0), "count")
    span("predictions.semisimple_match", "self_s")
    span("predictions.gr_subquotient", "self_s")
    span("homology.taylor_profile", "calls", "self_s")
    m["homology.taylor.subsets"] = (counts.get("homology.taylor.subsets", 0), "count")
    m["ideals.monomial_lcm.calls"] = (counts.get("ideals.monomial_lcm.calls", 0), "count")
    m["homology.taylor.lcm_per_subset"] = (
        _ratio(counts.get("homology.taylor.lcm", 0), counts.get("homology.taylor.subsets", 0)), "ratio")
    span("homology.hochster_profile", "calls", "self_s")
    m["homology.hochster.vertex_subsets"] = (counts.get("homology.hochster.vertex_subsets", 0), "count")
    span("homology.homology_from_faces", "calls")
    m["homology.homology_from_faces.faces"] = (counts.get("homology.homology_from_faces.faces", 0), "count")
    m["homology.hochster.useful_ratio"] = (
        _ratio(counts.get("homology.hochster.useful", 0), counts.get("homology.hochster.walked", 0)), "ratio")
    span("linalg.exact_rank", "calls", "self_s")
    m["linalg.exact_rank.rows"] = (counts.get("linalg.exact_rank.rows", 0), "count")
    m["linalg.exact_rank.rank_per_row"] = (
        _ratio(counts.get("linalg.exact_rank.rank", 0), counts.get("linalg.exact_rank.rows", 0)), "ratio")
    span("pbw.tor1_gr", "calls", "self_s")
    hits, misses = counts.get("pbw.tor1_dims.hits", 0), counts.get("pbw.tor1_dims.misses", 0)
    m["pbw.tor1_dims.misses"] = (misses, "count")
    m["pbw.tor1_dims.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    span("pbw.mono_mul", "calls", "self_s")
    span("weights.enumerate_profiles", "calls", "self_s")
    span("weights.profile_stats", "calls", "self_s")
    span("ideals.hilbert", "calls", "self_s")
    m["ideals.hilbert.subsets"] = (counts.get("ideals.hilbert.subsets", 0), "count")
    m["cli.import_s"] = (statistics.median(import_times), "s")
    span("cli.main", "self_s")
    m["cli.output_bytes"] = (output_bytes, "B")
    for suite, _ in workloads.CLI_SUITES:
        m[f"verify.{suite}.wall_s"] = (total_s.get("verify.suite_" + suite.replace("-", "_"), 0.0), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "serrecalc", "__init__.py")):
        raise BenchError("run from the repository root: src/serrecalc is missing")
    out_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    for stale in glob.glob(os.path.join(out_dir, f"*-{args.workload}.*")):
        os.remove(stale)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")

    ops = workloads.build(args.workload, args.seed)
    _spawn("probe", args.workload, args.seed, False, env)  # writes the bytecode caches

    def probes() -> list[float]:
        return [_spawn("probe", args.workload, args.seed, False, env)["setup_s"] for _ in range(SETUP_PROBES)]

    setups = probes()
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append(_spawn("round", args.workload, args.seed, False, env))
        elapsed = time.monotonic() - start
        if args.trace or elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    if args.trace:
        rounds.append(_spawn("round", args.workload, args.seed, True, env))
    else:
        setups += probes()

    failed, problems = 0, []
    for rnd in rounds:
        f, p = _score(ops, rnd)
        failed += f
        problems += p
    for msg in sorted(set(problems))[:20]:
        print(f"check failed: {msg}")
    print(f"{args.workload}: seed {args.seed}, {len(rounds)} rounds of {len(ops)} operations, "
          f"{failed} failed, {len(set(problems))} wrong answers")

    plain = [r for r in rounds if "trace" not in r]
    if args.trace:
        traced = rounds[-1]
        summary = traced["trace"]
        import_times = [traced["import_s"]]
        summaries_path = os.path.join(out_dir, f"cli-summaries-{args.workload}.jsonl")
        if os.path.exists(summaries_path):
            with open(summaries_path) as fh:
                parts = [json.loads(line) for line in fh]
            for part in parts:
                tracer.merge(summary, part)
            import_times = [p["import_s"] for p in parts]
        metrics = layer_metrics(summary, import_times, traced["output_bytes"])
        metrics["package.src_lines"] = {"value": _src_lines(root), "unit": "count"}
        overhead = sum(traced["latencies"]) - sum(plain[0]["latencies"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        latencies = [x for r in plain for x in r["latencies"]]
        setups += [r["setup_s"] for r in plain]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(r["maxrss_kib"] for r in plain) / 1024, "unit": "MiB"},
        }
        # printed for people, but not in the result: their run-to-run spread on a
        # shared host exceeds any bound worth gating on (README, "Noise")
        ungated = {
            "wall_s": (statistics.median(sum(r["latencies"]) for r in plain), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in plain), "s"),
            "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "op_p90_ms": (1e3 * _p90(latencies), "ms"),
        }
        for name, (value, unit) in ungated.items():
            print(f"  {name} = {value} {unit} (not gated)")
    for name, mv in metrics.items():
        print(f"  {name} = {mv['value']} {mv['unit']}")
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
