"""Outside-in tracer for serrecalc.

``install()`` replaces every public function of every serrecalc module, in
every module namespace (and module-level dict) that binds it, by a wrapper
that records a span.  Because the package calls across modules through
those bindings, the spans nest the way the layers call each other.  Two
class attributes that count work are wrapped too: ``Monomial.lcm`` (a bare
counter, since it runs hundreds of thousands of times) and
``BigradedSeries.__init__`` (a span).  Nothing inside the package changes.

Spans are kept in memory as (id, parent, root, name, start_ns, end_ns) in
one flat integer array, and written out by ``write_spans`` when the process
ends; the root is the benchmark operation that caused the span.  Self time
is a span's duration minus the durations of its direct children.  The
per-term helpers in ``COUNTED_ONLY`` run millions of times in one ``ranks``
round, so they are counted without spans and their time stays in the
caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

COUNTED_ONLY = frozenset({"pbw.gen_mul", "pbw.mono_degree", "pbw.mono_offset", "pbw.one_mono"})
MODULES = ("series", "weights", "ideals", "homology", "linalg", "pbw", "predictions", "verify", "cli")


class Tracer:
    def __init__(self):
        self.spans = array("q")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self._stack: list[list] = []  # [span id, name, start_ns, child_ns]
        self._next_id = 1
        self._root = 0
        self.cache_fns: dict[str, object] = {}

    # -- spans -------------------------------------------------------------

    def enter(self, name: str):
        sid = self._next_id
        self._next_id += 1
        if not self._stack:
            self._root = sid
        self.active[name] += 1
        self._stack.append([sid, name, time.perf_counter_ns(), 0])

    def leave(self):
        end = time.perf_counter_ns()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        self.active[name] -= 1
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.spans.extend((sid, parent[0] if parent else 0, self._root, nid, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.leave()

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self
        if name in COUNTED_ONLY:
            calls = self.calls

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str):
        """Append the spans as CSV lines: id, parent, root, name, start_ns, end_ns."""
        sp, names = self.spans, self.names
        with open(path, "a") as fh:
            for i in range(0, len(sp), 6):
                fh.write(f"{sp[i]},{sp[i + 1]},{sp[i + 2]},{names[sp[i + 3]]},{sp[i + 4]},{sp[i + 5]}\n")

    def summary(self) -> dict:
        """Per-name calls / self / total seconds, the work counters and cache info."""
        out = {
            "calls": dict(self.calls),
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "total_s": {k: v / 1e9 for k, v in self.total_ns.items()},
            "counts": dict(self.counts),
        }
        for key, fn in self.cache_fns.items():
            info = fn.cache_info()
            out["counts"][key + ".hits"] = info.hits
            out["counts"][key + ".misses"] = info.misses
        return out


def merge(into: dict, part: dict):
    """Add one summary into another, key by key."""
    for section in ("calls", "self_s", "total_s", "counts"):
        dst = into.setdefault(section, {})
        for k, v in part.get(section, {}).items():
            dst[k] = dst.get(k, 0) + v


def _public_functions() -> dict[int, tuple[str, object]]:
    found: dict[int, tuple[str, object]] = {}
    for short in MODULES:
        mod = importlib.import_module("serrecalc." + short)
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                continue
            home = getattr(obj, "__module__", "") or ""
            if not home.startswith("serrecalc."):
                continue
            found[id(obj)] = (home.split(".", 1)[1] + "." + obj.__name__, obj)
    return found


def install() -> Tracer:
    """Wrap the package's public functions and counted class attributes."""
    import serrecalc
    from serrecalc import ideals, pbw, series

    tracer = Tracer()
    counts, active = tracer.counts, tracer.active

    def generator_subsets(args):
        return 1 << len(args[0].gens)

    def on_taylor(args, result):
        counts["homology.taylor.subsets"] += generator_subsets(args)

    def on_hochster(args, result):
        counts["homology.hochster.vertex_subsets"] += 1 << args[0].ambient

    def on_faces(args, result):
        counts["homology.homology_from_faces.faces"] += len(args[0])
        if active["homology.hochster_profile"]:
            counts["homology.hochster.walked"] += 1
            if result:
                counts["homology.hochster.useful"] += 1

    def rows_as_list(args):
        return (list(args[0]),) + tuple(args[1:])

    def on_rank(args, result):
        counts["linalg.exact_rank.rows"] += len(args[0])
        counts["linalg.exact_rank.rank"] += result

    def on_table(args, result):
        counts["ideals.bigraded.monomials"] += sum(result.entries.values())

    def on_hilbert(args, result):
        counts["ideals.hilbert.subsets"] += generator_subsets(args)

    hooks = {
        "homology.taylor_profile": (None, on_taylor),
        "homology.hochster_profile": (None, on_hochster),
        "homology.homology_from_faces": (None, on_faces),
        "linalg.exact_rank": (rows_as_list, on_rank),
        "ideals.bigraded_standard": (None, on_table),
        "ideals.bigraded_difference": (None, on_table),
        "ideals.hilbert": (None, on_hilbert),
    }

    wrapped: dict[int, object] = {}
    for key, (name, fn) in _public_functions().items():
        before, after = hooks.get(name, (None, None))
        wrapped[key] = tracer.wrap(name, fn, before, after)
    tracer.cache_fns["pbw.tor1_dims"] = pbw._tor1_dims

    namespaces = [serrecalc] + [importlib.import_module("serrecalc." + m) for m in MODULES]
    for mod in namespaces:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    if id(v) in wrapped:
                        obj[k] = wrapped[id(v)]

    lcm = ideals.Monomial.lcm

    def counted_lcm(self, other):
        counts["ideals.monomial_lcm.calls"] += 1
        if active["homology.taylor_profile"]:
            counts["homology.taylor.lcm"] += 1
        return lcm(self, other)

    ideals.Monomial.lcm = counted_lcm

    init = series.BigradedSeries.__init__

    def on_init(args, result):
        counts["series.bigraded_entries"] += len(args[0].entries)

    series.BigradedSeries.__init__ = tracer.wrap("series.bigraded_init", init, None, on_init)
    return tracer
