"""Named verification suites: the one definition of every check.

A suite's keyword defaults are the scale ``verify --all`` runs, chosen for
its 60 s budget.  ``run_suites`` is the one entry point: the CLI's ``--f``
and the acceptance tests' stated f replace a suite's first scale there.
A suite returns one ``CheckRecord`` per check.  A check walks every one of
its cases, also after a failure, so ``cases`` counts what it covered and
``elapsed_s`` times all of it.  A failing record's ``detail`` names the
first failing case and the values that disagree: ``first failure <case>:
<name>=<value> ...``.  The case names the context, the profile or k, and
i0 where they apply.  A kernel that raises fails its record, not the run.
"""

from __future__ import annotations

import time
from collections import namedtuple
from functools import cache
from itertools import combinations, product
from math import comb
from typing import Callable, Iterable, Iterator

from .errors import SizeLimitError
from .homology import (
    VERTEX_CAP,
    ext1_lower_bound,
    ext_closed,
    ext_dims,
    hochster_profile,
    profiles_agree,
    stanley_reisner_closed,
    taylor_profile,
)
from .ideals import (
    Monomial,
    a_lambda,
    d_shift,
    hilbert,
    p_monomial,
    paired,
    pairing_ideal,
    patched_ideals,
    standard_monomials,
)
from .linalg import exact_rank
from .pbw import gr_formula, mono_degree, pbw_basis, pbw_mul, tor1_gr
from .predictions import (
    SubquotientSpec,
    gr_subquotient,
    hilbert_Ni,
    hilbert_pi,
    i1_cardinality,
    i1_degree0_total,
    i1_invariants,
    k1_cycle,
    semisimple_match,
    shell_aggregate,
    theta_lattice,
    x_counts,
)
from .series import IntPoly, expand
from .weights import (
    PROFILE_F_CAP,
    Case,
    GaloisContext,
    WeightProfile,
    character_window,
    count_by_A,
    enumerate_profiles,
    in_p,
    indices,
    j_dprime,
    length_witnesses,
    mask_of,
    nonsplit_context,
    profile_stats,
    split_context,
    v_chi_from_windows,
)


class CheckRecord(namedtuple("CheckRecord", "suite check ok detail cases elapsed_s")):
    """One check of a suite: ``cases`` counts the cases it covered and ``elapsed_s`` times them."""

    __slots__ = ()


def _check(suite: str, check: str, cases: Iterable[tuple[str, bool, dict]], detail: str = "") -> CheckRecord:
    """Run every ``(case, ok, values)`` of one check; the first failing case, or an exception, replaces ``detail``."""
    t0 = time.perf_counter()
    n, case, failure = 0, None, None
    try:
        for n, (case, ok, values) in enumerate(cases, 1):
            if not ok and failure is None:
                failure = f"first failure {case}: " + " ".join(f"{k}={v}" for k, v in values.items())
    except Exception as exc:  # a kernel fault fails this record; the suite's later checks still run
        raised = f"raised {type(exc).__name__}: {exc} after {n} cases" + (f", the last {case}" if n else "")
        failure = f"{failure}; {raised}" if failure else raised
    return CheckRecord(suite, check, failure is None, failure or detail, n, time.perf_counter() - t0)


def _same(case: str, **values) -> tuple[str, bool, dict]:
    """A case that holds when its two named values are equal."""
    a, b = values.values()
    return case, a == b, values


def reducible_contexts(f: int) -> Iterator[GaloisContext]:
    """The split context and every proper-subset nonsplit context."""
    yield split_context(f)
    for r in range(f):
        for sub in combinations(range(f), r):
            yield nonsplit_context(f, sub)


def all_contexts(f: int) -> Iterator[GaloisContext]:
    yield GaloisContext(f, Case.IRREDUCIBLE)
    yield from reducible_contexts(f)


def _nonsplit_contexts(f: int) -> Iterator[GaloisContext]:
    return (ctx for ctx in reducible_contexts(f) if ctx.case is Case.NONSPLIT)


def _profiles(f: int) -> Iterator[tuple[GaloisContext, WeightProfile]]:
    """Every reducible context at f with each of its P-profiles."""
    return ((ctx, lam) for ctx in reducible_contexts(f) for lam in enumerate_profiles(ctx, "P"))


def _windows(f: int) -> Iterator[SubquotientSpec]:
    """Every window -1 <= i0 < i0' <= f."""
    return (SubquotientSpec(i0, i0p) for i0 in range(-1, f) for i0p in range(i0 + 1, f + 1))


def _case(ctx: GaloisContext, lam: WeightProfile | None = None, **at) -> str:
    """A case name: the context, the profile's tags if any, then indices such as i0."""
    parts = [f"f={ctx.f}", ctx.case.value] + ([f"J_rho={indices(ctx.j_rho)}"] if ctx.case is Case.NONSPLIT else [])
    parts += [] if lam is None else [",".join(lam.tags())]
    return " ".join(parts + [f"{k}={v}" for k, v in at.items()])


def _window_cases(contexts: Iterable[GaloisContext]) -> list[tuple[GaloisContext, SubquotientSpec, str]]:
    """Every given context with each of its windows, and the case name."""
    return [(ctx, spec, _case(ctx, i0=spec.i0, i0p=spec.i0p)) for ctx in contexts for spec in _windows(ctx.f)]


def _tags(lams: Iterable[WeightProfile]) -> list[str]:
    return sorted({",".join(lam.tags()) for lam in lams})


def _series(case: str, res) -> tuple[str, bool, dict]:
    return case, res.equal, {"closed": res.closed, "enumerated": res.enumerated}


def _ranks(r) -> tuple[int, int, int, int]:
    return r.dim_im_d1, r.dim_ker_d1, r.dim_im_d2, r.tor1


# -- suites ----------------------------------------------------------------

def _stated_t0(ctx: GaloisContext) -> int:
    if ctx.case is Case.IRREDUCIBLE:
        return 3**ctx.f - 1
    if ctx.case is Case.SPLIT:
        return 3**ctx.f + 1
    return 2 ** (ctx.f - ctx.d_rho) * 3**ctx.d_rho


def _stated_a_counts(ctx: GaloisContext) -> dict[int, int]:
    """The closed per-|A| counts: odd |A| when irreducible, even when split, f - d + s when nonsplit."""
    f, d = ctx.f, ctx.d_rho
    if ctx.case is Case.NONSPLIT:
        return {f - d + s: 2 ** (f - d) * comb(d, s) for s in range(d + 1)}
    parity = 1 if ctx.case is Case.IRREDUCIBLE else 0
    return {s: 2 * comb(f, s) for s in range(f + 1) if s % 2 == parity}


def suite_hilbert(fmax: int = 5) -> list[CheckRecord]:
    def series(ctx):
        res = hilbert_pi(ctx)
        yield _series(f"{_case(ctx)} series", res)
        yield _same(f"{_case(ctx)} t=0", value=res.closed.at_zero(), stated=_stated_t0(ctx))

    def a_counts(ctx):
        counts = count_by_A(ctx)
        yield _same(f"{_case(ctx)} closed", closed=counts.closed, stated=_stated_a_counts(ctx))
        if counts.enumerated is not None:
            yield f"{_case(ctx)} enumerated", counts.ok, {
                "closed": counts.closed,
                "enumerated": counts.enumerated,
                "closed_p_level": counts.closed_p_level,
                "enumerated_p_level": counts.enumerated_p_level,
            }

    # binomial identities behind the closed numerators
    def binomials():
        for n in range(13):
            plus, minus = IntPoly.of(2, 1) ** n, IntPoly.of(2, -1) ** n
            odd = even = IntPoly.zero()
            for i in range(n + 1):
                term = IntPoly.t_power(i, comb(n, i) * 2 ** (n - i))
                odd, even = (odd + term, even) if i % 2 else (odd, even + term)
            yield _same(f"n={n} odd", difference=plus - minus, twice_odd=odd.scale(2))
            yield _same(f"n={n} even", total=plus + minus, twice_even=even.scale(2))

    out = []
    for f in range(1, fmax + 1):
        for ctx in all_contexts(f):
            out.append(_check("hilbert", _case(ctx), series(ctx), f"t=0 value {_stated_t0(ctx)}"))
            out.append(_check("hilbert", f"{_case(ctx)} |A|-counts", a_counts(ctx)))
    out.append(_check("hilbert", "binomial identities n<=12", binomials()))
    # witnesses outside P at every positive level
    out.append(_check("hilbert", "levels outside P witnessed", (
        _same(_case(ctx), witnessed=sorted(length_witnesses(ctx)), levels=list(range(1, f + 1)))
        for f in range(1, min(fmax, 6) + 1) for ctx in _nonsplit_contexts(f)
    )))
    return out


def suite_split_ni(fmax: int = 5) -> list[CheckRecord]:
    def layers(f):
        ctx = split_context(f)
        total = None
        for i in range(f + 1):
            res = hilbert_Ni(ctx, i)
            yield _series(f"f={f} i={i}", res)
            total = res.closed if total is None else total + res.closed
        yield _same(f"f={f} sum", layer_sum=total, closed=hilbert_pi(ctx).closed)

    return [_check("split-ni", f"f={f} layers and their sum", layers(f)) for f in range(1, fmax + 1)]


def _summand_profiles(ctx: GaloisContext, spec: SubquotientSpec) -> list[str]:
    """Profiles with a nonzero window summand: the window levels plus those feeding level i0 + 1."""
    want = []
    for lam in enumerate_profiles(ctx, "P"):
        st = profile_stats(ctx, lam)
        if spec.i0 < st.ell <= spec.i0p or 0 <= spec.i0 + 1 - st.ell <= (st.j1 | st.j2).bit_count():
            want.append(lam)
    return _tags(want)


def suite_gr_subquot(fmax: int = 8, bigraded_fmax: int = 3) -> list[CheckRecord]:
    # the windows of a chain with one or two inner cuts partition the full index set
    def partitions(f):
        for ctx in _nonsplit_contexts(f):
            whole = _tags(i1_invariants(ctx, SubquotientSpec(-1, f)))
            for cuts in (c for r in (1, 2) for c in combinations(range(f), r)):
                chain = (-1, *cuts, f)
                parts = [
                    _tags(lam for lam in i1_invariants(ctx, SubquotientSpec(x, y)) if in_p(ctx, lam))
                    for x, y in zip(chain, chain[1:])
                ]
                yield _same(_case(ctx, chain="<".join(map(str, chain))), parts=sorted(sum(parts, [])), whole=whole)

    out = []
    for f in range(1, fmax + 1):
        windows = _window_cases(_nonsplit_contexts(f))
        out.append(_check("gr-subquot", f"f={f} cardinalities vs degree-0 totals", (
            _same(case, cardinality=i1_cardinality(ctx, spec), degree0_total=i1_degree0_total(ctx, spec))
            for ctx, spec, case in windows
        )))
        out.append(_check("gr-subquot", f"f={f} binomial window", (
            _same(f"f={f} i0={spec.i0} i0p={spec.i0p}", k1_cycle=k1_cycle(f, spec),
                  subsets=sum(1 for mask in range(1 << f) if spec.i0 < bin(mask).count("1") <= spec.i0p))
            for spec in _windows(f)
        )))
        if f <= 4:
            # explicit index sets agree with the histogram counts
            out.append(_check("gr-subquot", f"f={f} explicit index sets", (
                _same(case, index_set=len(i1_invariants(ctx, spec)), cardinality=i1_cardinality(ctx, spec))
                for ctx, spec, case in windows
            )))
            out.append(_check("gr-subquot", f"f={f} window partition", partitions(f)))
    # the per-profile counting against the window tables at small f, split context included
    @cache
    def summary(ctx, spec):  # the two values the checks read, so that no window's tables outlive it
        data = gr_subquotient(ctx, spec, trunc=2)
        return sum(b.total(0) for _, b in data), _tags(lam for lam, b in data if not b.is_zero())

    small = [w for f in range(1, bigraded_fmax + 1) for w in _window_cases(reducible_contexts(f))]
    out.append(_check("gr-subquot", f"degree-0 totals vs tables f<={bigraded_fmax}", (
        _same(case, tables=summary(ctx, spec)[0], degree0_total=i1_degree0_total(ctx, spec))
        for ctx, spec, case in small if ctx.case is Case.NONSPLIT
    )))
    out.append(_check("gr-subquot", f"nonzero summand index sets f<={bigraded_fmax}", (
        _same(case, nonzero=summary(ctx, spec)[1], stated=_summand_profiles(ctx, spec))
        for ctx, spec, case in small
    )))
    return out


def suite_semisimple_match(fmax: int = 4) -> list[CheckRecord]:
    def matches(f):
        for ctx in _nonsplit_contexts(f):
            for i0 in range(-1, f):
                res = semisimple_match(ctx, i0)
                yield (f"J_rho={indices(ctx.j_rho)} i0={i0}", res.bijection_ok and res.hilbert_ok,
                       {"bijection_ok": res.bijection_ok, "hilbert_ok": res.hilbert_ok})

    return [_check("semisimple-match", f"f={f} all J_rho, all i0", matches(f)) for f in range(1, fmax + 1)]


def suite_theta(fmax: int = 3) -> list[CheckRecord]:
    per_degree: dict[tuple, list[int]] = {}  # lattice points by l1 norm, kept by the chain pass

    def chains(f):
        for ctx, lam in _profiles(f):
            for i0 in range(-1, f):
                box = theta_lattice(ctx, lam, i0 + 4, i0)
                counts = per_degree[ctx, lam, i0] = [0] * (i0 + 4)
                for p in box.points:
                    counts[sum(abs(x) for x in p)] += 1
                yield _case(ctx, lam, i0=i0), box.chain_ok, {"no_descent": box.no_descent}

    def against_series(f):
        for ctx, lam in _profiles(f):
            series = expand(hilbert(a_lambda(ctx, lam)), f + 3)
            for i0 in range(-1, f):
                yield _same(_case(ctx, lam, i0=i0), lattice=per_degree.pop((ctx, lam, i0)), series=series[: i0 + 4])

    out = []
    for f in range(1, fmax + 1):
        out.append(_check("theta", f"f={f} descent chains", chains(f)))
        out.append(_check("theta", f"f={f} lattice counts vs series", against_series(f)))
    return out


def suite_xcounts(fmax: int = 4) -> list[CheckRecord]:
    """Shell sizes around each P-profile, and its window V_chi against the union of shifted windows."""
    def shells(f):
        for ctx, lam in _profiles(f):
            r = x_counts(ctx, lam)
            yield _case(ctx, lam), r.ok, {"shells": (r.x0, r.x1, r.x2), "closed": r.expected}
            yield _same(f"{_case(ctx, lam)} V_chi", window=sorted(map(indices, character_window(ctx, lam))),
                        union=sorted(map(indices, v_chi_from_windows(ctx, lam))))

    return [_check("xcounts", f"f={f} shell sizes", shells(f)) for f in range(1, fmax + 1)]


def suite_degenerates(fmax: int = 12, rank_fmax: int = 3) -> list[CheckRecord]:
    def ranks(f):
        for ctx, lam in _profiles(f):
            r = tor1_gr(ctx, lam)
            yield _case(ctx, lam), r.ok, {"ranks": _ranks(r), "closed": r.expected}

    out = [_check("degenerates", f"aggregate identity f<={fmax}", (
        _same(f"f={f} k={k}", gr_formula=gr_formula(f, k), shell_aggregate=shell_aggregate(f, k))
        for f in range(1, fmax + 1) for k in range(f + 1)
    ))]
    out += [_check("degenerates", f"f={f} truncated rank data", ranks(f)) for f in range(1, rank_fmax + 1)]
    return out


def suite_tor(kmax: int = 5, ext_fmax: int = 3, corpus_fmax: int = 3) -> list[CheckRecord]:
    def pairing():
        for k in range(1, kmax + 1):
            pure = pairing_ideal(k, (1 << k) - 1, 0)
            want = [stanley_reisner_closed(k, i) for i in range(2 * k + 1)]
            for name, oracle in (("taylor", taylor_profile), ("hochster", hochster_profile)):
                got = oracle(pure)
                yield f"k={k} {name}", profiles_agree(got, want), {name: got, "closed": want}

    def ext():
        for f in range(1, ext_fmax + 1):
            for k in range(f + 1):
                r = ext_dims(f, k)
                yield f"f={f} k={k}", r.ok, {"closed": r.closed, "oracle": r.oracle, "convolution": r.convolution}

    def ext_identity():
        for f in range(1, 13):
            for k in range(f + 1):
                e = ext_closed(f, k)
                yield _same(f"f={f} k={k}", lower_bound=ext1_lower_bound(f, k), from_ext=2 * f * e[1] - e[2])

    def corpus():
        seen: set[tuple] = set()
        for f in range(1, corpus_fmax + 1):
            for ctx, lam in _profiles(f):
                ideal = a_lambda(ctx, lam)
                key = (ideal.ambient, ideal.gens)
                if key in seen:
                    continue
                seen.add(key)
                tay, hoch = taylor_profile(ideal), hochster_profile(ideal)
                yield _case(ctx, lam), profiles_agree(tay, hoch), {"taylor": tay, "hochster": hoch}

    return [
        _check("tor", f"pairing-ideal closed form k<={kmax}", pairing()),
        _check("tor", f"padded Ext dims f<={ext_fmax}", ext()),
        _check("tor", "Ext lower-bound identity f<=12", ext_identity()),
        _check("tor", f"dual oracles agree on ideal corpus f<={corpus_fmax}", corpus()),
    ]


def suite_patched(fmax: int = 4) -> list[CheckRecord]:
    def intersections(f):
        seen: set[tuple] = set()
        for ctx, lam in _profiles(f):
            key = (ctx.j_rho, j_dprime(ctx, lam))
            if key in seen:
                continue
            seen.add(key)
            inter, expected = patched_ideals(ctx, lam)
            yield _same(_case(ctx, lam), intersection=list(inter.gens), expected=list(expected.gens))

    return [_check("patched", f"f={f} intersection generators", intersections(f)) for f in range(1, fmax + 1)]


#: the highest stored degree in which the window presentation is checked
PRESENTATION_DMAX = 3


def _presentation_dims(ctx: GaloisContext, lam: WeightProfile, i0: int) -> tuple[list[int], list[int]]:
    """Per degree up to ``PRESENTATION_DMAX``, the window presentation's kernel and its relations' span.

    The free module on the degree-d products maps onto the window over the
    quotient ring; the kernel in stored degrees <= ``PRESENTATION_DMAX`` must
    be spanned by the degree-1 relations (kill the paired variable, exchange
    across a (d+1)-subset).
    """
    f = ctx.f
    st = profile_stats(ctx, lam)
    d = d_shift(st, i0)
    pool = indices(st.j1 | st.j2)
    if d < 1 or d > len(pool):
        return [], []
    base = a_lambda(ctx, lam)
    gens = [mask_of(s) for s in combinations(pool, d)]
    gen_index = {J: gi for gi, J in enumerate(gens)}
    p_gens = [p_monomial(f, st, J) for J in gens]
    var = {j: p_monomial(f, st, 1 << j) for j in pool}

    def partner(j: int) -> Monomial:  # z_j for y_j on J1, y_j for z_j on J2
        return paired(f, 1 << j & st.j2, 1 << j & st.j1)

    std = standard_monomials(base, PRESENTATION_DMAX)

    relations: list[dict[tuple[int, Monomial], int]] = []
    for gi, J in enumerate(gens):
        for j in indices(J):
            relations.append({(gi, partner(j)): 1})
    for sub in combinations(pool, d + 1):
        Jp = mask_of(sub)
        for a, b in combinations(sub, 2):
            relations.append({(gen_index[Jp & ~(1 << a)], var[a]): 1, (gen_index[Jp & ~(1 << b)], var[b]): -1})

    kernel_dims, span_dims = [], []
    for deg in range(PRESENTATION_DMAX + 1):
        cols = [(gi, m) for gi in range(len(gens)) for m in std[deg]]
        col_index = {c: i for i, c in enumerate(cols)}
        # column (gi, m) maps to m * p(gens[gi]) in the quotient ring: one monomial or zero,
        # so the image's rank is the number of distinct nonzero monomials
        images = {prod for gi, m in cols if not base.member(prod := m * p_gens[gi])}
        kernel_dims.append(len(cols) - len(images))
        # span of relation multiples in this degree
        span_rows = []
        for rel in relations:
            for m in std[deg - 1] if deg >= 1 else []:
                # a product outside the ideal is a standard monomial of degree deg, so it has a column
                row: dict[int, int] = {}
                for (gi, v), c in rel.items():
                    prod = m * v
                    if not base.member(prod):
                        i = col_index[gi, prod]
                        row[i] = row.get(i, 0) + c
                if row:
                    span_rows.append(row)
        span_dims.append(exact_rank(span_rows))
    return kernel_dims, span_dims


def suite_pbw(fmax: int = 6, syzygy_fmax: int = 3) -> list[CheckRecord]:
    # confluence and associativity of the closed-form product on degree-1 elements, at n = 4 so that three factors
    # survive; the record's name stays "straightening ..." so that verify JSON reports remain comparable
    def products():
        for f in (1, 2):
            y = {tuple([1 if i == 0 else 0 for i in range(3 * f)]): 1}
            z = {tuple([1 if i == f else 0 for i in range(3 * f)]): 1}
            yield _same(f"f={f} z*y*z", left=pbw_mul(pbw_mul(z, y, f, 4), z, f, 4),
                        right=pbw_mul(z, pbw_mul(y, z, f, 4), f, 4))
            gens = [{m: 1} for m in pbw_basis(f, 3) if mono_degree(m, f) == 1]
            for i, j, k in product(range(len(gens)), repeat=3):
                a, b, c = gens[i], gens[j], gens[k]
                yield _same(f"f={f} generators {i},{j},{k}", left=pbw_mul(pbw_mul(a, b, f, 4), c, f, 4),
                            right=pbw_mul(a, pbw_mul(b, c, f, 4), f, 4))

    def relations():
        for f in range(1, syzygy_fmax + 1):
            for ctx in _nonsplit_contexts(f):
                for lam in enumerate_profiles(ctx, "P"):
                    for i0 in range(-1, f):
                        kernel, span = _presentation_dims(ctx, lam, i0)
                        yield _same(_case(ctx, lam, i0=i0), kernel_dims=kernel, relation_span_dims=span)

    # ranks are blind to swapping the y/z roles at any coordinate
    def sides():
        ctx = nonsplit_context(2, [0])
        for lam in enumerate_profiles(ctx, "P"):
            right, left = tor1_gr(ctx, lam, "right"), tor1_gr(ctx, lam, "left")
            yield (_case(ctx, lam), right.ok and _ranks(right) == _ranks(left),
                   {"right": _ranks(right), "left": _ranks(left), "right_matches_closed_forms": right.ok})

    return [
        _check("pbw", f"degree-3 dimension f<={fmax}", (
            _same(f"f={f}", dimension=len(pbw_basis(f, 3)), closed=2 * f * f + 4 * f + 1) for f in range(1, fmax + 1)
        )),
        _check("pbw", "straightening confluence and associativity", products()),
        _check("pbw", f"window presentation relations f<={syzygy_fmax}", relations()),
        _check("pbw", "side convention is rank-neutral", sides()),
    ]


SUITES: dict[str, Callable[..., list[CheckRecord]]] = {
    "hilbert": suite_hilbert,
    "split-ni": suite_split_ni,
    "gr-subquot": suite_gr_subquot,
    "semisimple-match": suite_semisimple_match,
    "theta": suite_theta,
    "xcounts": suite_xcounts,
    "degenerates": suite_degenerates,
    "tor": suite_tor,
    "patched": suite_patched,
    "pbw": suite_pbw,
}

#: largest scale override a suite takes: the largest f at which the suite
#: finished within 30 s, half the 60 s ``verify --all`` budget, so that a host
#: 1.6 times slower still meets it.  One fresh process each, on one core of a
#: shared 2-vCPU x86-64 host, Python 3.11; the next f tried in parentheses:
#:   hilbert 7: 5.2 s (8: 32-37 s)           split-ni 10: 12 s (the profile cap)
#:   gr-subquot 10: 13 s (the profile cap)   semisimple-match 5: 13 s (6: over 45 s)
#:   theta 4: 3.8 s (5: over 45 s)           xcounts 5: 1.3 s (6: 8.6 s)
#:   degenerates 3750: 25 s (4000: 29-30 s)  patched 6: 14 s (7: over 45 s)
#:   pbw 66: 7.1 s (not yet raised)          tor 6: 0.3 s, where Hochster's
#: formula on the pairing ideal's 2k vertices reaches ``VERTEX_CAP``.
SCALE_CAP: dict[str, int] = {
    "hilbert": 7, "split-ni": PROFILE_F_CAP, "gr-subquot": PROFILE_F_CAP, "semisimple-match": 5, "theta": 4,
    "xcounts": 5, "degenerates": 3750, "tor": VERTEX_CAP // 2, "patched": 6, "pbw": 66,
}


def run_suites(names: list[str], fmax: int | None = None) -> list[CheckRecord]:
    """Run the named suites, ``fmax`` replacing each one's first scale; every scale is checked first."""
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; the suites are {', '.join(sorted(SUITES))}")
        if fmax is not None and fmax < 1:
            raise ValueError(f"scale f must be at least 1, got {fmax}")
        if fmax is not None and fmax > SCALE_CAP[name]:
            raise SizeLimitError(f"suite {name} takes a scale of at most {SCALE_CAP[name]}, got {fmax}")
    out = []
    for name in names:
        out += SUITES[name]() if fmax is None else SUITES[name](fmax)
    return out
