"""Named verification suites used by the CLI and the acceptance tests.

Each suite returns per-check records; the CLI maps them to exit codes.
Default scales are chosen so that the full run stays within a minute on
one core; the acceptance tests drive the larger stated ranges directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Iterator

from .errors import SizeLimitError
from .homology import (
    TAYLOR_CAP,
    ext1_identity_ok,
    ext_dims,
    hochster_profile,
    pairing_ideal,
    profiles_agree,
    stanley_reisner_closed,
    taylor_profile,
)
from .ideals import (
    Monomial,
    a_lambda,
    d_shift,
    hilbert,
    patched_intersection_check,
    y_var,
    z_var,
)
from .linalg import exact_rank
from .pbw import mono_degree, pbw_basis, pbw_mul, tor1_gr
from .predictions import (
    THETA_BOX_CAP,
    SubquotientSpec,
    degenerates_check,
    gr_subquotient,
    hilbert_Ni,
    hilbert_pi,
    i1_cardinality,
    i1_degree0_total,
    i1_invariants,
    k1_cycle,
    semisimple_match,
    theta_lattice,
    x_counts,
)
from .series import IntPoly, expand
from .weights import (
    PROFILE_F_CAP,
    Case,
    GaloisContext,
    WeightProfile,
    count_by_A,
    enumerate_profiles,
    in_p,
    length_witnesses,
    nonsplit_context,
    profile_stats,
    split_context,
)


@dataclass(frozen=True)
class CheckRecord:
    suite: str
    check: str
    ok: bool
    detail: str = ""


def reducible_contexts(f: int) -> Iterator[GaloisContext]:
    """The split context and every proper-subset nonsplit context."""
    yield split_context(f)
    for r in range(f):
        for sub in combinations(range(f), r):
            yield nonsplit_context(f, frozenset(sub))


def all_contexts(f: int) -> Iterator[GaloisContext]:
    yield GaloisContext(f, Case.IRREDUCIBLE)
    yield from reducible_contexts(f)


def _ctx_name(ctx: GaloisContext) -> str:
    if ctx.case is Case.IRREDUCIBLE:
        return f"f={ctx.f} irreducible"
    if ctx.case is Case.SPLIT:
        return f"f={ctx.f} split"
    return f"f={ctx.f} nonsplit J_rho={sorted(ctx.j_rho)}"


# -- suites ----------------------------------------------------------------

def suite_hilbert(fmax: int = 5) -> list[CheckRecord]:
    out = []
    for f in range(1, fmax + 1):
        for ctx in all_contexts(f):
            res = hilbert_pi(ctx)
            t0 = res.closed.at_zero()
            if ctx.case is Case.IRREDUCIBLE:
                want0 = 3**f - 1
            elif ctx.case is Case.SPLIT:
                want0 = 3**f + 1
            else:
                want0 = 2 ** (f - ctx.d_rho) * 3**ctx.d_rho
            ok = res.equal and t0 == want0
            out.append(CheckRecord("hilbert", _ctx_name(ctx), ok, f"t=0 value {t0}"))
            counts = count_by_A(ctx)
            out.append(CheckRecord("hilbert", f"{_ctx_name(ctx)} |A|-counts", counts.ok))
    # binomial identities behind the closed numerators
    ok = True
    for n in range(13):
        two_px = IntPoly.of(2, 1) ** n
        two_mx = IntPoly.of(2, -1) ** n
        odd = IntPoly.zero()
        even = IntPoly.zero()
        for i in range(n + 1):
            term = IntPoly.t_power(i, comb(n, i) * 2 ** (n - i))
            if i % 2:
                odd = odd + term
            else:
                even = even + term
        ok = ok and (two_px - two_mx == odd.scale(2)) and (two_px + two_mx == even.scale(2))
    out.append(CheckRecord("hilbert", "binomial identities n<=12", ok))
    # witnesses outside P at every positive level
    ok = True
    for f in range(1, min(fmax, 6) + 1):
        for ctx in reducible_contexts(f):
            if ctx.case is not Case.NONSPLIT:
                continue
            found = length_witnesses(ctx)
            ok = ok and all(kk in found for kk in range(1, f + 1))
    out.append(CheckRecord("hilbert", "levels outside P witnessed", ok))
    return out


def suite_split_ni(fmax: int = 5) -> list[CheckRecord]:
    out = []
    for f in range(1, fmax + 1):
        ctx = split_context(f)
        total = None
        ok = True
        for i in range(f + 1):
            res = hilbert_Ni(ctx, i)
            ok = ok and res.equal
            total = res.closed if total is None else total + res.closed
        ok = ok and total == hilbert_pi(ctx).closed
        out.append(CheckRecord("split-ni", f"f={f} layers and their sum", ok))
    return out


def suite_gr_subquot(fmax: int = 8, bigraded_fmax: int = 3) -> list[CheckRecord]:
    out = []
    for f in range(1, fmax + 1):
        ok_cards = True
        ok_k1 = True
        ok_partition = True
        ok_sets = True
        for ctx in reducible_contexts(f):
            if ctx.case is not Case.NONSPLIT:
                continue
            for i0 in range(-1, f):
                for i0p in range(i0 + 1, f + 1):
                    spec = SubquotientSpec(i0, i0p)
                    ok_cards = ok_cards and i1_cardinality(ctx, spec) == i1_degree0_total(ctx, spec)
                    ok_k1 = ok_k1 and k1_cycle(f, spec) == sum(
                        comb(f, i) for i in range(i0 + 1, i0p + 1)
                    )
            if f <= 4:
                # explicit index sets agree with the histogram counts
                for i0 in range(-1, f):
                    for i0p in range(i0 + 1, f + 1):
                        spec = SubquotientSpec(i0, i0p)
                        ok_sets = ok_sets and len(i1_invariants(ctx, spec)) == i1_cardinality(ctx, spec)
                # windows along a chain partition the full index set
                for a in range(0, f):
                    for b in range(a + 1, f):
                        parts = [
                            {lam for lam in i1_invariants(ctx, SubquotientSpec(x, y)) if in_p(ctx, lam)}
                            for x, y in ((-1, a), (a, b), (b, f))
                        ]
                        whole = set(i1_invariants(ctx, SubquotientSpec(-1, f)))
                        union = parts[0] | parts[1] | parts[2]
                        disjoint = sum(len(p) for p in parts) == len(union)
                        ok_partition = ok_partition and union == whole and disjoint
        out.append(CheckRecord("gr-subquot", f"f={f} cardinalities vs degree-0 totals", ok_cards))
        out.append(CheckRecord("gr-subquot", f"f={f} binomial window", ok_k1))
        if f <= 4:
            out.append(CheckRecord("gr-subquot", f"f={f} explicit index sets", ok_sets))
            out.append(CheckRecord("gr-subquot", f"f={f} window partition", ok_partition))
    # the per-profile counting against the window tables at small f
    ok = True
    ok_index = True
    for f in range(1, bigraded_fmax + 1):
        for ctx in reducible_contexts(f):
            if ctx.case is not Case.NONSPLIT:
                continue
            for i0 in range(-1, f):
                for i0p in range(i0 + 1, f + 1):
                    spec = SubquotientSpec(i0, i0p)
                    data = gr_subquotient(ctx, spec, trunc=2)
                    total = sum(b.total(0) for _, b in data)
                    ok = ok and total == i1_degree0_total(ctx, spec)
                    # profiles with a nonzero summand: the window levels plus
                    # those feeding the matching at level i0 + 1
                    nonzero = {lam for lam, b in data if not b.is_zero()}
                    want = set()
                    for lam in enumerate_profiles(ctx, "P"):
                        st = profile_stats(ctx, lam)
                        if i0 < st.ell <= i0p:
                            want.add(lam)
                        if 0 <= i0 + 1 - st.ell <= len(st.j1 | st.j2):
                            want.add(lam)
                    ok_index = ok_index and nonzero == want
    out.append(CheckRecord("gr-subquot", f"degree-0 totals vs tables f<={bigraded_fmax}", ok))
    out.append(CheckRecord("gr-subquot", f"nonzero summand index sets f<={bigraded_fmax}", ok_index))
    return out


def suite_semisimple_match(fmax: int = 4) -> list[CheckRecord]:
    out = []
    for f in range(1, fmax + 1):
        detail = ""
        for ctx in reducible_contexts(f):
            if ctx.case is not Case.NONSPLIT:
                continue
            for i0 in range(-1, f):
                res = semisimple_match(ctx, i0)
                if not detail and not (res.bijection_ok and res.hilbert_ok):
                    detail = (f"first failure J_rho={sorted(ctx.j_rho)} i0={i0}: "
                              f"bijection_ok={res.bijection_ok} hilbert_ok={res.hilbert_ok}")
        out.append(CheckRecord("semisimple-match", f"f={f} all J_rho, all i0", not detail, detail))
    return out


def suite_theta(fmax: int = 4) -> list[CheckRecord]:
    out = []
    for f in range(1, fmax + 1):
        ok_chain = True
        ok_tau = True
        for ctx in reducible_contexts(f):
            for lam in enumerate_profiles(ctx, "P"):
                series = expand(hilbert(a_lambda(ctx, lam)), f + 3)
                for i0 in range(-1, f):
                    n = i0 + 4
                    box = theta_lattice(ctx, lam, n, i0)
                    ok_chain = ok_chain and box.chain_ok
                    per_degree = [0] * n
                    for p in box.points:
                        per_degree[sum(abs(x) for x in p)] += 1
                    ok_tau = ok_tau and per_degree == series[:n]
        out.append(CheckRecord("theta", f"f={f} descent chains", ok_chain))
        out.append(CheckRecord("theta", f"f={f} lattice counts vs series", ok_tau))
    return out


def suite_xcounts(fmax: int = 5) -> list[CheckRecord]:
    out = []
    for f in range(1, fmax + 1):
        ok = True
        for ctx in reducible_contexts(f):
            for lam in enumerate_profiles(ctx, "P"):
                ok = ok and x_counts(ctx, lam).ok
        out.append(CheckRecord("xcounts", f"f={f} shell sizes", ok))
    return out


def suite_degenerates(fmax: int = 12, rank_fmax: int = 3) -> list[CheckRecord]:
    out = []
    ok = all(
        degenerates_check(f, k) for f in range(1, fmax + 1) for k in range(f + 1)
    )
    out.append(CheckRecord("degenerates", f"aggregate identity f<={fmax}", ok))
    for f in range(1, rank_fmax + 1):
        ok = True
        for ctx in reducible_contexts(f):
            for lam in enumerate_profiles(ctx, "P"):
                ok = ok and tor1_gr(ctx, lam).ok
        out.append(CheckRecord("degenerates", f"f={f} truncated rank data", ok))
    return out


def suite_tor(kmax: int = 5, ext_fmax: int = 3, corpus_fmax: int = 3) -> list[CheckRecord]:
    out = []
    ok = True
    for k in range(1, kmax + 1):
        pure = pairing_ideal(k)
        want = [stanley_reisner_closed(k, i) for i in range(2 * k + 1)]
        ok = ok and profiles_agree(taylor_profile(pure), want) and profiles_agree(hochster_profile(pure), want)
    out.append(CheckRecord("tor", f"pairing-ideal closed form k<={kmax}", ok))
    ok = all(ext_dims(f, k).ok for f in range(1, ext_fmax + 1) for k in range(f + 1))
    out.append(CheckRecord("tor", f"padded Ext dims f<={ext_fmax}", ok))
    ok = all(ext1_identity_ok(f, k) for f in range(1, 13) for k in range(f + 1))
    out.append(CheckRecord("tor", "Ext lower-bound identity f<=12", ok))
    ok = True
    seen: set[tuple] = set()
    for f in range(1, corpus_fmax + 1):
        for ctx in reducible_contexts(f):
            for lam in enumerate_profiles(ctx, "P"):
                ideal = a_lambda(ctx, lam)
                key = (ideal.ambient, ideal.gens)
                if key in seen:
                    continue
                seen.add(key)
                if not profiles_agree(taylor_profile(ideal), hochster_profile(ideal)):
                    ok = False
    out.append(CheckRecord("tor", f"dual oracles agree on ideal corpus f<={corpus_fmax}", ok))
    return out


def suite_patched(fmax: int = 4) -> list[CheckRecord]:
    out = []
    for f in range(1, fmax + 1):
        ok = True
        seen: set[tuple] = set()
        for ctx in reducible_contexts(f):
            for lam in enumerate_profiles(ctx, "P"):
                key = (
                    tuple(sorted(ctx.j_rho)),
                    tuple(sorted(j for j in ctx.j_rho if lam.entries[j].value in ("X1", "P2"))),
                )
                if key in seen:
                    continue
                seen.add(key)
                ok = ok and patched_intersection_check(ctx, lam)
        out.append(CheckRecord("patched", f"f={f} intersection generators", ok))
    return out


def _relations_generate_kernel(ctx: GaloisContext, lam: WeightProfile, i0: int, dmax: int = 3) -> bool:
    """Brute-force the window presentation's kernel against the listed relations.

    The free module on the degree-d products maps onto the window over the
    quotient ring; the kernel in stored degrees <= dmax must be spanned by
    the degree-1 relations (kill the paired variable, exchange across a
    (d+1)-subset).
    """
    f = ctx.f
    st = profile_stats(ctx, lam)
    d = d_shift(st, i0)
    pool = sorted(st.j1 | st.j2)
    if d < 1 or d > len(pool):
        return True
    base = a_lambda(ctx, lam)
    gens = [frozenset(s) for s in combinations(pool, d)]

    def var_mono(j: int, in_j1: bool) -> Monomial:
        return y_var(f, j) if in_j1 else z_var(f, j)

    def p_mono(J: frozenset[int]) -> Monomial:
        m = Monomial.one(2 * f)
        for j in J:
            m = m * var_mono(j, j in st.j1)
        return m

    def partner(j: int) -> Monomial:
        return z_var(f, j) if j in st.j1 else y_var(f, j)

    # standard monomials of the quotient ring, by degree
    std: dict[int, list[Monomial]] = {dd: [] for dd in range(dmax + 1)}

    def rec(idx: int, exps: list[int], deg: int):
        if idx == 2 * f:
            m = Monomial(tuple(exps))
            if not base.member(m):
                std[deg].append(m)
            return
        for e in range(dmax - deg + 1):
            exps.append(e)
            rec(idx + 1, exps, deg + e)
            exps.pop()

    rec(0, [], 0)

    relations: list[dict[tuple[int, Monomial], int]] = []
    for gi, J in enumerate(gens):
        for j in J:
            relations.append({(gi, partner(j)): 1})
    for sub in combinations(pool, d + 1):
        Jp = frozenset(sub)
        members = sorted(Jp)
        for a, b in combinations(members, 2):
            ga = gens.index(Jp - {a})
            gb = gens.index(Jp - {b})
            relations.append(
                {(ga, var_mono(a, a in st.j1)): 1, (gb, var_mono(b, b in st.j1)): -1}
            )

    ok = True
    for deg in range(dmax + 1):
        cols = [(gi, m) for gi in range(len(gens)) for m in std[deg]]
        col_index = {c: i for i, c in enumerate(cols)}
        # image basis: map (gi, m) to m * p_gens[gi] in the quotient ring
        img_index: dict[tuple[int, ...], int] = {}
        rows = []
        for gi, m in cols:
            prod = m * p_mono(gens[gi])
            if base.member(prod):
                rows.append({})
            else:
                idx = img_index.setdefault(prod.exps, len(img_index))
                rows.append({idx: 1})
        kernel_dim = len(cols) - exact_rank(r for r in rows if r)
        # span of relation multiples in this degree
        span_rows = []
        for rel in relations:
            for m in std[deg - 1] if deg >= 1 else []:
                row: dict[int, int] = {}
                dead = False
                for (gi, v), c in rel.items():
                    prod = m * v
                    if base.member(prod):
                        continue
                    key = (gi, prod)
                    if key not in col_index:
                        dead = True
                        break
                    row[col_index[key]] = row.get(col_index[key], 0) + c
                if not dead and row:
                    span_rows.append(row)
        span_dim = exact_rank(span_rows)
        ok = ok and kernel_dim == span_dim
    return ok


def suite_pbw(fmax: int = 6, syzygy_fmax: int = 3) -> list[CheckRecord]:
    out = []
    ok = all(len(pbw_basis(f, 3)) == 2 * f * f + 4 * f + 1 for f in range(1, fmax + 1))
    out.append(CheckRecord("pbw", f"degree-3 dimension f<={fmax}", ok))

    # confluence of straightening and associativity on degree-1 elements
    ok = True
    for f in (1, 2):
        y = {tuple(1 if i == 0 else 0 for i in range(3 * f)): 1}
        z = {tuple(1 if i == f else 0 for i in range(3 * f)): 1}
        ok = ok and pbw_mul(pbw_mul(z, y, f, 3), z, f, 3) == pbw_mul(z, pbw_mul(y, z, f, 3), f, 3)
        gens = [
            {m: 1}
            for m in pbw_basis(f, 3)
            if mono_degree(m, f) == 1
        ]
        for a in gens[: 2 * f]:
            for b in gens[: 2 * f]:
                for c in gens[: 2 * f]:
                    lhs = pbw_mul(pbw_mul(a, b, f, 3), c, f, 3)
                    rhs = pbw_mul(a, pbw_mul(b, c, f, 3), f, 3)
                    ok = ok and lhs == rhs
    out.append(CheckRecord("pbw", "straightening confluence and associativity", ok))

    ok = True
    for f in range(1, syzygy_fmax + 1):
        for ctx in reducible_contexts(f):
            if ctx.case is not Case.NONSPLIT:
                continue
            for lam in enumerate_profiles(ctx, "P"):
                for i0 in range(-1, f):
                    ok = ok and _relations_generate_kernel(ctx, lam, i0)
    out.append(CheckRecord("pbw", f"window presentation relations f<={syzygy_fmax}", ok))

    # ranks are blind to swapping the y/z roles at any coordinate
    ok = True
    ctx = nonsplit_context(2, [0])
    for lam in enumerate_profiles(ctx, "P"):
        right = tor1_gr(ctx, lam, "right")
        left = tor1_gr(ctx, lam, "left")
        ok = ok and right.ok and (right.dim_im_d1, right.dim_ker_d1, right.dim_im_d2) == (
            left.dim_im_d1,
            left.dim_ker_d1,
            left.dim_im_d2,
        )
    out.append(CheckRecord("pbw", "side convention is rank-neutral", ok))
    return out


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

#: per-suite default scale used by `verify --all`; chosen for the 60 s budget
DEFAULT_SCALE: dict[str, dict] = {
    "hilbert": {"fmax": 5},
    "split-ni": {"fmax": 5},
    "gr-subquot": {"fmax": 8, "bigraded_fmax": 3},
    "semisimple-match": {"fmax": 4},
    "theta": {"fmax": 3},
    "xcounts": {"fmax": 4},
    "degenerates": {"fmax": 12, "rank_fmax": 3},
    "tor": {"kmax": 5, "ext_fmax": 3, "corpus_fmax": 3},
    "patched": {"fmax": 4},
    "pbw": {"fmax": 6, "syzygy_fmax": 3},
}


#: largest scale override a suite takes: those that list profiles stop at the
#: profile cap, theta where its largest box (2f + 5)^f outgrows the lattice
#: cap, and tor where the pairing ideal's k + C(k, 2) generators pass the Taylor cap
SCALE_CAP: dict[str, int] = {
    **dict.fromkeys(("hilbert", "split-ni", "gr-subquot", "semisimple-match", "xcounts", "patched"), PROFILE_F_CAP),
    "theta": max(f for f in range(1, PROFILE_F_CAP + 1) if (2 * f + 5) ** f <= THETA_BOX_CAP),
    "tor": max(k for k in range(1, TAYLOR_CAP + 1) if k + comb(k, 2) <= TAYLOR_CAP),
}


def run_suites(names: list[str], fmax: int | None = None) -> list[CheckRecord]:
    """Run the named suites, ``fmax`` replacing each one's first scale; every scale is checked first."""
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        if fmax is not None and fmax < 1:
            raise ValueError(f"scale f must be at least 1, got {fmax}")
        if fmax is not None and fmax > SCALE_CAP.get(name, fmax):
            raise SizeLimitError(f"suite {name} takes a scale of at most {SCALE_CAP[name]}, got {fmax}")
    out = []
    for name in names:
        kwargs = dict(DEFAULT_SCALE[name])
        if fmax is not None:
            first = next(iter(kwargs))
            kwargs[first] = fmax
        out += SUITES[name](**kwargs)
    return out
