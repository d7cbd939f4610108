import gc
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from serrecalc import ideals
from serrecalc.ideals import (
    Monomial,
    MonomialIdeal,
    Packing,
    a1,
    a_lambda,
    a_ss,
    bigraded_difference,
    d_shift,
    hilbert,
    ideal_from_pairs,
    numerator,
    p_monomial,
    paired,
    patched_ideals,
    standard_counts_naive,
    standard_monomials,
)
from serrecalc.homology import taylor_profile
from serrecalc.pbw import pbw_basis
from serrecalc.predictions import (
    SubquotientSpec,
    _lambda_prime,
    default_trunc,
    gr_subquotient,
    semisimple_match,
    x_counts,
)
from serrecalc.series import CharOffset, IntPoly, RationalSeries, expand
from serrecalc.verify import _presentation_dims, reducible_contexts
from serrecalc.weights import (
    WeightProfile,
    _pss_list,
    enumerate_profiles,
    indices,
    nonsplit_context,
    profile_stats,
    split_context,
)


def prof(*tags):
    return WeightProfile.from_tags(tags)


def mono(*exps):
    return Monomial(tuple(exps))


def test_minimal_generators():
    ideal = MonomialIdeal(2, (mono(1, 1), mono(1, 0), mono(2, 1)))
    assert ideal.gens == (mono(1, 0),)
    ideal = MonomialIdeal(2, (mono(0, 2), mono(1, 1)))
    assert ideal.gens == (mono(1, 1), mono(0, 2))


def test_membership():
    ideal = MonomialIdeal(2, (mono(1, 1),))
    assert ideal.member(mono(2, 1))
    assert not ideal.member(mono(3, 0))


def test_a_lambda_examples():
    split1 = split_context(1)
    assert a_lambda(split1, prof("X0")).gens == (mono(0, 1),)
    ns1 = nonsplit_context(1, [])
    assert a_lambda(ns1, prof("X0")).gens == (mono(1, 1),)
    ns2 = nonsplit_context(2, [0])
    got = a_lambda(ns2, prof("X0", "X0"))
    assert got.gens == (mono(0, 1, 0, 0), mono(0, 0, 1, 1))


def test_a_lambda_rejects_outside_p():
    ns2 = nonsplit_context(2, [0])
    with pytest.raises(ValueError, match="is not in P for this context$"):
        a_lambda(ns2, prof("X0", "X2"))


def test_a1_examples():
    ns2 = nonsplit_context(2, [0])
    lam = prof("X0", "X0")
    # i + 1 <= |J_lambda| gives the unit ideal
    assert a1(ns2, prof("X1", "P2"), 0).is_unit()
    got = a1(ns2, lam, 0)
    assert got.gens == (mono(0, 1, 0, 0), mono(0, 0, 0, 1))
    assert a1(ns2, lam, 1) == a_lambda(ns2, lam)


@pytest.mark.parametrize("f", range(1, 4))
def test_a1_nesting(f):
    from serrecalc.verify import reducible_contexts

    for ctx in reducible_contexts(f):
        for lam in enumerate_profiles(ctx, "P"):
            assert a1(ctx, lam, -1).is_unit()
            assert a1(ctx, lam, f) == a_lambda(ctx, lam)
            for i in range(-1, f):
                assert all(map(a1(ctx, lam, i).member, a1(ctx, lam, i + 1).gens))


def _written(f: int, ys: list[int], zs: list[int]) -> Monomial:
    """The product of y_j over ys and z_j over zs, laid out here (y_j at 2j, z_j at 2j + 1), not by ideals.paired."""
    exps = [0] * (2 * f)
    for j in ys:
        exps[2 * j] = 1
    for j in zs:
        exps[2 * j + 1] = 1
    return Monomial(tuple(exps))


#: t_j per tag inside J_rho (y_j, z_j or y_j z_j); t_j = y_j z_j outside it
T_RULE = {"X2": "Y", "P1": "Y", "X0": "Z", "P3": "Z", "X1": "YZ", "P2": "YZ"}


@pytest.mark.parametrize("f", range(1, 5))
def test_family_monomials_put_y_j_at_2j_and_z_j_at_2j_plus_1(f):
    """a1's gens and every p(J') against exponent tuples written from the tags and the J1, J2 masks."""
    for ctx in reducible_contexts(f):
        for lam in enumerate_profiles(ctx, "P"):
            st_ = profile_stats(ctx, lam)
            rule = [T_RULE[s] if ctx.j_rho >> j & 1 else "YZ" for j, s in enumerate(lam.tags())]
            t = [_written(f, [j] * ("Y" in g), [j] * ("Z" in g)) for j, g in enumerate(rule)]
            j1, j2 = indices(st_.j1), indices(st_.j2)
            p = {sub: _written(f, [j for j in sub if j in j1], [j for j in sub if j in j2])
                 for r in range(len(j1) + len(j2) + 1) for sub in combinations(sorted(j1 + j2), r)}
            for sub, m in p.items():
                assert p_monomial(f, st_, sum(1 << j for j in sub)) == m, (ctx, lam, sub)
            for i in range(-1, f + 1):
                d = max(i + 1 - st_.ell, 0)
                gens = [m for sub, m in p.items() if len(sub) == d] + t  # the unit p(empty set) at d = 0
                assert a1(ctx, lam, i).gens == MonomialIdeal(2 * f, tuple(gens)).gens, (ctx, lam, i)


PAIRING_LAYOUTS = {
    # X_j at 2j, Y_j at 2j + 1, Z_m at 2 pairs + m; the Y-pairs over a mask that is not a prefix
    "non-prefix-ys": (3, 0b101, 2, [
        (1, 1, 0, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 0, 0),
        (0, 1, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 0, 1),
    ]),
    "no-y-pairs": (2, 0, 1, [(1, 1, 0, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 0, 1)]),
    "all-y-pairs": (3, 0b111, 0, [
        (1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1),
        (0, 1, 0, 1, 0, 0), (0, 1, 0, 0, 0, 1), (0, 0, 0, 1, 0, 1),
    ]),
    "only-z": (0, 0, 2, [(1, 0), (0, 1)]),
}


@pytest.mark.parametrize("pairs,ys,n_z,want", PAIRING_LAYOUTS.values(), ids=PAIRING_LAYOUTS.keys())
def test_pairing_ideal_layout(pairs, ys, n_z, want):
    """pairing_ideal against exponent tuples written out by hand."""
    ideal = ideals.pairing_ideal(pairs, ys, n_z)
    assert ideal.ambient == 2 * pairs + n_z
    assert sorted(ideal.gens) == sorted(want)


def test_pairing_ideal_refuses_masks_outside_its_pairs():
    for pairs, ys, n_z in ((2, 0b100, 0), (2, -1, 0), (2, 0b11, -1)):
        with pytest.raises(ValueError, match="need ys"):
            ideals.pairing_ideal(pairs, ys, n_z)


def test_intersect_examples():
    ideal = MonomialIdeal(2, (mono(1, 0),))
    assert ideal.intersect(MonomialIdeal(2, (Monomial((0,) * 2),))) == ideal
    a = MonomialIdeal(2, (mono(1, 0),))
    b = MonomialIdeal(2, (mono(0, 1),))
    assert a.intersect(b).gens == (mono(1, 1),)


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(3))).map(Monomial),
        min_size=1,
        max_size=3,
    ),
    st.lists(
        st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(3))).map(Monomial),
        min_size=1,
        max_size=3,
    ),
    st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(3))).map(Monomial),
)
def test_intersect_membership(gens_a, gens_b, m):
    a = MonomialIdeal(3, tuple(gens_a))
    b = MonomialIdeal(3, tuple(gens_b))
    assert a.intersect(b).member(m) == (a.member(m) and b.member(m))
    assert a.intersect(b) == MonomialIdeal(3, tuple(x.lcm(y) for x in a.gens for y in b.gens))  # minimal and sorted


@st.composite
def packed_pair(draw):
    """(values, a, b): a packing's distinct exponents and two vectors of them; k = 2^(w-1) ranks fill each field."""
    k = draw(st.sampled_from([1, 2, 3, 4, 5, 128, 129]) | st.integers(1, 300))
    scale = draw(st.sampled_from([1, 3, 2**64 + 1]))  # exponents beyond 64 bits too
    values = [r * scale for r in range(k)]
    n = draw(st.integers(0, 6))
    field = st.sampled_from([0, values[-1]]) | st.sampled_from(values)
    return values, draw(st.tuples(*[field] * n)), draw(st.tuples(*[field] * n))


@settings(max_examples=300, deadline=None)
@given(packed_pair())
@example(([0], (0, 0, 0), (0, 0, 0)))  # w = 1: the unit monomial
@example(([0, 5], (), ()))  # zero-length vectors
@example((list(range(2**15)), (2**15 - 1, 0), (2**15 - 2, 2**15 - 1)))  # w = 16, fields at 2^(w-1) - 1
@example(([0, 1, 10**3999], (1,) * 20_000, (1,) * 19_999 + (10**3999,)))  # wide rows, one huge exponent: w = 3
def test_packed_lcm_and_divides_match_the_tuple_methods(case):
    values, a, b = case
    pk = Packing(len(a), values)
    assert pk.w == (len(values) - 1).bit_length() + 1
    pa, pb = pk.pack(a), pk.pack(b)
    assert pk.unpack(pa) == a and pk.unpack(pb) == b
    assert pk.unpack(pk.lcm(pa, pb)) == Monomial(a).lcm(Monomial(b))
    assert pk.divides(pa, pb) == Monomial(a).divides(Monomial(b))
    assert pk.divides(pb, pa) == Monomial(b).divides(Monomial(a))
    assert pk.divides(pa, pk.lcm(pa, pb)) and pk.divides(pb, pk.lcm(pa, pb))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 2) | st.integers(0, 2**70)] * 3).map(Monomial), max_size=8))
def test_minimal_generators_match_the_tuple_methods(pool):
    want = sorted({m for m in pool if not any(g.divides(m) and g != m for g in pool)}, key=Monomial.sort_key)
    assert MonomialIdeal(3, tuple(pool)).gens == tuple(want)


def test_hilbert_examples():
    assert hilbert(MonomialIdeal(2, ())) == RationalSeries(IntPoly((1,)), 2)
    got = hilbert(MonomialIdeal(2, (mono(1, 1),)))
    assert got.reduced() == RationalSeries(IntPoly((1, 1)), 1)
    ns2 = nonsplit_context(2, [0])
    got = hilbert(a_lambda(ns2, prof("X0", "X0")))
    assert got.reduced() == RationalSeries(IntPoly((1, 1)), 2)
    assert expand(got, 6) == standard_counts_naive(a_lambda(ns2, prof("X0", "X0")), 6)


@pytest.mark.parametrize("f", range(1, 5))
def test_hilbert_closed_form_per_profile(f):
    from serrecalc.verify import reducible_contexts

    for ctx in reducible_contexts(f):
        for lam in enumerate_profiles(ctx, "P"):
            a = profile_stats(ctx, lam).a_set.bit_count()
            assert hilbert(a_lambda(ctx, lam)).reduced() == RationalSeries(IntPoly((1, 1)) ** a, f)


def test_hilbert_vs_naive_all_window_ideals():
    """Both Hilbert routes agree on every ideal of the family, small f."""
    from serrecalc.verify import reducible_contexts

    seen = set()
    for f in range(1, 4):
        for ctx in reducible_contexts(f):
            for lam in enumerate_profiles(ctx, "P"):
                for i in range(-1, f + 1):
                    ideal = a1(ctx, lam, i)
                    key = (ideal.ambient, ideal.gens)
                    if key in seen:
                        continue
                    seen.add(key)
                    assert expand(hilbert(ideal), 8) == standard_counts_naive(ideal, 8)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(4))).map(Monomial), max_size=7))
def test_numerator_equals_the_full_subset_sum(gens):
    """The pruned subset walk leaves the fine-graded sum over all subsets unchanged."""
    ideal = MonomialIdeal(4, tuple(gens))
    full: dict = {}
    for r in range(len(ideal.gens) + 1):
        for sub in combinations(ideal.gens, r):
            m = Monomial((0,) * 4)
            for g in sub:
                m = m.lcm(g)
            full[m] = full.get(m, 0) + (-1) ** r
    nonzero = lambda acc: {k: v for k, v in acc.items() if v}
    assert nonzero(numerator(ideal, lambda exps: exps)) == nonzero(full)
    assert expand(hilbert(ideal), 6) == standard_counts_naive(ideal, 6)


def test_numerator_walks_few_subsets_of_a_window_ideal(monkeypatch):
    """(y_j z_k products over 2-subsets) + (y_j z_j): 15 generators, 2^15 subsets."""
    ctx = nonsplit_context(5, [])
    ideal = a1(ctx, prof(*["X0"] * 5), 1)
    faces, graded = [], []
    walk = ideals._lyubeznik_walk

    def record(gens, pk):  # every face's lcm passes through here
        for m, s_mask in walk(gens, pk):
            faces.append(m)
            yield m, s_mask

    monkeypatch.setattr(ideals, "_lyubeznik_walk", record)
    numerator(ideal, lambda exps: graded.append(exps) or sum(exps))
    assert len(ideal.gens) == 15 and len(faces) < 2**15 // 16
    assert len(graded) == len(set(graded)) == len(set(faces))  # one grade per distinct lcm
    assert expand(hilbert(ideal), 6) == standard_counts_naive(ideal, 6)


NS2_0 = nonsplit_context(2, [0])
STANDARD_CASES = {
    "zero": (MonomialIdeal(3, ()), 4),
    "unit": (MonomialIdeal(3, (Monomial((0,) * 3),)), 4),
    "zero-no-variables": (MonomialIdeal(0, ()), 3),
    "unit-no-variables": (MonomialIdeal(0, (Monomial(()),)), 3),
    "negative-bound": (MonomialIdeal(2, ()), -1),
    **{f"a_lambda-{','.join(lam.tags())}": (a_lambda(NS2_0, lam), 4) for lam in enumerate_profiles(NS2_0, "P")},
    "a1-f3": (a1(nonsplit_context(3, [0]), prof("X0", "X0", "X0"), 1), 3),
}


@pytest.mark.parametrize("ideal,bound", STANDARD_CASES.values(), ids=STANDARD_CASES.keys())
def test_standard_monomials_against_the_box(ideal, bound):
    """Standard monomials are the box [0, bound]^ambient cut at degree <= bound, by degree in lexicographic order."""
    want: list[list[Monomial]] = [[] for _ in range(bound + 1)]
    for exps in product(range(bound + 1), repeat=ideal.ambient):
        m = Monomial(exps)
        if m.degree <= bound and not ideal.member(m):
            want[m.degree].append(m)
    assert standard_monomials(ideal, bound) == want


NS3 = nonsplit_context(3, [0])
NS2 = nonsplit_context(2, [])
CYCLE_FREE_CALLS = {
    "taylor_profile": lambda: taylor_profile(ideals.pairing_ideal(4, 0b1111, 0)),
    "hilbert": lambda: hilbert(a1(NS3, prof("X0", "X0", "X0"), 1)),
    "gr_subquotient": lambda: gr_subquotient(NS3, SubquotientSpec(0, 2), 4),
    "x_counts": lambda: x_counts(NS3, prof("X0", "X0", "X0")),
    "standard_counts_naive": lambda: standard_counts_naive(a_lambda(NS3, prof("X0", "X0", "X0")), 5),
    "_presentation_dims": lambda: [
        _presentation_dims(NS2, lam, i0) for lam in enumerate_profiles(NS2, "P") for i0 in range(-1, 2)
    ],
    "pbw_basis": lambda: (pbw_basis.cache_clear(), pbw_basis(3, 3)),
    "_pss_list": lambda: (_pss_list.cache_clear(), _pss_list(4)),
}


@pytest.mark.parametrize("call", CYCLE_FREE_CALLS.values(), ids=CYCLE_FREE_CALLS.keys())
def test_kernels_leave_no_reference_cycles(call):
    """Each walk frees its working set on return, without waiting for the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bigraded_standard_matches_univariate():
    ns2 = nonsplit_context(2, [0])
    for lam in enumerate_profiles(ns2, "P"):
        ideal = a_lambda(ns2, lam)
        table = bigraded_difference(MonomialIdeal(4, (Monomial((0,) * 4),)), ideal, 2, 6, 0)
        assert [table.total(d) for d in range(table.trunc + 1)] == expand(hilbert(ideal), 6)


def window_table(ctx, lam, i0: int, i0p: int, trunc: int):
    """One profile's (i0, i0p) window table, built alone: members i0 and i0p, shifted by d_shift(i0)."""
    shift = d_shift(profile_stats(ctx, lam), i0)
    return bigraded_difference(a1(ctx, lam, i0), a1(ctx, lam, i0p), ctx.f, trunc, shift)


def test_bigraded_quotient_full_window():
    ns2 = nonsplit_context(2, [0])
    for lam in enumerate_profiles(ns2, "P"):
        table = window_table(ns2, lam, -1, 2, 6)
        assert [table.total(d) for d in range(table.trunc + 1)] == expand(hilbert(a_lambda(ns2, lam)), 6)


def test_bigraded_quotient_worked_example():
    ns2 = nonsplit_context(2, [0])
    table = window_table(ns2, prof("X0", "X0"), 0, 1, 5)
    assert [table.total(d) for d in range(table.trunc + 1)] == [1, 2, 3, 4, 5, 6]


def test_bigraded_quotient_vanishing():
    # d exceeds |J1 ⊔ J2|: the window is empty
    ns2 = nonsplit_context(2, [0])
    lam = prof("X1", "P2")  # J1 = J2 = {}, |J_lambda| = 1
    table = window_table(ns2, lam, 1, 2, 5)
    assert not table.entries


def test_bigraded_quotient_parameter_order():
    """A window needs -1 <= i0 < i0p <= f: SubquotientSpec refuses the rest before any table is built."""
    ns2 = nonsplit_context(2, [0])
    for i0, i0p in ((1, 1), (2, 1), (-2, 1)):
        with pytest.raises(ValueError, match="need -1 <= i0 < i0p"):
            gr_subquotient(ns2, SubquotientSpec(i0, i0p), 5)
    with pytest.raises(ValueError, match="exceeds f = 2"):
        gr_subquotient(ns2, SubquotientSpec(1, 3), 5)


def raw_table(keep, f: int, trunc: int, shift: int = 0) -> dict[tuple[int, tuple[int, ...]], int]:
    """(stored degree, offset) -> count of the monomials m with keep(m), listed one by one."""
    out: dict[tuple[int, tuple[int, ...]], int] = {}

    def rec(exps: tuple[int, ...], left: int):
        if len(exps) < 2 * f:
            for e in range(left + 1):
                rec(exps + (e,), left - e)
            return
        m = Monomial(exps)
        if m.degree >= shift and keep(m):
            key = (m.degree - shift, Monomial.bigrade(m)[1])
            out[key] = out.get(key, 0) + 1

    rec((), trunc + shift)
    return out


NONSPLIT_F2 = [ctx for f in (1, 2) for ctx in reducible_contexts(f) if ctx.case == "nonsplit"]
WINDOWS_F2 = {
    f"f{ctx.f}-jrho{ctx.j_rho}-w{i0}_{i0p}": (ctx, i0, i0p)
    for f in (1, 2) for ctx in reducible_contexts(f) for i0 in range(-1, f) for i0p in range(i0 + 1, f + 1)
}


@pytest.mark.parametrize("ctx,i0,i0p", WINDOWS_F2.values(), ids=WINDOWS_F2.keys())
def test_bigraded_quotient_naive_cross_check(ctx, i0, i0p):
    """Window tables from the numerator equal raw monomial enumeration, every P-profile, split context too."""
    for lam in enumerate_profiles(ctx, "P"):
        big, small = a1(ctx, lam, i0), a1(ctx, lam, i0p)
        shift = d_shift(profile_stats(ctx, lam), i0)
        raw = raw_table(lambda m: big.member(m) and not small.member(m), ctx.f, 4, shift)
        table = window_table(ctx, lam, i0, i0p, 4)
        assert {(d, c.exps): v for (d, c), v in table.entries.items()} == raw, lam


MIXED_SHIFT_WINDOWS = {
    "f2-nonsplit-jrho-w0_2": (nonsplit_context(2, []), SubquotientSpec(0, 2)),
    "f2-nonsplit-jrho0-w0_1": (nonsplit_context(2, [0]), SubquotientSpec(0, 1)),
    # here, unlike at f = 2, a packed offset recurs at one stored degree under two bounds
    "f3-nonsplit-jrho-w1_2": (nonsplit_context(3, []), SubquotientSpec(1, 2)),
}


@pytest.mark.parametrize("ctx,spec", MIXED_SHIFT_WINDOWS.values(), ids=MIXED_SHIFT_WINDOWS.keys())
def test_window_tables_sharing_offsets_keep_their_bounds(ctx, spec):
    """One gr_subquotient call spans several bounds trunc + shift; its shared offsets never cross them."""
    trunc = 4
    data = gr_subquotient(ctx, spec, trunc)
    shifts = {lam: d_shift(profile_stats(ctx, lam), spec.i0) for lam, _ in data}
    assert len({shifts[lam] for lam, table in data if table.entries}) >= 2
    for lam, table in data:
        big, small = a1(ctx, lam, spec.i0), a1(ctx, lam, spec.i0p)
        raw = raw_table(lambda m: big.member(m) and not small.member(m), ctx.f, trunc, shifts[lam])
        assert {(d, c.exps): v for (d, c), v in table.entries.items()} == raw, lam


def _live_offsets() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is CharOffset)


def test_window_offsets_are_shared_within_a_call_and_freed_after_it():
    """The tables of one window share equal offsets as one object, and none outlives the tables."""
    ctx, spec = nonsplit_context(3, [1, 2]), SubquotientSpec(-1, 3)
    gc.collect()
    before = _live_offsets()
    data = gr_subquotient(ctx, spec, 7)
    seen: dict[tuple[int, ...], CharOffset] = {}
    for _, table in data:  # i0 = -1: every profile's shift is 0, so all tables share one bound
        for _, c in table.entries:
            assert seen.setdefault(c.exps, c) is c
    assert len(seen) > 1
    del data, seen, table, c
    gc.collect()
    assert _live_offsets() == before


KEYED_WINDOWS = {
    "f3-nonsplit-jrho12-w-1_3": (nonsplit_context(3, [1, 2]), SubquotientSpec(-1, 3), 7),
    "f4-nonsplit-jrho02-w1_4": (nonsplit_context(4, [0, 2]), SubquotientSpec(1, 4), 4),
}


@pytest.mark.parametrize("ctx,spec,trunc", KEYED_WINDOWS.values(), ids=KEYED_WINDOWS.keys())
def test_window_keys_are_shared_within_a_call(ctx, spec, trunc):
    """At one bound trunc + shift, the tables of one window share equal entry keys as one tuple, freed with them."""
    gc.collect()
    before = _live_offsets()
    data = gr_subquotient(ctx, spec, trunc)
    seen: dict[tuple, tuple[int, CharOffset]] = {}
    for lam, table in data:
        bound = trunc + d_shift(profile_stats(ctx, lam), spec.i0)
        for key in table.entries:
            assert seen.setdefault((bound, key[0], key[1].exps), key) is key
    assert len(seen) < sum(len(table.entries) for _, table in data)
    del data, seen, table, key
    gc.collect()
    assert _live_offsets() == before


def _reused_nonzero_tables(ctx, spec: SubquotientSpec, trunc: int | None = None) -> int:
    """Check that one window builds one table per distinct (member i0, member i0p, shift), each equal to
    its lone table, and return how many profiles reuse a nonzero table built for an earlier one."""
    n = default_trunc(ctx.f) if trunc is None else trunc
    built: dict[tuple, object] = {}
    reused = 0
    for lam, table in gr_subquotient(ctx, spec, trunc):
        key = (a1(ctx, lam, spec.i0), a1(ctx, lam, spec.i0p), d_shift(profile_stats(ctx, lam), spec.i0))
        if key in built:
            assert table is built[key], lam
            reused += bool(table.entries)
        else:
            assert all(table is not other for other in built.values()), lam
            assert table == bigraded_difference(key[0], key[1], ctx.f, n, key[2]), lam
            built[key] = table
    return reused


@pytest.mark.parametrize("f", [1, 2, 3])
def test_window_tables_are_built_once_per_distinct_window(f):
    """Every window of every reducible context at f: profiles with equal members and shift share one table."""
    reused = sum(
        _reused_nonzero_tables(ctx, SubquotientSpec(i0, i0p))
        for ctx in reducible_contexts(f) for i0 in range(-1, f) for i0p in range(i0 + 1, f + 1)
    )
    assert reused >= 1
    if f == 2:  # the split window (-1, 2): 10 profiles, 5 tables, each built for two of them
        assert _reused_nonzero_tables(split_context(2), SubquotientSpec(-1, 2)) == 5


@pytest.mark.parametrize(
    "spec,trunc", [(SubquotientSpec(-1, 4), 8), (SubquotientSpec(1, 4), 4)], ids=["w-1_4-trunc8", "w1_4-trunc4"]
)
def test_window_tables_equal_their_unshared_tables_at_f4(spec, trunc):
    """Every table of an f = 4 window equals the one built alone, at one bound or three, and is shared."""
    ctx = nonsplit_context(4, [0, 2])
    assert sum(len(table.entries) for _, table in gr_subquotient(ctx, spec, trunc)) > 2000
    assert _reused_nonzero_tables(ctx, spec, trunc) >= 1


def test_a_lone_table_keeps_no_key_memo():
    """With ``offsets=None`` no key is reused, so the table is built without the per-degree key memo."""
    small = MonomialIdeal(6, (Monomial((8, 0, 0, 0, 0, 0)),))  # 876 entries at f = 3, trunc 7

    def peak(offsets):  # the table is dropped here: one kept alive changes what the next call's peak reads
        tracemalloc.start()
        try:
            bigraded_difference(MonomialIdeal(6, (Monomial((0,) * 6),)), small, 3, 7, 0, offsets)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(None)  # the first call also fills the packing cache
    assert peak(None) < peak({})


def test_bigraded_tables_of_non_squarefree_ideals():
    small = MonomialIdeal(4, (mono(2, 0, 0, 1), mono(0, 3, 1, 0), mono(1, 1, 2, 2)))
    big = small + MonomialIdeal(4, (mono(1, 0, 0, 0),))
    for table, raw in (
        (bigraded_difference(MonomialIdeal(4, (Monomial((0,) * 4),)), small, 2, 7, 0),
         raw_table(lambda m: not small.member(m), 2, 7)),
        (bigraded_difference(big, small, 2, 6, 1),
         raw_table(lambda m: big.member(m) and not small.member(m), 2, 6, 1)),
    ):
        assert {(d, c.exps): v for (d, c), v in table.entries.items()} == raw


def test_bigraded_difference_of_equal_or_unnested_ideals():
    ideal = a1(nonsplit_context(2, [0]), prof("X0", "X0"), 0)
    assert not bigraded_difference(ideal, ideal, 2, 5, 1).entries
    unit = MonomialIdeal(4, (Monomial((0,) * 4),))
    with pytest.raises(ValueError, match="multiplicities must be nonnegative"):
        bigraded_difference(ideal, unit, 2, 5, 0)


@pytest.mark.parametrize("ctx", NONSPLIT_F2, ids=lambda c: f"f{c.f}-jrho{c.j_rho}")
def test_matching_truncated_tables_naive(ctx):
    """The matching as truncated tables, all listed raw: each window at level
    i0 + 1 equals the twisted sum of its semisimplified quotients up to f + 4."""
    n = ctx.f + 4
    for i0 in range(-1, ctx.f):
        for lam in enumerate_profiles(ctx, "P"):
            st_ = profile_stats(ctx, lam)
            big, small = a1(ctx, lam, i0), a1(ctx, lam, i0 + 1)
            lhs = raw_table(lambda m: big.member(m) and not small.member(m), ctx.f, n, d_shift(st_, i0))
            rhs: dict[tuple[int, tuple[int, ...]], int] = {}
            d = i0 + 1 - st_.ell
            for sub in combinations([j for j in range(ctx.f) if (st_.j1 | st_.j2) >> j & 1], d) if d >= 0 else ():
                jp = sum(1 << j for j in sub)
                ideal = a_ss(ctx, _lambda_prime(lam, st_, jp))
                twist = Monomial.bigrade(p_monomial(ctx.f, st_, jp))[1]
                for (deg, c), v in raw_table(lambda m: not ideal.member(m), ctx.f, n).items():
                    key = (deg, tuple(a + b for a, b in zip(c, twist)))
                    rhs[key] = rhs.get(key, 0) + v
            assert lhs == rhs, (lam, i0)
        assert semisimple_match(ctx, i0).hilbert_ok


def test_ideal_from_pairs_edges():
    assert ideal_from_pairs(2, 0, 0, 0).is_unit()
    assert not ideal_from_pairs(2, 0b1, 0, 2).gens
    with pytest.raises(ValueError, match="lie in"):
        ideal_from_pairs(2, 0b100, 0, 1)  # index 2 past f - 1
    for ys, zs in ((0b100, 0), (0, 0b100), (0, -1)):
        with pytest.raises(ValueError, match="lie in"):
            paired(2, ys, zs)
    for j1, j2 in ((0, -1), (-2, 0)):  # no index set, though disjoint from the empty mask beside it
        with pytest.raises(ValueError, match="negative"):
            ideal_from_pairs(2, j1, j2, 1)


def test_patched_examples():
    # one paired coordinate: generators {XY, Z...}
    inter, expected = patched_ideals(nonsplit_context(2, [0]), prof("X0", "X0"))
    assert inter.gens == expected.gens

    split2 = split_context(2)
    inter, expected = patched_ideals(split2, prof("X0", "X0"))
    assert inter.gens == expected.gens
    pair_gens = [g for g in expected.gens if g.degree == 2]
    # X_j Y_j for both j plus the cross term Y_0 Y_1
    assert len(pair_gens) == 3

    inter, expected = patched_ideals(split2, prof("X1", "P2"))
    assert inter.gens == expected.gens
    # J'' = {0}: the Y-pair family over J_rho \ J'' is empty
    y0y1 = Monomial((0, 1, 0, 1, 0, 0))
    assert y0y1 not in expected.gens


def test_patched_intersection_worked_instance():
    """The f=2 full-J_rho intersection, generators computed via the lcm rule."""
    split2 = split_context(2)
    inter, expected = patched_ideals(split2, prof("X0", "X0"))
    n = inter.ambient
    x0, y0, x1, y1 = (Monomial.variable(n, i) for i in range(4))
    z2, z3 = Monomial.variable(n, 4), Monomial.variable(n, 5)
    want = sorted(
        [x0 * y0, x1 * y1, y0 * y1, z2, z3], key=Monomial.sort_key
    )
    assert list(inter.gens) == want == list(expected.gens)
