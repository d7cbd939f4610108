import tracemalloc
from itertools import combinations, product
from math import comb

import pytest

from serrecalc.errors import SizeLimitError, UnsupportedCaseError
from serrecalc import homology, pbw, predictions, verify
from serrecalc.homology import ext_dims
from serrecalc.ideals import Monomial, MonomialIdeal, a_lambda, a_ss, bigraded_difference, p_monomial
from serrecalc.pbw import gr_formula, tor1_gr
from serrecalc.predictions import (
    K1_CYCLE_F_CAP,
    THETA_POINT_CAP,
    X_COUNTS_F_CAP,
    _ball_size,
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
    shell_counts,
    shell_sizes,
    socle_jsets,
    theta_lattice,
    x_counts,
)
from serrecalc.series import expand
from serrecalc.verify import _profiles, suite_semisimple_match
from serrecalc.weights import (
    Case,
    GaloisContext,
    WeightProfile,
    PROFILE_F_CAP,
    _pss_list,
    enumerate_profiles,
    in_p,
    indices,
    j_set,
    mask_of,
    nonsplit_context,
    profile_stats,
    split_context,
)


def prof(*tags):
    return WeightProfile.from_tags(tags)


def test_hilbert_pi_cases():
    res = hilbert_pi(GaloisContext(1, Case.IRREDUCIBLE))
    assert res.equal and expand(res.closed, 4) == [2, 4, 4, 4, 4]
    res = hilbert_pi(split_context(1))
    assert res.equal and expand(res.closed, 4) == [4, 4, 4, 4, 4]
    res = hilbert_pi(nonsplit_context(2, [0]))
    assert res.equal and res.closed.at_zero() == 6


@pytest.mark.parametrize("f", range(1, 5))
def test_hilbert_pi_at_zero(f):
    assert hilbert_pi(GaloisContext(f, Case.IRREDUCIBLE)).closed.at_zero() == 3**f - 1
    assert hilbert_pi(split_context(f)).closed.at_zero() == 3**f + 1
    for d in range(f):
        ctx = nonsplit_context(f, range(d))
        assert hilbert_pi(ctx).closed.at_zero() == 2 ** (f - d) * 3**d


def test_hilbert_ni_f1():
    ctx = split_context(1)
    for i in (0, 1):
        res = hilbert_Ni(ctx, i)
        assert res.equal and expand(res.closed, 3) == [2, 2, 2, 2]
    with pytest.raises(UnsupportedCaseError):
        hilbert_Ni(nonsplit_context(1, []), 0)


@pytest.mark.parametrize("f", range(1, 5))
def test_hilbert_ni_sums_to_pi(f):
    ctx = split_context(f)
    total = None
    for i in range(f + 1):
        res = hilbert_Ni(ctx, i)
        assert res.equal
        total = res.closed if total is None else total + res.closed
    assert total == hilbert_pi(ctx).closed


def test_gr_subquotient_full_window_totals():
    ctx = nonsplit_context(2, [0])
    data = gr_subquotient(ctx, SubquotientSpec(-1, 2), trunc=5)
    totals = [0] * 6
    for _, table in data:
        for d, v in enumerate(table.totals()):
            totals[d] += v
    assert totals == expand(hilbert_pi(ctx).closed, 5)


def test_gr_subquotient_worked_example():
    ctx = nonsplit_context(2, [0])
    data = dict(gr_subquotient(ctx, SubquotientSpec(0, 1), trunc=5))
    assert data[prof("X0", "X0")].totals() == [1, 2, 3, 4, 5, 6]


def test_gr_subquotient_split_window():
    # the family gives R/a(lambda), unshifted, inside the window and zero outside it
    ctx = split_context(2)
    data = dict(gr_subquotient(ctx, SubquotientSpec(0, 1), trunc=4))
    for lam, table in data.items():
        ell = profile_stats(ctx, lam).ell
        assert table.is_zero() == (ell != 1)
        if ell == 1:
            assert table == bigraded_difference(MonomialIdeal.unit(4), a_lambda(ctx, lam), 2, 4, 0)


def test_i1_invariants_examples():
    ctx = nonsplit_context(1, [])
    whole = i1_invariants(ctx, SubquotientSpec(-1, 1))
    assert set(whole) == set(enumerate_profiles(ctx, "P"))
    low = i1_invariants(ctx, SubquotientSpec(-1, 0))
    assert {lam.tags()[0] for lam in low} == {"X0", "P1"}

    ctx2 = nonsplit_context(2, [0])
    idx = i1_invariants(ctx2, SubquotientSpec(0, 2))
    assert len(idx) == i1_degree0_total(ctx2, SubquotientSpec(0, 2))
    assert len(idx) == i1_cardinality(ctx2, SubquotientSpec(0, 2))


@pytest.mark.parametrize("f", range(1, 5))
def test_i1_histograms_recount_every_profile(f):
    """The histograms from the distinct P^ss shapes equal a profile-by-profile recount."""
    assert sum(count for _, count in predictions._pss_shape_data(f)) == len(_pss_list(f))
    for ctx in verify.reducible_contexts(f):
        hist_p: dict = {}
        hist_ss: dict = {}
        for lam in _pss_list(f):
            if in_p(ctx, lam):
                st = profile_stats(ctx, lam)
                key = (st.ell, (st.j1 | st.j2).bit_count())
                hist_p[key] = hist_p.get(key, 0) + 1
            else:
                ell = j_set(lam).bit_count()
                hist_ss[ell] = hist_ss.get(ell, 0) + 1
        assert predictions._i1_histograms(ctx) == (hist_p, hist_ss), ctx


def test_i1_degree0_total_worked():
    # f=2, J_rho = {}: window (0, 2) has degree-0 total 6
    ctx = nonsplit_context(2, [])
    assert i1_degree0_total(ctx, SubquotientSpec(0, 2)) == 6
    assert i1_cardinality(ctx, SubquotientSpec(0, 2)) == 6


def test_socle_examples():
    ctx = nonsplit_context(2, [0])
    full = socle_jsets(ctx, SubquotientSpec(-1, 2))
    assert 0 in full  # the empty J-set
    # |W(rho)| = 2^{|J_rho|}
    assert sum(1 for J in full if J & ctx.j_rho == J) == 2 ** ctx.d_rho
    got = socle_jsets(ctx, SubquotientSpec(0, 2))
    assert got == [0b01, 0b10]


def test_socle_jsets_come_by_size_then_lexicographically():
    for f in range(1, 6):
        for ctx, spec, case in verify._window_cases(verify._nonsplit_contexts(f)):
            got = [[j for j in range(f) if J >> j & 1] for J in socle_jsets(ctx, spec)]
            assert got == sorted(got, key=lambda s: (len(s), s)), case


def _socle_jsets_by_filter(ctx, spec):
    """Every r-subset, kept when it lies inside J_rho at a size in i0 + 1..i0p or outside J_rho at size i0 + 1."""
    out = []
    for r in range(ctx.f + 1):
        for sub in combinations(range(ctx.f), r):
            J = sum(1 << j for j in sub)
            inside = J & ctx.j_rho == J
            if inside and spec.i0 < r <= spec.i0p or not inside and r == spec.i0 + 1:
                out.append(J)
    return out


def test_socle_jsets_match_every_subset_filtered_by_the_two_families():
    cases = [c for f in range(1, 6) for c in verify._window_cases(verify._nonsplit_contexts(f))]
    assert len(cases) == sum((2**f - 1) * comb(f + 2, 2) for f in range(1, 6))  # every nonsplit context and window
    for ctx, spec, case in cases:
        assert socle_jsets(ctx, spec) == _socle_jsets_by_filter(ctx, spec), case


def test_k1_cycle_examples():
    assert k1_cycle(3, SubquotientSpec(0, 2)) == 6
    assert k1_cycle(3, SubquotientSpec(-1, 3)) == 8
    assert k1_cycle(4, SubquotientSpec(1, 2)) == 6


def test_spec_validation():
    with pytest.raises(ValueError):
        SubquotientSpec(1, 1)
    with pytest.raises(ValueError):
        SubquotientSpec(-2, 1)
    with pytest.raises(ValueError):
        k1_cycle(2, SubquotientSpec(0, 3))


def test_k1_cycle_cap():
    # the gr-subquot suite calls k1_cycle at every f it lists profiles for
    assert K1_CYCLE_F_CAP >= PROFILE_F_CAP
    assert k1_cycle(K1_CYCLE_F_CAP, SubquotientSpec(-1, 1)) == 1 + K1_CYCLE_F_CAP
    with pytest.raises(SizeLimitError):
        k1_cycle(K1_CYCLE_F_CAP + 1, SubquotientSpec(-1, 1))


def test_theta_lattice_i0_range():
    ctx = nonsplit_context(2, [0])
    assert [theta_lattice(ctx, prof("X0", "X0"), 2, i0).d_lambda for i0 in (-1, 0, 1)] == [0, 1, 2]
    for i0 in (-2, 2):
        with pytest.raises(ValueError, match="outside -1..f-1"):
            theta_lattice(ctx, prof("X0", "X0"), 2, i0)


def test_theta_lattice_split_empty():
    ctx = split_context(1)
    box = theta_lattice(ctx, prof("X0"), 4, 0)
    assert box.d_lambda == 1 and not box.jh_theta


def test_theta_lattice_nonsplit_points():
    ctx = nonsplit_context(1, [])
    box = theta_lattice(ctx, prof("X0"), 4, 0)
    assert sorted(box.jh_theta) == [(-3,), (-2,), (-1,)]
    assert box.chain_ok and box.no_descent is None


def test_theta_lattice_counts_match_series():
    from serrecalc.ideals import hilbert

    ctx = nonsplit_context(2, [0])
    for lam in enumerate_profiles(ctx, "P"):
        box = theta_lattice(ctx, lam, 5, 1)
        per_degree = [0] * 5
        for p in box.points:
            per_degree[sum(abs(x) for x in p)] += 1
        assert per_degree == expand(hilbert(a_lambda(ctx, lam)), 4)


def _box_scan_theta(ctx, lam, n, i0):
    """theta_lattice by scanning the whole (2n - 1)^f box and keeping l1 norm < n: the walk's reference."""
    st_ = profile_stats(ctx, lam)
    d_lam = max(i0 + 1 - st_.ell, 0)
    # <= 0 where t_j = y_j, >= 0 where t_j = z_j
    ranges = [range(0 if st_.tz >> j & 1 else -(n - 1), 1 if st_.ty >> j & 1 else n) for j in range(ctx.f)]
    ball = [p for p in product(*ranges) if sum(abs(x) for x in p) < n]
    j1, j2 = [j for j in range(ctx.f) if st_.j1 >> j & 1], [j for j in range(ctx.f) if st_.j2 >> j & 1]
    in_theta = [p for p in ball if sum(p[j] > 0 for j in j1) + sum(p[j] < 0 for j in j2) >= d_lam]
    theta = frozenset(in_theta)

    def descends(p):
        steps = (p[:j] + (x - 1 if x > 0 else x + 1,) + p[j + 1:] for j, x in enumerate(p) if x)
        return any(q in theta for q in steps)

    stuck = next((p for p in in_theta if sum(abs(x) for x in p) > d_lam and not descends(p)), None)
    return frozenset(ball), theta, stuck is None, stuck


@pytest.mark.parametrize("f", [1, 2, 3])
def test_theta_lattice_walk_matches_box_scan(f):
    for ctx, lam in _profiles(f):
        for i0 in range(-1, f):
            for n in (1, i0 + 4):
                box = theta_lattice(ctx, lam, n, i0)
                assert (box.points, box.jh_theta, box.chain_ok, box.no_descent) == _box_scan_theta(ctx, lam, n, i0)
                k = profile_stats(ctx, lam).k
                assert len(box.points) == _ball_size(f - k, k, n - 1)


def test_theta_lattice_point_cap():
    ctx = nonsplit_context(1, [])
    n = THETA_POINT_CAP // 2  # 2n - 1 points, one below the cap
    assert len(theta_lattice(ctx, prof("X0"), n, 0).points) == 2 * n - 1
    with pytest.raises(SizeLimitError):
        theta_lattice(ctx, prof("X0"), n + 1, 0)


def test_theta_lattice_walks_more_coordinates_than_the_recursion_limit():
    """f = 1,500 > sys.getrecursionlimit(): t_j = z_j everywhere, so the ball of radius 1 is 0 and each e_j."""
    f = 1500
    box = theta_lattice(split_context(f), prof(*["X0"] * f), 2, -1)
    assert len(box.points) == f + 1 and box.chain_ok


def _rotate(mask: int, f: int) -> int:
    """Bit j of the result is bit j + 1 (mod f) of ``mask``."""
    return mask >> 1 | (mask & 1) << f - 1


def _rotated(ctx: GaloisContext, lam: WeightProfile | None = None):
    """The context, or a profile, with every index j renamed j - 1 (mod f)."""
    if lam is not None:
        return WeightProfile(*[_rotate(m, ctx.f) for m in (lam.x0, lam.x1, lam.x2, lam.p3, lam.p2, lam.p1)])
    return GaloisContext(ctx.f, ctx.case, _rotate(ctx.j_rho, ctx.f))


def test_rotating_the_indices_changes_nothing():
    """The index set is Z/f, so renaming j as j - 1 in J_rho and in every profile leaves each count unchanged.

    At f <= 4: the P family, x_counts and the Hilbert series of a(lambda); at f <= 3: semisimple_match and
    i1_cardinality on every window.
    """
    from serrecalc.ideals import hilbert

    for f in range(1, 5):
        for ctx in verify.reducible_contexts(f):
            turned = _rotated(ctx)
            family = enumerate_profiles(ctx, "P")
            assert {_rotated(ctx, lam) for lam in family} == set(enumerate_profiles(turned, "P")), ctx
            for lam in family:
                lam_turned = _rotated(ctx, lam)
                assert x_counts(turned, lam_turned) == x_counts(ctx, lam), (ctx, lam)
                assert hilbert(a_lambda(turned, lam_turned)) == hilbert(a_lambda(ctx, lam)), (ctx, lam)
            if ctx.case is not Case.NONSPLIT or f > 3:
                continue
            for i0 in range(-1, f):
                assert semisimple_match(turned, i0) == semisimple_match(ctx, i0), (ctx, i0)
                for i0p in range(i0 + 1, f + 1):
                    spec = SubquotientSpec(i0, i0p)
                    assert i1_cardinality(turned, spec) == i1_cardinality(ctx, spec), (ctx, spec)


def _dual(lam: WeightProfile) -> WeightProfile:
    """sigma: x <-> p-1-x at every index, so the symbols X0 <-> P1, X1 <-> P2 and X2 <-> P3 trade masks."""
    return WeightProfile(lam.p1, lam.p2, lam.p3, lam.x2, lam.x1, lam.x0)


def test_the_duality_x_to_p_minus_1_minus_x_swaps_y_and_z():
    """sigma fixes P^ss and each P, swaps the t-rule's y and z sides and J1 with J2, and negates every offset.

    At f <= 5 for P^ss, at f <= 4 in every reducible context for the rest: profile_stats, x_counts, the
    Hilbert series of a(lambda), every a1 member's bigraded numerator, and _lambda_prime over every J'.
    """
    from serrecalc.ideals import a1, hilbert, numerator
    from serrecalc.predictions import _lambda_prime

    def bigraded(ideal, negate=False):
        return {(d, tuple([-x for x in c]) if negate else c): v
                for (d, c), v in numerator(ideal, Monomial.bigrade).items() if v}

    for f in range(1, 6):
        assert set(map(_dual, _pss_list(f))) == set(_pss_list(f)), f
    for f in range(1, 5):
        for ctx in verify.reducible_contexts(f):
            family = enumerate_profiles(ctx, "P")
            assert {_dual(lam) for lam in family} == set(family), ctx
            for lam in family:
                st_, st_dual = profile_stats(ctx, lam), profile_stats(ctx, _dual(lam))
                assert (st_dual.ty, st_dual.tz, st_dual.j1, st_dual.j2) == (st_.tz, st_.ty, st_.j2, st_.j1), (ctx, lam)
                assert (st_dual.ell, st_dual.k, st_dual.a_set) == (st_.ell, st_.k, st_.a_set), (ctx, lam)
                assert x_counts(ctx, _dual(lam)) == x_counts(ctx, lam), (ctx, lam)
                assert hilbert(a_lambda(ctx, _dual(lam))) == hilbert(a_lambda(ctx, lam)), (ctx, lam)
                for i in range(-1, f + 1):
                    assert bigraded(a1(ctx, _dual(lam), i)) == bigraded(a1(ctx, lam, i), negate=True), (ctx, lam, i)
                pool = indices(st_.j1 | st_.j2)
                for jp in (mask_of(sub) for r in range(len(pool) + 1) for sub in combinations(pool, r)):
                    assert _lambda_prime(_dual(lam), st_dual, jp) == _dual(_lambda_prime(lam, st_, jp)), (ctx, lam, jp)


def test_semisimple_match_worked_pair():
    from serrecalc.predictions import _lambda_prime

    ctx = nonsplit_context(2, [0])
    lam = prof("X0", "X0")
    st_ = profile_stats(ctx, lam)
    lp = _lambda_prime(lam, st_, 0b10)
    assert lp == prof("X0", "X2")
    ideal = a_ss(ctx, lp)
    assert ideal.gens == (Monomial((0, 1, 0, 0)), Monomial((0, 0, 1, 0)))
    assert Monomial.bigrade(p_monomial(2, st_, 0b10))[1] == (0, -1)
    table = bigraded_difference(MonomialIdeal.unit(4), ideal, 2, 4, 0)
    assert table.totals() == [1, 2, 3, 4, 5]


def test_semisimple_match_flags():
    ctx = nonsplit_context(2, [0])
    for i0 in range(-1, 2):
        res = semisimple_match(ctx, i0)
        assert res.bijection_ok and res.hilbert_ok
    with pytest.raises(ValueError):
        semisimple_match(ctx, 2)
    with pytest.raises(UnsupportedCaseError):
        semisimple_match(split_context(2), 0)


def test_semisimple_match_level_zero():
    # at i0 = -1 the pairing is the identity on the |J_lambda| = 0 profiles
    ctx = nonsplit_context(1, [])
    res = semisimple_match(ctx, -1)
    assert res.bijection_ok and res.hilbert_ok and res.pairs == 2


def _swapped_twist(real):
    """p_monomial with y_j and z_j exchanged: same degree, negated character offset."""
    def patched(f, st_, jp):
        p = real(f, st_, jp)
        return Monomial([p[i ^ 1] for i in range(len(p))])
    return patched


def test_semisimple_match_catches_a_wrong_twist(monkeypatch):
    ctx = nonsplit_context(2, [0])
    assert semisimple_match(ctx, 0).hilbert_ok
    monkeypatch.setattr(predictions, "p_monomial", _swapped_twist(p_monomial))
    res = semisimple_match(ctx, 0)
    assert res.bijection_ok and not res.hilbert_ok


def test_semisimple_suite_names_the_first_failure(monkeypatch):
    assert [r.detail for r in suite_semisimple_match(1)] == [""]
    monkeypatch.setattr(predictions, "p_monomial", _swapped_twist(p_monomial))
    (rec,) = suite_semisimple_match(1)
    assert not rec.ok
    assert rec.detail == "first failure J_rho=[] i0=0: bijection_ok=True hilbert_ok=False"


def test_theta_record_names_the_point_without_descent(monkeypatch):
    real = verify.theta_lattice
    monkeypatch.setattr(verify, "theta_lattice", lambda *args: real(*args)._replace(chain_ok=False, no_descent=(2,)))
    rec = verify.suite_theta(1)[0]
    assert not rec.ok
    assert rec.detail == "first failure f=1 split X0 i0=-1: no_descent=(2,)"


def _hilbert_values():
    r = hilbert_pi(GaloisContext(1, Case.IRREDUCIBLE))
    return f"closed={r.closed} enumerated={r.enumerated}"


def _ext_values():
    r = ext_dims(1, 0)
    return f"closed={r.closed} oracle={r.oracle} convolution={r.convolution}"


def _rank_values():
    r = tor1_gr(split_context(1), prof("X0"))
    return f"ranks={(r.dim_im_d1, r.dim_ker_d1, r.dim_im_d2, r.tor1)} closed={r.expected}"


def _ext_identity_values():
    e = homology.ext_closed(1, 0)
    return f"lower_bound={2 * homology.ext1_lower_bound(1, 0)} from_ext={2 * e[1] - e[2]}"


@pytest.mark.parametrize("suite, scale, module, closed_form, check, case, values", [
    ("hilbert", {"fmax": 2}, predictions, "_closed_hilbert_pi", "f=1 irreducible", "f=1 irreducible series",
     _hilbert_values),
    ("tor", {"kmax": 2, "ext_fmax": 2, "corpus_fmax": 1}, homology, "ext_closed", "padded Ext dims f<=2", "f=1 k=0",
     _ext_values),
    ("degenerates", {"fmax": 2, "rank_fmax": 1}, pbw, "_expected_dims", "f=1 truncated rank data", "f=1 split X0",
     _rank_values),
    # the suite looks the lower bound up in its own namespace
    ("tor", {"kmax": 2, "ext_fmax": 2, "corpus_fmax": 1}, verify, "ext1_lower_bound", "Ext lower-bound identity f<=12",
     "f=1 k=0", _ext_identity_values),
], ids=["hilbert", "tor", "degenerates", "ext-identity"])
def test_a_wrong_closed_form_fails_its_record_with_case_and_values(
    monkeypatch, suite, scale, module, closed_form, check, case, values
):
    cases = {r.check: r.cases for r in verify.SUITES[suite](**scale)}
    real = getattr(module, closed_form)
    # adding the closed form to itself doubles a series and repeats a tuple
    monkeypatch.setattr(module, closed_form, lambda *args: real(*args) + real(*args))
    records = verify.SUITES[suite](**scale)
    (rec,) = [r for r in records if r.check == check]
    assert not rec.ok
    assert rec.detail == f"first failure {case}: {values()}"
    assert {r.check: r.cases for r in records} == cases  # every case still ran


def _shell_counts_without_a_box(f, ty, tz):
    """shell_counts with membership tested coordinate by coordinate: each moves by 0 or its sign, -1 on ty, +1 on tz."""
    def member(p):
        return all(x == 0 or x == -1 and ty >> j & 1 or x == 1 and tz >> j & 1 for j, x in enumerate(p))

    offsets = [list(pbw.char_multiset(f, d)) for d in range(3)]
    counts = [0, 0, 0]
    for c in product(range(-2, 3), repeat=f):
        if sum(abs(x) for x in c) > 2:
            continue
        for i in range(3):
            hits = {q for q in (tuple([a + b for a, b in zip(c, o)]) for o in offsets[i]) if member(q)}
            if hits:
                counts[i] += hits == {(0,) * f}
                break
    return tuple(counts)


def test_shell_counts_box_of_radius_1_matches_membership_without_a_box():
    """Members of l1 norm >= 2 change no count, so the unit box gives the box-free counts on every P-profile."""
    keys = {(f, st_.ty, st_.tz) for f in range(1, 5) for st_ in [profile_stats(ctx, lam) for ctx, lam in _profiles(f)]}
    assert len(keys) == 3 + 9 + 27 + 81  # every t-rule, each disjoint (ty, tz), occurs
    for f, ty, tz in sorted(keys):
        assert shell_counts(f, ty, tz) == _shell_counts_without_a_box(f, ty, tz), (f, ty, tz)


def test_shell_counts_at_the_cap_keeps_a_small_box():
    """The membership box holds 0 and the f unit members, not 2^f points."""
    pbw.pbw_basis(X_COUNTS_F_CAP, 3)  # cached: built outside the measured call
    tracemalloc.start()
    try:
        counts = shell_counts(X_COUNTS_F_CAP, 0, 2**X_COUNTS_F_CAP - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == shell_sizes(X_COUNTS_F_CAP, X_COUNTS_F_CAP)
    assert peak < 4 * 2**20


def test_x_counts_examples():
    r = x_counts(split_context(1), prof("X0"))
    assert (r.x0, r.x1, r.x2) == (1, 1, 1) and r.ok
    ctx = nonsplit_context(2, [0])
    r = x_counts(ctx, prof("X0", "X0"))  # k = 1
    assert (r.x0, r.x1, r.x2) == (1, 3, 5) and r.ok


def test_degenerates_examples():
    assert shell_aggregate(1, 1) == gr_formula(1, 1)
    assert shell_aggregate(1, 0) == gr_formula(1, 0)
    assert all(shell_aggregate(f, k) == gr_formula(f, k) for f in range(1, 13) for k in range(f + 1))


def test_unsupported_cases():
    irr = GaloisContext(2, Case.IRREDUCIBLE)
    with pytest.raises(UnsupportedCaseError):
        gr_subquotient(irr, SubquotientSpec(-1, 2))
    with pytest.raises(UnsupportedCaseError):
        i1_invariants(split_context(2), SubquotientSpec(-1, 2))
    with pytest.raises(UnsupportedCaseError):
        socle_jsets(split_context(2), SubquotientSpec(-1, 2))
