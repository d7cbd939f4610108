import pytest

from serrecalc.errors import ProfileMembershipError, UnsupportedCaseError
from serrecalc.verify import reducible_contexts
from serrecalc.weights import (
    Case,
    GaloisContext,
    TGen,
    WeightProfile,
    a_histogram,
    character_window,
    count_by_A,
    enumerate_profiles,
    in_p,
    j_set,
    length_witnesses,
    nonsplit_context,
    profile_stats,
    split_context,
    v_chi_from_windows,
)


def prof(*tags):
    return WeightProfile.from_tags(tags)


def test_context_validation():
    with pytest.raises(ValueError):
        GaloisContext(2, Case.SPLIT, frozenset({0}))
    with pytest.raises(ValueError):
        GaloisContext(2, Case.NONSPLIT, frozenset({0, 1}))
    with pytest.raises(ValueError):
        GaloisContext(2, Case.IRREDUCIBLE, frozenset({0}))
    with pytest.raises(ValueError):
        split_context(2, p=20)  # not prime
    with pytest.raises(ValueError):
        split_context(2, p=5)  # below the genericity bound
    split_context(2, p=47)


def test_context_checks_p_but_does_not_store_it():
    for with_p, without in ((split_context(2, p=47), split_context(2)),
                            (nonsplit_context(3, [1], p=53), nonsplit_context(3, [1]))):
        assert with_p == without and hash(with_p) == hash(without)


def test_enumerate_f1():
    split = split_context(1)
    assert [p.tags() for p in enumerate_profiles(split, "P")] == [
        ["X0"], ["X2"], ["P3"], ["P1"],
    ]
    ns = nonsplit_context(1, [])
    assert [p.tags() for p in enumerate_profiles(ns, "P")] == [["X0"], ["P1"]]
    assert [p.tags() for p in enumerate_profiles(split, "Dss")] == [["X0"], ["P3"]]


def test_enumerate_rejects_irreducible():
    with pytest.raises(UnsupportedCaseError):
        enumerate_profiles(GaloisContext(1, Case.IRREDUCIBLE), "P")


def test_profile_stats_examples():
    split2 = split_context(2)
    st_ = profile_stats(split2, prof("X1", "P2"))
    assert st_.j_lambda == frozenset({0})
    assert st_.t_assign == (TGen.YZ, TGen.YZ)
    assert st_.a_set == frozenset({0, 1}) and st_.k == 0

    st_ = profile_stats(split_context(1), prof("X0"))
    assert st_.t_assign == (TGen.Z,) and st_.a_set == frozenset() and st_.k == 1
    assert st_.eps == ((0, 1),)

    ns = nonsplit_context(2, [0])
    st_ = profile_stats(ns, prof("X0", "X0"))
    assert st_.j1 == frozenset() and st_.j2 == frozenset({1})
    assert st_.a_set == frozenset({1})


def test_profile_stats_rejects_uncovered():
    ns = nonsplit_context(2, [0])
    # x+2 outside J_rho has no generator rule
    with pytest.raises(ProfileMembershipError):
        profile_stats(ns, prof("X0", "X2"))
    with pytest.raises(ProfileMembershipError):
        profile_stats(split_context(2), prof("X0", "X1"))  # not in P^ss


def test_count_by_A_irreducible_f3():
    counts = count_by_A(GaloisContext(3, Case.IRREDUCIBLE))
    assert counts.closed == {1: 6, 3: 2}
    assert counts.closed_p_level == {1: 4 * 6, 3: 1 * 2}


def test_count_by_A_split_f2():
    counts = count_by_A(split_context(2))
    assert counts.domain == "D"
    assert counts.closed == {0: 2, 2: 2}
    assert counts.enumerated == {0: 2, 2: 2}
    assert counts.ok


def test_count_by_A_nonsplit_f2():
    counts = count_by_A(nonsplit_context(2, [0]))
    assert counts.domain == "Pbar"
    assert counts.enumerated == {1: 2, 2: 2}
    assert counts.ok


@pytest.mark.parametrize("f", range(1, 6))
def test_dss_bijection(f):
    ctx = split_context(f)
    seen = {j_set(lam) for lam in enumerate_profiles(ctx, "Dss")}
    assert len(seen) == 2**f


@pytest.mark.parametrize("f", range(1, 5))
def test_a_set_contains_jrho_complement(f):
    for mask in range(1 << f):
        j_rho = frozenset(j for j in range(f) if mask & (1 << j))
        if len(j_rho) == f:
            ctx = split_context(f)
        else:
            ctx = nonsplit_context(f, j_rho)
        for lam in enumerate_profiles(ctx, "P"):
            st_ = profile_stats(ctx, lam)
            assert ctx.j_rho_c <= st_.a_set
            if ctx.case is Case.SPLIT:
                assert len(st_.a_set) % 2 == 0


@pytest.mark.parametrize("f", range(1, 5))
def test_a_histogram_reads_a_without_profile_stats(f):
    """|A| from the entries and J_rho alone equals len(a_set) on every profile that a_histogram is given.

    Outside P both refuse the profile.
    """
    for ctx in reducible_contexts(f):
        for which in ("P", "D") if ctx.case is Case.SPLIT else ("P", "Pbar"):
            for lam in enumerate_profiles(ctx, which):
                assert a_histogram(ctx, [lam]) == {len(profile_stats(ctx, lam).a_set): 1}, (ctx, lam)
        for lam in enumerate_profiles(ctx, "Pss"):  # outside P, profile_stats has no t-rule and neither has A
            if not in_p(ctx, lam):
                with pytest.raises(ProfileMembershipError):
                    profile_stats(ctx, lam)
                with pytest.raises(ProfileMembershipError):
                    a_histogram(ctx, [lam])


@pytest.mark.parametrize("f", range(2, 6))
def test_pbar_fibers(f):
    from itertools import combinations

    from serrecalc.verify import reducible_contexts

    for ctx in reducible_contexts(f):
        if ctx.case is not Case.NONSPLIT:
            continue
        d = ctx.d_rho
        pbar = enumerate_profiles(ctx, "Pbar")
        assert all(in_p(ctx, lam) for lam in pbar)
        for r in range(d + 1):
            for sub in combinations(sorted(ctx.j_rho), r):
                want = frozenset(sub) | ctx.j_rho_c
                fiber = [lam for lam in pbar if profile_stats(ctx, lam).a_set == want]
                assert len(fiber) == 2 ** (f - d)


@pytest.mark.parametrize("f", range(1, 7))
def test_length_witnesses(f):
    for d in range(f):
        ctx = nonsplit_context(f, frozenset(range(d)))
        found = length_witnesses(ctx)
        assert all(k in found for k in range(1, f + 1))


def test_character_window_examples():
    split1 = split_context(1)
    w = character_window(split1, prof("X0"))
    assert w.j_min == frozenset()
    assert w.j_dprime == frozenset()
    assert w.v_chi == frozenset({frozenset(), frozenset({0})})

    # all coordinates at {x, p-1-x}: singletons and the empty set
    ns = nonsplit_context(3, [0, 1])
    w = character_window(ns, prof("X0", "X0", "X0"))
    assert w.j_min == frozenset()
    assert w.v_chi == frozenset({frozenset(), frozenset({0}), frozenset({1})})


@pytest.mark.parametrize("f", range(1, 5))
def test_v_chi_window_union(f):
    from serrecalc.verify import reducible_contexts

    for ctx in reducible_contexts(f):
        for lam in enumerate_profiles(ctx, "P"):
            assert character_window(ctx, lam).v_chi == v_chi_from_windows(ctx, lam)


def test_profile_serialization_round_trip():
    lam = prof("X0", "P2", "X1")
    assert WeightProfile.from_tags(lam.tags()) == lam
