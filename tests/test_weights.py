import sys
from itertools import combinations, product

import pytest

from serrecalc.verify import reducible_contexts
from serrecalc.weights import (
    CASES,
    CORE_SYMBOLS,
    FAMILIES,
    GaloisContext,
    WeightProfile,
    _pss_list,
    a_histogram,
    character_window,
    count_by_A,
    enumerate_profiles,
    in_p,
    in_pss,
    indices,
    j_dprime,
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
        GaloisContext(2, "split", 0b01)
    with pytest.raises(ValueError):
        GaloisContext(2, "nonsplit", 0b11)
    with pytest.raises(ValueError):
        GaloisContext(2, "irreducible", 0b01)
    with pytest.raises(ValueError):
        GaloisContext(2, "nonsplit", 0b100)  # index 2 is outside {0, 1}
    with pytest.raises(ValueError):
        GaloisContext(2, "split", 0b11, p=20)  # not prime
    with pytest.raises(ValueError):
        GaloisContext(2, "split", 0b11, p=5)  # below the genericity bound
    GaloisContext(2, "split", 0b11, p=47)


def test_context_reads_a_case_given_as_its_value():
    """A context built from a case string equals the one its constructor builds, and every check reads it."""
    from serrecalc.predictions import hilbert_pi, semisimple_match

    ctx = GaloisContext(1, "split", 1)
    assert ctx.case == "split" and ctx == split_context(1)
    assert hilbert_pi(ctx).equal
    assert semisimple_match(GaloisContext(2, "nonsplit", 1), 0) == semisimple_match(nonsplit_context(2, [0]), 0)
    with pytest.raises(ValueError):
        GaloisContext(2, "bogus")


def test_case_is_its_string():
    """A context's case is the plain string, one of ``CASES``; any other string is refused."""
    for ctx in (GaloisContext(1, "irreducible"), split_context(1), nonsplit_context(2, [0])):
        assert type(ctx.case) is str and ctx.case in CASES
    with pytest.raises(ValueError, match="'spilt'"):
        GaloisContext(1, "spilt")


def test_context_checks_p_but_does_not_store_it():
    for with_p, without in ((GaloisContext(2, "split", 0b11, p=47), split_context(2)),
                            (GaloisContext(3, "nonsplit", 0b10, p=53), nonsplit_context(3, [1]))):
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
    with pytest.raises(ValueError, match="for reducible cases only"):
        enumerate_profiles(GaloisContext(1, "irreducible"), "P")


def test_profile_stats_examples():
    split2 = split_context(2)
    st_ = profile_stats(split2, prof("X1", "P2"))
    assert st_.j_lambda == 0b01
    assert st_.ty == st_.tz == 0  # t_j = y_j z_j at both indices
    assert st_.a_set == 0b11 and st_.k == 0

    st_ = profile_stats(split_context(1), prof("X0"))
    assert (st_.ty, st_.tz) == (0, 0b1) and st_.a_set == 0 and st_.k == 1

    ns = nonsplit_context(2, [0])
    st_ = profile_stats(ns, prof("X0", "X0"))
    assert st_.j1 == 0 and st_.j2 == 0b10
    assert st_.a_set == 0b10


def test_profile_stats_rejects_uncovered():
    ns = nonsplit_context(2, [0])
    # x+2 outside J_rho has no generator rule
    with pytest.raises(ValueError, match="no generator rule for X2 at j=1 outside J_rho"):
        profile_stats(ns, prof("X0", "X2"))
    with pytest.raises(ValueError, match=r"is not in P\^ss$"):
        profile_stats(split_context(2), prof("X0", "X1"))  # not in P^ss


def test_count_by_A_irreducible_f3():
    counts = count_by_A(GaloisContext(3, "irreducible"))
    assert counts.closed == {1: 6, 3: 2}
    assert counts.closed_p_level == {1: 4 * 6, 3: 1 * 2}


def test_count_by_A_split_f2():
    counts = count_by_A(split_context(2))
    assert counts.closed_p_level == counts.enumerated_p_level == {0: 8, 2: 2}  # over D, and over P
    assert counts.closed == {0: 2, 2: 2}
    assert counts.enumerated == {0: 2, 2: 2}
    assert counts.ok


def test_count_by_A_nonsplit_f2():
    counts = count_by_A(nonsplit_context(2, [0]))
    assert counts.closed_p_level is counts.enumerated_p_level is None  # over Pbar only
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
        j_rho = [j for j in range(f) if mask & (1 << j)]
        if len(j_rho) == f:
            ctx = split_context(f)
        else:
            ctx = nonsplit_context(f, j_rho)
        for lam in enumerate_profiles(ctx, "P"):
            st_ = profile_stats(ctx, lam)
            assert ctx.j_rho_c & st_.a_set == ctx.j_rho_c == (1 << f) - 1 - mask
            if ctx.case == "split":
                assert st_.a_set.bit_count() % 2 == 0


@pytest.mark.parametrize("f", range(1, 5))
def test_a_histogram_reads_a_without_profile_stats(f):
    """|A| from the entries and J_rho alone equals len(a_set) on every profile that a_histogram is given.

    Outside P both refuse the profile.
    """
    for ctx in reducible_contexts(f):
        for which in ("P", "D") if ctx.case == "split" else ("P", "Pbar"):
            for lam in enumerate_profiles(ctx, which):
                assert a_histogram(ctx, [lam]) == {profile_stats(ctx, lam).a_set.bit_count(): 1}, (ctx, lam)
        for lam in enumerate_profiles(ctx, "Pss"):  # outside P, profile_stats has no t-rule and neither has A
            if not in_p(ctx, lam):
                with pytest.raises(ValueError, match="outside J_rho$"):
                    profile_stats(ctx, lam)
                with pytest.raises(ValueError, match="is not in P for this context$"):
                    a_histogram(ctx, [lam])


@pytest.mark.parametrize("f", range(2, 6))
def test_pbar_fibers(f):
    from itertools import combinations

    from serrecalc.verify import reducible_contexts

    for ctx in reducible_contexts(f):
        if ctx.case != "nonsplit":
            continue
        d = ctx.d_rho
        pbar = enumerate_profiles(ctx, "Pbar")
        assert all(in_p(ctx, lam) for lam in pbar)
        for r in range(d + 1):
            for sub in combinations([j for j in range(f) if ctx.j_rho >> j & 1], r):
                want = sum(1 << j for j in sub) | ctx.j_rho_c
                fiber = [lam for lam in pbar if profile_stats(ctx, lam).a_set == want]
                assert len(fiber) == 2 ** (f - d)


@pytest.mark.parametrize("f", range(1, 7))
def test_length_witnesses(f):
    for d in range(f):
        ctx = nonsplit_context(f, frozenset(range(d)))
        found = length_witnesses(ctx)
        assert all(k in found for k in range(1, f + 1))


def test_character_window_examples():
    lam = prof("X0")
    for ctx, v_chi in ((split_context(1), {0, 0b1}), (nonsplit_context(1, []), {0})):
        assert (lam.x2 | lam.p3) & ctx.j_rho == j_dprime(ctx, lam) == 0  # J' and J''
        assert character_window(ctx, lam) == frozenset(v_chi)

    # all coordinates at {x, p-1-x}: singletons and the empty set
    ns, lam = nonsplit_context(3, [0, 1]), prof("X0", "X0", "X0")
    assert lam.x2 | lam.p3 == 0
    assert character_window(ns, lam) == frozenset({0, 0b01, 0b10})


@pytest.mark.parametrize("f", range(1, 5))
def test_v_chi_window_union(f):
    for ctx in reducible_contexts(f):
        for lam in enumerate_profiles(ctx, "P"):
            assert character_window(ctx, lam) == v_chi_from_windows(ctx, lam)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11")
def test_the_window_union_never_enters_character_window():
    """``v_chi_from_windows`` is the oracle of ``character_window`` and reads J' and J'' itself."""
    entered = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("serrecalc."):
            entered.append(frame.f_code.co_qualname)

    for f in range(1, 4):
        for ctx in reducible_contexts(f):
            for lam in enumerate_profiles(ctx, "P"):
                previous = sys.getprofile()
                sys.setprofile(hook)
                try:
                    v_chi_from_windows(ctx, lam)
                finally:
                    sys.setprofile(previous)
    assert "j_dprime" in entered and "character_window" not in entered


def test_profile_serialization_round_trip():
    lam = prof("X0", "P2", "X1")
    assert WeightProfile.from_tags(lam.tags()) == lam


TAGS = list(CORE_SYMBOLS)


@pytest.mark.parametrize("f", range(1, 5))
def test_tags_round_trip_on_every_tuple(f):
    for tags in product(TAGS, repeat=f):
        lam = WeightProfile.from_tags(tags)
        assert lam.tags() == list(tags) and lam.f == f and repr(lam) == f"WeightProfile({','.join(tags)})"
        assert WeightProfile.from_tags(lam.tags()) == lam


@pytest.mark.parametrize("f", range(1, 7))
def test_tags_round_trip_on_pss(f):
    for lam in _pss_list(f):
        again = WeightProfile.from_tags(lam.tags())
        assert again == lam and hash(again) == hash(lam) and again.f == f


def test_profile_masks_must_partition_the_indices():
    assert WeightProfile(0b001, 0, 0, 0b100, 0, 0b010).tags() == ["X0", "P1", "P3"]
    for masks in ((0b11, 0b01, 0, 0, 0, 0),  # index 0 holds two symbols
                  (0b101, 0, 0, 0, 0, 0),  # index 1 holds none
                  (0, 0, 0, 0, 0b100, 0),  # indices 0 and 1 hold none
                  (-1, 0, 0, 0, 0, 0)):
        with pytest.raises(ValueError, match="partition"):
            WeightProfile(*masks)
    with pytest.raises(ValueError, match="profiles need at least one entry"):
        WeightProfile(0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="profiles need at least one entry"):
        WeightProfile.from_tags([])


@pytest.mark.parametrize("tag", ["XM1", "Q9", "x0", ""])
def test_every_other_tag_is_refused_with_one_message(tag):
    for tags in ([tag], ["X0", tag], [tag, "P1"]):
        with pytest.raises(ValueError, match="^profiles take the six core symbols only$"):
            WeightProfile.from_tags(tags)


def test_index_set_masks_are_nonnegative():
    assert indices(0) == [] and indices(0b1011) == [0, 1, 3]
    for mask in (-1, -5):
        with pytest.raises(ValueError, match="negative"):
            indices(mask)


def test_families_name_every_enumerable_family():
    ctx = nonsplit_context(2, [0])
    assert FAMILIES == ("Pss", "P", "Dss", "D", "Pbar")
    assert all(isinstance(enumerate_profiles(ctx, which), list) for which in FAMILIES)
    with pytest.raises(ValueError, match="unknown family"):
        enumerate_profiles(ctx, "Q")


@pytest.mark.parametrize("f", range(1, 4))
def test_one_profile_by_every_constructor_is_one_value(f):
    """A profile from ``from_tags``, from ``_pss_list`` and from ``_lambda_prime`` is equal, with an equal hash."""
    from serrecalc.predictions import _lambda_prime

    listed = {tuple(lam.tags()): lam for lam in _pss_list(f)}
    made = 0
    for ctx in reducible_contexts(f):
        for lam in enumerate_profiles(ctx, "P"):
            st_ = profile_stats(ctx, lam)
            pool = [j for j in range(f) if (st_.j1 | st_.j2) >> j & 1]
            for r in range(len(pool) + 1):
                for sub in combinations(pool, r):
                    tags = lam.tags()
                    for j in sub:
                        tags[j] = "P3" if st_.j1 >> j & 1 else "X2"
                    moved, built = _lambda_prime(lam, st_, _mask(sub)), WeightProfile.from_tags(tags)
                    assert moved == built and hash(moved) == hash(built) and moved.tags() == tags
                    if in_pss(moved):
                        assert listed[tuple(tags)] == moved and hash(listed[tuple(tags)]) == hash(moved)
                        made += 1
    assert made


def _mask(js) -> int:
    return sum(1 << j for j in set(js))


@pytest.mark.parametrize("f", range(1, 7))
def test_masks_restate_the_definitions_coordinate_by_coordinate(f):
    """Every mask the package holds, against the paper's definitions restated one coordinate at a time.

    P^ss is every f-tuple, built by ``from_tags``, that passes ``in_pss``; each P^ss profile's masks, each
    family's members, and the ``ProfileStats``, J', J'' and V_chi of each P-profile, in every reducible context.
    """
    tag_tuples = product(CORE_SYMBOLS, repeat=f)
    pss = [lam for lam in map(WeightProfile.from_tags, tag_tuples) if in_pss(lam)]
    assert list(_pss_list(f)) == pss
    for lam in pss:
        tags = lam.tags()
        at = lambda *symbols: _mask(j for j in range(f) if tags[j] in symbols)
        assert (lam.x0, lam.x1, lam.x2, lam.p3, lam.p2, lam.p1) == (
            at("X0"), at("X1"), at("X2"), at("P3"), at("P2"), at("P1"))
        assert j_set(lam) == at("X1", "X2", "P3")
    for ctx in reducible_contexts(f):
        rho = {j for j in range(f) if ctx.j_rho >> j & 1}
        assert ctx.j_rho_c == _mask(set(range(f)) - rho) and ctx.d_rho == len(rho)
        members = {"P": [], "D": [], "Pbar": [], "Dss": []}
        for lam in pss:
            tags = lam.tags()
            in_family = {
                "P": all(j in rho for j in range(f) if tags[j] in ("X2", "P3")),
                "Dss": all(t in ("X0", "X1", "P3", "P2") for t in tags),
            }
            in_family["D"] = in_family["Dss"] and all(j in rho for j in range(f) if tags[j] in ("X1", "P3"))
            in_family["Pbar"] = in_family["P"] and "X2" not in tags and all(j not in rho for j in range(f)
                                                                           if tags[j] == "P1")
            for which, ok in in_family.items():
                if ok:
                    members[which].append(lam)
            assert in_p(ctx, lam) == in_family["P"], (ctx, lam)
            if not in_family["P"]:
                continue
            st_ = profile_stats(ctx, lam)
            assert st_.j_lambda == _mask(j for j in range(f) if tags[j] in ("X1", "X2", "P3"))
            assert st_.ell == sum(t in ("X1", "X2", "P3") for t in tags)
            assert st_.a_set == _mask(j for j in range(f) if j not in rho or tags[j] in ("X1", "P2"))
            assert st_.k == sum(j in rho and tags[j] not in ("X1", "P2") for j in range(f))
            assert st_.j1 == _mask(j for j in range(f) if j not in rho and tags[j] == "P1")
            assert st_.j2 == _mask(j for j in range(f) if j not in rho and tags[j] == "X0")
            assert st_.ty == _mask(j for j in rho if tags[j] in ("X2", "P1"))
            assert st_.tz == _mask(j for j in rho if tags[j] in ("X0", "P3"))
            j_min = {j for j in rho if tags[j] in ("X2", "P3")}
            j_dp = {j for j in rho if tags[j] in ("X1", "P2")}
            assert ((lam.x2 | lam.p3) & ctx.j_rho, j_dprime(ctx, lam)) == (_mask(j_min), _mask(j_dp))
            subsets = [set(sub) for r in range(len(rho) + 1) for sub in combinations(sorted(rho), r)]
            assert character_window(ctx, lam) == {_mask(J) for J in subsets if len((J - j_dp) ^ j_min) <= 1}
        for which, want in members.items():
            assert enumerate_profiles(ctx, which) == want, (ctx, which)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11")
def test_listing_p_d_and_pbar_never_tests_pss_again():
    """P, D and Pbar are the cached P^ss filtered by its masks; ``in_pss`` is never entered for a member."""
    entered = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_qualname == "in_pss":
            entered.append(frame.f_globals.get("__name__"))

    _pss_list.cache_clear()  # the first listing at each f builds P^ss, the later ones read it
    for f in range(1, 5):
        for ctx in reducible_contexts(f):
            previous = sys.getprofile()
            sys.setprofile(hook)
            try:
                listed = [enumerate_profiles(ctx, which) for which in ("P", "D", "Pbar")]
            finally:
                sys.setprofile(previous)
            assert not entered, (ctx, entered)
            assert listed[0] and all(in_pss(lam) for family in listed for lam in family)
