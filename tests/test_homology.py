import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from serrecalc import homology, ideals
from serrecalc.errors import SizeLimitError
from serrecalc.homology import (
    ext1_lower_bound,
    ext_closed,
    ext_dims,
    hochster_profile,
    homology_from_faces,
    profiles_agree,
    stanley_reisner_closed,
    taylor_profile,
)
from serrecalc.ideals import Monomial, MonomialIdeal, Packing, a1, a_lambda, hilbert, numerator, standard_counts_naive
from serrecalc.linalg import exact_rank
from serrecalc.predictions import shell_counts, shell_sizes, theta_lattice
from serrecalc.series import IntPoly, expand
from serrecalc.weights import (
    PRIME_TEST_BOUND,
    WeightProfile,
    enumerate_profiles,
    is_prime,
    j_dprime,
    nonsplit_context,
    profile_stats,
    split_context,
)


def mono(n, *idx):
    exps = [0] * n
    for i in idx:
        exps[i] += 1
    return Monomial(tuple(exps))


def test_two_isolated_points():
    dims = homology_from_faces([0b00, 0b01, 0b10])
    assert dims == {0: 1}


def test_full_simplex_contractible():
    assert homology_from_faces(range(0b1000)) == {}


def test_triangle_boundary():
    assert homology_from_faces(range(0b111)) == {1: 1}


def test_empty_complex_convention():
    assert homology_from_faces([0]) == {-1: 1}


def test_hochster_k1():
    ideal = ideals.pairing_ideal(1, 0b1, 0)
    assert hochster_profile(ideal)[1] == 1


def test_hochster_k2():
    ideal = ideals.pairing_ideal(2, 0b11, 0)
    assert hochster_profile(ideal)[1] == 3 == len(ideal.gens)
    assert hochster_profile(ideal)[2] == 2


def test_taylor_principal():
    ideal = MonomialIdeal(1, (Monomial((2,)),))
    assert taylor_profile(ideal) == [1, 1]  # Tor_2 = 0: the profile stops at i = 1


def test_taylor_complete_intersection():
    ideal = MonomialIdeal(2, (mono(2, 0), mono(2, 1)))
    assert taylor_profile(ideal) == [1, 2, 1]


def test_taylor_size_cap():
    n = 23
    ideal = MonomialIdeal(n, tuple(mono(n, i) for i in range(n)))
    with pytest.raises(SizeLimitError):
        taylor_profile(ideal)


def test_the_walk_answers_an_ideal_of_exactly_its_face_cap(monkeypatch):
    """16 coordinate variables: no face is pruned, so the walk visits all 2^16 subsets, and both callers answer.

    Each lcm block holds one face, so ``taylor_profile`` counts it without a homology pass."""
    n = ideals.FACE_CAP.bit_length() - 1
    ideal = MonomialIdeal(n, tuple(mono(n, i) for i in range(n)))
    walk, faces = ideals._lyubeznik_walk, []

    def record(gens, pk):
        for m, s_mask in walk(gens, pk):
            faces.append(s_mask)
            yield m, s_mask

    monkeypatch.setattr(homology, "_lyubeznik_walk", record)
    monkeypatch.setattr(homology, "homology_from_faces", lambda faces: pytest.fail("a one-face block was passed on"))
    assert taylor_profile(ideal) == [comb(n, i) for i in range(n + 1)]
    assert len(set(faces)) == len(faces) == 2**n == ideals.FACE_CAP
    assert hilbert(ideal).num == IntPoly.of(1, -1) ** n
    with pytest.raises(SizeLimitError):
        numerator(MonomialIdeal(n + 1, tuple(mono(n + 1, i) for i in range(n + 1))), sum)


def test_the_walk_holds_no_prefix_per_generator():
    """3,000 pairwise incomparable generators: the first face costs no copy of the generators below each index."""
    pk = Packing(2, range(3001))
    walk = ideals._lyubeznik_walk(tuple([pk.pack((i, 3000 - i)) for i in range(3000)]), pk)
    tracemalloc.start()
    try:
        assert next(walk) == (0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak  # 3,000 slices held for the walk took 34 MiB


def test_the_walk_tests_no_divisibility_below_the_empty_face():
    """Minimal generators never divide one another, so the empty face's children {g_i} are pushed untested."""
    n, tests = 40, []

    class Counting(Packing):
        def divides(self, a, b):
            tests.append((a, b))
            return super().divides(a, b)

    pk = Counting(2, range(n + 1))
    walk = ideals._lyubeznik_walk(tuple([pk.pack((i, n - i)) for i in range(n)]), pk)
    assert next(walk) == (0, 0) and next(walk)[1] == 1
    assert not tests, len(tests)  # a test per pair j < i made n (n - 1) / 2 = 780


def test_taylor_and_numerator_walk_the_same_lyubeznik_faces(monkeypatch):
    """One ``Packing.lcm`` per attempted extension, over the faces ``numerator`` walks too."""
    ideal = ideals.pairing_ideal(4, 0b1111, 0)
    walk, lcm = ideals._lyubeznik_walk, Packing.lcm
    faces, calls = [], []

    def record(gens, pk):
        for m, s_mask in walk(gens, pk):  # a face extends by the indices below its least one, the empty face by all
            faces.append((s_mask, (s_mask & -s_mask).bit_length() - 1 if s_mask else len(gens)))
            yield m, s_mask

    for module in (ideals, homology):  # each module enters the walk by its own name
        monkeypatch.setattr(module, "_lyubeznik_walk", record)
    monkeypatch.setattr(Packing, "lcm", lambda pk, a, b: calls.append(1) or lcm(pk, a, b))
    assert profiles_agree(taylor_profile(ideal), [stanley_reisner_closed(4, i) for i in range(5)])
    taylor_faces, taylor_lcms = sorted(faces), len(calls)
    faces.clear()
    numerator(ideal, sum)
    assert len(ideal.gens) == 10 and len(set(taylor_faces)) == len(taylor_faces) and taylor_faces == sorted(faces)
    assert taylor_lcms == sum(top for _, top in taylor_faces) < 2**10 - 1


def polarization(ideal: MonomialIdeal) -> MonomialIdeal:
    """x_j^e becomes x_{j,0} ... x_{j,e-1}, one new variable per power up to the largest."""
    tops = [max(g[j] for g in ideal.gens) for j in range(ideal.ambient)]
    starts = [sum(tops[:j]) for j in range(ideal.ambient)]
    polar = lambda g: mono(sum(tops), *(starts[j] + r for j, e in enumerate(g) for r in range(e)))
    return MonomialIdeal(sum(tops), tuple(polar(g) for g in ideal.gens))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=5)
    )
)
def test_taylor_on_non_squarefree_matches_hochster_of_polarization(exps):
    ideal = MonomialIdeal(len(exps[0]), tuple(Monomial(e) for e in exps))
    assume(not ideal.is_squarefree())
    # polarization keeps the Betti numbers
    assert profiles_agree(taylor_profile(ideal), hochster_profile(polarization(ideal)))


def test_tor1_counts_minimal_generators():
    ideal = MonomialIdeal(3, (mono(3, 0, 1), mono(3, 1, 2), mono(3, 0, 2)))
    assert taylor_profile(ideal)[1] == len(ideal.gens)
    assert hochster_profile(ideal)[1] == len(ideal.gens)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.frozensets(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_oracles_agree_on_random_squarefree(supports):
    gens = tuple(mono(5, *sorted(s)) for s in supports)
    ideal = MonomialIdeal(5, gens)
    tay = taylor_profile(ideal)
    hoch = hochster_profile(ideal)
    top = max(len(tay), len(hoch))
    pad = lambda xs: xs + [0] * (top - len(xs))
    assert pad(tay) == pad(hoch)


def test_oracles_agree_on_random_squarefree_ideals_with_many_generators():
    """8 to 14 generators in 10 variables, past the Hypothesis test's 5, where Lyubeznik's rule has more to prune.

    Hochster takes about 0.1 s an ideal here, Taylor about 2 ms.
    """
    rng = random.Random(19)
    for _ in range(30):
        target, gens = rng.randint(8, 14), []
        while len(MonomialIdeal(10, tuple(gens)).gens) < target:
            gens.append(mono(10, *rng.sample(range(10), rng.randint(2, 4))))
        ideal = MonomialIdeal(10, tuple(gens))
        assert profiles_agree(taylor_profile(ideal), hochster_profile(ideal)), ideal.gens


def test_oracles_agree_on_profile_ideals_f4():
    """Hochster equals Taylor on every distinct profile ideal up to f = 4."""
    from serrecalc.homology import profiles_agree
    from serrecalc.ideals import a_lambda
    from serrecalc.verify import reducible_contexts
    from serrecalc.weights import enumerate_profiles

    seen = set()
    for f in range(1, 5):
        for ctx in reducible_contexts(f):
            for lam in enumerate_profiles(ctx, "P"):
                ideal = a_lambda(ctx, lam)
                key = (ideal.ambient, ideal.gens)
                if key in seen:
                    continue
                seen.add(key)
                assert profiles_agree(taylor_profile(ideal), hochster_profile(ideal))


def patched_shape(f: int, ell: int, k: int) -> MonomialIdeal:
    """The patched intersection shape for |J_rho| = ell and a k-subset of Y-pairs, up to relabeling.

    X_j Y_j pairs over J_rho, Y-pairs over the k-subset, 2f - ell single variables.
    """
    n = 2 * ell + (2 * f - ell)
    gens = [mono(n, 2 * j, 2 * j + 1) for j in range(ell)]
    gens += [mono(n, 2 * i + 1, 2 * j + 1) for i, j in combinations(range(k), 2)]
    gens += [mono(n, 2 * ell + m) for m in range(2 * f - ell)]
    return MonomialIdeal(n, tuple(gens))


@pytest.mark.parametrize("f", range(1, 5))
def test_oracles_agree_on_patched_shapes(f):
    """Hochster equals Taylor on the patched intersection shapes up to f = 4."""
    for ell in range(f + 1):
        for k in range(ell + 1):
            ideal = patched_shape(f, ell, k)
            assert profiles_agree(taylor_profile(ideal), hochster_profile(ideal))


def test_hochster_walks_only_the_lcm_lattice(monkeypatch):
    """One homology per union of generator supports, counted without bit masks."""
    ideal = patched_shape(4, 4, 4)
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in ideal.gens]
    lattice = {frozenset().union(*sub) for r in range(len(supports) + 1) for sub in combinations(supports, r)}
    calls = []
    real = homology.homology_from_faces
    monkeypatch.setattr(homology, "homology_from_faces", lambda *args: calls.append(1) or real(*args))
    hochster_profile(ideal)
    assert len(calls) == len(lattice) < 2**ideal.ambient


# the two Tor oracles share the homology routine and the rank below it, nothing else
SHARED_BY_TOR_ORACLES = {
    ("serrecalc.homology", "homology_from_faces"),
    ("serrecalc.homology", "_boundary_rows"),
    ("serrecalc.linalg", "exact_rank"),
    ("serrecalc.linalg", "_strip_content"),
}


def serrecalc_calls(fn, *args) -> set[tuple[str, str]]:
    """(module, qualname up to ``.<locals>``) of every serrecalc function that ``fn(*args)`` enters."""
    seen = set()

    def hook(frame, event, arg):
        module = frame.f_globals.get("__name__", "")
        if event == "call" and module.startswith("serrecalc."):
            seen.add((module, frame.f_code.co_qualname.split(".<locals>")[0]))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return seen


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11")
def test_tor_oracles_share_only_the_homology_routine():
    ideal = ideals.pairing_ideal(3, 0b111, 0)
    hochster = serrecalc_calls(hochster_profile, ideal)
    taylor = serrecalc_calls(taylor_profile, ideal)
    assert ("serrecalc.homology", "homology_from_faces") in hochster & taylor
    leaked = sorted(".".join(key) for key in hochster & taylor - SHARED_BY_TOR_ORACLES)
    assert not leaked, f"the Tor oracles both call {', '.join(leaked)}"


# the Hilbert series and its naive oracle share nothing: the engine grades exponent tuples, not Monomials
SHARED_BY_HILBERT_ORACLES: set[tuple[str, str]] = set()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11")
def test_hilbert_oracles_share_only_the_monomial_type():
    ideal = a1(nonsplit_context(3, [0]), WeightProfile.from_tags(["X0"] * 3), 1)
    engine = serrecalc_calls(hilbert, ideal)
    naive = serrecalc_calls(standard_counts_naive, ideal, 5)
    assert ("serrecalc.ideals", "_lyubeznik_walk") in engine and ("serrecalc.ideals", "Monomial.__new__") in naive
    leaked = sorted(".".join(key) for key in engine & naive - SHARED_BY_HILBERT_ORACLES)
    assert not leaked, f"the Hilbert oracles both call {', '.join(leaked)}"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11")
def test_hilbert_and_numerator_enter_no_monomial_method():
    """The walk's lcms stay packed ints until ``grade`` reads their exponent tuples."""
    ideal = a1(nonsplit_context(3, [0]), WeightProfile.from_tags(["X0"] * 3), 1)
    entered = serrecalc_calls(hilbert, ideal) | serrecalc_calls(numerator, ideal, sum)
    assert ("serrecalc.ideals", "numerator") in entered
    methods = sorted(name for module, name in entered if name.startswith("Monomial."))
    assert not methods, f"the Hilbert engine calls {', '.join(methods)}"


# the theta lattice and the Hilbert series it is counted against share only profile_stats and what it calls
SHARED_BY_THETA_ORACLES = {
    ("serrecalc.weights", "profile_stats"),
    ("serrecalc.weights", "in_pss"),
    ("serrecalc.weights", "j_set"),
    ("serrecalc.weights", "j_dprime"),
    ("serrecalc.weights", "_require_reducible"),
    ("serrecalc.weights", "GaloisContext.j_rho_c"),
    ("serrecalc.weights", "GaloisContext.reducible"),
    ("serrecalc.weights", "WeightProfile.f"),
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11")
def test_theta_oracles_share_only_profile_stats():
    ctx, i0 = nonsplit_context(3, [0]), 1
    profiles = list(enumerate_profiles(ctx, "P"))
    lattice = serrecalc_calls(lambda: [theta_lattice(ctx, lam, i0 + 4, i0) for lam in profiles])
    series = serrecalc_calls(lambda: [expand(hilbert(a_lambda(ctx, lam)), ctx.f + 3) for lam in profiles])
    assert ("serrecalc.weights", "profile_stats") in lattice & series
    leaked = sorted(".".join(key) for key in lattice & series - SHARED_BY_THETA_ORACLES)
    assert not leaked, f"the theta oracles both call {', '.join(leaked)}"


# x_counts' counted shells and the closed shell sizes share only profile_stats and what it calls, as theta's do
SHARED_BY_SHELL_ORACLES = SHARED_BY_THETA_ORACLES


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11")
def test_shell_oracles_share_only_profile_stats():
    ctx = nonsplit_context(3, [0])
    profiles = list(enumerate_profiles(ctx, "P"))
    counted = serrecalc_calls(
        lambda: [shell_counts(ctx.f, st.ty, st.tz) for st in [profile_stats(ctx, lam) for lam in profiles]])
    closed = serrecalc_calls(lambda: [shell_sizes(ctx.f, profile_stats(ctx, lam).k) for lam in profiles])
    assert ("serrecalc.weights", "profile_stats") in counted & closed
    leaked = sorted(".".join(key) for key in counted & closed - SHARED_BY_SHELL_ORACLES)
    assert not leaked, f"the shell oracles both call {', '.join(leaked)}"


# patched_ideals' intersection and its expected pairing ideal share only the MonomialIdeal constructor's packed
# path and the monomial type it normalizes
SHARED_BY_PATCHED_SIDES = {
    ("serrecalc.ideals", "Monomial.__new__"),
    ("serrecalc.ideals", "Monomial.variable"),
    ("serrecalc.ideals", "Monomial.sort_key"),
    ("serrecalc.ideals", "Monomial.degree"),
    ("serrecalc.ideals", "MonomialIdeal.__new__"),
    ("serrecalc.ideals", "_minimalize"),
    ("serrecalc.ideals", "_minimal"),
    ("serrecalc.ideals", "_packing"),
    ("serrecalc.ideals", "Packing.over"),
    ("serrecalc.ideals", "Packing.__init__"),
    ("serrecalc.ideals", "Packing.pack"),
    ("serrecalc.ideals", "Packing.divides"),
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from Python 3.11")
def test_patched_sides_share_only_the_ideal_constructor():
    ctx, lam = split_context(4), WeightProfile.from_tags(["X0", "P2", "X1", "X0"])
    j_dp = j_dprime(ctx, lam)
    assert j_dp == 0b0110  # the Y-pairs run over positions 0 and 3 of J_rho, a mask that is not a prefix
    whole = serrecalc_calls(ideals.patched_ideals, ctx, lam)
    assert {("serrecalc.ideals", "_patched_intersection"), ("serrecalc.ideals", "pairing_ideal")} <= whole
    intersection = serrecalc_calls(ideals._patched_intersection, ctx.f, ctx.j_rho, j_dp)
    expected = serrecalc_calls(ideals.pairing_ideal, 4, 0b1001, 4)
    assert ("serrecalc.ideals", "MonomialIdeal.intersect") in intersection
    assert ("serrecalc.ideals", "paired") in expected
    leaked = sorted(".".join(key) for key in intersection & expected - SHARED_BY_PATCHED_SIDES)
    assert not leaked, f"the patched intersection and its expected ideal both call {', '.join(leaked)}"


def test_stanley_reisner_closed_values():
    assert stanley_reisner_closed(2, 0) == 1
    assert stanley_reisner_closed(2, 1) == 3
    assert stanley_reisner_closed(2, 2) == 2


def test_ext_dims_examples():
    assert ext_dims(1, 0).closed == (1, 2, 1)
    assert ext_dims(1, 0).ok
    assert ext_dims(2, 2).closed == (1, 5, 9)
    assert ext_dims(2, 2).ok
    assert ext_dims(1, 1).oracle == (1, 2, 1)
    with pytest.raises(ValueError):
        ext_dims(1, 2)


def test_padded_ideal_generator_count():
    ideal = ideals.pairing_ideal(3, 0b11, 3)
    assert len(ideal.gens) == 3 + 1 + 3


def test_ext1_lower_bound_examples():
    assert ext1_lower_bound(1, 1) == 3
    assert ext1_lower_bound(2, 0) == 10
    for f in range(1, 13):
        for k in range(f + 1):
            e = ext_closed(f, k)
            assert ext1_lower_bound(f, k) == 2 * f * e[1] - e[2], (f, k)


def fraction_rank(rows: list[dict[int, int]], ncols: int) -> int:
    """Rank by Gaussian elimination over ``Fraction``: the reference for ``exact_rank``."""
    matrix = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][c]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for r in range(rank + 1, len(matrix)):
            ratio = matrix[r][c] / matrix[rank][c]
            matrix[r] = [a - ratio * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


# a sparse row with entries in -3..3, all multiples of a common factor g in 1..3
sparse_row = st.integers(1, 3).flatmap(
    lambda g: st.dictionaries(st.integers(0, 5), st.integers(-(3 // g), 3 // g).map(lambda v: g * v), max_size=6)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(sparse_row, max_size=6))
@example([{0: 2, 1: 2}, {0: 3, 2: 3}])  # each pivot's content is stripped
@example([{0: 1, 1: 1}, {0: 1, 1: 3}, {1: 2, 2: 1}])  # a reduced row {1: 2} has content 2
def test_exact_rank_matches_fraction_elimination(rows):
    assert exact_rank(rows) == fraction_rank(rows, 6)


def test_hochster_rejects_non_squarefree():
    ideal = MonomialIdeal(2, (Monomial((2, 0)),))
    with pytest.raises(ValueError):
        hochster_profile(ideal)


def test_is_prime_against_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-3, 10**4) if is_prime(n) != trial(n)] == []
    # Carmichael numbers fool the Fermat test on every coprime base
    assert not any(is_prime(n) for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265))
    # a strong pseudoprime to every base 2..31, caught only by 37
    assert not is_prime(3825123056546413051)
    # a strong pseudoprime to every base 2..37, caught only by 41
    assert not is_prime(318665857834031151167461)
    assert is_prime(1000000000000000003) and not is_prime(1000000000000000001)
    assert trial(1000003) and not is_prime((2**61 - 1) * 1000003)
    with pytest.raises(SizeLimitError):
        is_prime(PRIME_TEST_BOUND)
