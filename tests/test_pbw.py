from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrecalc.pbw import (
    _expected_dims,
    _tor1_dims,
    char_multiset,
    gr_formula,
    mono_degree,
    mono_mul,
    mono_offset,
    pbw_basis,
    pbw_mul,
    tor1_gr,
)
from serrecalc.weights import (
    WeightProfile,
    enumerate_profiles,
    nonsplit_context,
    split_context,
)


def prof(*tags):
    return WeightProfile.from_tags(tags)


def elem(f, **powers):
    """Build a monomial element like elem(1, y0=1) -> y_0."""
    m = [0] * (3 * f)
    for name, e in powers.items():
        kind, j = name[0], int(name[1:])
        m[{"y": 0, "z": 1, "h": 2}[kind] * f + j] = e
    return {tuple(m): 1}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("f", [1, 2, 3])
def test_basis_against_the_box(f, n):
    """The basis is the box [0, n)^(3f) cut at degree < n, listed degree by degree in lexicographic order."""
    box = list(product(range(n), repeat=3 * f))
    assert pbw_basis(f, n) == tuple(m for d in range(n) for m in box if mono_degree(m, f) == d)


def test_basis_f1():
    got = pbw_basis(1, 3)
    assert len(got) == 7
    degs = [mono_degree(m, 1) for m in got]
    assert degs == sorted(degs)
    assert pbw_basis(1, 1) == ((0, 0, 0),)


def test_basis_f2_size():
    # 2f^2 + 4f + 1 at f = 2
    assert len(pbw_basis(2, 3)) == 17


@pytest.mark.parametrize("f", range(1, 7))
def test_basis_dimension_formula(f):
    assert len(pbw_basis(f, 3)) == 2 * f * f + 4 * f + 1


def test_basis_rejects_large_n():
    with pytest.raises(ValueError):
        pbw_basis(1, 4)


def test_defining_relation():
    got = pbw_mul(elem(1, z0=1), elem(1, y0=1), 1, 3)
    assert got == {(1, 1, 0): 1, (0, 0, 1): -1}


def test_truncation_kills_degree_three():
    y = elem(1, y0=1)
    assert pbw_mul(pbw_mul(y, y, 1, 3), y, 1, 3) == {}


def test_distinct_indices_commute():
    a = pbw_mul(elem(2, z0=1), elem(2, y1=1), 2, 3)
    b = pbw_mul(elem(2, y1=1), elem(2, z0=1), 2, 3)
    assert a == b


def test_straightening_confluence():
    z, y = elem(1, z0=1), elem(1, y0=1)
    lhs = pbw_mul(pbw_mul(z, y, 1, 4), z, 1, 4)
    rhs = pbw_mul(z, pbw_mul(y, z, 1, 4), 1, 4)
    assert lhs == rhs


def test_straightening_reaches_degree_three():
    # (z0 y0) z0 = (y0 z0 - h0) z0 = y0 z0^2 - z0 h0
    got = pbw_mul(pbw_mul(elem(1, z0=1), elem(1, y0=1), 1, 4), elem(1, z0=1), 1, 4)
    assert got == {(1, 2, 0): 1, (0, 1, 1): -1}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_associativity_degree_one(data):
    f = data.draw(st.integers(min_value=1, max_value=2))
    gens = [m for m in pbw_basis(f, 3) if mono_degree(m, f) == 1]
    coeffs = st.integers(min_value=-2, max_value=2)
    make = lambda: {
        m: c
        for m, c in zip(gens, data.draw(st.lists(coeffs, min_size=len(gens), max_size=len(gens))))
        if c
    }
    a, b, c = make(), make(), make()
    lhs = pbw_mul(pbw_mul(a, b, f, 4), c, f, 4)
    rhs = pbw_mul(a, pbw_mul(b, c, f, 4), f, 4)
    assert lhs == rhs


def straightened_product(a, b, f, n):
    """a * b pushed one generator of b at a time past a, by z_j^p y_j = y_j z_j^p - p z_j^(p-1) h_j.

    h is central and distinct indices commute, so a term with z_j^p only gains
    a second term when the next generator is y_j.  Exact in every degree, then
    truncated at degree n.
    """
    acc = {a: 1}
    for i, e in enumerate(b):
        for _ in range(e):
            out = {}
            for m, c in acc.items():
                grown = list(m)
                grown[i] += 1
                terms = [(tuple(grown), c)]
                if i < f and m[f + i]:
                    traded = list(m)
                    traded[f + i] -= 1
                    traded[2 * f + i] += 1
                    terms.append((tuple(traded), -m[f + i] * c))
                for mono, coef in terms:
                    out[mono] = out.get(mono, 0) + coef
            acc = {m: c for m, c in out.items() if c}
    return {m: c for m, c in acc.items() if mono_degree(m, f) < n}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("f", [1, 2, 3])
def test_mono_mul_matches_the_commutator_formula(f, n):
    """The closed product equals generator-by-generator straightening on every pair of degree < n."""
    basis = [m for m in product(range(n), repeat=3 * f) if mono_degree(m, f) < n]
    for a, b in product(basis, repeat=2):
        assert mono_mul(a, b, f, n) == straightened_product(a, b, f, n), (a, b)


@pytest.mark.parametrize("n", [0, 5])
def test_products_check_n_before_the_factors(n):
    y, unit = (1, 0, 0), (0, 0, 0)
    with pytest.raises(ValueError):
        mono_mul(y, unit, 1, n)
    with pytest.raises(ValueError):
        pbw_mul({y: 1}, {unit: 1}, 1, n)


def test_char_multiset_trivial_character():
    for f in (1, 2, 3):
        assert char_multiset(f, 2)[(0,) * f] == 2 * f


def test_mono_offset():
    # y_0 z_1 carries offset (+1, -1); y_0 z_0 is offset-free
    assert mono_offset((1, 0, 0, 1, 0, 0), 2) == (1, -1)
    assert mono_offset((1, 0, 1, 0, 0, 0), 2) == (0, 0)


def test_gr_formula_values():
    assert gr_formula(1, 0) == 11
    assert gr_formula(1, 1) == 7
    assert gr_formula(2, 2) == 33


def test_tor1_f1():
    split1 = split_context(1)
    r = tor1_gr(split1, prof("X0"))
    assert (r.dim_im_d1, r.dim_ker_d1, r.dim_im_d2, r.tor1) == (4, 10, 3, 7)
    assert r.ok
    ns1 = nonsplit_context(1, [])
    r = tor1_gr(ns1, prof("X0"))
    assert r.tor1 == 11 and r.ok


@pytest.mark.parametrize("f", (1, 2))
def test_tor1_matches_formula(f):
    from serrecalc.verify import reducible_contexts

    for ctx in reducible_contexts(f):
        for lam in enumerate_profiles(ctx, "P"):
            assert tor1_gr(ctx, lam).ok


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_tor1_ranks_match_the_closed_forms(f):
    """Every t-rule on both sides: t_j = y_j on ty, z_j on tz; k counts the coordinates whose t_j is not y_j z_j."""
    for ty, tz in product(range(1 << f), repeat=2):
        if ty & tz:
            continue
        for side in ("right", "left"):
            im1, ker1, im2 = _tor1_dims(f, ty, tz, side)
            assert (im1, ker1, im2, ker1 - im2) == _expected_dims(f, (ty | tz).bit_count()), (ty, tz, side)


def test_tor1_side_flag():
    ns = nonsplit_context(2, [0])
    lam = prof("X0", "X0")
    right, left = tor1_gr(ns, lam, "right"), tor1_gr(ns, lam, "left")
    assert (right.dim_im_d1, right.dim_ker_d1, right.dim_im_d2) == (
        left.dim_im_d1,
        left.dim_ker_d1,
        left.dim_im_d2,
    )
    with pytest.raises(ValueError):
        tor1_gr(ns, lam, "middle")


def test_differentials_compose_to_zero():
    """Every second-differential column maps to zero under the first."""
    from serrecalc.weights import profile_stats

    ctx = nonsplit_context(2, [0])
    lam = prof("X2", "X0")
    st_ = profile_stats(ctx, lam)
    f = 2
    # t_j is y_j on ty, z_j on tz and y_j z_j elsewhere
    names = ["y" if st_.ty >> j & 1 else "z" if st_.tz >> j & 1 else "yz" for j in range(f)]
    t_of = [next(iter(elem(f, **{f"{v}{j}": 1 for v in names[j]}))) for j in range(f)]
    h_of = [next(iter(elem(f, **{f"h{j}": 1}))) for j in range(f)]

    def acc(parts):
        total = {}
        for elem_, v in parts:
            prod = {}
            for m, c in elem_.items():
                for mm, cc in mono_mul(m, v, f, 3).items():
                    prod[mm] = prod.get(mm, 0) + c * cc
            for m, c in prod.items():
                total[m] = total.get(m, 0) + c
        return {m: c for m, c in total.items() if c}

    for w in pbw_basis(f, 3):
        for j in range(f):
            single = acc(
                [({m: -c for m, c in mono_mul(w, h_of[j], f, 3).items()}, t_of[j]),
                 (mono_mul(w, t_of[j], f, 3), h_of[j])]
            )
            assert single == {}
        for i in range(f):
            for j in range(i + 1, f):
                for vs in (t_of[i], h_of[i]):
                    for vt in (t_of[j], h_of[j]):
                        pair = acc(
                            [(mono_mul(w, vs, f, 3), vt),
                             ({m: -c for m, c in mono_mul(w, vt, f, 3).items()}, vs)]
                        )
                        assert pair == {}
