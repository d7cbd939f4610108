from hypothesis import given
from hypothesis import strategies as st

from serrecalc.series import (
    BigradedSeries,
    CharOffset,
    IntPoly,
    RationalSeries,
    bigraded_to_json,
    expand,
    rational_to_json,
)

polys = st.lists(st.integers(min_value=-9, max_value=9), max_size=6).map(
    lambda cs: IntPoly(tuple(cs))
)


def long_division(num: list[int], pole: int, n: int) -> list[int]:
    """Independent oracle: repeated synthetic division by the denominator."""
    # coefficients of (1-t)^pole
    den = [1]
    for _ in range(pole):
        den = [a - (den[i - 1] if i else 0) for i, a in enumerate(den)] + [-den[-1]]
    out = []
    rem = list(num) + [0] * (n + 1)
    for d in range(n + 1):
        c = rem[d] // den[0]
        out.append(c)
        for i, dc in enumerate(den):
            if d + i < len(rem):
                rem[d + i] -= c * dc
    return out


def test_trailing_zeros_normalized():
    assert IntPoly((1, 0, 0)).coeffs == (1,)
    assert IntPoly((0, 0)).coeffs == ()
    assert IntPoly(()).is_zero()


def test_expand_geometric():
    assert expand(RationalSeries(IntPoly.of(1), 1), 3) == [1, 1, 1, 1]


def test_expand_three_plus_t():
    assert expand(RationalSeries(IntPoly.of(3, 1), 1), 3) == [3, 4, 4, 4]


def test_expand_split_f2_closed_form():
    num = IntPoly.of(3, 1) ** 2 + IntPoly.of(1, -1) ** 2
    assert num.coeffs == (10, 4, 2)
    got = expand(RationalSeries(num, 2), 2)
    assert got == long_division([10, 4, 2], 2, 2) == [10, 24, 40]


@given(polys, polys, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=8))
def test_expand_linear(a, b, pole, n):
    lhs = expand(RationalSeries(a + b, pole), n)
    ra = expand(RationalSeries(a, pole), n)
    rb = expand(RationalSeries(b, pole), n)
    assert lhs == [x + y for x, y in zip(ra, rb)]


@given(polys, st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=8))
def test_expand_matches_long_division(p, pole, n):
    got = expand(RationalSeries(p, pole), n)
    assert got == long_division(list(p.coeffs), pole, n)


def test_rational_equality_cross_multiplied():
    # (1+t)/(1-t) == (1-t^2)/(1-t)^2
    a = RationalSeries(IntPoly.of(1, 1), 1)
    b = RationalSeries(IntPoly.of(1, 0, -1), 2)
    assert a == b
    assert a != RationalSeries(IntPoly.of(1, 1), 2)


def test_rational_reduced():
    r = RationalSeries(IntPoly.of(1, 0, -1), 2).reduced()
    assert r.num.coeffs == (1, 1) and r.pole == 1


def test_binomial_identities():
    for n in range(13):
        plus = IntPoly.of(2, 1) ** n
        minus = IntPoly.of(2, -1) ** n
        odd = IntPoly.zero()
        even = IntPoly.zero()
        from math import comb

        for i in range(n + 1):
            term = IntPoly.t_power(i, comb(n, i) * 2 ** (n - i))
            odd, even = (odd + term, even) if i % 2 else (odd, even + term)
        assert plus - minus == odd.scale(2)
        assert plus + minus == even.scale(2)


def test_json_forms():
    """The CLI's output: integers as decimal strings, table entries sorted by degree, then offset."""
    assert rational_to_json(RationalSeries(IntPoly.of(10, 4, 2), 2)) == {"num": ["10", "4", "2"], "pole": 2}
    b = BigradedSeries(3, {(1, CharOffset((2, -1))): 5, (0, CharOffset((0, 0))): 1})
    assert bigraded_to_json(b) == {"trunc": 3, "entries": [
        {"deg": 0, "offset": [0, 0], "mult": "1"},
        {"deg": 1, "offset": [2, -1], "mult": "5"},
    ]}
