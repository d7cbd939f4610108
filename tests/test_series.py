import ast
import gc
import pickle
import random
from itertools import product
from math import comb
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import serrecalc
from serrecalc.cli import Command
from serrecalc.homology import ext_dims
from serrecalc.ideals import Monomial, MonomialIdeal
from serrecalc.pbw import tor1_gr
from serrecalc.predictions import SubquotientSpec, hilbert_pi, semisimple_match, theta_lattice, x_counts
from serrecalc.series import (
    BigradedSeries,
    CharOffset,
    IntPoly,
    RationalSeries,
    _ball_points,
    bigraded_to_json,
    expand,
    rational_to_json,
)
from serrecalc.verify import CheckRecord
from serrecalc.weights import (
    WeightProfile,
    count_by_A,
    nonsplit_context,
    profile_stats,
    split_context,
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


@given(polys, polys, st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=8))
def test_expand_linear(a, b, pole, n):
    lhs = expand(RationalSeries(a + b, pole), n)
    ra = expand(RationalSeries(a, pole), n)
    rb = expand(RationalSeries(b, pole), n)
    assert lhs == [x + y for x, y in zip(ra, rb)]


@given(polys, st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=8))
def test_expand_matches_long_division(p, pole, n):
    got = expand(RationalSeries(p, pole), n)
    assert got == long_division(list(p.coeffs), pole, n)


@pytest.mark.parametrize("pole", range(7))
def test_expand_matches_a_binomial_sum(pole):
    """Each coefficient against sum_i c_i * C(d - i + p - 1, p - 1); at pole 0 that binomial is [d == i]."""
    rng = random.Random(pole)
    for _ in range(40):
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(0, 9))]
        n = rng.randint(0, 40)
        want = [
            sum(c * (comb(d - i + pole - 1, pole - 1) if pole else int(d == i)) for i, c in enumerate(coeffs[: d + 1]))
            for d in range(n + 1)
        ]
        assert expand(RationalSeries(IntPoly(tuple(coeffs)), pole), n) == want


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


X0 = WeightProfile.from_tags(["X0"])
# one instance of every value type, with its repr
VALUES = [
    (IntPoly.of(1, 2), "IntPoly(coeffs=(1, 2))"),
    (RationalSeries(IntPoly.of(1, 1), 2), "RationalSeries(num=IntPoly(coeffs=(1, 1)), pole=2)"),
    (split_context(1), "GaloisContext(f=1, case=<Case.SPLIT: 'split'>, j_rho=1)"),
    (X0, "WeightProfile(X0)"),
    (profile_stats(split_context(1), X0), "ProfileStats(j_lambda=0, ell=0, ty=0, tz=1, a_set=0, k=1, j1=0, j2=0)"),
    (count_by_A(split_context(1)), "ACounts(domain='D', closed={0: 2}, enumerated={0: 2}, closed_p_level={0: 4}, "
     "enumerated_p_level={0: 4}, ok=True)"),
    (Command("h", (), len), "Command(help='h', flags=(), payload=<built-in function len>, ok=(), rows=None)"),
    (MonomialIdeal(2, (Monomial((1, 0)),)), "MonomialIdeal(ambient=2, gens=((1, 0),))"),
    (ext_dims(1, 0), "ExtDims(closed=(1, 2, 1), oracle=(1, 2, 1), convolution=(1, 2, 1), ok=True)"),
    (tor1_gr(split_context(1), X0),
     "GrTorDims(dim_im_d1=4, dim_ker_d1=10, dim_im_d2=3, tor1=7, expected=(4, 10, 3, 7), ok=True)"),
    (SubquotientSpec(-1, 0), "SubquotientSpec(i0=-1, i0p=0)"),
    (hilbert_pi(split_context(1)), "SeriesCheck(closed=RationalSeries(num=IntPoly(coeffs=(4,)), pole=1), "
     "enumerated=RationalSeries(num=IntPoly(coeffs=(4,)), pole=1), equal=True)"),
    (theta_lattice(nonsplit_context(1, []), X0, 2, 0), "LatticeBox(d_lambda=1, points=frozenset({(0,), (1,), (-1,)}), "
     "jh_theta=frozenset({(-1,)}), chain_ok=True, no_descent=None)"),
    (semisimple_match(nonsplit_context(1, []), 0), "MatchResult(bijection_ok=True, hilbert_ok=True, pairs=2)"),
    (x_counts(split_context(1), X0), "XCounts(x0=1, x1=1, x2=1, expected=(1, 1, 1), ok=True)"),
    (CheckRecord("s", "c", True, "", 1, 0.5),
     "CheckRecord(suite='s', check='c', ok=True, detail='', cases=1, elapsed_s=0.5)"),
]
# what each hash covers, where that is not the tuple of every field in order
HASHED = {
    "ACounts": lambda x: (x.domain, x.ok),
    "RationalSeries": RationalSeries.reduced_pair,
}


def test_every_value_type_has_an_instance_below():
    package_types = {cls for module in vars(serrecalc).values() if isinstance(module, ModuleType)
                     for cls in vars(module).values() if isinstance(cls, type) and hasattr(cls, "_fields")}
    assert package_types == {type(v) for v, _ in VALUES} and len(VALUES) == 16


def test_char_offset_is_its_tuple():
    """A table key's offset compares and hashes as its exponent tuple, in C; the collector still tracks it."""
    c = CharOffset([1, -1])
    assert c == (1, -1) and (1, -1) == c and hash(c) == hash((1, -1)) and c != (1, -1, 0)
    assert {(0, c): 1} == {(0, (1, -1)): 1}
    assert type(c.exps) is tuple and c.exps == c
    again = pickle.loads(pickle.dumps(c))
    assert type(again) is CharOffset and again == c
    assert gc.is_tracked(c)


def test_monomial_is_its_tuple():
    """A monomial compares and hashes as its exponent tuple, in C, and keeps its nonnegativity check."""
    m = Monomial((1, 0, 2))
    assert m == (1, 0, 2) and (1, 0, 2) == m and hash(m) == hash((1, 0, 2)) and m != (1, 0, 2, 0)
    assert {m: 1} == {(1, 0, 2): 1}
    assert Monomial([1, 0]) == Monomial((1, 0)) and hash(Monomial([1, 0])) == hash((1, 0))
    with pytest.raises(ValueError, match="^exponents must be nonnegative$"):
        Monomial((1, -1))
    again = pickle.loads(pickle.dumps(m))
    assert type(again) is Monomial and again == m
    assert type(m + (0,)) is tuple and m * Monomial((0, 1, 1)) == (1, 1, 3)


@pytest.mark.parametrize("value, text", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_value_types_are_frozen_records(value, text):
    """A record is a named tuple: frozen, with no instance dict, copied and pickled as its own type."""
    cls = type(value)
    assert isinstance(value, tuple)
    first = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, first, getattr(value, first))
    with pytest.raises(AttributeError):
        value.extra = 1
    for copy in (value._replace(), pickle.loads(pickle.dumps(value))):
        assert type(copy) is cls and copy == value
    fields = HASHED.get(cls.__name__, lambda x: tuple(getattr(x, name) for name in cls._fields))(value)
    assert hash(value) == hash(fields)
    assert repr(value) == text


def test_no_tuple_is_built_from_a_generator_or_map():
    """tuple(<generator>) and tuple(map(...)) have no length hint, so the tuple is over-allocated and then
    shrunk; in the kernels' short tuples that raised a process's peak memory, where tuple([...]) did not."""
    found = []
    for path in sorted(Path(serrecalc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "tuple":
                arg = node.args[0] if node.args else None
                mapped = isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name) and arg.func.id == "map"
                if isinstance(arg, ast.GeneratorExp) or mapped:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"build these tuples from a list: {', '.join(found)}"


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=5), st.integers(0, 5))
@example([(-1, 1), (1, 2), (0, 2)], 1)  # left reaches 0 at x_0 = -1, where x_1 cannot be 0
@example([(0, 2), (0, 2), (-2, -1)], 2)
@example([(0, 3)] * 4, 0)
def test_ball_points_match_a_product_filter(bounds, left):
    """Every bounds box, holding 0 or not, and every radius: the ball listed in lexicographic order."""
    points = _ball_points(bounds, left)
    box = product(*(range(lo, hi + 1) for lo, hi in bounds))
    assert points == [p for p in box if sum(map(abs, p)) <= left]


def test_ball_points_walk_more_coordinates_than_the_recursion_limit():
    n = 1500
    unit = lambda j, v: (0,) * j + (v,) + (0,) * (n - 1 - j)
    want = [unit(j, -1) for j in range(n)] + [(0,) * n] + [unit(j, 1) for j in reversed(range(n))]
    assert _ball_points([(-1, 1)] * n, 1) == want
    assert _ball_points([(0, 1)] * n, 0) == [(0,) * n] and _ball_points([(1, 1)] * n, 0) == []
