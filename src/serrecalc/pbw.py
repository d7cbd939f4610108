"""The truncated graded algebra on y_j, z_j, h_j with [y_j, z_j] = h_j.

Monomials are normal ordered (all y's, then all z's, then all h's, each by
index) and stored as exponent tuples (a_0..a_{f-1}, b_0..b_{f-1}, c_0..c_{f-1});
y and z have degree 1 and h degree 2 (stored degrees, i.e. minus the module
grading).  Products are truncated at total degree n <= 4, below which the
product of two monomials has a closed form (``mono_mul``).  The Tor_1 ranks
need n = 3 only, so the basis stops there.  It is cut from ``series``'
lattice-point walk: the exponent vectors of l1 norm < n, kept where the
degree, which counts h twice, is < n.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .linalg import exact_rank
from .series import Value, _add_ball_points
from .weights import GaloisContext, TGen, WeightProfile, profile_stats

Mono = tuple[int, ...]
Elem = dict[Mono, int]


def _check_n(n: int, top: int):
    if not 1 <= n <= top:
        raise ValueError(f"truncation level n must be in 1..{top}")


def mono_degree(m: Mono, f: int) -> int:
    return sum(m[: 2 * f]) + 2 * sum(m[2 * f :])


def mono_offset(m: Mono, f: int) -> tuple[int, ...]:
    """Character offset: +1 per y power, -1 per z power, 0 for h."""
    return tuple(m[j] - m[f + j] for j in range(f))


@lru_cache(maxsize=None)
def pbw_basis(f: int, n: int) -> tuple[Mono, ...]:
    """Normal-ordered monomials of degree < n, by degree then lexicographic."""
    _check_n(n, 3)
    points: list[Mono] = []
    _add_ball_points([(0, n - 1)] * (3 * f), n - 1, [], points)
    return tuple(sorted((m for m in points if mono_degree(m, f) < n), key=lambda m: (mono_degree(m, f), m)))


def _add_term(acc: dict, key, c: int):
    if c:
        v = acc.get(key, 0) + c
        if v:
            acc[key] = v
        else:
            del acc[key]


def mono_mul(a: Mono, b: Mono, f: int, n: int) -> Elem:
    """Product a * b of two normal-ordered monomials, truncated at degree n.

    h is central and distinct indices commute, so only b's y_j has to pass
    a's z_j, by z_j^p y_j = y_j z_j^p - p z_j^(p-1) h_j.  Below degree 4 that
    gives a + b, less a_{z_j} b_{y_j} (a + b - y_j - z_j + h_j) for each j;
    every term has the degree of a + b.  The rule covers every n <= 4: two
    corrections at different indices, or a second correction at one index,
    each need degree >= 4, so the truncation drops them.
    """
    _check_n(n, 4)
    if mono_degree(a, f) + mono_degree(b, f) >= n:
        return {}
    total = [x + y for x, y in zip(a, b)]
    out: Elem = {tuple(total): 1}
    for j in range(f):
        c = a[f + j] * b[j]
        if c:
            m = total.copy()
            m[j] -= 1
            m[f + j] -= 1
            m[2 * f + j] += 1
            out[tuple(m)] = -c
    return out


def pbw_mul(a: Elem, b: Elem, f: int, n: int) -> Elem:
    """Product of two reduced elements in the degree-n truncation."""
    out: Elem = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            for m, c in mono_mul(ma, mb, f, n).items():
                _add_term(out, m, ca * cb * c)
    return out


def char_multiset(f: int, degree: int) -> dict[tuple[int, ...], int]:
    """Character offsets of the degree-d basis monomials, with multiplicity."""
    out: dict[tuple[int, ...], int] = {}
    for m in pbw_basis(f, 3):
        if mono_degree(m, f) == degree:
            off = mono_offset(m, f)
            out[off] = out.get(off, 0) + 1
    return out


def gr_formula(f: int, k: int) -> int:
    """Closed Tor_1 dimension against the degree-3 truncation."""
    if not 0 <= k <= f:
        raise ValueError("need 0 <= k <= f")
    return (
        4 * f**3
        + (6 - 4 * k) * f**2
        + (2 * k * k - 2 * k + 1) * f
        - k * (k - 1) * (2 * k - 1) // 6
    )


def _t_mono(f: int, j: int, kind: TGen) -> Mono:
    m = [0] * (3 * f)
    if kind in (TGen.Y, TGen.YZ):
        m[j] += 1
    if kind in (TGen.Z, TGen.YZ):
        m[f + j] += 1
    return tuple(m)


def _h_mono(f: int, j: int) -> Mono:
    m = [0] * (3 * f)
    m[2 * f + j] = 1
    return tuple(m)


class GrTorDims(Value):
    __slots__ = ("dim_im_d1", "dim_ker_d1", "dim_im_d2", "tor1", "expected", "ok")


def _expected_dims(f: int, k: int) -> tuple[int, int, int, int]:
    im1 = 2 * f * (k + 1) - comb(k, 2)
    ker1 = 4 * f**3 + 8 * f**2 - 2 * k * f + comb(k, 2)
    im2 = 2 * f**2 * (2 * k + 1) - f * (2 * k * k + 1) + 2 * comb(k + 1, 3)
    return (im1, ker1, im2, gr_formula(f, k))


@lru_cache(maxsize=None)
def _tor1_dims(f: int, t_assign: tuple[TGen, ...], side: str) -> tuple[int, int, int]:
    basis = pbw_basis(f, 3)
    nb = len(basis)
    index = {m: i for i, m in enumerate(basis)}
    t_of = [_t_mono(f, j, g) for j, g in enumerate(t_assign)]
    h_of = [_h_mono(f, j) for j in range(f)]

    def times(w: Mono, v: Mono) -> Elem:
        return mono_mul(w, v, f, 3) if side == "right" else mono_mul(v, w, f, 3)

    def as_row(parts: list[tuple[int, Elem, int]]) -> dict[int, int]:
        # parts: (component index into the free module, element, sign)
        row: dict[int, int] = {}
        for comp, elem, sign in parts:
            for m, c in elem.items():
                _add_term(row, comp * nb + index[m], sign * c)
        return row

    # d1: 2f components (j, slot), slot 0 carrying t_j and slot 1 carrying h_j
    d1_rows = []
    for j in range(f):
        for slot, v in ((0, t_of[j]), (1, h_of[j])):
            for w in basis:
                row = as_row([(0, times(w, v), 1)])
                if row:
                    d1_rows.append(row)
    dim_im_d1 = exact_rank(d1_rows)
    dim_ker_d1 = 2 * f * nb - dim_im_d1

    comp_of = lambda j, slot: 2 * j + slot
    d2_rows = []
    for j in range(f):
        for w in basis:
            row = as_row(
                [(comp_of(j, 0), times(w, h_of[j]), -1), (comp_of(j, 1), times(w, t_of[j]), 1)]
            )
            if row:
                d2_rows.append(row)
    for i in range(f):
        for j in range(i + 1, f):
            for s, vs in ((0, t_of[i]), (1, h_of[i])):
                for t, vt in ((0, t_of[j]), (1, h_of[j])):
                    for w in basis:
                        row = as_row(
                            [(comp_of(j, t), times(w, vs), 1), (comp_of(i, s), times(w, vt), -1)]
                        )
                        if row:
                            d2_rows.append(row)
    dim_im_d2 = exact_rank(d2_rows)
    return dim_im_d1, dim_ker_d1, dim_im_d2


def tor1_gr(ctx: GaloisContext, lam: WeightProfile, side: str = "right") -> GrTorDims:
    """Exact ranks of the two differentials cut off at degree 3.

    Builds the free resolution differentials from the per-coordinate ideal
    generators, multiplies into the truncated algebra on the requested side
    (the ranks are convention-independent), and compares all four dimensions
    with their closed forms.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    stats = profile_stats(ctx, lam)
    im1, ker1, im2 = _tor1_dims(ctx.f, stats.t_assign, side)
    tor1 = ker1 - im2
    expected = _expected_dims(ctx.f, stats.k)
    return GrTorDims(im1, ker1, im2, tor1, expected, (im1, ker1, im2, tor1) == expected)
