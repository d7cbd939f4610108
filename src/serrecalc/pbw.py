"""The truncated graded algebra on y_j, z_j, h_j with [y_j, z_j] = h_j.

Monomials are normal ordered (all y's, then all z's, then all h's, each by
index) and stored as exponent tuples (a_0..a_{f-1}, b_0..b_{f-1}, c_0..c_{f-1});
y and z have degree 1 and h degree 2 (stored degrees, i.e. minus the module
grading).  Products are truncated at total degree n <= 4, below which the
product of two monomials has a closed form (``mono_mul``).  The Tor_1 ranks
are those of d1 and d2 of the Koszul complex on the 2f generators t_j, h_j,
truncated at degree 3, so the basis stops there.  It is cut from ``series``'
lattice-point walk: the exponent vectors of l1 norm < n, kept where the
degree, which counts h twice, is < n.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from math import comb

from .linalg import exact_rank
from .series import _ball_points
from .weights import GaloisContext, WeightProfile, profile_stats

Mono = tuple[int, ...]
Elem = dict[Mono, int]

#: ``tor1_gr`` ranks d1 and d2, whose rows are the 2f^2 + 4f + 1 basis monomials
#: times 2f and C(2f, 2) generator sets.  Fresh processes on a shared 2-vCPU
#: x86-64 host, Python 3.11: ``serrecalc grtor`` at f = 16 took 1.4-2.1 s and
#: peaked at 21 MiB over both sides and the all-Y, all-Z and all-YZ
#: t-assignments; at f = 17 it took 2.2 s, at 20 5.0 s, at 30 25 s.
TOR1_F_CAP = 16


def _check_n(n: int, top: int):
    if not 1 <= n <= top:
        raise ValueError(f"truncation level n must be in 1..{top}")


def mono_degree(m: Mono, f: int) -> int:
    return sum(m[: 2 * f]) + 2 * sum(m[2 * f :])


def mono_offset(m: Mono, f: int) -> tuple[int, ...]:
    """Character offset: +1 per y power, -1 per z power, 0 for h."""
    return tuple([m[j] - m[f + j] for j in range(f)])


@lru_cache(maxsize=None)
def pbw_basis(f: int, n: int) -> tuple[Mono, ...]:
    """Normal-ordered monomials of degree < n, by degree then lexicographic."""
    _check_n(n, 3)
    points = _ball_points([(0, n - 1)] * (3 * f), n - 1)
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


GrTorDims = namedtuple("GrTorDims", "dim_im_d1 dim_ker_d1 dim_im_d2 tor1 expected ok")


def _expected_dims(f: int, k: int) -> tuple[int, int, int, int]:
    im1 = 2 * f * (k + 1) - comb(k, 2)
    ker1 = 4 * f**3 + 8 * f**2 - 2 * k * f + comb(k, 2)
    im2 = 2 * f**2 * (2 * k + 1) - f * (2 * k * k + 1) + 2 * comb(k + 1, 3)
    return (im1, ker1, im2, gr_formula(f, k))


def _koszul_rank(gens: list[Mono], k: int, f: int, side: str) -> int:
    """Rank of d_k of the Koszul complex on ``gens`` over the degree-3 truncation.

    d_k sends w e_S, for a k-subset S of the generators and a basis monomial w,
    to the sum over i of (-1)^i (w g_{S_i}) e_{S minus S_i}; the left side
    multiplies g_{S_i} w instead.
    """
    basis = pbw_basis(f, 3)
    index = {m: i for i, m in enumerate(basis)}
    faces = {S: c for c, S in enumerate(combinations(range(len(gens)), k - 1))}
    rows = []
    for S in combinations(range(len(gens)), k):
        terms = [(faces[S[:i] + S[i + 1 :]] * len(basis), (-1) ** i, gens[a]) for i, a in enumerate(S)]
        for w in basis:
            row: dict[int, int] = {}
            for comp, sign, g in terms:
                prod = mono_mul(w, g, f, 3) if side == "right" else mono_mul(g, w, f, 3)
                for m, c in prod.items():
                    _add_term(row, comp + index[m], sign * c)
            if row:
                rows.append(row)
    return exact_rank(rows)


@lru_cache(maxsize=None)
def _tor1_dims(f: int, ty: int, tz: int, side: str) -> tuple[int, int, int]:
    """dim im d1, ker d1 and im d2 on (t_0, h_0, ..., t_{f-1}, h_{f-1}): t_j = y_j on ty, z_j on tz, else y_j z_j."""
    gens = []
    for j in range(f):
        t, h = [0] * (3 * f), [0] * (3 * f)
        t[j], t[f + j], h[2 * f + j] = 1 - (tz >> j & 1), 1 - (ty >> j & 1), 1
        gens += [tuple(t), tuple(h)]
    im1 = _koszul_rank(gens, 1, f, side)
    return im1, 2 * f * len(pbw_basis(f, 3)) - im1, _koszul_rank(gens, 2, f, side)


def tor1_gr(ctx: GaloisContext, lam: WeightProfile, side: str = "right") -> GrTorDims:
    """Exact ranks of the two Koszul differentials cut off at degree 3.

    The generators are the per-coordinate t_j of the profile's t-rule
    and h_j; products are taken in the truncated algebra on the requested side
    (the ranks are convention-independent), and all four dimensions are
    compared with their closed forms.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    if ctx.f > TOR1_F_CAP:
        raise ValueError(f"f = {ctx.f} exceeds the grtor cap of {TOR1_F_CAP}")
    stats = profile_stats(ctx, lam)
    im1, ker1, im2 = _tor1_dims(ctx.f, stats.ty, stats.tz, side)
    tor1 = ker1 - im2
    expected = _expected_dims(ctx.f, stats.k)
    return GrTorDims(im1, ker1, im2, tor1, expected, (im1, ker1, im2, tor1) == expected)
