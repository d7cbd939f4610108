"""Monomial ideals in F[y_0, z_0, ..., y_{f-1}, z_{f-1}] and generic rings.

Variable order is y_0 < z_0 < ... < y_{f-1} < z_{f-1} (index 2j for y_j,
2j+1 for z_j, as ``paired`` lays them out); minimal generators are kept
sorted in graded lexicographic order, so ideal output is reproducible byte
for byte.  A monomial of
polynomial degree n represents a graded piece in module degree -n, stored
at the nonnegative index n as everywhere in this package.  A ``Monomial``
is its exponent tuple; the lcm walks carry exponents packed into ints
(``Packing``).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import chain, combinations, islice
from math import comb
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .series import BigradedSeries, CharOffset, IntPoly, RationalSeries, _ball_points
from .weights import (
    GaloisContext, ProfileStats, WeightProfile, in_p, indices, j_dprime, mask_of, profile_stats, split_context,
)

#: ``_lyubeznik_walk`` visits at most this many faces, the one bound on the walk
#: behind ``numerator`` and ``taylor_profile``, which keep one entry per face at
#: most.  On one core of a 2-vCPU x86-64 host, Python 3.11: 16 coordinate
#: variables (no face pruned) are exactly the cap, 0.21-0.31 s in ``taylor_profile``
#: and 0.36-0.52 s in ``numerator``; the family ideals at f <= 10 with at most 22
#: generators have up to 38,912 faces, the 42-generator f = 7 window 49,920.
FACE_CAP = 2**16

#: ``bigraded_difference`` expands a table over the C(trunc + shift + 2f, 2f)
#: monomials of degree <= trunc + shift in 2f variables, once per distinct
#: (big, small, shift) of a window.  On one core of a 2-vCPU x86-64 host, Python
#: 3.11, the table of R itself up to degree 7, built through a window's shared
#: offsets dict, took 1.4 s and 117 MiB peak RSS at 480,700 monomials (f = 9) and
#: 2.5-3.1 s and 212 MiB at 888,030 (f = 10); the cost per monomial grows with f,
#: and the largest table a check builds has 8,008.
TABLE_CAP = 500_000


class Monomial(tuple):
    """Exponent vector: the tuple itself, so equality, hash and order are the tuple's, in C.

    ``+`` is the tuple's concatenation (zero padding); ``*`` is the monomial product.
    """

    __slots__ = ()

    def __new__(cls, exps: Iterable[int]):
        self = tuple.__new__(cls, exps)
        if self and min(self) < 0:
            raise ValueError("exponents must be nonnegative")
        return self

    @staticmethod
    def variable(ambient: int, idx: int) -> "Monomial":
        exps = [0] * ambient
        exps[idx] = 1
        return Monomial(exps)

    @property
    def degree(self) -> int:
        return sum(self)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self)

    def support_mask(self) -> int:
        mask = 0
        for i, e in enumerate(self):
            if e:
                mask |= 1 << i
        return mask

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self, other, strict=True))

    def lcm(self, other: "Monomial") -> "Monomial":
        return Monomial([max(a, b) for a, b in zip(self, other, strict=True)])

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial([a + b for a, b in zip(self, other, strict=True)])

    @staticmethod
    def bigrade(e: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """(degree, character offset: +e_j per y_j power, -e_j per z_j power) of exponents ``e``, a numerator key."""
        return sum(e), tuple([y - z for y, z in zip(e[::2], e[1::2])])

    def sort_key(self) -> tuple:
        # graded lexicographic: by degree, then earlier variables first
        return (self.degree, tuple([-e for e in self]))


class Packing:
    """Exponent vectors of length n as ints (Bachmann-Schönemann, ISSAC 1998), for the lcm walks.

    Each exponent is stored as its rank among the distinct exponents the
    packing is built over, 0 among them: a map that keeps order commutes with
    max and keeps divisibility.  Rank j fills the low w - 1 bits of field j,
    w bits wide; its top bit is a guard, kept clear, so a field-wise
    comparison is one subtraction.  w follows the number of distinct
    exponents, not their size, and the ints are built from and read into
    binary strings, in time linear in n * w.  If a | b then a <= b as ints.
    """

    __slots__ = ("w", "code", "decode", "spec", "fields", "guards")

    def __init__(self, n: int, exps: Iterable[int]):
        values = sorted({0, *exps})
        w = self.w = (len(values) - 1).bit_length() + 1
        self.code = {e: format(r, f"0{w}b") for r, e in enumerate(values)}  # guard bit first, always 0
        self.decode = {c: e for e, c in self.code.items()}
        self.spec = f"0{w * n}b"  # all n fields, zero-padded
        self.fields = [slice(w * (n - 1 - j), w * (n - j)) for j in range(n)]  # field j, from the string's end
        self.guards = int("0" + ("1" + "0" * (w - 1)) * n, 2)

    def pack(self, exps: Sequence[int]) -> int:
        return int("0" + "".join(map(self.code.__getitem__, exps[::-1])), 2)  # reversed() is slow on a tuple subclass

    def unpack(self, p: int) -> tuple[int, ...]:
        s = format(p, self.spec)
        return tuple([self.decode[s[field]] for field in self.fields])

    def divides(self, a: int, b: int) -> bool:
        return ((b | self.guards) - a) & self.guards == self.guards

    def lcm(self, a: int, b: int) -> int:
        ge = ((a | self.guards) - b) & self.guards  # the guard of each field where a >= b
        take_a = ge - (ge >> self.w - 1)  # its low w - 1 bits; the guard needs none, clear in a and b
        return (a & take_a) | (b & ~take_a)

    @staticmethod
    def over(gens: Iterable[Monomial], n: int) -> "Packing":  # holds gens and their lcms
        return _packing(n, frozenset(chain.from_iterable(gens)))


@lru_cache(maxsize=32)  # the ideals of one family share a few lengths and exponent sets
def _packing(n: int, exps: frozenset[int]) -> Packing:
    return Packing(n, exps)


def paired(f: int, ys: int, zs: int) -> Monomial:
    """The product of y_j over the mask ``ys`` and z_j over ``zs``: y_j is variable 2j, z_j variable 2j + 1."""
    if (ys | zs) >> f:  # also a negative mask
        raise ValueError("the masks must lie in {0..f-1}")
    exps = [0] * (2 * f)
    exps[::2] = [ys >> j & 1 for j in range(f)]
    exps[1::2] = [zs >> j & 1 for j in range(f)]
    return Monomial(exps)


def _minimal(pk: Packing, packed: Iterable[int]) -> list[int]:
    """The distinct packed vectors that no other one divides."""
    out: list[int] = []
    for p in sorted(packed):  # a divisor packs to a smaller int, so it comes first
        if not any(pk.divides(q, p) for q in out):
            out.append(p)
    return out


def _minimalize(gens: tuple[Monomial, ...], ambient: int) -> tuple[Monomial, ...]:
    if len(gens) < 2:  # nothing to compare: most ideals the families build are zero or unit
        return tuple(gens)
    pk = Packing.over(gens, ambient)
    by_packed = {pk.pack(g): g for g in gens}
    return tuple(sorted(map(by_packed.__getitem__, _minimal(pk, by_packed)), key=Monomial.sort_key))


class MonomialIdeal(namedtuple("MonomialIdeal", "ambient gens")):
    """Finite set of minimal monomial generators; () is the zero ideal."""

    __slots__ = ()

    def __new__(cls, ambient: int, gens: tuple[Monomial, ...]):
        if any(len(g) != ambient for g in gens):
            raise ValueError("generator ambient mismatch")
        return tuple.__new__(cls, (ambient, _minimalize(gens, ambient)))

    def is_unit(self) -> bool:
        return bool(self.gens) and self.gens[0].degree == 0

    def is_squarefree(self) -> bool:
        return all(g.is_squarefree() for g in self.gens)

    def member(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.gens)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if other.ambient != self.ambient:
            raise ValueError("ambient mismatch")
        return MonomialIdeal(self.ambient, self.gens + other.gens)

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if other.ambient != self.ambient:
            raise ValueError("ambient mismatch")
        if not self.gens or not other.gens:
            return MonomialIdeal(self.ambient, ())
        pk = Packing.over(self.gens + other.gens, self.ambient)
        mine = [pk.pack(g) for g in self.gens]
        lcms = _minimal(pk, {pk.lcm(a, pk.pack(b)) for b in other.gens for a in mine})
        gens = sorted((Monomial(pk.unpack(m)) for m in lcms), key=Monomial.sort_key)
        # the lcms are minimal already: skip the constructor's second pass
        return tuple.__new__(MonomialIdeal, (self.ambient, tuple(gens)))


# -- the ideal families attached to weight profiles ---------------------

def _family(ctx: GaloisContext, lam: WeightProfile) -> tuple[ProfileStats, MonomialIdeal]:
    """A P-profile's stats and a(lambda), from which each member of its ideal family is built."""
    if not in_p(ctx, lam):
        raise ValueError(f"{lam!r} is not in P for this context")
    stats, f = profile_stats(ctx, lam), ctx.f  # t_j: y_j on ty, z_j on tz, y_j z_j elsewhere
    gens = [paired(f, 1 << j & ~stats.tz, 1 << j & ~stats.ty) for j in range(f)]
    return stats, MonomialIdeal(2 * f, tuple(gens))


def a_lambda(ctx: GaloisContext, lam: WeightProfile) -> MonomialIdeal:
    """The ideal (t_0, ..., t_{f-1}) attached to a profile in P."""
    return _family(ctx, lam)[1]


def a_ss(ctx: GaloisContext, lam: WeightProfile) -> MonomialIdeal:
    """Semisimplified ideal: the t-rules with J_rho replaced by the full set."""
    return a_lambda(split_context(ctx.f), lam)


def p_monomial(f: int, stats: ProfileStats, j_prime: int) -> Monomial:
    """Product of y_j over J' ∩ J1 and z_j over J' ∩ J2."""
    if j_prime & ~(stats.j1 | stats.j2):
        raise ValueError(f"index {indices(j_prime & ~(stats.j1 | stats.j2))[0]} lies outside J1 ∪ J2")
    return paired(f, j_prime & stats.j1, j_prime & stats.j2)


def ideal_from_pairs(f: int, j1: int, j2: int, d: int) -> MonomialIdeal:
    """The ideal of the p(J') over the d-subsets J' of J1 ⊔ J2.

    d = 0 gives the unit ideal, d > |J1 ⊔ J2| the zero ideal.
    """
    if j1 & j2:
        raise ValueError("J1 and J2 must be disjoint")
    subsets = map(mask_of, combinations(indices(j1 | j2), d))  # none past |J1 ⊔ J2|, one empty set at d = 0
    return MonomialIdeal(2 * f, tuple([paired(f, s & j1, s & j2) for s in subsets]))


def d_shift(stats: ProfileStats, i: int) -> int:
    """The grading shift max(i + 1 - |J_lambda|, 0)."""
    return max(i + 1 - stats.ell, 0)


def a1(ctx: GaloisContext, lam: WeightProfile, i: int) -> MonomialIdeal:
    """The i-th member of the decreasing family between R and a(lambda)."""
    if not -1 <= i <= ctx.f:
        raise ValueError(f"i = {i} outside -1..f")
    return _member(ctx.f, *_family(ctx, lam), i)


def _member(f: int, stats: ProfileStats, base: MonomialIdeal, i: int) -> MonomialIdeal:
    step = ideal_from_pairs(f, stats.j1, stats.j2, d_shift(stats, i))
    return step if step.is_unit() else step + base


# -- Hilbert series ------------------------------------------------------

def numerator(
    ideal: MonomialIdeal, grade: Callable[[tuple[int, ...]], Hashable], acc: dict | None = None, sign: int = 1
) -> dict:
    """Add sign * sum over generator subsets S of (-1)^|S| grade(lcm S) into ``acc``.

    This is the K-polynomial of R/I (Miller-Sturmfels, ch. 2), specialized
    through ``grade`` while it is summed: the one inclusion-exclusion loop
    behind every Hilbert series and bigraded table in the package.  Only the
    faces of ``_lyubeznik_walk`` are summed, one sign per packed lcm, and
    ``grade`` reads each distinct lcm's exponent tuple once, in walk order.
    """
    pk = Packing.over(ideal.gens, ideal.ambient)
    signs: dict[int, int] = {}
    for m, s_mask in _lyubeznik_walk(tuple([pk.pack(g) for g in ideal.gens]), pk):
        signs[m] = signs.get(m, 0) + (-sign if s_mask.bit_count() & 1 else sign)
    acc = {} if acc is None else acc
    for m, s in signs.items():
        key = grade(pk.unpack(m))
        acc[key] = acc.get(key, 0) + s
    return acc


def _lyubeznik_walk(gens: tuple[int, ...], pk: Packing) -> Iterator[tuple[int, int]]:
    """Yield ``(m, s_mask)`` for each face S of packed lcm m, in preorder from the empty face.

    ``gens`` are the packed minimal generators of I.  The faces are those of
    Lyubeznik's resolution (JPAA 51 (1988); Miller-Sturmfels, ch. 6), a
    subcomplex of the Taylor complex that is itself a free resolution of R/I.
    The other subsets cancel from the K-polynomial, and Tor in each lcm
    degree is the homology of the faces of that lcm.  S grows downward from
    its largest index, so each lcm is its parent's joined with one
    generator, one ``Packing.lcm``; a new least index i is refused, with
    every extension, when some g_j with j < i divides the new lcm.  The walk
    keeps its own stack, so its depth is not Python's, and past ``FACE_CAP``
    faces it stops with a ``ValueError``.
    """
    lcm, divides = pk.lcm, pk.divides
    stack = [(0, 0, len(gens))]  # (lcm, face, its least index or len(gens)): the children i < top
    faces = 0
    while stack:
        faces += 1
        if faces > FACE_CAP:
            raise ValueError(f"the Lyubeznik walk passed its cap of {FACE_CAP} faces")
        m, s_mask, top = stack.pop()
        yield m, s_mask
        for i in range(top - 1, -1, -1):  # pushed last first, so index 0's subtree comes next
            m2 = lcm(gens[i], m)
            # the empty face's children are the {g_i}, and no minimal generator divides another: test none there;
            # no slice per i held (n^2 / 2 references), no any(): this runs per extension
            for g in islice(gens, i if s_mask else 0):
                if divides(g, m2):
                    break
            else:
                stack.append((m2, s_mask | 1 << i, i))


def hilbert(ideal: MonomialIdeal) -> RationalSeries:
    """Hilbert series of R/I: the numerator graded by total degree."""
    coeffs = numerator(ideal, sum)  # never empty: it holds the empty subset
    num = IntPoly([coeffs.get(d, 0) for d in range(max(coeffs) + 1)])
    return RationalSeries(num, ideal.ambient)


def standard_counts_naive(ideal: MonomialIdeal, bound: int) -> list[int]:
    """Count monomials outside the ideal per degree, by full enumeration.

    Deliberately dumb; the independent oracle for hilbert().
    """
    return [len(ms) for ms in standard_monomials(ideal, bound)]


def standard_monomials(ideal: MonomialIdeal, bound: int) -> list[list[Monomial]]:
    """The monomials outside the ideal, by degree up to bound, each degree in lexicographic order."""
    out: list[list[Monomial]] = [[] for _ in range(bound + 1)]
    for exps in _ball_points([(0, bound)] * ideal.ambient, bound):
        m = Monomial(exps)
        if not ideal.member(m):
            out[m.degree].append(m)
    return out


def bigraded_difference(
    big: MonomialIdeal, small: MonomialIdeal, f: int, trunc: int, shift: int, offsets: dict | None = None
) -> BigradedSeries:
    """Character-refined table of big/small, degrees shifted down by ``shift``.

    Needs small ⊆ big.  Expands num(small) - num(big) over the denominator
    prod_j (1 - t u_j)(1 - t/u_j) up to monomial degree trunc + shift, one
    factor at a time, and stores degree n at n - shift.  Equal ideals give
    the empty table without an expansion; past ``TABLE_CAP`` monomials
    there is none either.

    ``offsets`` maps bound = trunc + shift to {packed offset: CharOffset}, and
    (bound, stored degree n) to {packed offset: key (n, CharOffset)}.  Its one
    caller, ``gr_subquotient``, passes one dict to the distinct tables of a
    window, so they share their offset objects and their entry keys; the
    module keeps nothing between calls.  A lone table (the default) reuses no
    key, so it keeps no key memo.
    """
    if big.ambient != 2 * f or small.ambient != 2 * f:
        raise ValueError("ambient must be the paired y/z ring")
    if big == small:
        return BigradedSeries(trunc, {})
    bound = trunc + shift
    monomials = comb(bound + 2 * f, 2 * f) if trunc >= 0 else 0  # BigradedSeries refuses trunc < 0
    if monomials > TABLE_CAP:
        raise ValueError(f"a table over {monomials} monomials exceeds the cap of {TABLE_CAP}")
    # an offset c is one integer whose base-(2 bound + 1) digit j is c_j + bound;
    # |c_j| <= degree <= bound, so a step in one coordinate never carries
    base = 2 * bound + 1
    powers = [base**j for j in range(f)]
    layers: list[dict[int, int]] = [{} for _ in range(bound + 1)]
    for (d, c), v in numerator(big, Monomial.bigrade, numerator(small, Monomial.bigrade), -1).items():
        if v and d <= bound:
            layers[d][sum((x + bound) * p for x, p in zip(c, powers))] = v
    # dividing by (1 - t x) turns S_d into S_d + x S_{d-1}, lowest degree first;
    # the two numerators cancel in most entries (two thirds over the windows
    # at f <= 3), and a zero is dropped so that later passes do not walk it
    for p in powers:
        for step in (p, -p):
            for d in range(1, bound + 1):
                here = layers[d]
                for c, v in layers[d - 1].items():
                    c += step
                    v += here.get(c, 0)
                    if v:
                        here[c] = v
                    else:
                        del here[c]
    # c's digits depend on the bound, so each bound has its own memo: one CharOffset
    # per c under bound, one key (n, CharOffset) per c under (bound, n)
    memo = {} if offsets is None else offsets
    shared = memo.setdefault(bound, {})
    del layers[:shift]  # below stored degree 0; layers[n] is stored degree n from here on
    entries = {}
    for n in range(trunc + 1):
        layer, layers[n] = layers[n], None  # each layer goes once it is converted
        keys = {} if offsets is None else memo.setdefault((bound, n), {})
        for c, v in layer.items():
            if v < 0:  # a monomial of small outside big
                raise ValueError("multiplicities must be nonnegative")
            key = keys.get(c)
            if key is None:
                off = shared.get(c)
                if off is None:
                    off = shared[c] = CharOffset([c // p % base - bound for p in powers])
                key = keys[c] = (n, off)
            entries[key] = v
    return BigradedSeries(trunc, entries)


# -- the pairing ideals and the patched-module intersection -----------------

def pairing_ideal(pairs: int, ys: int, n_z: int) -> MonomialIdeal:
    """(X_j Y_j for j < pairs, Y_a Y_b for a < b in the mask ``ys``, Z_m for m < n_z).

    Variables: X_j at 2j and Y_j at 2j + 1, as ``paired`` lays them out, then
    Z_m at 2 pairs + m; 2 pairs + n_z variables.  The Tor closed form takes
    ``ys`` all of {0..pairs-1} and no Z, the Ext oracle pads with Z, and the
    patched check takes its Y-pairs from J_rho \\ J''.
    """
    if ys >> pairs or n_z < 0:  # also a negative mask
        raise ValueError("need ys in {0..pairs-1} and n_z >= 0")
    n, pad = 2 * pairs + n_z, (0,) * n_z
    bits = [1 << j for j in range(pairs) if ys >> j & 1]
    gens = [paired(pairs, 1 << j, 1 << j) for j in range(pairs)]
    gens += [paired(pairs, 0, a | b) for a, b in combinations(bits, 2)]
    zs = [Monomial.variable(n, 2 * pairs + m) for m in range(n_z)]
    return MonomialIdeal(n, tuple([Monomial(g + pad) for g in gens] + zs))


#: ``patched_ideals`` intersects up to 2^|J_rho| linear ideals, |J_rho| <= f.
#: Fresh processes on a shared 2-vCPU x86-64 host, Python 3.11: ``serrecalc
#: patched`` took 2.0-2.2 s at f = 8 with J_rho everything and the profile
#: X1,P2,..., 0.6 s with |J_rho| = 7; at f = 9 it took 9.4-10.1 s.
PATCHED_F_CAP = 8


def _patched_intersection(f: int, j_rho: int, j_dp: int) -> MonomialIdeal:
    """The intersection over subsets J of J_rho with |J \\ J''| <= 1 of the linear ideals.

    Each one is (X_j : j in J) + (Y_j : j in J_rho \\ J) + (Z_m : all m): at
    the p-th index j of J_rho it takes X_j (variable 2p) or Y_j (2p + 1).
    """
    rho = indices(j_rho)
    n = 2 * f + len(rho)
    zs = tuple([Monomial.variable(n, 2 * len(rho) + m) for m in range(2 * f - len(rho))])
    inter: MonomialIdeal | None = None
    for r in range(len(rho) + 1):
        for sub in combinations(rho, r):
            J = mask_of(sub)
            if (J & ~j_dp).bit_count() > 1:
                continue
            xy = tuple([Monomial.variable(n, 2 * p + 1 - (J >> j & 1)) for p, j in enumerate(rho)])
            linear = MonomialIdeal(n, xy + zs)
            inter = linear if inter is None else inter.intersect(linear)
    assert inter is not None
    return inter


def patched_ideals(
    ctx: GaloisContext, lam: WeightProfile
) -> tuple[MonomialIdeal, MonomialIdeal]:
    """(intersection ideal, expected ideal) for the patched-module check.

    The expected ideal is the pairing ideal over J_rho, its Y-pairs over
    J_rho \\ J'', padded with 2f - |J_rho| Z variables: X_j, Y_j for the p-th
    index j of J_rho sit at 2p, 2p + 1.
    """
    if ctx.f > PATCHED_F_CAP:
        raise ValueError(f"f = {ctx.f} exceeds the patched cap of {PATCHED_F_CAP}")
    if not in_p(ctx, lam):
        raise ValueError(f"{lam!r} is not in P for this context")
    rho, j_dp = indices(ctx.j_rho), j_dprime(ctx, lam)
    ys = mask_of(p for p, j in enumerate(rho) if not j_dp >> j & 1)
    return _patched_intersection(ctx.f, ctx.j_rho, j_dp), pairing_ideal(len(rho), ys, 2 * ctx.f - len(rho))
