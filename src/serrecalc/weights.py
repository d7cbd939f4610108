"""Weight-parameter combinatorics: profile families, J-sets and windows.

A weight profile is an f-tuple of formal affine symbols in x_j, one bitmask per symbol.  Symbols
are never evaluated at a numeric x_j or p: genericity keeps the six symbols pairwise distinct as
weights, so equality is symbol equality.  All cyclic conditions read the index j+1 modulo f,
including f = 1 (self-constraint).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb
from typing import Iterable


#: the tags of x_j, x_j + 1, x_j + 2, p - 3 - x_j, p - 2 - x_j and p - 1 - x_j
CORE_SYMBOLS = ("X0", "X1", "X2", "P3", "P2", "P1")

#: the profile families, as ``enumerate_profiles`` and ``enumerate --which`` name them
FAMILIES = ("Pss", "P", "Dss", "D", "Pbar")


#: the cases of a context, as ``GaloisContext.case`` and ``--case`` name them
CASES = ("irreducible", "split", "nonsplit")


#: Miller-Rabin on the first 13 prime bases, 2..41, is proven exact below
#: this bound (Sorenson-Webster, Math. Comp. 86 (2017)); the bases 2..37
#: alone are fooled by 318665857834031151167461 = 399165290221 * 798330580441
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the package's one primality test."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"primality of {n} is only decided below {PRIME_TEST_BOUND}")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    d = (n - 1) >> s
    # b is a witness of compositeness iff b^d != 1 and b^(d 2^r) != -1 for every r < s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x != 1 and all(pow(x, 2**r, n) != n - 1 for r in range(s)):
            return False
    return True


#: A context's masks hold f bits, and the CLI builds one from ``--f`` before any
#: subcommand's own cap is read.  Past this f no mask is built: at f = 10^11,
#: ``(1 << f) - 1`` alone raised ``MemoryError``.  At this cap, in fresh processes
#: on a 2-vCPU x86-64 host, Python 3.11: ``stats`` with a 2,000-tag profile took
#: 0.11-0.12 s and 16 MiB, and ``ideal`` 6.2-7.7 s and 146 MiB to reach the
#: face cap; every other subcommand that takes a context stops at its own cap.
CONTEXT_F_CAP = 2_000


def full_mask(f: int) -> int:
    """The mask of {0..f-1}, 0 for an f < 1; past ``CONTEXT_F_CAP`` it refuses f before building a mask."""
    if f > CONTEXT_F_CAP:
        raise ValueError(f"f = {f} exceeds the context cap of {CONTEXT_F_CAP}")
    return (1 << max(f, 0)) - 1


class GaloisContext(namedtuple("GaloisContext", "f case j_rho")):
    """Ambient data (f, case, J_rho): fixes which parameter sets are defined.

    J_rho is a bitmask, bit j for index j, like every index set the package
    holds.  It must be the full index set for the split case and a proper
    subset for the nonsplit case; it is unused (empty) in the irreducible
    case.  The optional prime p is only checked against the genericity lower
    bound, and not stored: no computation ever evaluates a symbol at p.
    """

    __slots__ = ()

    def __new__(cls, f: int, case: str, j_rho: int = 0, p: int | None = None):
        if case not in CASES:
            raise ValueError(f"case must be one of {', '.join(CASES)}, got {case!r}")
        if f < 1:
            raise ValueError("f must be positive")
        full = full_mask(f)
        if j_rho & ~full:
            raise ValueError("J_rho must be a subset of {0..f-1}")
        if case == "split" and j_rho != full:
            raise ValueError("split case requires J_rho = {0..f-1}")
        if case == "nonsplit" and j_rho == full:
            raise ValueError("nonsplit case requires a proper subset J_rho")
        if case == "irreducible" and j_rho:
            raise ValueError("irreducible case takes no J_rho")
        if p is not None:
            bound = 2 * max(9, 4 * f + 1) + 3
            if not is_prime(p):
                raise ValueError(f"p = {p} is not prime")
            if p < bound:
                raise ValueError(f"p = {p} below the genericity bound {bound}")
        return tuple.__new__(cls, (f, case, j_rho))

    @property
    def d_rho(self) -> int:
        return self.j_rho.bit_count()

    @property
    def j_rho_c(self) -> int:
        return self.j_rho ^ (1 << self.f) - 1

    @property
    def reducible(self) -> bool:
        return self.case != "irreducible"


def indices(mask: int) -> list[int]:
    """The indices of an index-set bitmask in increasing order: the form every output prints."""
    if mask < 0:
        raise ValueError(f"index-set mask {mask} is negative")
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def mask_of(js: Iterable[int]) -> int:
    """The bitmask of some indices, bit j for index j."""
    return sum({1 << j for j in js})


def split_context(f: int) -> GaloisContext:
    return GaloisContext(f, "split", full_mask(f))  # an f < 1 is refused by GaloisContext


def nonsplit_context(f: int, j_rho: Iterable[int]) -> GaloisContext:
    return GaloisContext(f, "nonsplit", mask_of(j_rho))


class WeightProfile(namedtuple("WeightProfile", "x0 x1 x2 p3 p2 p1")):
    """An f-tuple of core symbols: one mask per symbol, in ``CORE_SYMBOLS`` order, that partition {0..f-1}."""

    __slots__ = ()

    def __new__(cls, x0: int, x1: int, x2: int, p3: int, p2: int, p1: int):
        union = x0 | x1 | x2 | p3 | p2 | p1
        if not union:
            raise ValueError("profiles need at least one entry")
        if union < 0 or union & union + 1 or x0 + x1 + x2 + p3 + p2 + p1 != union:  # a gap, or an overlap
            raise ValueError("the symbol masks must partition {0..f-1}")
        return tuple.__new__(cls, (x0, x1, x2, p3, p2, p1))

    @property
    def f(self) -> int:
        return (self.x0 | self.x1 | self.x2 | self.p3 | self.p2 | self.p1).bit_length()

    def tags(self) -> list[str]:
        out = [""] * self.f
        for s, m in zip(CORE_SYMBOLS, self):
            while m:
                out[(m & -m).bit_length() - 1] = s
                m &= m - 1
        return out

    @staticmethod
    def from_tags(tags: Iterable[str]) -> "WeightProfile":
        by_symbol = dict.fromkeys(CORE_SYMBOLS, 0)
        for j, t in enumerate(tags):
            if t not in by_symbol:
                raise ValueError("profiles take the six core symbols only")
            by_symbol[t] |= 1 << j
        return WeightProfile(*by_symbol.values())

    def __repr__(self):
        return "WeightProfile(%s)" % ",".join(self.tags())


def in_pss(profile: WeightProfile) -> bool:
    """The cyclic rule: j holds x, x+1 or x+2 exactly when j+1 (mod f) holds x, x+2 or p-2-x."""
    after_low = profile.x0 | profile.x2 | profile.p2
    rotated = after_low >> 1 | (after_low & 1) << profile.f - 1  # bit j is bit j+1 mod f
    return profile.x0 | profile.x1 | profile.x2 == rotated


def _require_reducible(ctx: GaloisContext):
    if not ctx.reducible:
        raise ValueError(
            "profile families are enumerated for reducible cases only; "
            "the irreducible case is served by its counting model"
        )


# each family as a test of a P^ss member against J_rho
_FAMILY_TEST = {
    "P": lambda lam, rho: not (lam.x2 | lam.p3) & ~rho,  # x+2 and p-3-x only inside J_rho
    "Dss": lambda lam, rho: not lam.x2 | lam.p1,  # neither x+2 nor p-1-x
    "D": lambda lam, rho: not lam.x2 | lam.p1 | (lam.x1 | lam.p3) & ~rho,  # as Dss, J_lambda inside J_rho
    "Pbar": lambda lam, rho: not (lam.x2 | lam.p3) & ~rho | lam.x2 | lam.p1 & rho,  # as P, no x+2, p-1-x outside J_rho
}


def in_p(ctx: GaloisContext, profile: WeightProfile) -> bool:
    _require_reducible(ctx)
    return in_pss(profile) and _FAMILY_TEST["P"](profile, ctx.j_rho)


#: P^ss has 3^f + 1 profiles; at f = 10 (59,050) listing them takes 0.18 s and holds 6.5 MiB under
#: tracemalloc, the process peaking at 21 MiB (2-vCPU x86-64); at f = 11, 0.37-0.39 s, 19 MiB and 34 MiB.
PROFILE_F_CAP = 10


@lru_cache(maxsize=None)
def _pss_list(f: int) -> tuple[WeightProfile, ...]:
    """All of P^ss in lexicographic symbol order, one int object per mask value."""
    if f > PROFILE_F_CAP:
        raise ValueError(f"f = {f} exceeds the profile enumeration cap of {PROFILE_F_CAP}")
    out: list[WeightProfile] = []
    _add_pss(f, 0, 0, 0, [0] * 6, list(range(1 << f)), out)  # unshared masks: 2.7 MiB more at f = 10
    return tuple(out)


def _add_pss(f: int, j: int, first: int, last: int, by_place: list[int], shared: list[int], out: list):
    """Append, in lexicographic symbol order, the profiles of P^ss that hold ``by_place`` below j.

    ``in_pss`` by place in CORE_SYMBOLS: the even places (x, x+2, p-2-x) follow places 0-2 (x, x+1, x+2),
    the odd places follow the others.  ``first`` and ``last`` are the places at 0 and j - 1."""
    for s in range(last >= 3, 6, 2) if j else range(6):
        by_place[s] |= 1 << j
        if j < f - 1:
            _add_pss(f, j + 1, first if j else s, s, by_place, shared, out)
        elif (first if j else s) % 2 == (s >= 3):
            out.append(WeightProfile(*map(shared.__getitem__, by_place)))
        by_place[s] ^= 1 << j


def enumerate_profiles(ctx: GaloisContext, which: str) -> list[WeightProfile]:
    """Members of the requested family, in lexicographic symbol order: P^ss filtered by its masks."""
    if which == "Pss":
        return list(_pss_list(ctx.f))
    if which not in _FAMILY_TEST:
        raise ValueError(f"unknown family {which!r}")
    if which != "Dss":
        _require_reducible(ctx)
    test, rho = _FAMILY_TEST[which], ctx.j_rho
    return [lam for lam in _pss_list(ctx.f) if test(lam, rho)]


class ProfileStats(namedtuple("ProfileStats", "j_lambda ell ty tz a_set k j1 j2")):
    """Index data of a profile, its index sets as masks; t_j is y_j on ``ty``, z_j on ``tz``, y_j z_j elsewhere."""

    __slots__ = ()


def j_set(profile: WeightProfile) -> int:
    """J_lambda: indices whose symbol lies in {x+1, x+2, p-3-x}."""
    return profile.x1 | profile.x2 | profile.p3


def profile_stats(ctx: GaloisContext, profile: WeightProfile) -> ProfileStats:
    """The t-rule and derived index data for a profile.

    Defined whenever every coordinate is covered by the generator rules:
    all of P works in any reducible context, and all of P^ss in a split one.
    """
    _require_reducible(ctx)
    if profile.f != ctx.f:
        raise ValueError("profile length differs from ctx.f")
    if not in_pss(profile):
        raise ValueError(f"{profile!r} is not in P^ss")
    rho, out = ctx.j_rho, ctx.j_rho_c
    bad = (profile.x2 | profile.p3) & ~rho  # x+2 and p-3-x have a generator rule inside J_rho only
    if bad:
        j = (bad & -bad).bit_length() - 1
        raise ValueError(f"{profile!r}: no generator rule for {profile.tags()[j]} at j={j} outside J_rho")
    a_set = out | j_dprime(ctx, profile)
    j_lambda = j_set(profile)
    return ProfileStats(
        j_lambda=j_lambda,
        ell=j_lambda.bit_count(),
        ty=(profile.x2 | profile.p1) & rho,  # inside J_rho: y_j at x+2 and p-1-x, z_j at x and p-3-x
        tz=(profile.x0 | profile.p3) & rho,
        a_set=a_set,
        k=ctx.f - a_set.bit_count(),
        j1=profile.p1 & out,
        j2=profile.x0 & out,
    )


def a_histogram(ctx: GaloisContext, profiles: Iterable[WeightProfile]) -> dict[int, int]:
    """How many of the profiles, all in P, have each |A|: the j outside J_rho, and those inside at x+1 or p-2-x."""
    out: dict[int, int] = {}
    for lam in profiles:
        if not in_p(ctx, lam):  # some j has no t-rule, so no A
            raise ValueError(f"{lam!r} is not in P for this context")
        a = (ctx.j_rho_c | j_dprime(ctx, lam)).bit_count()
        out[a] = out.get(a, 0) + 1
    return out


#: Per-|A| cardinalities, enumerated where a family is available; it holds dicts, so it does not hash.
ACounts = namedtuple("ACounts", "closed enumerated closed_p_level enumerated_p_level ok")


def count_by_A(ctx: GaloisContext) -> ACounts:
    """|A|-histograms with their closed counterparts.

    Irreducible: counting model only (2*C(f,s) over the weight set at odd s,
    with fibers of size 2^(f-s) above each).  Split: enumerated over D and
    over P, against 2*C(f,s) at even s.  Nonsplit: enumerated over Pbar
    against 2^(f-d)*C(d,s) at |A| = f-d+s.
    """
    f = ctx.f
    if ctx.case == "irreducible":
        closed = {s: 2 * comb(f, s) for s in range(f + 1) if s % 2 == 1}
        closed_p = {s: (2 ** (f - s)) * 2 * comb(f, s) for s in closed}
        return ACounts(closed, None, closed_p, None, True)

    if ctx.case == "split":
        closed = {s: 2 * comb(f, s) for s in range(f + 1) if s % 2 == 0}
        enum_d = a_histogram(ctx, enumerate_profiles(ctx, "D"))
        closed_p = {s: (2 ** (f - s)) * 2 * comb(f, s) for s in closed}
        enum_p = a_histogram(ctx, enumerate_profiles(ctx, "P"))
        ok = enum_d == closed and enum_p == closed_p
        return ACounts(closed, enum_d, closed_p, enum_p, ok)

    d = ctx.d_rho
    closed = {f - d + s: (2 ** (f - d)) * comb(d, s) for s in range(d + 1)}
    enum_pbar = a_histogram(ctx, enumerate_profiles(ctx, "Pbar"))
    return ACounts(closed, enum_pbar, None, None, enum_pbar == closed)


def j_dprime(ctx: GaloisContext, profile: WeightProfile) -> int:
    """J'': the coordinates of J_rho at x+1 or p-2-x."""
    return (profile.x1 | profile.p2) & ctx.j_rho


def character_window(ctx: GaloisContext, profile: WeightProfile) -> frozenset[int]:
    """V_chi, the window of weights constrained near a profile's character, as masks.

    V_chi collects the subsets J of J_rho with |(J \\ J'') Δ J'| <= 1, where
    J' marks the {x+2, p-3-x} coordinates and J'' the {x+1, p-2-x} ones.
    """
    if not in_p(ctx, profile):
        raise ValueError(f"{profile!r} is not in P for this context")
    rho = ctx.j_rho
    j_min, j_dp = (profile.x2 | profile.p3) & rho, j_dprime(ctx, profile)
    return frozenset(J for J in range(rho + 1) if not J & ~rho and ((J & ~j_dp) ^ j_min).bit_count() <= 1)


def v_chi_from_windows(ctx: GaloisContext, profile: WeightProfile) -> frozenset[int]:
    """Independent assembly of V_chi as a union of shifted windows: J' moved by at most one index, J'' free."""
    if not in_p(ctx, profile):
        raise ValueError(f"{profile!r} is not in P for this context")
    rho, j_dp = ctx.j_rho, j_dprime(ctx, profile)
    j_min = (profile.x2 | profile.p3) & rho
    shifts = [0] + [1 << j for j in indices(rho & ~j_dp)]
    free = [add for add in range(j_dp + 1) if not add & ~j_dp]
    return frozenset([j_min ^ sh | add for sh in shifts for add in free])


def length_witnesses(ctx: GaloisContext) -> dict[int, WeightProfile]:
    """For each 1 <= k <= f, a P^ss \\ P profile with |J_lambda| = k, if any."""
    _require_reducible(ctx)
    out: dict[int, WeightProfile] = {}
    for lam in _pss_list(ctx.f):
        if _FAMILY_TEST["P"](lam, ctx.j_rho):
            continue
        k = j_set(lam).bit_count()
        if 1 <= k <= ctx.f and k not in out:
            out[k] = lam
    return out
