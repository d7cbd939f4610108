"""Top-level verifiers: Hilbert series, subquotient data, matchings, counts.

Most operations return the closed-form and independently computed values
side by side with an ``ok`` flag; the rest return one value that a verify
suite compares with its oracle.  The verify suites and the acceptance tests
assert both.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import SizeLimitError, UnsupportedCaseError
from .homology import ext1_lower_bound, ext_closed
from .ideals import Monomial, _family, _member, a_ss, bigraded_difference, d_shift, numerator, p_monomial
from .pbw import char_multiset
from .series import BigradedSeries, IntPoly, RationalSeries, _ball_points, one_minus_t
from .weights import (
    Case,
    GaloisContext,
    WeightProfile,
    _FAMILY_TEST,
    _pss_list,
    a_histogram,
    enumerate_profiles,
    in_pss,
    indices,
    j_set,
    mask_of,
    profile_stats,
)


class SubquotientSpec(namedtuple("SubquotientSpec", "i0 i0p")):
    """A window (i0, i0p) with -1 <= i0 < i0p <= f (f checked per context)."""

    __slots__ = ()

    def __new__(cls, i0: int, i0p: int):
        if not -1 <= i0 < i0p:
            raise ValueError(f"need -1 <= i0 < i0p, got ({i0}, {i0p})")
        return tuple.__new__(cls, (i0, i0p))

    def check(self, f: int):
        if self.i0p > f:
            raise ValueError(f"i0p = {self.i0p} exceeds f = {f}")


def default_trunc(f: int) -> int:
    """The working truncation f + 4."""
    return f + 4


# -- Hilbert series ------------------------------------------------------

SeriesCheck = namedtuple("SeriesCheck", "closed enumerated equal")


def _closed_hilbert_pi(ctx: GaloisContext) -> RationalSeries:
    f = ctx.f
    three_t = IntPoly.of(3, 1) ** f
    omt = one_minus_t() ** f
    if ctx.case is Case.IRREDUCIBLE:
        return RationalSeries(three_t - omt, f)
    if ctx.case is Case.SPLIT:
        return RationalSeries(three_t + omt, f)
    d = ctx.d_rho
    num = IntPoly.of(1, 1) ** (f - d) * IntPoly.of(3, 1) ** d
    return RationalSeries(num.scale(2 ** (f - d)), f)


def _one_plus_t_sum(hist: dict[int, int]) -> IntPoly:
    """The sum of count * (1 + t)^a over the items (a, count) of ``hist``."""
    return sum(((IntPoly.of(1, 1) ** a).scale(count) for a, count in hist.items()), IntPoly.zero())


#: ``hilbert_pi`` multiplies polynomials of degree up to f, and ``serrecalc
#: hilbert`` expands the series, whose pole is f, to ``--trunc``, so its work
#: grows with f times the expansion.  Fresh processes on a shared 2-vCPU x86-64
#: host, Python 3.11, irreducible case (the reducible ones stop at
#: ``PROFILE_F_CAP``): ``--trunc 99999`` took 0.4-0.6 s and 45 MiB at f = 16,
#: 1.0 s at f = 40 and 1.9 s at f = 60, the default ``--trunc`` 0.07 s at f = 16,
#: and ``--trunc 0`` took 2.1-2.6 s at f = 400 and 31 s at f = 800.
HILBERT_F_CAP = 16


def hilbert_pi(ctx: GaloisContext) -> SeriesCheck:
    """Closed Hilbert series of the full module against the profile sum."""
    f = ctx.f
    if f > HILBERT_F_CAP:
        raise SizeLimitError(f"f = {f} exceeds the hilbert cap of {HILBERT_F_CAP}")
    if ctx.case is Case.IRREDUCIBLE:
        hist = {s: 2 * comb(f, s) * 2 ** (f - s) for s in range(1, f + 1, 2)}
    else:
        hist = a_histogram(ctx, enumerate_profiles(ctx, "P"))
    enumerated = RationalSeries(_one_plus_t_sum(hist), f)
    closed = _closed_hilbert_pi(ctx)
    return SeriesCheck(closed, enumerated, closed == enumerated)


def hilbert_Ni(ctx: GaloisContext, i: int) -> SeriesCheck:
    """Hilbert series of the |J_lambda| = i layer in the split case."""
    if ctx.case is not Case.SPLIT:
        raise UnsupportedCaseError("the layered series is a split-case statement")
    f = ctx.f
    if not 0 <= i <= f:
        raise ValueError(f"layer index {i} outside 0..f")
    terms = {2 * s: 2 * comb(f, 2 * s) * comb(f - 2 * s, i - s) for s in range(min(i, f // 2) + 1)}
    closed = RationalSeries(_one_plus_t_sum(terms), f)
    layer = (lam for lam in enumerate_profiles(ctx, "P") if j_set(lam).bit_count() == i)
    enumerated = RationalSeries(_one_plus_t_sum(a_histogram(ctx, layer)), f)
    return SeriesCheck(closed, enumerated, closed == enumerated)


# -- graded subquotient data ---------------------------------------------

def gr_subquotient(
    ctx: GaloisContext, spec: SubquotientSpec, trunc: int | None = None
) -> list[tuple[WeightProfile, BigradedSeries]]:
    """Per-profile character-refined tables of the (i0, i0p) window.

    A P-profile's table is ``ideals.bigraded_difference`` of members i0 and
    i0p of its ideal family, shifted down by d_shift(i0) so the first nonzero
    generators land in stored degree 0, with character offsets relative to
    the anchor profile.  In the split context J1 = J2 = ∅, so the family is R
    below |J_lambda| and a(lambda) from there on: the table is R/a(lambda),
    unshifted, when i0 < |J_lambda| <= i0p, and zero otherwise.  Profiles
    with equal (member i0, member i0p, shift) get one table object, built
    once; the distinct tables share one offsets dict, so equal offsets, and
    equal entry keys at one bound, are one object.  Nothing outlives the call.
    """
    if not ctx.reducible:
        raise UnsupportedCaseError("graded subquotient data needs a reducible context")
    spec.check(ctx.f)
    f, n = ctx.f, default_trunc(ctx.f) if trunc is None else trunc
    offsets: dict = {}
    tables: dict[tuple, BigradedSeries] = {}
    out = []
    for lam in enumerate_profiles(ctx, "P"):
        stats, base = _family(ctx, lam)
        key = (_member(f, stats, base, spec.i0), _member(f, stats, base, spec.i0p), d_shift(stats, spec.i0))
        if key not in tables:
            tables[key] = bigraded_difference(key[0], key[1], f, n, key[2], offsets)
        out.append((lam, tables[key]))
    return out


def i1_invariants(ctx: GaloisContext, spec: SubquotientSpec) -> list[WeightProfile]:
    """Profiles indexing the fixed vectors of the (i0, i0p) subquotient."""
    if ctx.case is not Case.NONSPLIT:
        raise UnsupportedCaseError("the invariant index set is a nonsplit statement")
    spec.check(ctx.f)
    out = []
    for lam in _pss_list(ctx.f):
        ell = j_set(lam).bit_count()
        if _FAMILY_TEST["P"](lam, ctx.j_rho):
            if spec.i0 < ell <= spec.i0p:
                out.append(lam)
        elif ell == spec.i0 + 1:
            out.append(lam)
    return out


@lru_cache(maxsize=None)
def _pss_shape_data(f: int) -> tuple[tuple[tuple[int, int, int], int], ...]:
    """Each distinct P^ss shape (|J_lambda|, {x+2, p-3-x} mask, {x, p-1-x} mask) with its profile count."""
    counts: dict[tuple[int, int, int], int] = {}
    for lam in _pss_list(f):
        shape = (j_set(lam).bit_count(), lam.x2 | lam.p3, lam.x0 | lam.p1)
        counts[shape] = counts.get(shape, 0) + 1
    return tuple(counts.items())


@lru_cache(maxsize=None)
def _i1_histograms(ctx: GaloisContext) -> tuple[dict, dict]:
    """Histogram of P by (|J_lambda|, |J1 ⊔ J2|), and of P^ss \\ P by |J_lambda|."""
    rho = ctx.j_rho
    hist_p: dict[tuple[int, int], int] = {}
    hist_ss: dict[int, int] = {}
    for (ell, m23, m01), count in _pss_shape_data(ctx.f):
        if m23 & ~rho:
            hist_ss[ell] = hist_ss.get(ell, 0) + count
        else:
            key = (ell, (m01 & ~rho).bit_count())
            hist_p[key] = hist_p.get(key, 0) + count
    return hist_p, hist_ss


def i1_cardinality(ctx: GaloisContext, spec: SubquotientSpec) -> int:
    """|i1_invariants| computed from the per-context histograms."""
    if ctx.case is not Case.NONSPLIT:
        raise UnsupportedCaseError("the invariant index set is a nonsplit statement")
    spec.check(ctx.f)
    hist_p, hist_ss = _i1_histograms(ctx)
    total = sum(c for (ell, _), c in hist_p.items() if spec.i0 < ell <= spec.i0p)
    return total + hist_ss.get(spec.i0 + 1, 0)


def i1_degree0_total(ctx: GaloisContext, spec: SubquotientSpec) -> int:
    """Total degree-0 multiplicity of the window across all profiles.

    The degree-0 piece of a profile's summand is spanned by the d-fold
    products over J1 ⊔ J2 that survive into the window, so each profile
    contributes C(|J1 ⊔ J2|, d) when |J_lambda| <= i0p and zero otherwise.
    """
    if ctx.case is not Case.NONSPLIT:
        raise UnsupportedCaseError("the invariant index set is a nonsplit statement")
    spec.check(ctx.f)
    hist_p, _ = _i1_histograms(ctx)
    total = 0
    for (ell, m), count in hist_p.items():
        if ell <= spec.i0p:
            total += count * comb(m, max(spec.i0 + 1 - ell, 0))
    return total


#: ``socle_jsets`` lists the subsets of size i0 + 1, then the larger subsets of
#: J_rho.  Fresh processes on a shared 2-vCPU x86-64 host, Python 3.11, with
#: |J_rho| = f - 1 and the full window (-1, f), 2^(f-1) masks: ``serrecalc socle``
#: took 0.69-0.73 s at f = 18 and peaked at 51 MiB (5.2 MB of JSON), and
#: 1.3-1.7 s and 85 MiB at f = 19.
SOCLE_F_CAP = 18


def socle_jsets(ctx: GaloisContext, spec: SubquotientSpec) -> list[int]:
    """J-sets (masks) of the socle weights of the (i0, i0p) subquotient, by size and then lexicographically.

    Weights attached to the base representation are the subsets of J_rho of
    sizes i0 + 1..i0p; the second family is the other subsets of size i0 + 1.
    So size i0 + 1 holds every subset, and a larger size only those of J_rho.
    """
    if ctx.f > SOCLE_F_CAP:
        raise SizeLimitError(f"f = {ctx.f} exceeds the socle cap of {SOCLE_F_CAP}")
    if ctx.case is not Case.NONSPLIT:
        raise UnsupportedCaseError("the socle description is a nonsplit statement")
    spec.check(ctx.f)
    out = [mask_of(sub) for sub in combinations(range(ctx.f), spec.i0 + 1)]
    out += (mask_of(sub) for r in range(spec.i0 + 2, spec.i0p + 1) for sub in combinations(indices(ctx.j_rho), r))
    return out


#: ``k1_cycle`` adds up to f + 1 binomials of up to 0.3 f digits.  With the
#: widest window (-1, f) it took 0.02 s at f = 1,000, 0.11 s at 2,000, 0.34 s
#: at 3,000 and 1.4 s at 5,000 on one core of a 2-vCPU x86-64 host, Python
#: 3.11.  The gr-subquot suite calls it up to f = 10.
K1_CYCLE_F_CAP = 2_000


def k1_cycle(f: int, spec: SubquotientSpec) -> int:
    """Sum of C(f, i) over the window: the subsets J of {0..f-1} with i0 < |J| <= i0p."""
    if f < 1:
        raise ValueError("f must be positive")
    if f > K1_CYCLE_F_CAP:
        raise SizeLimitError(f"f = {f} exceeds the k1cycle cap of {K1_CYCLE_F_CAP}")
    spec.check(f)
    return sum(comb(f, i) for i in range(spec.i0 + 1, spec.i0p + 1))


# -- lattice model of the socle filtration --------------------------------

#: theta_lattice walks the sign-constrained l1 ball of norm < n, whose
#: ``_ball_size`` points are counted before the walk.  The theta suite's largest
#: ball has 1,289 points (f = 4, n = 7, every coordinate free).  Near
#: the cap, ``serrecalc theta`` takes 1.4-2.0 s and peaks at 61-117 MiB RSS at
#: f = 1..5 with every coordinate free (every point printed), on a 2-vCPU
#: x86-64 host, Python 3.11.
THETA_POINT_CAP = 100_000


LatticeBox = namedtuple("LatticeBox", "d_lambda points jh_theta chain_ok no_descent")


def _ball_size(free: int, one_sided: int, radius: int) -> int:
    """Points of Z^free x N^one_sided with l1 norm <= radius; term i counts i nonzero free coordinates."""
    dim = free + one_sided
    return sum(comb(free, i) * comb(radius - i + dim, dim) for i in range(free + 1))


def theta_lattice(ctx: GaloisContext, lam: WeightProfile, n: int, i0: int) -> LatticeBox:
    """Sign-constrained lattice points modeling the constituent characters.

    points: all offsets with the per-coordinate sign constraints and l1
    norm < n; jh_theta keeps those meeting the window threshold.  chain_ok
    records that every theta point of norm above the threshold has a
    one-step descent inside jh_theta, which is exactly what the inductive
    chain construction needs; no_descent is the first such point, in
    lexicographic order, that has none (None when chain_ok holds).
    """
    if n < 1:
        raise ValueError("radius must be positive")
    if not -1 <= i0 <= ctx.f - 1:
        raise ValueError(f"i0 = {i0} outside -1..f-1")
    st = profile_stats(ctx, lam)
    d_lam = d_shift(st, i0)
    r = n - 1  # the l1 radius
    size = _ball_size(ctx.f - st.k, st.k, r)
    if size > THETA_POINT_CAP:
        raise SizeLimitError(f"a ball of {size} lattice points exceeds the cap of {THETA_POINT_CAP}")
    # sign constraints: <= 0 where t_j = y_j, >= 0 where t_j = z_j
    bounds = [(0 if st.tz >> j & 1 else -r, 0 if st.ty >> j & 1 else r) for j in range(ctx.f)]
    ball = _ball_points(bounds, r)

    j1, j2 = indices(st.j1), indices(st.j2)
    in_theta = [p for p in ball if sum(p[j] > 0 for j in j1) + sum(p[j] < 0 for j in j2) >= d_lam]
    theta = frozenset(in_theta)

    def descends(p: tuple[int, ...]) -> bool:
        """Some one-step move of p toward the origin stays in theta."""
        steps = (p[:j] + (x - 1 if x > 0 else x + 1,) + p[j + 1:] for j, x in enumerate(p) if x)
        return any(q in theta for q in steps)

    stuck = next((p for p in in_theta if sum(abs(x) for x in p) > d_lam and not descends(p)), None)
    return LatticeBox(d_lam, frozenset(ball), theta, stuck is None, stuck)


# -- the semisimple matching ----------------------------------------------

MatchResult = namedtuple("MatchResult", "bijection_ok hilbert_ok pairs")


def _lambda_prime(lam: WeightProfile, st, j_prime: int) -> WeightProfile:
    """lambda with p-3-x at the indices of J' in J1 and x+2 at those in J2."""
    bad = j_prime & ~(st.j1 | st.j2)
    if bad:
        raise ValueError(f"index {(bad & -bad).bit_length() - 1} outside J1 ∪ J2")
    return WeightProfile(lam.x0 & ~j_prime, lam.x1 & ~j_prime, lam.x2 & ~j_prime | j_prime & st.j2,
                         lam.p3 & ~j_prime | j_prime & st.j1, lam.p2 & ~j_prime, lam.p1 & ~j_prime)


def semisimple_match(ctx: GaloisContext, i0: int) -> MatchResult:
    """Match the window at level i0+1 with the semisimplified layer.

    bijection_ok: the recipe (lambda, J') -> lambda' lands in P^ss, is
    injective, and fills the whole level set {|J| = i0 + 1}.  hilbert_ok:
    for every profile, the exact bigraded numerators satisfy
    num(a1(i0+1)) - num(a1(i0)) = sum over J' of p(J') * num(a_ss(lambda')).
    """
    if ctx.case is not Case.NONSPLIT:
        raise UnsupportedCaseError("the matching is a nonsplit statement")
    if not -1 <= i0 <= ctx.f - 1:
        raise ValueError(f"i0 = {i0} outside -1..f-1")

    targets = {lam for lam in _pss_list(ctx.f) if j_set(lam).bit_count() == i0 + 1}  # the level set, as profiles
    seen: set[WeightProfile] = set()
    bijection_ok = True
    hilbert_ok = True
    pairs = 0

    for lam in enumerate_profiles(ctx, "P"):
        st, base = _family(ctx, lam)
        d = i0 + 1 - st.ell
        pool = indices(st.j1 | st.j2)
        j_primes = [mask_of(sub) for sub in combinations(pool, d)] if 0 <= d <= len(pool) else []

        # the identity, all moved to one side: the signed sum must vanish
        num = numerator(_member(ctx.f, st, base, i0 + 1), Monomial.bigrade)
        numerator(_member(ctx.f, st, base, i0), Monomial.bigrade, num, -1)
        for jp in j_primes:
            lp = _lambda_prime(lam, st, jp)
            pairs += 1
            if not in_pss(lp) or lp in seen or lp not in targets:
                bijection_ok = False
            seen.add(lp)
            p = p_monomial(ctx.f, st, jp)
            numerator(a_ss(ctx, lp), lambda e: Monomial.bigrade(tuple([a + b for a, b in zip(e, p)])), num, -1)
        if any(num.values()):
            hilbert_ok = False

    if seen != targets:
        bijection_ok = False
    return MatchResult(bijection_ok, hilbert_ok, pairs)


# -- Ext bookkeeping counts ------------------------------------------------

XCounts = namedtuple("XCounts", "x0 x1 x2 expected ok")


#: ``shell_counts`` adds each of the 1 + 2f + (2f^2 + 1) distinct offsets of
#: degrees 0, 1 and 2 to each of the at most f + 1 box points, f coordinates a
#: sum.  Fresh processes on a shared 2-vCPU x86-64 host, Python 3.11, k = f (split,
#: all X0): ``serrecalc xcounts`` took 0.10-0.11 s and peaked at 17 MiB at f = 18;
#: with the cap lifted, 0.14-0.16 s at f = 26 and 1.9-2.0 s at f = 70.
X_COUNTS_F_CAP = 18


def x_counts(ctx: GaloisContext, lam: WeightProfile) -> XCounts:
    """Counted sizes of the depth-0/1/2 character shells around a profile, against ``shell_sizes``."""
    if ctx.f > X_COUNTS_F_CAP:
        raise SizeLimitError(f"f = {ctx.f} exceeds the xcounts cap of {X_COUNTS_F_CAP}")
    st = profile_stats(ctx, lam)
    counts, expected = shell_counts(ctx.f, st.ty, st.tz), shell_sizes(ctx.f, st.k)
    return XCounts(*counts, expected, counts == expected)


def shell_counts(f: int, ty: int, tz: int) -> tuple[int, ...]:
    """Sizes of the depth-0/1/2 character shells, counted one offset at a time.

    The local membership model accepts an offset iff each coordinate moves by 0
    or its sign (-1 on ``ty``, +1 on ``tz``) and every other coordinate stays put.
    A point c of the radius-2 ball joins shell d when the degree-d character
    offsets O_d are the first to hit a member, and hit only 0.  Degree-1 offsets
    are the ±e_j, degree-2 ones 0 and every point of l1 norm 2.  Only the members
    of norm <= 1 are tested; a member m of norm >= 2 changes no count:
    - |c|_1 <= 1: 0 is hit at step |c|_1; an m hit by then is c plus a unit step
      off c's support, so c is a member, hit at step 0 either way.
    - c = u + v a member: m = c stops c at step 0, u = c - v at step 1; no count.
    - c of norm 2, no member: an m of norm 3 at step 1 would hold c.  If step 1
      hits nothing, no coordinate of c has a member's sign, so |m - c|_1 >= 4.
    The ball is not scanned; each shell is built from its offsets:
    - Every o in O_d has an l1 norm of d's parity, so the points c + o of one
      step share a parity.  0 is the one member of even norm, so a step hits 0
      or other members, never both: "hits only 0" at step d means c = -o, o in O_d.
    - c = -o hits a member m at step e exactly when m + o is in O_e.
    So shell d counts the o in O_d with no m + o in O_0 ∪ ... ∪ O_{d-1}.  Each O_d
    is closed under negation (y_j ↔ z_j), so m - o would give the same counts.
    The counts depend only on f and |ty ∪ tz|, so no count can pin the box's
    signs: negating one coordinate maps the ball and each degree's offsets onto
    themselves and flips that coordinate's sign in the box, and permuting the
    coordinates permutes the box's indices.
    """
    box = _ball_points([(-(ty >> j & 1), tz >> j & 1) for j in range(f)], 1)
    counts, lower = [], set()
    for d in range(3):
        offsets = char_multiset(f, d)
        counts.append(sum(not any(tuple([a + b for a, b in zip(m, o)]) in lower for m in box) for o in offsets))
        lower |= offsets.keys()
    return tuple(counts)


def shell_sizes(f: int, k: int) -> tuple[int, int, int]:
    """Closed sizes of the depth-0/1/2 shells: 1, 2f - k and 2f^2 - 2kf + C(k+1, 2)."""
    return (1, 2 * f - k, 2 * f * f - 2 * k * f + comb(k + 1, 2))


def shell_aggregate(f: int, k: int) -> int:
    """The three-shell aggregate of the rank total.

    The Ext^1 lower bound, plus the closed depth-1 and depth-2 shell sizes
    that ``x_counts`` checks, weighted by the closed Ext^1 dimension and by 2f.
    """
    if not 0 <= k <= f:
        raise ValueError("need 0 <= k <= f")
    _, x1, x2 = shell_sizes(f, k)
    return ext1_lower_bound(f, k) + x1 * ext_closed(f, k)[1] + x2 * 2 * f
