"""Tor dimensions of monomial quotients via simplicial homology and Taylor complexes.

Two independent oracles: Hochster's formula over induced subcomplexes of the
Stanley-Reisner complex (squarefree ideals), and the homology of the Taylor
complex on generator subsets (any monomial ideal).  They share only
``homology_from_faces``, fed induced subcomplexes and blocks of equal lcm.
Ranks are exact integer ranks over the rationals; a prime-field mode is
available for homology.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from itertools import combinations
from math import comb
from typing import Iterable

from .errors import SizeLimitError
from .ideals import Monomial, MonomialIdeal
from .linalg import exact_rank, rank_mod_p
from .series import Value

#: Hochster's formula walks all 2^n vertex subsets, 3^n face tests in all.
#: The f = 4 patched shapes have 12 vertices; at this cap the zero ideal
#: (every subset a face, the densest case) takes about 16 s and a single
#: variable about 9 s on one core of a 2-vCPU x86-64 host, Python 3.11.
VERTEX_CAP = 12

#: The Taylor complex has 2^n generator subsets.  On one core of a 2-vCPU
#: x86-64 host, Python 3.11, ``taylor_profile`` took 6.9 s at 16 generators,
#: 24.7 s at 17 and 95 s at 18; the pairing ideal at k = 6 (21) ran past 400 s.
#: At the cap, 16 coordinate variables give every subset its own lcm, so
#: 65,536 one-face blocks: 1.1 s, a traced peak of 19 MiB, and 35 MiB peak
#: RSS for ``serrecalc tor --method taylor``.
TAYLOR_CAP = 16


class SimplicialComplex(Value):
    """Vertices 0..n-1 with faces cut out by minimal non-faces (bitmasks).

    W is a face iff no minimal non-face is contained in W; the empty set is
    a face unless some minimal non-face is empty (the void complex).
    """

    __slots__ = ("n_vertices", "minimal_nonfaces")

    @staticmethod
    def from_ideal(ideal: MonomialIdeal) -> "SimplicialComplex":
        if not ideal.is_squarefree():
            raise ValueError("Stanley-Reisner complexes need squarefree generators")
        return SimplicialComplex(
            ideal.ambient, tuple(sorted(g.support_mask() for g in ideal.gens))
        )

    def is_face(self, mask: int) -> bool:
        return not any(nf & ~mask == 0 for nf in self.minimal_nonfaces)

    def faces_within(self, vertex_mask: int) -> list[int]:
        """All faces of the induced subcomplex on the given vertex set."""
        bits = [1 << v for v in range(self.n_vertices) if vertex_mask & (1 << v)]
        masks = (sum(sub) for r in range(len(bits) + 1) for sub in combinations(bits, r))
        return [mask for mask in masks if self.is_face(mask)]

    def faces(self) -> list[int]:
        return self.faces_within((1 << self.n_vertices) - 1)


def _boundary_rows(upper: list[int], lower: list[int]) -> list[dict[int, int]]:
    """Boundary matrix rows from ``upper`` to ``lower``; faces not in ``lower`` drop out."""
    lower_index = {m: i for i, m in enumerate(lower)}
    rows = []
    for mask in upper:
        verts = [v for v in range(mask.bit_length()) if mask & (1 << v)]
        row: dict[int, int] = {}
        for i, v in enumerate(verts):
            sub = mask ^ (1 << v)
            col = lower_index.get(sub)
            if col is not None:
                row[col] = -1 if i % 2 else 1
        rows.append(row)
    return rows


def homology_from_faces(faces: Iterable[int], char_p: int | None = None) -> dict[int, int]:
    """Reduced homology dims, keyed by homological degree (including -1).

    The empty complex (only the empty face) has H_{-1} of dimension 1; a
    void complex (no faces at all) has no homology in any degree.  The faces
    need not be closed under subsets (a Taylor block is not).
    """
    by_card: dict[int, list[int]] = {}
    for mask in sorted(faces):
        by_card.setdefault(bin(mask).count("1"), []).append(mask)
    rank = (lambda rows: rank_mod_p(rows, char_p)) if char_p else exact_rank
    ranks = {k: rank(_boundary_rows(by_card[k], by_card[k - 1])) for k in by_card if k - 1 in by_card}
    dims: dict[int, int] = {}
    for k in sorted(by_card):
        dim = len(by_card[k]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if dim:
            dims[k - 1] = dim
    return dims


def hochster_profile(ideal: MonomialIdeal, char_p: int | None = None) -> list[int]:
    """dim Tor_i(F, R/I) for i = 0..n via Hochster's sum over vertex subsets."""
    cx = SimplicialComplex.from_ideal(ideal)
    n = cx.n_vertices
    if n > VERTEX_CAP:
        raise SizeLimitError(f"{n} vertices exceeds the cap of {VERTEX_CAP}")
    out = [0] * (n + 1)
    for w_mask in range(1 << n):
        dims = homology_from_faces(cx.faces_within(w_mask), char_p)
        if not dims:
            continue
        size = bin(w_mask).count("1")
        for i in range(n + 1):
            out[i] += dims.get(size - i - 1, 0)
    return out


def taylor_profile(ideal: MonomialIdeal) -> list[int]:
    """dim Tor_i(F, R/I) for i = 0..#gens, from the Taylor complex.

    Basis in position i: i-subsets S of the generators.  Over F the entry at
    (S, S \\ {g}) survives only when lcm(S \\ {g}) equals lcm(S), so the
    complex splits into blocks of equal lcm, and each block is a set of faces
    with the simplicial boundary: its reduced homology in degree k is Tor in
    position k + 1.  Subsets grow downward from their largest index, as in
    ``ideals.numerator``, so each lcm is its parent's joined with one generator.
    """
    gens = ideal.gens
    n = len(gens)
    if n > TAYLOR_CAP:
        raise SizeLimitError(f"{n} generators exceeds the Taylor cap of {TAYLOR_CAP}")
    from array import array  # imported here: loading it adds about 76 KiB to a process's RSS

    # the lcms live in the variables some generator uses; the others only lengthen each block key
    used = [j for j in range(ideal.ambient) if any(g.exps[j] for g in gens)]
    gens = tuple(Monomial(tuple(g.exps[j] for j in used)) for g in gens)
    blocks: defaultdict[tuple[int, ...], array] = defaultdict(partial(array, "I"))
    _walk(gens, blocks, Monomial.one(len(used)), 0, n)
    out = [0] * (n + 1)
    for faces in blocks.values():
        for k, dim in homology_from_faces(faces).items():
            out[k + 1] += dim
    return out


def _walk(gens: tuple[Monomial, ...], blocks: defaultdict, m: Monomial, s_mask: int, top: int):
    """File subset ``s_mask`` (lcm m) under its lcm, then its extensions by a least index below ``top``.

    A module-level function, not a closure that calls itself, so that no
    reference cycle keeps ``blocks`` alive after ``taylor_profile`` returns.
    Each block packs its masks, all below 2^TAYLOR_CAP, in an unsigned array.
    """
    blocks[m.exps].append(s_mask)
    for i in range(top):  # i becomes the least index of S
        _walk(gens, blocks, gens[i].lcm(m), s_mask | 1 << i, i)


def profiles_agree(a: list[int], b: list[int]) -> bool:
    """Equality of Tor profiles up to trailing zeros."""
    n = max(len(a), len(b))
    return a + [0] * (n - len(a)) == b + [0] * (n - len(b))


def stanley_reisner_closed(k: int, i: int) -> int:
    """Closed Tor dimension for the complete-pairing plus Y-pairs ideal."""
    return 1 if i == 0 else i * comb(k + 1, i + 1)


def pairing_ideal(k: int) -> MonomialIdeal:
    """(X_j Y_j for j <= k, Y_i Y_j for i < j <= k) in 2k variables.

    X_j sits at index 2(j-1) and Y_j at 2(j-1)+1.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    n = 2 * k
    x = lambda j: Monomial.variable(n, 2 * (j - 1))
    y = lambda j: Monomial.variable(n, 2 * (j - 1) + 1)
    gens = [x(j) * y(j) for j in range(1, k + 1)]
    gens += [y(i) * y(j) for i, j in combinations(range(1, k + 1), 2)]
    return MonomialIdeal(n, tuple(gens))


def padded_pairing_ideal(f: int, k: int) -> MonomialIdeal:
    """(X_j Y_j for j <= f, Y_i Y_j for i < j <= k, Z_m for f < m <= 2f).

    Variables: X_j at 2(j-1), Y_j at 2(j-1)+1 for 1 <= j <= f, then f
    extra Z variables; 3f variables total.
    """
    if not 0 <= k <= f:
        raise ValueError("need 0 <= k <= f")
    n = 3 * f
    x = lambda j: Monomial.variable(n, 2 * (j - 1))
    y = lambda j: Monomial.variable(n, 2 * (j - 1) + 1)
    z = lambda m: Monomial.variable(n, 2 * f + (m - 1))
    gens = (
        [x(j) * y(j) for j in range(1, f + 1)]
        + [y(i) * y(j) for i, j in combinations(range(1, k + 1), 2)]
        + [z(m) for m in range(1, f + 1)]
    )
    return MonomialIdeal(n, tuple(gens))


class ExtDims(Value):
    __slots__ = ("closed", "oracle", "convolution", "ok")


def ext_closed(f: int, k: int) -> tuple[int, int, int]:
    return (
        1,
        2 * f + comb(k, 2),
        2 * f * f + (k * k - k - 1) * f - comb(k + 1, 3),
    )


def ext_dims(f: int, k: int) -> ExtDims:
    """Closed Ext dimensions at i = 0, 1, 2 against two oracles.

    The primary oracle is the Taylor Tor profile of the padded pairing
    ideal; the convolution value contracts the closed Stanley-Reisner
    dimensions against the binomial factor of the 2f - k free pairs.
    """
    if not 0 <= k <= f:
        raise ValueError("need 0 <= k <= f")
    closed = ext_closed(f, k)
    profile = taylor_profile(padded_pairing_ideal(f, k))
    oracle = tuple(profile[i] if i < len(profile) else 0 for i in range(3))
    convo = tuple(
        sum(comb(2 * f - k, i - j) * stanley_reisner_closed(k, j) for j in range(i + 1))
        for i in range(3)
    )
    return ExtDims(closed, oracle, convo, closed == oracle == convo)


def ext1_lower_bound(f: int, k: int) -> int:
    """The first-Ext lower bound 2f^2 + f + C(k+1, 3)."""
    if not 0 <= k <= f:
        raise ValueError("need 0 <= k <= f")
    return 2 * f * f + f + comb(k + 1, 3)
