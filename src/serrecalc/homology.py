"""Tor dimensions of monomial quotients via simplicial homology and Taylor complexes.

Two independent oracles: Hochster's formula, which takes the homology of the
Stanley-Reisner complex induced on each point of the lcm lattice, kept as
bit masks (squarefree ideals), and the homology of the Lyubeznik subcomplex
of the Taylor complex (``ideals._lyubeznik_walk``, any monomial ideal).  They
share only ``homology_from_faces`` and the rank below it, fed induced
subcomplexes and blocks of equal lcm; a test checks that.  Ranks are exact
integer ranks over the rationals.  The module builds no ideal: the Ext oracle
takes its padded pairing ideal from ``ideals.pairing_ideal``.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from math import comb
from typing import Iterable

from .errors import SizeLimitError
from .ideals import MonomialIdeal, Packing, _lyubeznik_walk, pairing_ideal
from .linalg import exact_rank

#: Hochster's formula lists the faces once and takes one homology per lcm
#: lattice point, of which there are at most 2^n.  The f = 4 patched shapes
#: have 12 vertices and up to 1,232 lattice points.  At this cap, on one core
#: of a 2-vCPU x86-64 host, Python 3.11: the zero ideal (one point) takes
#: 0.00 s, 12 coordinate variables (4,096 points, one face each) 0.01 s, one
#: 12-vertex non-face (2 points, 4,095 faces) 0.3 s, and the slowest input
#: found, all 924 6-subsets of the vertices (2,511 points), 6.2 s, most of it
#: in ``exact_rank``.  The cap counts vertices, not that homology work.
VERTEX_CAP = 12


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


def homology_from_faces(faces: Iterable[int]) -> dict[int, int]:
    """Reduced homology dims, keyed by homological degree (including -1).

    The empty complex (only the empty face) has H_{-1} of dimension 1; a
    void complex (no faces at all) has no homology in any degree.  The faces
    need not be closed under subsets (a Taylor block is not).
    """
    by_card: dict[int, list[int]] = {}
    for mask in sorted(faces):
        by_card.setdefault(bin(mask).count("1"), []).append(mask)
    ranks = {k: exact_rank(_boundary_rows(by_card[k], by_card[k - 1])) for k in by_card if k - 1 in by_card}
    dims: dict[int, int] = {}
    for k in sorted(by_card):
        dim = len(by_card[k]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        if dim:
            dims[k - 1] = dim
    return dims


def hochster_profile(ideal: MonomialIdeal) -> list[int]:
    """dim Tor_i(F, R/I) for i = 0..n by Hochster's formula over the lcm lattice.

    The generators' supports are the minimal non-faces of the Stanley-Reisner
    complex, and Tor_i in degree W is the reduced homology of the complex
    induced on W, in degree |W| - i - 1.  That homology vanishes unless W is
    a union of supports (Gasharov-Peeva-Welker), so W runs over the closure
    of the support masks under OR, starting from the empty set.
    """
    if not ideal.is_squarefree():
        raise ValueError("Stanley-Reisner complexes need squarefree generators")
    n = ideal.ambient
    if n > VERTEX_CAP:
        raise SizeLimitError(f"{n} vertices exceeds the cap of {VERTEX_CAP}")
    nonfaces = [g.support_mask() for g in ideal.gens]
    # the faces, grown one vertex at a time: each face minus its last vertex is a face
    faces = [0] if 0 not in nonfaces else []
    for bit in (1 << v for v in range(n)):
        faces += [s | bit for s in faces if all(nf & ~(s | bit) for nf in nonfaces)]
    lattice = {0}
    for nf in nonfaces:
        lattice |= {w | nf for w in lattice}
    out = [0] * (n + 1)
    for w in lattice:
        size = w.bit_count()
        for k, dim in homology_from_faces([s for s in faces if s & ~w == 0]).items():
            out[size - k - 1] += dim
    return out


def taylor_profile(ideal: MonomialIdeal) -> list[int]:
    """dim Tor_i(F, R/I) for i = 0..#gens, from the Lyubeznik subcomplex of the Taylor complex.

    Basis in position i: the i-faces S of ``ideals._lyubeznik_walk``, which
    is a free resolution.  Over F the entry at (S, S \\ {g}) survives only
    when lcm(S \\ {g}) equals lcm(S), so the complex splits into blocks of
    equal lcm, and each block is a set of faces with the simplicial boundary:
    its reduced homology in degree k is Tor in position k + 1.  The walk's
    packed lcms key the blocks, and its ``FACE_CAP`` bounds them.
    """
    gens = ideal.gens
    # the lcms live in the variables some generator uses; the others only lengthen each block key
    used = [j for j in range(ideal.ambient) if any(g[j] for g in gens)]
    pk = Packing.over(gens, len(used))
    blocks: defaultdict[int, list[int]] = defaultdict(list)  # face masks of any width
    for m, s_mask in _lyubeznik_walk(tuple([pk.pack([g[j] for j in used]) for g in gens]), pk):
        blocks[m].append(s_mask)
    out = [0] * (len(gens) + 1)
    for faces in blocks.values():
        if len(faces) == 1:  # a block of one face S has reduced homology 1 in degree |S| - 1 only
            out[faces[0].bit_count()] += 1
            continue
        for k, dim in homology_from_faces(faces).items():
            out[k + 1] += dim
    return out


def profiles_agree(a: list[int], b: list[int]) -> bool:
    """Equality of Tor profiles up to trailing zeros."""
    n = max(len(a), len(b))
    return a + [0] * (n - len(a)) == b + [0] * (n - len(b))


def stanley_reisner_closed(k: int, i: int) -> int:
    """Closed Tor dimension for the complete-pairing plus Y-pairs ideal."""
    return 1 if i == 0 else i * comb(k + 1, i + 1)


ExtDims = namedtuple("ExtDims", "closed oracle convolution ok")


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
    profile = taylor_profile(pairing_ideal(f, (1 << k) - 1, f))
    oracle = tuple([profile[i] if i < len(profile) else 0 for i in range(3)])
    convo = tuple([
        sum(comb(2 * f - k, i - j) * stanley_reisner_closed(k, j) for j in range(i + 1))
        for i in range(3)
    ])
    return ExtDims(closed, oracle, convo, closed == oracle == convo)


def ext1_lower_bound(f: int, k: int) -> int:
    """The first-Ext lower bound 2f^2 + f + C(k+1, 3)."""
    if not 0 <= k <= f:
        raise ValueError("need 0 <= k <= f")
    return 2 * f * f + f + comb(k + 1, 3)
