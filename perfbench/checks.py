"""Independent answers for the benchmark's output checks.

Nothing here imports serrecalc.  Every expected value is rebuilt from the
definitions: profiles by a brute-force walk over all 6^f symbol tuples,
ideals from the per-coordinate generator rules, Hilbert data by counting
monomials one by one, and Tor data from the closed forms and from
properties every Betti profile has.  ``check_betti`` returns a list of
problems; an empty list means the program's answer is right.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import combinations, product
from math import comb

SYMBOLS = ("X0", "X1", "X2", "P3", "P2", "P1")
_LOW = frozenset({"X0", "X1", "X2"})
_AFTER_LOW = frozenset({"X0", "X2", "P2"})
_AFTER_HIGH = frozenset({"X1", "P3", "P1"})
_J_SYMBOLS = frozenset({"X1", "X2", "P3"})


# -- profiles -----------------------------------------------------------------

@lru_cache(maxsize=None)
def pss(f: int) -> tuple[tuple[str, ...], ...]:
    """P^ss by brute force: every 6^f tuple obeying the cyclic successor rule."""
    out = []
    for t in product(SYMBOLS, repeat=f):
        if all(t[(j + 1) % f] in (_AFTER_LOW if t[j] in _LOW else _AFTER_HIGH) for j in range(f)):
            out.append(t)
    return tuple(out)


def j_size(lam: tuple[str, ...]) -> int:
    return sum(1 for s in lam if s in _J_SYMBOLS)


def in_p(lam: tuple[str, ...], jrho: frozenset[int]) -> bool:
    return all(j in jrho for j, s in enumerate(lam) if s in ("X2", "P3"))


def p_family(f: int, jrho: frozenset[int]) -> list[tuple[str, ...]]:
    return [lam for lam in pss(f) if in_p(lam, jrho)]


def t_assign(lam: tuple[str, ...], jrho: frozenset[int]) -> tuple[str, ...]:
    """Generator shape per coordinate: 'Y', 'Z' or 'YZ' (profiles in P only)."""
    out = []
    for j, s in enumerate(lam):
        if j in jrho and s in ("X0", "P3"):
            out.append("Z")
        elif j in jrho and s in ("X2", "P1"):
            out.append("Y")
        else:
            out.append("YZ")
    return tuple(out)


def linear_count(lam: tuple[str, ...], jrho: frozenset[int]) -> int:
    """k: the number of coordinates with a linear generator."""
    return sum(1 for g in t_assign(lam, jrho) if g != "YZ")


# -- squarefree ideals as support masks (y_j at bit 2j, z_j at bit 2j+1) ------

def minimal(masks) -> tuple[int, ...]:
    pool = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    out: list[int] = []
    for m in pool:
        if not any(g & ~m == 0 for g in out):
            out.append(m)
    return tuple(sorted(out))


def a_lambda(lam: tuple[str, ...], jrho: frozenset[int]) -> tuple[int, ...]:
    bits = {"Y": 0b01, "Z": 0b10, "YZ": 0b11}
    return minimal(bits[g] << (2 * j) for j, g in enumerate(t_assign(lam, jrho)))


def j1_j2(lam: tuple[str, ...], jrho: frozenset[int]) -> tuple[frozenset[int], frozenset[int]]:
    """J1 / J2: the p-1-x / x coordinates outside J_rho."""
    f = len(lam)
    j1 = frozenset(j for j in range(f) if j not in jrho and lam[j] == "P1")
    j2 = frozenset(j for j in range(f) if j not in jrho and lam[j] == "X0")
    return j1, j2


def shift_of(lam: tuple[str, ...], i: int) -> int:
    return max(i + 1 - j_size(lam), 0)


def a1(lam: tuple[str, ...], jrho: frozenset[int], i: int) -> tuple[int, ...]:
    """The i-th ideal between R and a(lambda): d-fold products over J1 ⊔ J2 plus a(lambda)."""
    j1, j2 = j1_j2(lam, jrho)
    d = shift_of(lam, i)
    if d == 0:
        return (0,)
    pool = sorted(j1 | j2)
    prods = [
        sum(1 << (2 * j + (0 if j in j1 else 1)) for j in sub) for sub in combinations(pool, d)
    ]
    return minimal(list(prods) + list(a_lambda(lam, jrho)))


def patched_ideal(f: int, d: int, free) -> tuple[int, tuple[int, ...]]:
    """(variable count, generators) of the closed form of the patched intersection.

    X_j, Y_j for the d coordinates of J_rho (bits 2i, 2i+1), then 2f - d
    Z variables.  Generators: X_j Y_j for all of J_rho, Y_a Y_b for a < b
    among the positions ``free`` (those outside J''), and every Z.
    """
    gens = [0b11 << (2 * i) for i in range(d)]
    gens += [(1 << (2 * a + 1)) | (1 << (2 * b + 1)) for a, b in combinations(sorted(free), 2)]
    gens += [1 << (2 * d + m) for m in range(2 * f - d)]
    return 2 * f + d, minimal(gens)


def member(gens: tuple[int, ...], mask: int) -> bool:
    return any(g & ~mask == 0 for g in gens)


@lru_cache(maxsize=None)
def monomials_by_support(nvars: int, bound: int) -> dict[int, dict[tuple[int, tuple[int, ...]], int]]:
    """Every monomial of degree <= bound, counted by support mask, degree and offset.

    The offset of y^a z^b is a - b per coordinate pair (one entry per pair).
    """
    out: dict[int, dict] = {}

    def rec(idx: int, left: int, exps: list[int]):
        if idx == nvars:
            mask = sum(1 << i for i, e in enumerate(exps) if e)
            offs = tuple(exps[2 * j] - exps[2 * j + 1] for j in range(nvars // 2))
            key = (sum(exps), offs)
            table = out.setdefault(mask, {})
            table[key] = table.get(key, 0) + 1
            return
        for e in range(left + 1):
            exps.append(e)
            rec(idx + 1, left - e, exps)
            exps.pop()

    rec(0, bound, [])
    return out


def standard_counts(gens: tuple[int, ...], nvars: int, bound: int) -> list[int]:
    """Monomials outside a squarefree ideal, per degree up to ``bound``."""
    counts = [0] * (bound + 1)
    for mask, table in monomials_by_support(nvars, bound).items():
        if not member(gens, mask):
            for (d, _), c in table.items():
                counts[d] += c
    return counts


def window_table(lam, jrho, i0: int, i0p: int, trunc: int) -> dict[tuple[int, tuple[int, ...]], int]:
    """(stored degree, offset) -> number of monomials in a1(i0) \\ a1(i0p)."""
    f = len(lam)
    big, small = a1(lam, jrho, i0), a1(lam, jrho, i0p)
    shift = shift_of(lam, i0)
    out: dict = {}
    for mask, table in monomials_by_support(2 * f, trunc + f).items():
        if member(big, mask) and not member(small, mask):
            for (d, offs), c in table.items():
                sd = d - shift
                if 0 <= sd <= trunc:
                    out[(sd, offs)] = out.get((sd, offs), 0) + c
    return out


def table_digest(summands) -> str:
    """Canonical hash of [(profile tags, {(degree, offset): mult})] in profile order."""
    h = hashlib.sha256()
    for tags, table in summands:
        h.update((",".join(tags) + ":").encode())
        for (d, offs), m in sorted(table.items()):
            h.update(f"{d}/{','.join(map(str, offs))}/{m};".encode())
        h.update(b"|")
    return h.hexdigest()


def expected_window_digest(f: int, jrho: frozenset[int], i0: int, i0p: int, trunc: int) -> tuple[str, int]:
    """Digest of the full window tables and their total degree-0 multiplicity."""
    summands = [(lam, window_table(lam, jrho, i0, i0p, trunc)) for lam in p_family(f, jrho)]
    deg0 = sum(m for _, t in summands for (d, _), m in t.items() if d == 0)
    return table_digest(summands), deg0


def matching_pairs(f: int, i0: int) -> int:
    """|{lambda in P^ss : |J_lambda| = i0 + 1}|."""
    return sum(1 for lam in pss(f) if j_size(lam) == i0 + 1)


# -- Tor profiles ---------------------------------------------------------------

def check_betti(tay: list[int], hoch: list[int], n_gens: int, closed: list[int] | None = None) -> list[str]:
    """Two oracles agree, beta_0 = 1, beta_1 = #minimal generators, Euler sum 0."""
    n = max(len(tay), len(hoch))
    a = list(tay) + [0] * (n - len(tay))
    b = list(hoch) + [0] * (n - len(hoch))
    problems = []
    if a != b:
        problems.append(f"taylor {tay} != hochster {hoch}")
    if a[:1] != [1]:
        problems.append(f"beta_0 = {a[:1]}, want 1")
    if (a[1] if n > 1 else 0) != n_gens:
        problems.append(f"beta_1 = {a[1] if n > 1 else 0}, want {n_gens}")
    if sum((-1) ** i * v for i, v in enumerate(a)) != 0:
        problems.append(f"Euler sum of {a} is not 0")
    if closed is not None:
        want = closed + [0] * (n - len(closed))
        if a[: len(want)] != want or any(a[len(want):]):
            problems.append(f"profile {a} != closed {closed}")
    return problems


def pairing_closed(k: int) -> list[int]:
    return [1] + [i * comb(k + 1, i + 1) for i in range(1, k + 1)]


# -- truncated PBW ranks ---------------------------------------------------------

def tor1_closed(f: int, k: int) -> int:
    return 4 * f**3 + (6 - 4 * k) * f**2 + (2 * k * k - 2 * k + 1) * f - k * (k - 1) * (2 * k - 1) // 6


def pbw_dim(f: int) -> int:
    return 2 * f * f + 4 * f + 1


# -- Hilbert numerators -----------------------------------------------------------

def expand_rational(num: list[int], pole: int, n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, c in enumerate(num):
        for d in range(i, n + 1):
            m = d - i
            out[d] += c * (comb(m + pole - 1, pole - 1) if pole > 0 else int(m == 0))
    return out


def x_counts_closed(f: int, k: int) -> list[int]:
    return [1, 2 * f - k, 2 * f * f - 2 * k * f + comb(k + 1, 2)]


def enumerate_count(f: int, jrho: frozenset[int]) -> int:
    """|P|: 3^f + 1 for a split context, 2^(f-d) 3^d for a nonsplit one."""
    d = len(jrho)
    return 3**f + 1 if d == f else 2 ** (f - d) * 3**d
