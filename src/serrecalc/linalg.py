"""Exact rank of sparse integer matrices.

Fraction-free elimination: rows are integer dicts, pivots are chosen as the
first nonzero entry in row-major order, and each reduction cross-multiplies
and strips the content gcd, so no fractions ever appear.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

from .errors import SizeLimitError


def _strip_content(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def exact_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank over the rationals of the span of the given rows."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for raw in rows:
        row = {c: v for c, v in raw.items() if v}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = _strip_content(row)
                rank += 1
                break
            a, b = piv[lead], row[lead]
            new = {}
            for c in row.keys() | piv.keys():
                v = row.get(c, 0) * a - piv.get(c, 0) * b
                if v:
                    new[c] = v
            row = _strip_content(new)
    return rank


#: Miller-Rabin on the first 13 prime bases, 2..41, is proven exact below
#: this bound (Sorenson-Webster, Math. Comp. 86 (2017)); the bases 2..37
#: alone are fooled by 318665857834031151167461 = 399165290221 * 798330580441
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the package's one primality test."""
    if n >= PRIME_TEST_BOUND:
        raise SizeLimitError(f"primality of {n} is only decided below {PRIME_TEST_BOUND}")
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

