"""Exact rank of sparse integer matrices.

Fraction-free elimination: rows are integer dicts, pivots are chosen as the
first nonzero entry in row-major order, and each reduction cross-multiplies
and strips the content gcd, so no fractions ever appear.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable


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


def is_prime(n: int) -> bool:
    """Trial division; the package's one primality test."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def rank_mod_p(rows: Iterable[dict[int, int]], p: int) -> int:
    """Rank over the prime field F_p.

    A modulus that is not prime is rejected: pivot inverses need a field,
    and over Z/4 the elimination below would never terminate.
    """
    if not is_prime(p):
        raise ValueError(f"rank mod {p}: the modulus must be prime")
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for raw in rows:
        row = {c: v % p for c, v in raw.items() if v % p}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = {c: (v * inv) % p for c, v in row.items()}
                rank += 1
                break
            b = row[lead]
            new = {}
            for c in row.keys() | piv.keys():
                v = (row.get(c, 0) - piv.get(c, 0) * b) % p
                if v:
                    new[c] = v
            row = new
    return rank
