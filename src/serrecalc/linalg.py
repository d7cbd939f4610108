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
