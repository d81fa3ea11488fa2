"""Exact integer linear algebra: nullspaces and ranks mod a prime."""

from __future__ import annotations

from math import gcd, lcm
from typing import Optional, Sequence


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g == 1 else [v // g for v in row]


def nullspace_vector(rows: Sequence[Sequence[int]], ncols: int) -> Optional[list[int]]:
    """Canonical nonzero vector of the nullspace of an integer row system, or
    None when the columns have full rank.

    Rows are eliminated fraction-free (r <- p*r - f*prow) and every pivot row
    is kept primitive and zero in every other pivot column, so each one is a
    row of the reduced row echelon form times an integer.  The returned vector
    is the RREF one, first free column 1 and the other free columns 0, scaled
    to a primitive integer vector whose first nonzero entry is positive.  It
    does not depend on the order of the rows or on repeated rows.
    """
    pivots: dict[int, list[int]] = {}
    for raw in rows:
        r = list(raw)
        for col, prow in pivots.items():
            f = r[col]
            if f:
                p = prow[col]
                r = [p * a - f * b for a, b in zip(r, prow)]
        if not any(r):
            continue
        r = _primitive(r)
        lead = next(j for j in range(ncols) if r[j])
        p = r[lead]
        for col, prow in pivots.items():
            f = prow[lead]
            if f:
                pivots[col] = _primitive([p * a - f * b for a, b in zip(prow, r)])
        pivots[lead] = r
        if len(pivots) == ncols:
            return None
    free = next(j for j in range(ncols) if j not in pivots)
    # RREF entry in pivot column col: -prow[free] / prow[col]
    scale = lcm(*(prow[col] for col, prow in pivots.items()))
    vec = [0] * ncols
    vec[free] = scale
    for col, prow in pivots.items():
        vec[col] = -prow[free] * (scale // prow[col])
    vec = _primitive(vec)
    if next(v for v in vec if v) < 0:
        vec = [-v for v in vec]
    return vec


def rank_mod_p(rows: Sequence[Sequence[int]], ncols: int, p: int = (1 << 61) - 1) -> int:
    """Rank of an integer row system over GF(p).

    Always <= the rational rank, so full column rank here proves the exact
    nullspace is trivial; used as a cheap rejection filter.
    """
    pivots: dict[int, list[int]] = {}
    for raw in rows:
        r = [v % p for v in raw]
        for col, prow in pivots.items():
            if r[col]:
                f = r[col]
                r = [(a - f * b) % p for a, b in zip(r, prow)]
        lead = next((j for j in range(ncols) if r[j]), None)
        if lead is None:
            continue
        inv = pow(r[lead], -1, p)
        r = [v * inv % p for v in r]
        pivots[lead] = r
        if len(pivots) == ncols:
            break
    return len(pivots)
