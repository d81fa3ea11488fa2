"""Exact linear algebra: nullspaces over Fraction and ranks mod a prime."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def nullspace_vector(rows: Sequence[Sequence], ncols: int) -> Optional[list[Fraction]]:
    """Canonical nonzero vector of the nullspace of the row system, or None.

    Rows are reduced incrementally into RREF form.  The returned vector sets
    the first free column to 1 and the remaining free columns to 0, which
    makes the output independent of row order and duplicates.
    """
    pivots: dict[int, list[Fraction]] = {}
    for raw in rows:
        r = [Fraction(v) for v in raw]
        for col, prow in pivots.items():
            if r[col] != 0:
                f = r[col]
                r = [a - f * b for a, b in zip(r, prow)]
        lead = next((j for j in range(ncols) if r[j] != 0), None)
        if lead is None:
            continue
        inv = 1 / r[lead]
        r = [v * inv for v in r]
        for prow in pivots.values():
            if prow[lead] != 0:
                f = prow[lead]
                prow[:] = [a - f * b for a, b in zip(prow, r)]
        pivots[lead] = r
        if len(pivots) == ncols:
            return None
    free = [j for j in range(ncols) if j not in pivots]
    vec = [Fraction(0)] * ncols
    vec[free[0]] = Fraction(1)
    for col, prow in pivots.items():
        vec[col] = -prow[free[0]]
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
        inv = pow(r[lead], p - 2, p)
        r = [v * inv % p for v in r]
        pivots[lead] = r
        if len(pivots) == ncols:
            break
    return len(pivots)
