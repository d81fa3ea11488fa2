"""Exact integer linear algebra: canonical nullspace vectors."""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Optional, Sequence


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g == 1 else [v // g for v in row]


def nullspace_vector(rows: Iterable[Sequence[int]], ncols: int) -> Optional[list[int]]:
    """Canonical nonzero vector of the nullspace of an integer row system, or
    None when the columns have full rank.

    Rows are eliminated fraction-free (r <- p*r - f*prow) and every pivot row
    is kept primitive and zero in every other pivot column, so each one is a
    row of the reduced row echelon form times an integer.  The returned vector
    is the RREF one, first free column 1 and the other free columns 0, scaled
    to a primitive integer vector whose first nonzero entry is positive.  It
    does not depend on the order of the rows or on repeated rows.  Once
    ncols - 1 pivots leave a nullspace spanned by one vector v, the row space
    is exactly the vectors orthogonal to v, so each remaining row only has to
    be checked against v: the first with a nonzero row.v leaves no nullspace.
    """
    pivots: dict[int, list[int]] = {}
    rows = iter(rows)
    while len(pivots) < ncols - 1:
        raw = next(rows, None)
        if raw is None:
            break
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
    if any(sum(a * v for a, v in zip(row, vec)) for row in rows):
        return None
    return vec
