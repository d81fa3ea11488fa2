"""Guessing and verifying linear recurrences with polynomial coefficients.

A recurrence of order k and coefficient degree d is a tuple of polynomials
p_0..p_k, not all zero, with sum_j p_j(n+j) * f(n+j) = 0 for every n >= 0.
Guessing seeds a candidate mod a prime or fits an exact nullspace on the first
half of the available windows, and verifies it on all of them; failure to
verify moves on instead of ever returning an unverified answer.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .arith import (EhrcollapseError, RationalLike, RationalTable, exact_int, fraction_rows,
                    to_integers)

P = (1 << 61) - 1  # the prime of the rank test
RUN = 4096  # windows that _holds sums together


class InsufficientDataError(EhrcollapseError):
    """Raised when too few values are given for the requested search bounds."""


class Recurrence(RationalTable):
    """The recurrence sum_j p_j(n+j) * f(n+j) = 0, j = 0..order, where p_j is
    polys[j][0] + polys[j][1]*n + ... + polys[j][degree]*n^degree.

    It holds its (order+1) x (degree+1) table, not all zero, as an
    arith.RationalTable; polys is the table as Fractions, built when first
    read.  The constructor takes its order and degree through arith.exact_int
    and its entries, exact numbers or 'n/d' text, through arith.fraction_rows:
    a float or a bool, as a size or as an entry, raises TypeError.
    """

    FIELDS = ("order", "degree", "numerators", "denominator")
    KEYS = ("order", "polys")

    polys = cached_property(RationalTable._fractions)

    def __init__(self, order: int, degree: int, polys: Iterable[Iterable]) -> None:
        self._fill(order, degree, fraction_rows(polys, exact_int(order) + 1, exact_int(degree) + 1))
        if not any(map(any, self.numerators)):
            raise ValueError("the zero recurrence is not allowed")


def verify_recurrence(rec: Recurrence, values: Sequence[RationalLike]) -> bool:
    """Whether sum_j p_j(n+j) * f(n+j) = 0 holds at every window in values.

    Scaling all values, or all coefficients, by one nonzero integer keeps each
    sum zero or nonzero, so the sums are integer Horner evaluations of the
    recurrence's numerators on the values made integers.
    """
    if len(values) < rec.order + 1:
        return False
    return _holds(rec.numerators, to_integers(values)[0])


def _holds(table: Sequence[Sequence[int]], ints: Sequence[int]) -> bool:
    """verify_recurrence on integer coefficient rows and integer values, in runs
    of RUN windows n: row j's terms m^i * f(m), m = n + j, are built one i at a
    time, and each nonzero c of m^i adds c times them to the run's sums."""
    windows = len(ints) - len(table) + 1
    for start in range(0, windows, RUN):
        stop = min(start + RUN, windows)
        sums = [0] * (stop - start)
        for j, row in enumerate(table):
            terms = ints[start + j:stop + j]
            for i, c in enumerate(row):
                if i:
                    terms = [m * x for m, x in zip(range(start + j, stop + j), terms)]
                if c:
                    sums = [s + c * x for s, x in zip(sums, terms)]
        if any(sums):
            return False
    return True


def _independent(basis: list[tuple], col: list[int]) -> bool:
    """Reduce col by an echelon basis of columns mod P, each 0 at the pivots
    before its own, and append its residues with its pivot's inverse and the
    factors it was reduced by, one per entry; False when it reduces to 0,
    appended as pivot None and inverse 0, for _seed.  A step adds under P^2
    to an entry, so col is reduced mod P once, at the end."""
    factors = []
    for pivot, b, inv, _ in basis:
        f = col[pivot] % P
        factors.append(f)
        if f:
            e = f * inv % P
            col = [x - e * y for x, y in zip(col, b)]
    col = [x % P for x in col]
    lead = next((n for n, x in enumerate(col) if x), None)
    basis.append((lead, col, 0 if lead is None else pow(col[lead], -1, P), factors))
    return lead is not None


def _rational(x: int) -> Optional[tuple[int, int]]:
    """(n, d) with n = d*x mod P, |n| < 2^30 and 0 < d < 2^30, by Wang's
    half-extended Euclid, or None when there is none."""
    r0, r1, t0, t1 = P, x, 0, 1
    while r1 >> 30:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return None if abs(t1) >> 30 else (r1 if t1 > 0 else -r1, abs(t1))


def _seed(basis: list[tuple], ncols: int) -> Optional[list[int]]:
    """The dependency w, w_k = 1, of the column k that reduced to 0 by factors
    g: c_k = sum_l g_l*b_l, and undoing each b_m = inv_m*(c_m - sum_l f_ml*b_l)
    from the last down gives w mod P.  Lifted to its _canonical integer
    vector, padded to ncols; None if it does not lift."""
    *entries, (_, _, _, a) = basis
    w = [1]
    for _, _, inv, f in reversed(entries):
        e = a[-1] * inv % P
        w.append(-e % P)
        a = [(x - e * y) % P for x, y in zip(a, f)]
    fracs = [_rational(x) for x in reversed(w)]
    if None in fracs:
        return None
    scale = lcm(*(d for _, d in fracs))
    return _canonical([n * (scale // d) for n, d in fracs]) + [0] * (ncols - len(fracs))


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return row if g == 1 else [v // g for v in row]


def _canonical(vec: list[int]) -> list[int]:
    """The one form of a nonzero candidate vector: divided by the gcd of its
    entries, with its first nonzero entry positive."""
    vec = _primitive(vec)
    return vec if next(v for v in vec if v) > 0 else [-v for v in vec]


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
    vec = _canonical(vec)
    if any(sum(a * v for a, v in zip(row, vec)) for row in rows):
        return None
    return vec


def _candidates(ints: Sequence[int], order: int, degree: int, basis: Optional[list]):
    """The seed of a basis that has just met a dependent column, then the
    exact canonical nullspace vector of the first half of the windows."""
    ncols = (order + 1) * (degree + 1)
    if basis is not None:
        yield _seed(basis, ncols)
    rows = ([(n + j) ** i * ints[n + j] for j in range(order + 1) for i in range(degree + 1)]
            for n in range((len(ints) - order + 1) // 2))
    yield nullspace_vector(rows, ncols)


def guess_recurrence(
    values: Sequence[RationalLike], max_order: int, max_degree: int
) -> Optional[Recurrence]:
    """Smallest verified recurrence within the bounds, or None.

    Cells (order, degree) are scanned in lexicographic order, and a cell's
    candidate is returned only if it holds at every window, which _holds
    checks one coefficient at a time over runs of windows.  A homogeneous
    recurrence does not change when every value is multiplied by the lcm of
    their denominators, so all of this runs on integers.  Requires
    len(values) - 1 >= 2*(max_order+1)*(max_degree+1) + max_order so the fit
    stays overdetermined at the largest cell.

    Each degree keeps one echelon basis of its columns as residues mod the
    prime P, unscaled and each reduced mod P once (_independent), each order
    appending its own, on rows every cell fits on: the first and last
    2*(max_order+1)*(max_degree+1) of the largest order's, so that a recurrence
    holding only on a prefix still shows its break.  While all columns are
    independent mod P the cell has full column rank, since a nonzero minor mod
    P is one over the rationals, and is skipped.  The first dependent column k
    seeds the candidate with its dependency mod P, lifted.  If that holds, it
    is the one dependency of column k on the fit rows, since columns 0..k-1
    are independent on the shared rows among them: the exact pass's RREF
    vector.  Otherwise this and every later cell of the degree take the exact
    pass, a canonical nullspace vector of the first half of the windows.
    """
    if exact_int(max_order) < 0 or exact_int(max_degree) < 0:
        raise ValueError("bounds must be >= 0")
    n_top = len(values) - 1
    if n_top < 2 * (max_order + 1) * (max_degree + 1) + max_order:
        raise InsufficientDataError(
            f"{len(values)} values are too few for bounds "
            f"({max_order}, {max_degree})"
        )
    ints, _ = to_integers(values)
    block = 2 * (max_order + 1) * (max_degree + 1)
    n_least = (n_top - max_order + 2) // 2  # the fit rows of the largest order
    shared = [*range(min(block, n_least)), *range(max(block, n_least - block), n_least)]
    bases: list[Optional[list]] = [[] for _ in range(max_degree + 1)]
    for order in range(max_order + 1):
        # column (order, i) on the shared rows n: (n+order)^i * f(n+order) mod P
        cols = [[ints[n + order] % P for n in shared]]
        for _ in range(max_degree):
            cols.append([x * (n + order) % P for n, x in zip(shared, cols[-1])])
        for degree in range(max_degree + 1):
            basis = bases[degree]
            if basis is not None:
                if all(_independent(basis, col) for col in cols[:degree + 1]):
                    continue  # full column rank: provably trivial nullspace
                bases[degree] = None
            for vec in _candidates(ints, order, degree, basis):
                table = vec and [vec[i:i + degree + 1] for i in range(0, len(vec), degree + 1)]
                if table and _holds(table, ints):
                    return Recurrence._of(order, degree, table, 1)
    return None


def recurrence_from_quasipolynomial_bounds(period: int, degree: int) -> tuple[int, int]:
    """Any quasipolynomial sequence of this period and degree satisfies a
    recurrence of order period*(degree+1) with constant coefficients."""
    return period * (degree + 1), 0
