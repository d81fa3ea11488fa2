"""Guessing and verifying linear recurrences with polynomial coefficients.

A recurrence of order k and coefficient degree d is a tuple of polynomials
p_0..p_k, not all zero, with sum_j p_j(n+j) * f(n+j) = 0 for every n >= 0.
Guessing fits an exact nullspace on the first half of the available windows
and verifies the candidate on all of them; failure to verify moves on to the
next (order, degree) cell instead of ever returning an unverified answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arith import EhrcollapseError, RationalLike, fraction_rows, fraction_text, horner, to_integers
from .linalg import nullspace_vector, rank_mod_p


class InsufficientDataError(EhrcollapseError):
    """Raised when too few values are given for the requested search bounds."""


@dataclass(frozen=True)
class Recurrence:
    """The recurrence sum_j p_j(n+j) * f(n+j) = 0, j = 0..order, where p_j is
    polys[j][0] + polys[j][1]*n + ... + polys[j][degree]*n^degree.

    polys is an (order+1) x (degree+1) table of exact Fractions, not all zero,
    built by arith.fraction_rows from ints, Fractions or 'n/d' text (a float
    raises TypeError); its JSON form writes each coefficient as 'n/d'.
    """

    order: int
    degree: int
    polys: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = fraction_rows(self.polys, self.order + 1, self.degree + 1)
        if not any(c for row in rows for c in row):
            raise ValueError("the zero recurrence is not allowed")
        object.__setattr__(self, "polys", rows)

    def poly_value(self, j: int, n: int) -> Fraction:
        return horner(self.polys[j], n)

    def to_json_dict(self) -> dict:
        return {"order": self.order, "degree": self.degree,
                "polys": [[fraction_text(c) for c in row] for row in self.polys]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Recurrence":
        return cls(int(obj["order"]), int(obj["degree"]), obj["polys"])


def verify_recurrence(rec: Recurrence, values: Sequence[RationalLike]) -> bool:
    """Whether sum_j p_j(n+j) * f(n+j) = 0 holds at every window in values.

    Scaling all values, or all coefficients, by one nonzero integer keeps each
    sum zero or nonzero, so both are made integers and the sums are integer
    Horner evaluations.
    """
    k = rec.order
    if len(values) < k + 1:
        return False
    flat, _ = to_integers([c for row in rec.polys for c in row])
    table = [flat[i:i + rec.degree + 1] for i in range(0, len(flat), rec.degree + 1)]
    ints, _ = to_integers(values)
    for n in range(len(ints) - k):
        acc = 0
        for j, row in enumerate(table):
            m, p = n + j, 0
            for c in reversed(row):
                p = p * m + c
            acc += p * ints[m]
        if acc:
            return False
    return True


def guess_recurrence(
    values: Sequence[RationalLike], max_order: int, max_degree: int
) -> Optional[Recurrence]:
    """Smallest verified recurrence within the bounds, or None.

    Cells (order, degree) are scanned in lexicographic order.  For each cell
    the linear system uses the first half of the windows; a rank mod p equal
    to the number of unknowns proves the cell empty, otherwise an exact
    canonical nullspace vector gives the candidate, which must then verify on
    the whole sequence.  A homogeneous recurrence does not change when every
    value is multiplied by the lcm of their denominators, so all of this runs
    on integers.  Requires len(values) - 1 >= 2*(max_order+1)*(max_degree+1) +
    max_order so the fit stays overdetermined at the largest cell.
    """
    if max_order < 0 or max_degree < 0:
        raise ValueError("bounds must be >= 0")
    n_top = len(values) - 1
    if n_top < 2 * (max_order + 1) * (max_degree + 1) + max_order:
        raise InsufficientDataError(
            f"{len(values)} values are too few for bounds "
            f"({max_order}, {max_degree})"
        )
    ints, _ = to_integers(values)
    for order in range(max_order + 1):
        for degree in range(max_degree + 1):
            ncols = (order + 1) * (degree + 1)
            windows = n_top - order + 1
            n_fit = (windows + 1) // 2
            rows = [
                [(n + j) ** i * ints[n + j]
                 for j in range(order + 1) for i in range(degree + 1)]
                for n in range(n_fit)
            ]
            if rank_mod_p(rows, ncols) == ncols:
                continue  # provably trivial nullspace, skip the exact pass
            vec = nullspace_vector(rows, ncols)
            if vec is None:
                continue
            rec = Recurrence(order, degree,
                             [vec[i:i + degree + 1] for i in range(0, ncols, degree + 1)])
            if verify_recurrence(rec, ints):
                return rec
    return None


def recurrence_from_quasipolynomial_bounds(period: int, degree: int) -> tuple[int, int]:
    """Any quasipolynomial sequence of this period and degree satisfies a
    recurrence of order period*(degree+1) with constant coefficients."""
    return period * (degree + 1), 0
