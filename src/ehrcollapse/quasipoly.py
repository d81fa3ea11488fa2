"""Quasipolynomial fitting, minimal periods, and related reports.

A quasipolynomial of period pi and degree k is a family of pi polynomials
("constituents"), one per residue class of t mod pi.  Everything here is
exact, and periods are found with integer finite differences alone.

The difference certificate: write Delta_d I(t) = I(t+d) - I(t).  A sequence
is a quasipolynomial of period d and degree <= k on t >= 0 exactly when
Delta_d^(k+1) I vanishes there, since then every residue class mod d is a
sequence whose (k+1)-th difference is zero, i.e. a polynomial of degree <= k.
If I is known to be a quasipolynomial of period P and degree <= k, then so is
Delta_d^(k+1) I for every d, and it vanishes everywhere as soon as it
vanishes at k+1 points of every residue class mod P, i.e. on t in [0, (k+1)P).

certified_period uses that twice.  It first checks Delta_P^(k+1) I = 0 on
held-out t at the guaranteed period P, which is the same test as fitting each
constituent through its first k+1 samples and verifying the rest.  It then
returns the least divisor d of P whose difference vanishes on [0, (k+1)P);
McAllister and Woods (J. Combin. Theory A 109, 2005) discuss why d can be
smaller than the denominator.  minimal_period also builds the coefficients,
once, at d, by Newton interpolation with integer numerators over one common
denominator.

fit_quasipolynomial interpolates each constituent through its first degree+1
samples with the same Newton helper, then demands that every remaining sample
matches exactly; any mismatch returns None rather than a best-effort answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Union

from . import counting
from .arith import EhrcollapseError
from .polytopes import AdmissiblePair, RationalTriangleParams

HELD_OUT_PER_RESIDUE = 3  # values per residue class past the k + 1 a fit reads
# The certificate holds every count it reads, about 120 bytes per count at
# large P; a period that needs more counts than this is refused before any.
MAX_CERTIFICATE_COUNTS = 10 ** 7


class InsufficientSamplesError(EhrcollapseError):
    """Raised when some residue class has fewer than degree+1 samples at
    distinct t."""


class FitFailureError(EhrcollapseError):
    """Raised when a fit that is guaranteed to exist does not verify."""


@dataclass(frozen=True)
class Quasipolynomial:
    period: int
    degree: int
    coeffs: tuple[tuple[Fraction, ...], ...]  # coeffs[z][i]: coefficient of t^i

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be >= 1")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        rows = tuple(
            tuple(c if isinstance(c, Fraction) else Fraction(c) for c in row)
            for row in self.coeffs
        )
        if len(rows) != self.period or any(len(row) != self.degree + 1 for row in rows):
            raise ValueError("coefficient table must be period x (degree+1)")
        object.__setattr__(self, "coeffs", rows)

    def evaluate(self, t: int) -> Fraction:
        """Exact value at any integer t (negative t uses t mod period >= 0)."""
        acc = Fraction(0)
        for c in reversed(self.coeffs[t % self.period]):
            acc = acc * t + c
        return acc

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "degree": self.degree,
            "coeffs": [
                [f"{c.numerator}/{c.denominator}" for c in row] for row in self.coeffs
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Quasipolynomial":
        return cls(
            int(obj["period"]),
            int(obj["degree"]),
            tuple(tuple(Fraction(c) for c in row) for row in obj["coeffs"]),
        )


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _differences(values: Sequence[int], step: int, order: int) -> list[int]:
    """Delta_step^order of values at t = 0 .. len(values) - order*step - 1."""
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[step:])]
    return values


def _newton(
    nodes: Sequence[int], values: Sequence[Union[int, Fraction]]
) -> tuple[list[int], int]:
    """The polynomial of degree < len(nodes) through (nodes[i], values[i]).

    Returns the integer numerators of its coefficients of t^0, t^1, ... and
    their common positive denominator.  Newton divided differences are kept
    as integers: the entries of level m share one denominator, the one of
    level m-1 times the lcm of the level's node gaps.  On equispaced nodes
    with step h they are the forward differences over m! h^m.  Raises
    InsufficientSamplesError when a node repeats.
    """
    scale = lcm(*(y.denominator for y in values))
    diffs = [y.numerator * (scale // y.denominator) for y in values]
    leads, dens = [diffs[0]], [scale]
    for m in range(1, len(nodes)):
        gaps = [b - a for a, b in zip(nodes, nodes[m:])]
        step = lcm(*gaps)
        if step == 0:
            raise InsufficientSamplesError(f"degenerate sample nodes {list(nodes)}")
        diffs = [(b - a) * (step // gap) for a, b, gap in zip(diffs, diffs[1:], gaps)]
        leads.append(diffs[0])
        dens.append(dens[-1] * step)
    den = dens[-1]
    # nested Newton form: acc <- acc * (t - nodes[m]) + leads[m] / dens[m]
    acc = [leads[-1]]
    for m in range(len(nodes) - 2, -1, -1):
        x = nodes[m]
        acc = [s - x * a for s, a in zip([0] + acc, acc + [0])]
        acc[0] += leads[m] * (den // dens[m])
    return acc, den


def _horner(numerators: Sequence[int], t: int) -> int:
    acc = 0
    for c in reversed(numerators):
        acc = acc * t + c
    return acc


Sample = tuple[int, Union[int, Fraction]]


def fit_quasipolynomial(
    samples: Iterable[Sample], period: int, degree: int
) -> Optional[Quasipolynomial]:
    """Exact fit of the samples at the given period and degree.

    Interpolates each residue class through its first degree+1 samples and
    verifies all others; returns None if any sample disagrees.  Raises
    InsufficientSamplesError when a class has fewer than degree+1 samples,
    or when two of the samples it is interpolated through share a t.
    """
    if period < 1 or degree < 0:
        raise ValueError("need period >= 1 and degree >= 0")
    cleaned = sorted({(int(t), Fraction(y)) for t, y in samples})
    by_res: dict[int, list[tuple[int, Fraction]]] = {z: [] for z in range(period)}
    for t, y in cleaned:
        by_res[t % period].append((t, y))
    short = [z for z, pts in by_res.items() if len(pts) < degree + 1]
    if short:
        raise InsufficientSamplesError(
            f"residues {short} have fewer than {degree + 1} samples"
        )
    fits = [_newton(*zip(*pts[: degree + 1])) for pts in by_res.values()]
    for (numerators, den), pts in zip(fits, by_res.values()):
        for t, y in pts[degree + 1:]:
            if _horner(numerators, t) * y.denominator != y.numerator * den:
                return None
    table = tuple(
        tuple(Fraction(c, den) for c in numerators) for numerators, den in fits
    )
    return Quasipolynomial(period, degree, table)


def _check_size(counts: int, guaranteed: int) -> None:
    if counts > MAX_CERTIFICATE_COUNTS:
        raise EhrcollapseError(
            f"the certificate at guaranteed period {guaranteed} needs at least {counts} counts,"
            f" more than the limit of {MAX_CERTIFICATE_COUNTS}"
        )


def _certify(
    obj: Union[RationalTriangleParams, AdmissiblePair], degree: int
) -> tuple[list[int], int]:
    """The counts read by the certificates, and the certified minimal period."""
    if isinstance(obj, AdmissiblePair):
        guaranteed = obj.alpha
    elif isinstance(obj, RationalTriangleParams):
        guaranteed = obj.denominator
    else:
        raise TypeError(f"unsupported type {type(obj).__name__}")
    if degree < 0:
        raise ValueError("need degree >= 0")
    order = degree + 1
    window = order * guaranteed
    held_out = (order + HELD_OUT_PER_RESIDUE) * guaranteed
    _check_size(held_out, guaranteed)  # before the O(P) divisor scan
    divisors = _divisors(guaranteed)
    # the certificate at the largest proper divisor d reads t < (k+1)(P + d),
    # which at a high degree lies past the held-out range
    needed = max(held_out, window + order * divisors[-2] if len(divisors) > 1 else 0)
    _check_size(needed, guaranteed)
    values = counting.count_triangle_many(obj, range(needed))
    if any(_differences(values[:held_out], guaranteed, order)):
        raise FitFailureError(
            f"no verified degree-{degree} fit at guaranteed period {guaranteed}"
        )
    period = next(
        d for d in divisors
        if d == guaranteed or not any(_differences(values[:window + order * d], d, order))
    )
    return values, period


def certified_period(
    obj: Union[RationalTriangleParams, AdmissiblePair], degree: int = 2
) -> int:
    """Certify the guaranteed period, then return its least divisor that passes.

    The guaranteed period P is the vertex denominator lcm(q, s) for rational
    parameters and alpha for an admissible pair.  With k = degree and
    h = HELD_OUT_PER_RESIDUE, the counts on t in [0, (k + 1 + h) P) must
    satisfy Delta_P^(k+1) I = 0 at t in [0, h P): the test a fit at P through
    the first k+1 values of each residue class passes on the next h values of
    that class; FitFailureError otherwise.
    The minimal period is the least divisor d of P with Delta_d^(k+1) I = 0 at
    t in [0, (k+1) P).  Raises EhrcollapseError, before counting, when the
    certificates would read more than MAX_CERTIFICATE_COUNTS counts.
    """
    return _certify(obj, degree)[1]


def minimal_period(
    obj: Union[RationalTriangleParams, AdmissiblePair], degree: int = 2
) -> tuple[Quasipolynomial, int]:
    """The certified period d of certified_period and the quasipolynomial at d,
    built from the same counts.  Returns (quasipolynomial at period d, d)."""
    values, period = _certify(obj, degree)
    order = degree + 1
    table = []
    for r in range(period):
        stop = r + order * period
        numerators, den = _newton(range(r, stop, period), values[r:stop:period])
        table.append(tuple(Fraction(c, den) for c in numerators))
    return Quasipolynomial(period, degree, tuple(table)), period


@dataclass(frozen=True)
class SeriesNumerator:
    """Numerator 1 + a1*z + a2*z^2 of sum_t I(t) z^t times (1-z)^3, for a
    polynomial counting function of degree <= 2 with I(0) = 1."""

    a0: Fraction
    a1: Fraction
    a2: Fraction

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a0, self.a1, self.a2)


def series_numerator(i1: Union[int, Fraction], i2: Union[int, Fraction]) -> SeriesNumerator:
    """Numerator coefficients from the counts at t = 1 and t = 2."""
    i1, i2 = Fraction(i1), Fraction(i2)
    return SeriesNumerator(Fraction(1), i1 - 3, 3 - 3 * i1 + i2)


@dataclass(frozen=True)
class ReciprocityReport:
    """Comparison of the fitted quasipolynomial at -t with the open count at t."""

    t: int
    value_at_neg_t: Fraction
    interior_count: int
    correction: Fraction  # value_at_neg_t - interior_count
    alpha_divides_t: bool


def reciprocity_report(
    pair: AdmissiblePair, t: int, qp: Optional[Quasipolynomial] = None
) -> ReciprocityReport:
    if t < 1:
        raise ValueError("need t >= 1")
    if qp is None:
        qp, _ = minimal_period(pair)
    lhs = qp.evaluate(-t)
    interior = counting.count_triangle_interior(pair, t)
    return ReciprocityReport(t, lhs, interior, lhs - interior, t % pair.alpha == 0)
