"""Quasipolynomial fitting, minimal periods, and related reports.

A quasipolynomial of period pi and degree k is a family of pi polynomials
("constituents"), one per residue class of t mod pi.  Everything here is
exact, and periods are found with integer finite differences alone.

The difference certificate: write Delta_d I(t) = I(t+d) - I(t).  A sequence
is a quasipolynomial of period d and degree <= k on t >= 0 exactly when
Delta_d^(k+1) I vanishes there, since then every residue class mod d is a
sequence whose (k+1)-th difference is zero, i.e. a polynomial of degree <= k.

The window (Stanley, EC1 section 4.4): the counts obey the translate
identity I(t) = I(t-n) + I(t-m) - I(t-n-m) + c for t >= n+m of
TrianglePair.translate, with (n, m, c) = (min(q, s), max(q, s), p*r) for
rational legs u = q/p, v = s/r and (1, alpha, beta) for an admissible pair,
in either leg order; the certificates refuse a triangle with no such identity.
Differenced once, it makes C(z) = (1-z)(1-z^n)(1-z^m) annihilate I from
t = deg C on.  Delta_d^3 I is a sum of forward shifts of I, so it obeys the
same recurrence from t = w = deg C = n + m + 1 on: it vanishes for all
t >= 0 once it vanishes on [0, w).  No root of C has multiplicity above 3,
so a sequence that obeys the recurrence is a quasipolynomial of degree <= 2
and period lcm(n, m), and degree 2 is the only one a certificate needs.

certified_period counts t < w + 3P for the guaranteed period P = lcm(n, m),
in one run that count_triangle_many checks against the identity, checks
Delta_P^3 I on [0, w), then divides P by one prime at a time while
Delta_d^3 I still vanishes on [0, w): the periods are the multiples of the
least one (McAllister and Woods, J. Combin. Theory A 109, 2005, on why it
can be below the denominator).  minimal_period builds the coefficients at
that period, once, with fit_quasipolynomial.

fit_quasipolynomial takes the values at t = 0, 1, 2, ..., so residue class z
lies on the equispaced nodes z, z + P, z + 2P, ...  It scales the values to
integers once and fits every class at once, level by level: degree + 1
levels of stride-P differences, each a stream that holds P values at a time,
give each class's Newton forward differences at its first node, and the next
level must vanish everywhere, which is the same as every further value
matching its class's polynomial; any mismatch returns None rather than a
best-effort answer.  The nested Newton form then runs across the classes as
list passes, giving integer numerators over the one denominator k! P^k times
the scale, for k = degree.  A Quasipolynomial keeps that integer table,
reduced by one gcd, and builds Fractions only when coeffs is read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import islice, tee
from math import lcm
from operator import sub
from typing import Iterable, Optional, Sequence

from . import counting
from .arith import (EhrcollapseError, Frozen, InternalCheckError, RationalLike, RationalTable,
                    exact_int, fraction_rows, horner, to_integers)
from .polytopes import AdmissiblePair


class InsufficientSamplesError(EhrcollapseError):
    """Raised when some residue class has fewer than degree+1 samples."""


class FitFailureError(InternalCheckError):
    """Raised when a fit that is guaranteed to exist does not verify."""


class Quasipolynomial(RationalTable):
    """The quasipolynomial that is coeffs[z][0] + coeffs[z][1]*t + ... +
    coeffs[z][degree]*t^degree on t = z mod period.

    It holds its period x (degree+1) table as an arith.RationalTable;
    coeffs is the table as Fractions, built when first read.  The
    constructor takes its period and degree through arith.exact_int and its
    entries, exact numbers or 'n/d' text, through arith.fraction_rows: a
    float or a bool, as a size or as an entry, raises TypeError.
    """

    FIELDS = ("period", "degree", "numerators", "denominator")
    KEYS = ("period", "coeffs")

    coeffs = cached_property(RationalTable._fractions)

    def __init__(self, period: int, degree: int, coeffs: Iterable[Iterable]) -> None:
        if exact_int(period) < 1:
            raise ValueError("period must be >= 1")
        if exact_int(degree) < 0:
            raise ValueError("degree must be >= 0")
        self._fill(period, degree, fraction_rows(coeffs, period, degree + 1))

    def evaluate(self, t: int) -> Fraction:
        """Exact value at any integer t (negative t uses t mod period >= 0)."""
        return Fraction(horner(self.numerators[exact_int(t) % self.period], t), self.denominator)


def _prime_factors(n: int) -> list[int]:
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


def fit_quasipolynomial(
    values: Sequence[RationalLike], period: int, degree: int
) -> Optional[Quasipolynomial]:
    """Exact fit of values[t], for t = 0..len(values)-1, at the given period
    and degree.

    Interpolates residue class z through values[z], values[z + period], ...,
    the first degree+1 of them, and verifies all others; returns None if any
    value disagrees.  Raises InsufficientSamplesError when a class has fewer
    than degree+1 values: those are the classes from len(values) -
    degree*period on.
    """
    if exact_int(period) < 1 or exact_int(degree) < 0:
        raise ValueError("need period >= 1 and degree >= 0")
    short = max(0, len(values) - degree * period)
    if short < period:
        raise InsufficientSamplesError(
            f"residues {short}..{period - 1} have fewer than {degree + 1} samples"
        )
    diffs, scale = to_integers(values)
    leads = []  # leads[m][z]: Delta_period^m values at t = z
    for _ in range(degree + 1):
        ahead, diffs = tee(diffs)
        leads.append(list(islice(ahead, period)))
        diffs = map(sub, ahead, diffs)
    if any(diffs):
        return None  # Delta_period^(degree+1) is not zero on some residue class
    # nested Newton form of every class at once, times k! period^k for
    # k = degree: acc <- acc * (t - z - m*period) + leads[m] * weight, weight
    # = k! period^k / (m! period^m); acc[i][z] is the coefficient of t^i
    acc, weight = [leads[degree]], 1
    for m in range(degree - 1, -1, -1):
        weight *= (m + 1) * period
        xs = range(m * period, (m + 1) * period)
        acc = ([[weight * y - x * a for y, x, a in zip(leads[m], xs, acc[0])]]
               + [[b - x * a for x, a, b in zip(xs, hi, lo)] for lo, hi in zip(acc, acc[1:])]
               + [acc[-1]])
    return Quasipolynomial._of(period, degree, zip(*acc), weight * scale)


def _certify(obj: counting.TriangleLike) -> tuple[list[int], int]:
    """The counts read by the certificates, and the certified minimal period."""
    pair = counting._as_pair(obj)
    n, m, _ = pair.translate or (0, 0, 0)
    if not m:  # no identity, or a strip
        raise EhrcollapseError(
            "period needs rational legs, or legs with integer u + v and 1/u + 1/v")
    guaranteed, width = lcm(n, m), n + m + 1
    values = counting.count_triangle_many(pair, range(width + 3 * guaranteed))

    def vanishes(d: int) -> bool:  # Delta_d^3 I on [0, width)
        v = values
        return not any(v[t + 3 * d] - 3 * v[t + 2 * d] + 3 * v[t + d] - v[t]
                       for t in range(width))

    if not vanishes(guaranteed):
        raise FitFailureError(f"no verified degree-2 fit at guaranteed period {guaranteed}")
    period = guaranteed
    for p in _prime_factors(guaranteed):
        while period % p == 0 and vanishes(period // p):
            period //= p
    return values, period


def certified_period(obj: counting.TriangleLike) -> int:
    """Certify the guaranteed period, then descend to the least period.

    obj is any triangle (counting.TriangleLike) whose TrianglePair.translate
    is a two-shift identity (n, m, step): rational legs, or legs with integer
    u + v and 1/u + 1/v.  Its counts satisfy a recurrence of degree
    w = n + m + 1 and are a quasipolynomial of degree 2 and guaranteed period
    P = lcm(n, m).  The counts on t in [0, w + 3P) are one run of
    count_triangle_many, which raises InternalCheckError when they break the
    identity; Delta_P^3 I must vanish at t in [0, w) (FitFailureError
    otherwise).  P then loses one prime at a time while Delta_d^3 I = 0 at
    t in [0, w) still holds.  Raises EhrcollapseError for other triangles
    and, before counting, when w + 3P is more than
    counting.MAX_CERTIFICATE_COUNTS; TypeError for a non-triangle.
    """
    return _certify(obj)[1]


def minimal_period(obj: counting.TriangleLike) -> tuple[Quasipolynomial, int]:
    """The certified period d of certified_period and the degree-2
    quasipolynomial at d, built from the same counts.  Returns
    (quasipolynomial at period d, d)."""
    values, period = _certify(obj)
    # three values per residue leave nothing to verify, so the fit is never None
    return fit_quasipolynomial(values[: 3 * period], period, 2), period


class SeriesNumerator(Frozen):
    """Numerator 1 + a1*z + a2*z^2 of sum_t I(t) z^t times (1-z)^3, for a
    polynomial counting function of degree <= 2 with I(0) = 1."""

    FIELDS = ("a0", "a1", "a2")

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a0, self.a1, self.a2)


def series_numerator(i1: RationalLike, i2: RationalLike) -> SeriesNumerator:
    """Numerator coefficients from the counts at t = 1 and t = 2."""
    ((i1, i2),) = fraction_rows([(i1, i2)], 1, 2)
    return SeriesNumerator(Fraction(1), i1 - 3, 3 - 3 * i1 + i2)


class ReciprocityReport(Frozen):
    """Comparison of the fitted quasipolynomial at -t with the open count at t;
    correction is value_at_neg_t - interior_count."""

    FIELDS = ("t", "value_at_neg_t", "interior_count", "correction", "alpha_divides_t")


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
