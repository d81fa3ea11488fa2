"""Right simplices with rational or quadratic-irrational leg data.

The central object is the triangle T_{u,v} with vertices (0,0), (1/u,0),
(0,1/v); its t-th dilate contains the lattice points (x,y) >= 0 with
u*x + v*y <= t.  Families covered here:

* rational parameter tuples (p,q,r,s) meaning u = q/p, v = s/r in lowest terms
* admissible pairs (alpha, beta): u + v = alpha, 1/u + 1/v = beta are positive
  integers while u/v is irrational
* axis-aligned simplices in any dimension given by their leg lengths
* intervals with quadratic-irrational endpoints
* explicit rational triangles in the plane (used for unimodular images)
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import starmap
from math import gcd, lcm
from typing import Optional

from .arith import (EhrcollapseError, Expansion, Frozen, QuadNumber, RadicandMismatchError,
                    Triple, _new, exact_int, fraction_rows, reduced_triple, shared_triples)

# the largest r of a strip leg s/r: set when a strip cost r square roots per t, not re-measured
MAX_STRIP_FLOORS = 8


class NotIrrationalError(EhrcollapseError):
    """Raised when (alpha, beta) fails to produce an irrational leg ratio."""


class TrianglePair(Frozen):
    """Legs of T_{u,v}: the dilate by t counts u*x + v*y <= t over x, y >= 0."""

    FIELDS = ("u", "v")

    def __init__(self, u: QuadNumber, v: QuadNumber) -> None:
        u, v = QuadNumber.from_value(u), QuadNumber.from_value(v)
        if u.sign() <= 0 or v.sign() <= 0:
            raise ValueError("both legs must be positive")
        vars(self).update(u=u, v=v)

    @property
    def kind(self) -> str:
        """'rational' for two rational legs, 'admissible' for legs with the
        two-shift identity (1, alpha, beta), else 'other'."""
        if self.u.is_rational and self.v.is_rational:
            return "rational"
        identity = self.translate
        return "admissible" if identity and identity[1] else "other"

    def swapped(self) -> "TrianglePair":
        return TrianglePair(self.v, self.u)

    @cached_property
    def slopes(self) -> tuple[tuple[Triple, Triple, Triple], int]:
        """theta = u/v, 1/u and 1/v (the slope of the hypotenuse and the
        vertices on the axes) as integer triples over one radicand, with theta
        and 1/v over one denominator, and that radicand; built once per
        triangle."""
        ((a, b, c), (e, f, g)), d = shared_triples((self.u, self.v))
        # 1/x = c*(a - b*sqrt(d)) / (a^2 - b^2*d) for x = (a + b*sqrt(d))/c, and
        # theta = u * (1/v), so theta and 1/v share the denominator c*(e^2 - f^2*d)
        inv_u = reduced_triple(c * a, -c * b, a * a - b * b * d)
        s0, s1, w0, w1, den = (g * (a * e - b * f * d), g * (b * e - a * f), c * g * e, -c * g * f,
                               c * (e * e - f * f * d))
        k = gcd(s0, s1, w0, w1, den) * (-1 if den < 0 else 1)
        return ((s0 // k, s1 // k, den // k), inv_u, (w0 // k, w1 // k, den // k)), d

    @cached_property
    def expansion(self) -> Expansion:
        """The continued fraction of theta, which every floor sum of this
        triangle walks; it grows as deep as the largest count needs."""
        (theta, _, _), d = self.slopes
        return Expansion(theta, d)

    @cached_property
    def translate(self) -> Optional[tuple[int, int, int | tuple[int, int, int, int]]]:
        """(n, m, step) with L(t) = L(t - n) + L(t - m) - L(t - n - m) + step
        for t >= n + m and n <= m, L(t) the count of the t-th dilate, or
        (s, 0, strip), strip the four integers of a run by rows, or None.
        Rational legs u = q/p, v = s/r: x >= p and y >= r are translates of
        the (t - q)-th and (t - s)-th dilates and the box x < p, y < r is
        full: (min(q, s), max(q, s), p*r).  Irrational legs with integer
        alpha = u + v and beta = 1/u + 1/v (admissible): x, y >= 1 is a
        translate of the (t - alpha)-th dilate and the axes hold beta*t
        points; differenced once, (1, alpha, beta).  Other irrational legs
        have none.  One rational leg v = s/r, r <= MAX_STRIP_FLOORS: row y holds
        floor((r*t - s*y)/(r*u)) + 1 points (swap if u = s/r), so the count C(m)
        at t = m/r is C(m - s) + floor(m/(r*u)) + 1: (s, 0, (r, a, b, c)), where
        (a + b*sqrt(d))/c = -1/(r*u), over the radicand d of slopes, is the slope
        of the row floors that count_triangle_many sums as Beatty runs."""
        u, v = self.u, self.v
        if u.is_rational and v.is_rational:
            (q, _, p), (s, _, r) = u.triple, v.triple
            return min(q, s), max(q, s), p * r
        if not (u.is_rational or v.is_rational):
            try:
                alpha = u + v
            except RadicandMismatchError:
                return None
            # an integer sum of irrational legs makes u/v irrational: u = r*v
            # with r rational would make v = alpha/(1 + r) rational
            if not alpha.is_integer():
                return None
            beta = alpha / (u * v)  # 1/u + 1/v = (u+v)/(u*v)
            return (1, alpha.triple[0], beta.triple[0]) if beta.is_integer() else None
        (_, inv_u, inv_v), _ = self.slopes
        leg, (i0, i1, ic) = (v, inv_u) if v.is_rational else (u, inv_v)
        s, _, r = leg.triple
        return None if r > MAX_STRIP_FLOORS else (s, 0, (r, -i0, -i1, r * ic))

    def to_json_dict(self) -> dict:
        return {
            "u": self.u.to_json_dict(),
            "v": self.v.to_json_dict(),
            "class": self.kind,
        }


def is_admissible(alpha: int, beta: int) -> bool:
    """Whether integers (alpha, beta) are positive with irrational legs.

    With m = alpha*beta the legs have the discriminant m*(m - 4), which is
    <= 0 for m <= 4 and lies strictly between (m - 3)^2 and (m - 2)^2 for
    m >= 5, so it is a positive non-square exactly when m >= 5.
    """
    return alpha >= 1 and beta >= 1 and alpha * beta >= 5


class _LegData(Frozen):
    """Leg data u, v of a triangle; triangle() is their TrianglePair, built once."""

    def triangle(self) -> TrianglePair:
        return self._triangle

    @cached_property
    def _triangle(self) -> TrianglePair:
        return TrianglePair(self.u, self.v)


class AdmissiblePair(_LegData):
    """Pair of positive integers (alpha, beta) with u+v = alpha, 1/u+1/v = beta.

    The legs solve x^2*beta - alpha*beta*x + alpha = 0, so
    u, v = (alpha*beta +- sqrt(alpha*beta*(alpha*beta - 4))) / (2*beta),
    and the pair is admissible only when that discriminant is positive and
    not a perfect square, that is when alpha*beta >= 5 (is_admissible).
    """

    FIELDS = ("alpha", "beta", "u", "v")

    def __init__(self, alpha: int, beta: int) -> None:
        if not is_admissible(exact_int(alpha), exact_int(beta)):
            if alpha < 1 or beta < 1:
                raise ValueError("alpha and beta must be positive integers")
            raise NotIrrationalError(
                f"(alpha, beta) = ({alpha}, {beta}) gives a rational leg ratio"
            )
        m = alpha * beta
        u = QuadNumber(Fraction(alpha, 2), Fraction(1, 2 * beta), m * (m - 4))
        vars(self).update(alpha=alpha, beta=beta, u=u, v=u.conjugate())


class RationalTriangleParams(_LegData):
    """Lowest-term data (p,q,r,s) for the rational triangle with u = q/p, v = s/r."""

    FIELDS = ("p", "q", "r", "s")

    def __init__(self, p: int, q: int, r: int, s: int) -> None:
        for name, val in zip(self.FIELDS, (p, q, r, s)):
            if exact_int(val) < 1:
                raise ValueError(f"{name} must be a positive integer, got {val!r}")
        if gcd(p, q) != 1 or (r, s) != (q, p) and gcd(r, s) != 1:  # reciprocal: one gcd
            raise ValueError("q/p and s/r must be in lowest terms")
        vars(self).update(p=p, q=q, r=r, s=s)

    @classmethod
    def from_fractions(cls, u: Fraction, v: Fraction) -> "RationalTriangleParams":
        ((u, v),) = fraction_rows([(u, v)], 1, 2)
        if u <= 0 or v <= 0:
            raise ValueError("legs must be positive")
        return cls(u.denominator, u.numerator, v.denominator, v.numerator)

    @cached_property
    def _triangle(self) -> TrianglePair:
        # the positive lowest-term legs q/p and s/r, with no Fraction between
        return TrianglePair(_new(self.q, 0, self.p, 0), _new(self.s, 0, self.r, 0))

    @property
    def u(self) -> Fraction:
        return Fraction(self.q, self.p)

    @property
    def v(self) -> Fraction:
        return Fraction(self.s, self.r)

    @property
    def denominator(self) -> int:
        """lcm of the leg denominators of the triangle's vertices: lcm(q, s)."""
        return lcm(self.q, self.s)

    def to_json_dict(self) -> dict[str, int]:
        """FIELDS names the JSON keys, as it does in search's params cell."""
        return dict(zip(self.FIELDS, (self.p, self.q, self.r, self.s)))


class AxisSimplex(Frozen):
    """Simplex conv(0, L_1*e_1, ..., L_n*e_n); dilate by t counts
    sum(x_i / L_i) <= t over integer x_i >= 0."""

    FIELDS = ("legs",)

    def __init__(self, legs: tuple[QuadNumber, ...]) -> None:
        legs = tuple(QuadNumber.from_value(leg) for leg in legs)
        if not legs:
            raise ValueError("at least one leg required")
        if any(leg.sign() <= 0 for leg in legs):
            raise ValueError("all legs must be positive")
        shared_triples(legs)  # RadicandMismatchError unless one field holds every leg
        vars(self).update(legs=legs)

    @property
    def dim(self) -> int:
        return len(self.legs)

    @cached_property
    def final_triangle(self) -> TrianglePair:
        """The triangle of the two largest legs L <= M (needs dim >= 2): u = 1/L
        and v = 1/M, so theta = M/L, 1/u = L and 1/v = M."""
        *_, big, bigger = sorted(self.legs)
        return TrianglePair(1 / big, 1 / bigger)

    @cached_property
    def walk(self) -> tuple[list[tuple[int, ...]], int, int]:
        """(steps, c, d): the legs L but the two largest (the one leg of dim 1),
        smallest first, as (l0, l1, lc*c, s0, s1) with L = (l0 + l1*sqrt(d))/lc
        and 1/L = (s0 + s1*sqrt(d))/c; c is the lcm of the denominators of these
        1/L, d the radicand of final_triangle, or of the legs if it is rational."""
        legs = sorted(self.legs)
        walked = legs[:-2] if len(legs) > 1 else legs
        d = (len(legs) > 1 and self.final_triangle.slopes[1]) or shared_triples(legs)[1]
        steps = [(leg._over(d), (1 / leg)._over(d)) for leg in walked]
        c = lcm(*(sc for _, (_, _, sc) in steps))
        return [(l0, l1, lc * c, s0 * (c // sc), s1 * (c // sc))
                for (l0, l1, lc), (s0, s1, sc) in steps], c, d

    def to_json_dict(self) -> dict:
        return {"legs": [leg.to_json_dict() for leg in self.legs]}


class Interval(Frozen):
    """Closed segment [lo, hi]; its dilate by t counts integers in [t*lo, t*hi]."""

    FIELDS = ("lo", "hi")

    def __init__(self, lo: QuadNumber, hi: QuadNumber) -> None:
        lo, hi = QuadNumber.from_value(lo), QuadNumber.from_value(hi)
        if (hi - lo).sign() <= 0:
            raise ValueError("need lo < hi")
        vars(self).update(lo=lo, hi=hi)

    @cached_property
    def triples(self) -> tuple[list[Triple], int]:
        """lo and hi as integer triples over one radicand, and that radicand;
        built once per interval."""
        return shared_triples((self.lo, self.hi))


Vertex = tuple[Fraction, Fraction]


class RationalTriangle2D(Frozen):
    """Arbitrary non-degenerate triangle in the plane with rational vertices."""

    FIELDS = ("vertices",)

    def __init__(self, vertices: tuple[Vertex, Vertex, Vertex]) -> None:
        verts = fraction_rows(vertices, 3, 2)
        (x0, y0), (x1, y1), (x2, y2) = verts
        area2 = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        if area2 == 0:
            raise ValueError("degenerate triangle")
        vars(self).update(vertices=verts)


def reciprocal_params(p: int, q: int) -> RationalTriangleParams:
    """The triangle with reciprocal legs u = q/p, v = p/q."""
    return RationalTriangleParams(p, q, q, p)


def mcallister_woods_pair(p: int) -> RationalTriangleParams:
    """The rational triangle with u = p, v = (p-1)/p; denominator p, period 1."""
    if exact_int(p) < 2:
        raise ValueError("need p >= 2")
    return RationalTriangleParams(p, 1, p - 1, p)


def mcallister_woods_image(p: int, t: int) -> RationalTriangle2D:
    """t-th dilate of the unimodular image of the triangle above.

    The lattice-preserving affine map x -> x*[[-1,0],[-p,1]] + (p,0) sends the
    axis triangle (0,0), (p,0), (0,(p-1)/p) to (0,0), (p,0), (1,(p-1)/p), so
    both have equal lattice counts in every dilate.
    """
    if exact_int(p) < 2:
        raise ValueError("need p >= 2")
    if exact_int(t) < 1:
        raise ValueError("need t >= 1")
    return RationalTriangle2D((
        (Fraction(0), Fraction(0)),
        (Fraction(t * p), Fraction(0)),
        (Fraction(t), Fraction(t * (p - 1), p)),
    ))


def iter_admissible_pairs(product_max: int):
    """All admissible pairs with alpha*beta <= product_max, ordered by (alpha, beta)."""
    for alpha in range(1, exact_int(product_max) + 1):
        for beta in range(1, product_max // alpha + 1):
            if is_admissible(alpha, beta):
                yield AdmissiblePair(alpha, beta)


def iter_lowest_term_tuples(
    max_p: int,
    max_q: Optional[int] = None,
    max_r: Optional[int] = None,
    max_s: Optional[int] = None,
):
    """All lowest-term (p, q, r, s) with p <= max_p, q <= max_q, r <= max_r and
    s <= max_s, as tuples of ints, lexicographic; a bound left out is max_p."""
    max_p, max_q, max_r, max_s = (exact_int(max_p if b is None else b)
                                  for b in (max_p, max_q, max_r, max_s))
    rs = [(r, s) for r in range(1, max_r + 1) for s in range(1, max_s + 1) if gcd(r, s) == 1]
    for p in range(1, max_p + 1):
        for q in range(1, max_q + 1):
            if gcd(p, q) == 1:
                for r, s in rs:
                    yield p, q, r, s


def iter_lowest_term_params(*bounds):
    """The RationalTriangleParams of iter_lowest_term_tuples(*bounds), in its order."""
    return starmap(RationalTriangleParams, iter_lowest_term_tuples(*bounds))


def scales_to_admissible(alpha_sum: Fraction, beta_sum: Fraction) -> bool:
    """Whether T_{u,v} with u+v = alpha_sum and 1/u+1/v = beta_sum is an
    integer dilate c*T' of some admissible pair's triangle.

    Dilating T' by a positive integer c multiplies the leg sum by c and
    divides the reciprocal sum by c, so T' is the pair (c*alpha_sum,
    beta_sum/c), whose product does not depend on c.  Every c that makes
    c*alpha_sum an integer is a multiple of den, the denominator of
    alpha_sum, and beta_sum/den is an integer whenever beta_sum/c is, so
    c = den decides.
    """
    ((alpha_sum, beta_sum),) = fraction_rows([(alpha_sum, beta_sum)], 1, 2)
    b_scaled = beta_sum / alpha_sum.denominator
    return b_scaled.denominator == 1 and is_admissible(alpha_sum.numerator, b_scaled.numerator)
