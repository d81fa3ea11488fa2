"""Exact lattice-point counts for dilates of the supported polytopes.

Every public function returns exact integers (or Fractions).  A triangle count
is a floor sum over the columns of the triangle (two per strip for a triangle
with arbitrary rational vertices), and a floor sum is reduced by Euclid's
algorithm on the slope (peel off integer parts, then reflect the remaining
points across the diagonal), so one count at t takes O(log t) integer steps
for rational legs and for quadratic legs alike.  Floors of irrational
quantities use integer square roots, never floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd
from typing import Iterable, Sequence, Union

from .arith import QuadNumber, Triple, floor_surd, shared_triples
from .polytopes import (
    AdmissiblePair,
    AxisSimplex,
    Interval,
    RationalTriangle2D,
    RationalTriangleParams,
    TrianglePair,
    Vertex,
)

TriangleLike = Union[TrianglePair, AdmissiblePair, RationalTriangleParams]

Slopes = Sequence[Triple]  # theta = u/v, 1/u, 1/v of a triangle, over one radicand


def _as_pair(obj: TriangleLike) -> TrianglePair:
    if isinstance(obj, TrianglePair):
        return obj
    if isinstance(obj, (AdmissiblePair, RationalTriangleParams)):
        return obj.triangle()
    raise TypeError(f"expected a triangle-like object, got {type(obj).__name__}")


def _reduced(a: int, b: int, c: int) -> Triple:
    if c < 0:
        a, b, c = -a, -b, -c
    g = gcd(a, b, c)
    return a // g, b // g, c // g


def _floor_sum(n: int, a: Triple, b: Triple, d: int) -> int:
    """Sum of floor(a*x + b) over x = 0..n-1, for any real a and b.

    Each step takes the integer parts off a and b, which leaves a, b in
    [0, 1) whatever their signs, and with m = floor(a*(n-1) + b) counts the
    points 1 <= y <= a*x + b by rows instead of columns:

        sum floor(a*x + b) = n*m + sum_{x < m} floor(x/a + (b - m)/a).

    So n falls strictly at each step.  The slopes run through the continued
    fraction of a, whose partial quotients are bounded for a quadratic
    irrational, and the depth is O(log n).
    """
    total = 0
    while n > 0:
        (a0, a1, ac), (b0, b1, bc) = a, b
        fa, fb = floor_surd(a0, a1, ac, d), floor_surd(b0, b1, bc, d)
        total += fa * (n * (n - 1) // 2) + fb * n
        a0 -= fa * ac
        b0 -= fb * bc
        if a0 == 0 and a1 == 0:
            break
        m = floor_surd((n - 1) * a0 * bc + b0 * ac, (n - 1) * a1 * bc + b1 * ac, ac * bc, d)
        if m == 0:
            break
        total += n * m
        # 1/a = ac*(a0 - a1*sqrt(d)) / (a0^2 - a1^2*d)
        i0, i1, ic = ac * a0, -ac * a1, a0 * a0 - a1 * a1 * d
        b0 -= m * bc
        a = _reduced(i0, i1, ic)
        b = _reduced(b0 * i0 + b1 * i1 * d, b0 * i1 + b1 * i0, bc * ic)
        n = m
    return total


def _count_below(slopes: Slopes, t: Triple, d: int) -> int:
    """Number of integer (x, y) with x, y >= 0 and u*x + v*y <= t, for
    t = (t0 + t1*sqrt(d))/tc >= 0 and the slopes of the triangle.

    With X = floor(t/u), the column x holds floor((t - u*x)/v) + 1 points, and
    reading the columns from x = X down to 0 gives a floor sum of slope u/v.
    """
    (s0, s1, sc), (u0, u1, uc), (v0, v1, vc) = slopes
    t0, t1, tc = t
    x = floor_surd(t0 * u0 + t1 * u1 * d, t0 * u1 + t1 * u0, tc * uc, d)
    # b = t/v - theta*x over the denominator tc*vc*sc
    w = tc * vc * x
    b = (sc * (t0 * v0 + t1 * v1 * d) - w * s0, sc * (t0 * v1 + t1 * v0) - w * s1, tc * vc * sc)
    return _floor_sum(x + 1, (s0, s1, sc), b, d) + x + 1


def count_triangle(obj: TriangleLike, t: int) -> int:
    """Number of integer (x, y) with x, y >= 0 and u*x + v*y <= t."""
    return count_triangle_many(obj, (t,))[0]


def count_triangle_many(obj: TriangleLike, ts: Iterable[int]) -> list[int]:
    """Batch version of count_triangle; one exact count per t."""
    pair = _as_pair(obj)
    t_list = [int(t) for t in ts]
    if any(t < 0 for t in t_list):
        raise ValueError("dilation factors must be >= 0")
    slopes, d = pair.slopes
    return [_count_below(slopes, (t, 0, 1), d) for t in t_list]


def count_triangle_interior(obj: TriangleLike, t: int) -> int:
    """Number of integer (x, y) with x, y >= 1 and u*x + v*y < t.

    Column x = 1..x_top, with x_top = ceil(t/u) - 1 the last x with u*x < t,
    holds ceil((t - u*x)/v) - 1 = -floor(theta*x - t/v) - 1 points.
    """
    pair = _as_pair(obj)
    if t < 0:
        raise ValueError("dilation factor must be >= 0")
    ((s0, s1, sc), (u0, u1, uc), (v0, v1, vc)), d = pair.slopes
    x_top = -floor_surd(-t * u0, -t * u1, uc, d) - 1
    if x_top <= 0:
        return 0
    b = (s0 * vc - t * v0 * sc, s1 * vc - t * v1 * sc, sc * vc)  # theta - t/v
    return -_floor_sum(x_top, (s0, s1, sc), b, d) - x_top


def count_axis_simplex(simplex: AxisSimplex, t: int) -> int:
    """Number of integer points x >= 0 with sum(x_i / L_i) <= t.

    The leading legs are walked one point at a time; the last two are one
    triangle count at the remaining right-hand side, whatever it is.
    """
    if t < 0:
        raise ValueError("dilation factor must be >= 0")
    legs, rem = simplex.legs, QuadNumber.from_value(t)
    if len(legs) == 1:
        return floor(rem * legs[0]) + 1
    # the triangle of the last two legs has u = 1/L, v = 1/M: theta = M/L, 1/u = L, 1/v = M
    last, final = legs[-2], legs[-1]
    return _simplex_count(legs[:-2], (final / last, last, final), rem)


def _simplex_count(legs: tuple[QuadNumber, ...], slopes: tuple[QuadNumber, ...],
                   rem: QuadNumber) -> int:
    if rem.sign() < 0:
        return 0
    if not legs:
        (t, *triples), d = shared_triples((rem, *slopes))
        return _count_below(triples, t, d)
    first = legs[0]
    total = 0
    for x in range(floor(rem * first) + 1):
        total += _simplex_count(legs[1:], slopes, rem - x / first)
    return total


def count_interval(interval: Interval, t: int) -> int:
    """Number of integers in [t*lo, t*hi]."""
    if t < 0:
        raise ValueError("dilation factor must be >= 0")
    lo_t = interval.lo * t
    hi_t = interval.hi * t
    n = floor(hi_t) - floor(lo_t)
    if lo_t.is_integer():
        n += 1
    return n


def _column_floors(lo: int, hi: int, p: Vertex, q: Vertex, sign: int) -> int:
    """Sum of floor(sign*y) over x = lo..hi on the non-vertical line through p, q."""
    (px, py), (qx, qy) = p, q
    slope = sign * (qy - py) / (qx - px)
    start = sign * py + slope * (lo - px)
    return _floor_sum(hi - lo + 1, (slope.numerator, 0, slope.denominator),
                      (start.numerator, 0, start.denominator), 0)


def count_rational_triangle2d(tri: RationalTriangle2D) -> int:
    """Lattice points inside or on a rational triangle.

    With the vertices a, b, c sorted by x, the vertical line through b cuts
    the triangle into two strips, each between the long edge a-c and one short
    edge.  Column x of a strip holds floor(top(x)) - ceil(bottom(x)) + 1
    points, and ceil(y) = -floor(-y), so a strip is two floor sums.
    """
    a, b, c = sorted(tri.vertices)
    # b lies above the edge a-c iff a, b, c turn clockwise
    b_above = (b[0] - a[0]) * (c[1] - a[1]) < (c[0] - a[0]) * (b[1] - a[1])
    # the first strip ends at column b.x; if a-b is vertical, that column is the second's
    mid = floor(b[0]) if a[0] < b[0] else ceil(b[0]) - 1
    total = 0
    for lo, hi, edge in ((ceil(a[0]), mid, (a, b)), (mid + 1, floor(c[0]), (b, c))):
        if lo <= hi:
            top, bottom = (edge, (a, c)) if b_above else ((a, c), edge)
            total += (_column_floors(lo, hi, *top, 1) + _column_floors(lo, hi, *bottom, -1)
                      + hi - lo + 1)
    return total


def closed_form_admissible(pair: AdmissiblePair, t: int) -> Fraction:
    """Exact count of the admissible triangle's t-th dilate, any integer t:

    (t^2*beta + t*alpha*beta + z*beta*(alpha - z) + 2*alpha*sigma) / (2*alpha)
    with z = t mod alpha and sigma = [alpha divides t].
    """
    a, b = pair.alpha, pair.beta
    z = t % a  # in [0, alpha), also for negative t
    num = t * t * b + t * a * b + z * b * (a - z) + (2 * a if z == 0 else 0)
    return Fraction(num, 2 * a)


def asymptotic_deficit(obj: TriangleLike, t: int) -> float:
    """|count(t) - t^2/(2uv) - (1/u + 1/v)*t/2| / t, evaluated to float.

    The difference is formed exactly as a quadratic-field number; only the
    final, correctly rounded conversion is floating point.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    pair = _as_pair(obj)
    count = count_triangle(pair, t)
    u, v = pair.u, pair.v
    uv = u * v
    main = QuadNumber.from_value(Fraction(t * t, 2)) / uv + (u + v) / uv * Fraction(t, 2)
    diff = abs(QuadNumber.from_value(count) - main)
    return float(diff) / t
