"""Independent brute-force reference counters used to freeze expected values.

Everything here is deliberately slow and structurally different from the
package: direct point loops with Fraction comparisons, or pure-integer sign
decisions for quadratic legs.  No floor tricks, no column sums.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import isqrt
from typing import Sequence


def count_triangle_rational(p: int, q: int, r: int, s: int, t: int) -> int:
    """Points (x, y) >= 0 with (q/p) x + (s/r) y <= t, by double loop."""
    u, v = Fraction(q, p), Fraction(s, r)
    total = 0
    x = 0
    while u * x <= t:
        y = 0
        while u * x + v * y <= t:
            total += 1
            y += 1
        x += 1
    return total


def count_triangle_rational_range(p: int, q: int, r: int, s: int, t_max: int) -> list[int]:
    """Counts for t = 0..t_max from one double loop over the t_max dilate: a
    point (x, y) is inside from the least t with q r x + p s y <= t p r on."""
    a, b, scale = q * r, p * s, p * r
    first = [0] * (t_max + 1)
    x = 0
    while a * x <= t_max * scale:
        y = 0
        while a * x + b * y <= t_max * scale:
            first[-(-(a * x + b * y) // scale)] += 1
            y += 1
        x += 1
    return list(accumulate(first))


def _le_sqrt(lhs: int, coeff: int, d: int) -> bool:
    """Whether lhs <= coeff * sqrt(d), all integers, exactly."""
    if coeff >= 0:
        if lhs <= 0:
            return True
        return lhs * lhs <= coeff * coeff * d
    if lhs > 0:
        return False
    return lhs * lhs >= coeff * coeff * d


def count_triangle_admissible(alpha: int, beta: int, t: int) -> int:
    """Points under u x + v y <= t for the conjugate legs of (alpha, beta).

    With u, v = (alpha*beta +- sqrt(D)) / (2 beta), D = alpha*beta*(alpha*beta-4),
    the condition u x + v y <= t becomes
        (x - y) sqrt(D) <= 2 beta t - (x + y) alpha beta,
    decided purely over the integers.
    """
    ab = alpha * beta
    disc = ab * (ab - 4)
    assert disc > 0 and isqrt(disc) ** 2 != disc
    total = 0
    x = 0
    while True:
        # column is nonempty iff the y = 0 point is inside
        if not _le_sqrt(x * ab - 2 * beta * t, -x, disc):
            break
        y = 0
        while _le_sqrt((x + y) * ab - 2 * beta * t, y - x, disc):
            total += 1
            y += 1
        x += 1
    return total


def count_simplex_rational(legs: Sequence[Fraction], t: int) -> int:
    """Nested loops over sum x_i / L_i <= t with Fraction tests."""
    legs = [Fraction(leg) for leg in legs]

    def rec(idx: int, room: Fraction) -> int:
        if room < 0:
            return 0
        if idx == len(legs):
            return 1
        total, x = 0, 0
        while x / legs[idx] <= room:
            total += rec(idx + 1, room - x / legs[idx])
            x += 1
        return total

    return rec(0, Fraction(t))


def count_interval_quad(
    lo: tuple[int, int, int], hi: tuple[int, int, int], d: int, t: int
) -> int:
    """Integers k with lo*t <= k <= hi*t; endpoints ((a, b, den) = (a + b sqrt(d))/den)."""

    def point_le_k(a: int, b: int, den: int, k: int) -> bool:
        # (a + b sqrt(d)) / den <= k  <=>  b sqrt(d) <= k den - a, den > 0
        rhs = k * den - a
        if b <= 0:
            return rhs >= 0 or rhs * rhs <= b * b * d
        return rhs >= 0 and b * b * d <= rhs * rhs

    def k_le_point(a: int, b: int, den: int, k: int) -> bool:
        # k <= (a + b sqrt(d)) / den  <=>  k den - a <= b sqrt(d)
        return _le_sqrt(k * den - a, b, d)

    la, lb, lden = lo
    ha, hb, hden = hi
    # generous integer bracket, then exact membership per candidate
    span = max(abs(la) + abs(lb) * (isqrt(d) + 1), abs(ha) + abs(hb) * (isqrt(d) + 1))
    bound = span * t + 2
    total = 0
    for k in range(-bound, bound + 1):
        if point_le_k(la * t, lb * t, lden, k) and k_le_point(ha * t, hb * t, hden, k):
            total += 1
    return total


def count_triangle2d(vertices: Sequence[tuple[Fraction, Fraction]], t: int = 1) -> int:
    """Lattice points of the dilated triangle by bounding-box membership scan."""
    pts = [(Fraction(x) * t, Fraction(y) * t) for x, y in vertices]

    def inside(px: Fraction, py: Fraction) -> bool:
        signs = []
        for i in range(3):
            (x1, y1), (x2, y2) = pts[i], pts[(i + 1) % 3]
            cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
            signs.append(cross)
        return all(c >= 0 for c in signs) or all(c <= 0 for c in signs)

    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    total = 0
    for ix in range(int(min(xs)) - 1, int(max(xs)) + 2):
        for iy in range(int(min(ys)) - 1, int(max(ys)) + 2):
            if inside(Fraction(ix), Fraction(iy)):
                total += 1
    return total
