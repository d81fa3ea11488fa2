"""Independent brute-force reference counters used to freeze expected values.

Everything here is deliberately slow and structurally different from the
package: direct point loops with Fraction comparisons, or pure-integer sign
decisions for quadratic legs.  No floor tricks, no column sums.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt, lcm
from typing import Sequence


def count_triangle_rational(p: int, q: int, r: int, s: int, t: int,
                            strict: bool = False) -> int:
    """Points (x, y) >= 0 with (q/p) x + (s/r) y <= t, by double loop.  With
    strict, points (x, y) >= 1 with (q/p) x + (s/r) y < t: the interior."""
    u, v = Fraction(q, p), Fraction(s, r)
    lo = 1 if strict else 0

    def inside(x: int, y: int) -> bool:
        w = u * x + v * y
        return w < t if strict else w <= t

    total = 0
    x = lo
    while inside(x, lo):
        y = lo
        while inside(x, y):
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


def floor_sum_points(n: int, a: tuple[int, int, int], b: tuple[int, int, int], d: int) -> int:
    """Sum of floor(a*x + b) over x = 0..n-1 for a, b given as
    (p, q, r) = (p + q sqrt(d)) / r with r > 0, one point at a time: the floor
    of each (P + Q sqrt(d)) / R is the largest k with kR - P <= Q sqrt(d),
    found by bisection and decided over the integers."""
    (a0, a1, ac), (b0, b1, bc) = a, b
    total = 0
    for x in range(n):
        p, q, r = x * a0 * bc + b0 * ac, x * a1 * bc + b1 * ac, ac * bc
        root = isqrt(q * q * d)  # |q| sqrt(d) < root + 1
        lo, hi = (p - root - 1) // r, (p + root + 1) // r + 1  # lo <= value < hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _le_sqrt(mid * r - p, q, d):
                lo = mid
            else:
                hi = mid
        total += lo
    return total


def count_triangle_admissible(alpha: int, beta: int, t: int, strict: bool = False) -> int:
    """Points under u x + v y <= t for the conjugate legs of (alpha, beta).

    With u, v = (alpha*beta +- sqrt(D)) / (2 beta), D = alpha*beta*(alpha*beta-4),
    the condition u x + v y <= t becomes
        (x + y) alpha beta - 2 beta t <= (y - x) sqrt(D),
    decided purely over the integers.  With strict, points (x, y) >= 1 with
    u x + v y < t; equality needs both sides 0, since sqrt(D) is irrational.
    """
    ab = alpha * beta
    disc = ab * (ab - 4)
    assert disc > 0 and isqrt(disc) ** 2 != disc
    lo = 1 if strict else 0

    def inside(x: int, y: int) -> bool:
        lhs, coeff = (x + y) * ab - 2 * beta * t, y - x
        return _le_sqrt(lhs, coeff, disc) and not (strict and lhs == 0 and coeff == 0)

    total = 0
    x = lo
    while inside(x, lo):  # column is nonempty iff its lowest point is inside
        y = lo
        while inside(x, y):
            total += 1
            y += 1
        x += 1
    return total


def count_triangle_quad(u: tuple[int, int, int], v: tuple[int, int, int], d: int,
                        t: int, strict: bool = False) -> int:
    """Points (x, y) >= 0 with u x + v y <= t for legs u, v > 0 given as
    (a, b, c) = (a + b sqrt(d)) / c with c > 0 and d not a square (or b = 0).

    Multiplying by c_u c_v > 0, the condition becomes K sqrt(d) <= R with
    K = x b_u c_v + y b_v c_u and R = t c_u c_v - x a_u c_v - y a_v c_u,
    decided purely over the integers.  With strict, points (x, y) >= 1 with
    u x + v y < t; equality needs K = R = 0.
    """
    (ua, ub, uc), (va, vb, vc) = u, v
    lo = 1 if strict else 0

    def inside(x: int, y: int) -> bool:
        k = x * ub * vc + y * vb * uc
        r = t * uc * vc - x * ua * vc - y * va * uc
        return _le_sqrt(-r, -k, d) and not (strict and k == 0 and r == 0)

    total = 0
    x = lo
    while inside(x, lo):
        y = lo
        while inside(x, y):
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


def count_simplex_quad_range(legs: Sequence[tuple[int, int, int]], d: int,
                             t_max: int) -> list[int]:
    """Counts for t = 0..t_max of integer x >= 0 with sum x_i / L_i <= t, for
    legs with reciprocals 1/L_i = (a + b sqrt(d)) / c, c > 0, all given as
    (a, b, c).  One nested point loop over the t_max dilate: with
    sum x_i / L_i = (A + B sqrt(d)) / C, the point is inside from the least
    integer t with B sqrt(d) <= t C - A on, decided over the integers.
    """
    den = 1
    for _, _, c in legs:
        den *= c
    weights = [(a * (den // c), b * (den // c)) for a, b, c in legs]
    first = [0] * (t_max + 1)

    def within(k: int, a: int, b: int) -> bool:
        return _le_sqrt(-(k * den - a), -b, d)  # b sqrt(d) <= k den - a

    def least_t(a: int, b: int) -> int:
        k = max(0, (a - isqrt(b * b * d) - 1) // den)  # at or below the answer
        while not within(k, a, b):
            k += 1
        return k

    def walk(idx: int, a: int, b: int) -> None:
        if idx == len(weights):
            first[least_t(a, b)] += 1
            return
        wa, wb = weights[idx]
        while within(t_max, a, b):
            walk(idx + 1, a, b)
            a, b = a + wa, b + wb

    walk(0, 0, 0)
    return list(accumulate(first))


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


def nullspace_vector_rref(rows: Sequence[Sequence], ncols: int) -> "list[Fraction] | None":
    """Canonical nullspace vector by incremental Fraction RREF, or None at
    full column rank: the first free column is 1, the other free columns 0."""
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


def independent_scaled(basis: list, col: list, p: int) -> bool:
    """The column rank test mod p that reduces at every step: reduce col, of
    residues mod p, by an echelon basis of columns, each 1 at its own pivot and
    0 at the pivots before it, and append it scaled to 1 at its pivot, with the
    pivot's inverse and the factors it was reduced by, one per entry; False
    when it reduces to 0, appended as pivot None, inverse 0 and its factors."""
    factors = []
    for pivot, b, _, _ in basis:
        f = col[pivot]
        factors.append(f)
        if f:
            col = [(x - f * y) % p for x, y in zip(col, b)]
    lead = next((n for n, x in enumerate(col) if x), None)
    inv = 0 if lead is None else pow(col[lead], -1, p)
    basis.append((lead, [x * inv % p for x in col], inv, factors))
    return lead is not None


def recurrence_holds(table: Sequence[Sequence[int]], values: Sequence) -> bool:
    """Whether sum_j p_j(n+j) * f(n+j) = 0, p_j(m) = sum_i table[j][i] * m^i,
    at every window n of the values, one window at a time in Fractions."""
    return all(sum(sum(Fraction(c) * (n + j) ** i for i, c in enumerate(row)) * values[n + j]
                   for j, row in enumerate(table)) == 0
               for n in range(len(values) - len(table) + 1))


def guess_recurrence_unfiltered(values: Sequence, max_order: int, max_degree: int):
    """The recurrence guesser with no rank filter: at every cell (order, degree)
    in lexicographic order, the Fraction RREF nullspace of the first half of
    the windows, checked at every window of the values.  Returns (order,
    degree, coefficient rows) with the coefficients a primitive integer vector
    whose first nonzero entry is positive, or None."""
    vals = [Fraction(v) for v in values]
    n_top = len(vals) - 1
    for order in range(max_order + 1):
        for degree in range(max_degree + 1):
            ncols = (order + 1) * (degree + 1)
            rows = [[(n + j) ** i * vals[n + j]
                     for j in range(order + 1) for i in range(degree + 1)]
                    for n in range((n_top - order + 2) // 2)]
            vec = nullspace_vector_rref(rows, ncols)
            if vec is None:
                continue
            scale = lcm(*(v.denominator for v in vec))
            ints = [int(v * scale) for v in vec]
            g = gcd(*ints) * (1 if next(v for v in ints if v) > 0 else -1)
            polys = tuple(tuple(v // g for v in ints[j * (degree + 1):(j + 1) * (degree + 1)])
                          for j in range(order + 1))
            if recurrence_holds(polys, vals):
                return order, degree, polys
    return None


# -- admissibility by the scans and tests that the closed forms replaced --------------


def admissible_by_discriminant(alpha: int, beta: int) -> bool:
    """Whether alpha, beta >= 1 and the legs' discriminant m(m - 4), m = alpha*beta,
    is positive and not a perfect square."""
    if alpha < 1 or beta < 1:
        return False
    m = alpha * beta
    disc = m * (m - 4)
    return disc > 0 and isqrt(disc) ** 2 != disc


def scales_to_admissible_scan(alpha_sum: Fraction, beta_sum: Fraction) -> bool:
    """Whether some c = 1..floor(beta_sum) makes (c*alpha_sum, beta_sum/c)
    integers with a discriminant test that passes."""
    alpha_sum, beta_sum = Fraction(alpha_sum), Fraction(beta_sum)
    if alpha_sum <= 0 or beta_sum <= 0:
        return False
    for c in range(1, beta_sum.numerator // beta_sum.denominator + 1):
        a_scaled, b_scaled = alpha_sum * c, beta_sum / c
        if a_scaled.denominator == 1 and b_scaled.denominator == 1 and \
                admissible_by_discriminant(a_scaled.numerator, b_scaled.numerator):
            return True
    return False


def solve_beta_equation_scan(bound: int) -> list[tuple[int, int]]:
    """Integer pairs with beta = 2*alpha/(alpha - 1), by trying alpha = 2..bound."""
    return [(alpha, 2 * alpha // (alpha - 1)) for alpha in range(2, bound + 1)
            if (2 * alpha) % (alpha - 1) == 0]


def classify_legs_by_ratio(u, v) -> str:
    """The kind of legs u, v (QuadNumbers): 'rational', 'admissible' when
    u + v and 1/u + 1/v are integers while u/v is irrational, else 'other'."""
    if u.is_rational and v.is_rational:
        return "rational"
    try:
        alpha, ratio = u + v, u / v
    except ValueError:  # legs from two fields
        return "other"
    if alpha.is_integer() and not ratio.is_rational and (1 / u + 1 / v).is_integer():
        return "admissible"
    return "other"


# -- the period certificate that the translate-identity window replaced ---------------


def divisor_scan_counts_needed(guaranteed: int, degree: int) -> int:
    """How many counts, t = 0, 1, ..., period_by_divisor_scan reads."""
    order = degree + 1
    largest = max((d for d in range(1, guaranteed) if guaranteed % d == 0), default=0)
    return max((order + 3) * guaranteed, order * (guaranteed + largest))


def _differences(values: Sequence[int], step: int, order: int) -> list[int]:
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[step:])]
    return values


def period_by_divisor_scan(counts: Sequence[int], guaranteed: int,
                           degree: int) -> "int | None":
    """The minimal period of counts that form a quasipolynomial of period P =
    guaranteed and degree <= 2, with k = degree: None unless Delta_P^(k+1)
    vanishes on [0, 3P), the test a fit through k + 1 values of each residue
    class passes on 3 more; else the least divisor d of P whose Delta_d^(k+1)
    vanishes on [0, (k+1)P), trying every divisor from 1 up."""
    order = degree + 1
    assert len(counts) >= divisor_scan_counts_needed(guaranteed, degree)
    if any(_differences(counts[:(order + 3) * guaranteed], guaranteed, order)):
        return None
    window = order * guaranteed
    return next(d for d in range(1, guaranteed + 1) if guaranteed % d == 0
                and not any(_differences(counts[:window + order * d], d, order)))


# -- quasipolynomial fits, one residue class at a time --------------------------------


def interpolate(points: Sequence[tuple[int, Fraction]]) -> tuple[Fraction, ...]:
    """Coefficients of the polynomial through the points, by Lagrange's formula."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, scale = [Fraction(1)], Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [a - xj * b for a, b in zip([0] + basis, basis + [0])]
                scale /= xi - xj
        coeffs = [c + scale * b for c, b in zip(coeffs, basis)]
    return tuple(coeffs)


def fit_by_residue(values: Sequence, period: int,
                   degree: int) -> "tuple[tuple[Fraction, ...], ...] | None":
    """The constituents of values[t], t = 0, 1, ..., at this period and
    degree: each residue class interpolated with Fractions through its first
    degree + 1 values and checked on every further one, or None when one does
    not agree.  Every class needs degree + 1 values."""
    rows = []
    for z in range(period):
        points = [(t, Fraction(values[t])) for t in range(z, len(values), period)]
        assert len(points) > degree
        row = interpolate(points[:degree + 1])
        if any(sum(c * t ** i for i, c in enumerate(row)) != y for t, y in points[degree + 1:]):
            return None
        rows.append(row)
    return tuple(rows)
