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

import operator
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd
from typing import Iterable, Iterator, Sequence, Union

from .arith import (EhrcollapseError, Expansion, InternalCheckError, QuadNumber, Triple,
                    exact_int, floor_surd, floor_surd_run, to_integers)
from .polytopes import (
    AdmissiblePair,
    AxisSimplex,
    Interval,
    RationalTriangle2D,
    RationalTriangleParams,
    TrianglePair,
)

TriangleLike = Union[TrianglePair, AdmissiblePair, RationalTriangleParams]
Point = tuple[int, int]

# t per chunk of a strip run (r floors per t) and of an interval run (two floors per t)
STRIP_CHUNK = 4096
# The most dilations of one batch (_dilations), so the most counts held at once:
# by a period certificate, a fit, a recurrence guess or a count range
MAX_CERTIFICATE_COUNTS = 10 ** 7


def _as_pair(obj: TriangleLike) -> TrianglePair:
    if isinstance(obj, TrianglePair):
        return obj
    if isinstance(obj, (AdmissiblePair, RationalTriangleParams)):
        return obj.triangle()
    raise TypeError(f"expected a triangle-like object, got {type(obj).__name__}")


def _dilations(ts: Iterable[int]) -> Sequence[int]:
    """ts as dilation factors: a range of step 1 as it is, any other ts listed
    through exact_int (a float, a bool or a Fraction raises TypeError), and a
    list of two or more consecutive ascending t as the equal range, so every
    run longer than one t is a range (a list of one t, the batch of each per-t
    caller, is not compared).  More than MAX_CERTIFICATE_COUNTS t raise
    EhrcollapseError before any count, and a range before it is listed.
    """
    if isinstance(ts, range):  # sized before it is listed: ceil((stop - start)/step) t
        _check_size(-((ts.start - ts.stop) // ts.step))
    if not isinstance(ts, range) or ts.step != 1:
        ts = [exact_int(t) for t in ts]
        _check_size(len(ts))
        run = range(ts[0], ts[0] + len(ts)) if len(ts) > 1 else None
        if run and all(map(operator.eq, ts, run)):
            ts = run
    if ts and (ts[0] if isinstance(ts, range) else min(ts)) < 0:
        raise ValueError("dilation factors must be >= 0")
    return ts


def _check_size(size: int) -> None:
    if size > MAX_CERTIFICATE_COUNTS:
        raise EhrcollapseError(
            f"{size} counts held at once are more than the limit of {MAX_CERTIFICATE_COUNTS}")


def _floor_sum(n: int, cf: Expansion, b: Triple, d: int) -> int:
    """Sum of floor(a*x + b) over x = 0..n-1, for any real a and b, where cf
    is the continued fraction of a and b lies in Q(sqrt(d)); cf's radicand
    is d, or 0 when a is rational.

    Each step takes the integer parts off a and b, which leaves a, b in
    [0, 1) whatever their signs, and with m = floor(a*(n-1) + b) counts the
    points 1 <= y <= a*x + b by rows instead of columns:

        sum floor(a*x + b) = n*m + sum_{x < m} floor(x/a + (b - m)/a).

    So n falls strictly at each step, and step k walks the slope a_k of the
    expansion: only b is new to each call.  The partial quotients of a
    quadratic irrational are bounded, and the depth is O(log n).
    """
    assert cf.d in (0, d), "the slope and the offset lie in different fields"
    steps = cf.steps
    b0, b1, bc = b
    total = k = 0
    while n > 0:
        if k == len(steps):
            cf.grow()
        q, f0, f1, fc, r0, r1, rc = steps[k]
        # rational b and a_k (b1 = f1 = 0) floor without floor_surd
        fb = b0 // bc if b1 == 0 else floor_surd(b0, b1, bc, d)
        total += q * (n * (n - 1) // 2) + fb * n
        if fc == 0:
            break
        b0 -= fb * bc
        if b1 == 0 and f1 == 0:
            m = ((n - 1) * f0 * bc + b0 * fc) // (fc * bc)
        else:
            m = floor_surd((n - 1) * f0 * bc + b0 * fc, (n - 1) * f1 * bc + b1 * fc, fc * bc, d)
        if m == 0:
            break
        total += n * m
        b0 -= m * bc
        # b = (b - m)*a_{k+1}; bc and rc are > 0, so the gcd keeps bc > 0
        b0, b1, bc = b0 * r0 + b1 * r1 * d, b0 * r1 + b1 * r0, bc * rc
        g = gcd(b0, b1, bc)
        b0, b1, bc = b0 // g, b1 // g, bc // g
        n, k = m, k + 1
    return total


def _count_below(pair: TrianglePair, ts: Iterable[Triple], d: int) -> list[int]:
    """Number of integer (x, y) with x, y >= 0 and u*x + v*y <= t, for each
    t = (t0 + t1*sqrt(d))/tc >= 0 in ts, where d is the radicand of the pair's
    slopes, or any radicand when they are rational.

    With X = floor(t/u), the column x holds floor((t - u*x)/v) + 1 points, and
    reading the columns from x = X down to 0 gives a floor sum of slope u/v.
    """
    ((s0, s1, c), (u0, u1, uc), (v0, v1, _)), _ = pair.slopes
    cf, u1d, v1d = pair.expansion, u1 * d, v1 * d
    counts = []
    for t0, t1, tc in ts:
        x = floor_surd(t0 * u0 + t1 * u1d, t0 * u1 + t1 * u0, tc * uc, d)
        w = tc * x  # b = t/v - theta*x over the denominator tc*c
        b = (t0 * v0 + t1 * v1d - w * s0, t0 * v1 + t1 * v0 - w * s1, tc * c)
        counts.append(_floor_sum(x + 1, cf, b, d) + x + 1)
    return counts


def count_triangle(obj: TriangleLike, t: int) -> int:
    """Number of integer (x, y) with x, y >= 0 and u*x + v*y <= t."""
    return count_triangle_many(obj, (t,))[0]


def count_triangle_many(obj: TriangleLike, ts: Iterable[int]) -> list[int]:
    """Batch version of count_triangle; one exact count per t.

    When ts is a run a, a + 1, ... (_dilations gives every run as a range)
    longer than 2n + m, for legs with a translate identity (n, m, step)
    (TrianglePair.translate, not built for runs of one or two t), its first
    n + m counts are floor sums and the identity gives the rest.  A strip
    (m = 0, n = s, step (r, a, b, c)) runs here, from floor sums of the counts
    C(m) at t = m/r, r*a - s <= m < r*a: per STRIP_CHUNK t, -C is one Beatty
    run of -1/(r*u) = (a + b*sqrt(d))/c (Lothaire ch. 2), as floor(x) + 1 =
    -floor(-x) at irrational x, summed mod s.  Floor sums of the last n counts must
    match (InternalCheckError otherwise): the identities add with non-negative
    coefficients, so an error at one t (or m) reaches the last count of its
    class mod n (of r*t mod s).  n is 1 for an admissible pair, min(q, s) for
    rational legs.  Every other ts is one floor sum per t.  Only the counts
    are held: more than MAX_CERTIFICATE_COUNTS t raise EhrcollapseError first.
    """
    pair = _as_pair(obj)
    ts = _dilations(ts)
    d, identity = pair.slopes[1], isinstance(ts, range) and len(ts) > 2 and pair.translate
    if not identity or len(ts) <= 2 * identity[0] + identity[1]:
        return _count_below(pair, ((t, 0, 1) for t in ts), d)
    n, m, step = identity
    if m:
        counts = _count_below(pair, ((t, 0, 1) for t in ts[:n + m]), d)
        for i in range(n + m, len(ts)):
            counts.append(counts[i - n] + counts[i - m] - counts[i - n - m] + step)
    else:  # a strip: C(m) = C(m - s) + floor(m/(r*u)) + 1, 0 at m < 0, read at m = r*t
        r, a, b, c = step
        lo, top, counts = r * ts[0], r * ts[-1] + 1, []
        seeds = _count_below(pair, ((k, 0, r) for k in range(max(lo - n, 0), lo)), d)
        tail = [0] * max(n - lo, 0) + [-x for x in seeds]
        for start in range(lo, top, r * STRIP_CHUNK):
            rows = tail + floor_surd_run(a, b, c, d, range(start, top)[:r * STRIP_CHUNK])
            rows[n] -= start == 0  # floor(0) + 1 = 1, where -floor(-0) = 0
            for k in range(n):
                rows[k::n] = accumulate(rows[k::n])
            tail = rows[-n:]
            counts += map(operator.neg, rows[n::r])
    if _count_below(pair, ((t, 0, 1) for t in ts[-n:]), d) != counts[-n:]:
        raise InternalCheckError(f"the counts of {pair} break its translate identity")
    return counts


def count_triangle_interior(obj: TriangleLike, t: int) -> int:
    """Number of integer (x, y) with x, y >= 1 and u*x + v*y < t.

    Column x = 1..x_top, with x_top = ceil(t/u) - 1 the last x with u*x < t,
    holds ceil((t - u*x)/v) - 1 = -floor(theta*x - t/v) - 1 points.
    """
    pair = _as_pair(obj)
    (t,) = _dilations((t,))
    ((s0, s1, c), (u0, u1, uc), (v0, v1, _)), d = pair.slopes
    x_top = -floor_surd(-t * u0, -t * u1, uc, d) - 1
    if x_top <= 0:
        return 0
    b = (s0 - t * v0, s1 - t * v1, c)  # theta - t/v
    return -_floor_sum(x_top, pair.expansion, b, d) - x_top


def count_axis_simplex(simplex: AxisSimplex, t: int) -> int:
    """Number of integer points x >= 0 with sum(x_i / L_i) <= t."""
    return count_axis_simplex_many(simplex, (t,))[0]


def _chain_members(chains: dict, s0: int, s1: int) -> Iterator[tuple[int, int]]:
    """The right-hand sides bottom + j*s, j = 0..top, of each chain {bottom: top}."""
    for (a, b), top in chains.items():
        for j in range(top + 1):
            yield a + j * s0, b + j * s1


def count_axis_simplex_many(simplex: AxisSimplex, ts: Iterable[int]) -> list[int]:
    """Batch version of count_axis_simplex; one exact count per t.

    The count is symmetric in the legs, so all but the two largest are walked
    (AxisSimplex.walk), with each right-hand side r = (A + B*sqrt(d))/c kept as
    the pair (A, B).  Leg L with step s = 1/L sends r to the chain bottom + j*s,
    j = 0..k, with k = floor(r*L) and bottom = r - k*s in [0, s).  Chains with
    different bottoms are disjoint, so each is kept once, as {bottom: top j},
    for every r and t that reach it.  The final triangle counts once below every
    member of the last chains, and each level reads its counts back as prefix
    sums along its chains, r at its own k.  A simplex of one leg counts k + 1,
    and one of two legs is its final triangle, counted by count_triangle_many.
    """
    if simplex.dim == 2:
        return count_triangle_many(simplex.final_triangle, ts)
    ts = _dilations(ts)
    steps, c, d = simplex.walk
    rems, levels = ((t * c, 0) for t in ts), []
    for l0, l1, lc, s0, s1 in steps:
        chains, reads = {}, []
        for a, b in rems:
            k = floor_surd(a * l0 + b * l1 * d, a * l1 + b * l0, lc, d)
            bottom = (a - k * s0, b - k * s1)
            chains[bottom] = max(k, chains.get(bottom, 0))
            reads.append((bottom, k))
        levels.append((chains, reads))
        rems = _chain_members(chains, s0, s1)
    if simplex.dim == 1:
        return [k + 1 for _, k in reads]
    counts = _count_below(simplex.final_triangle, ((a, b, c) for a, b in rems), d)
    for chains, reads in reversed(levels):
        offsets = accumulate((top + 1 for top in chains.values()), initial=0)
        start = dict(zip(chains, offsets))  # each chain's first index in counts
        sums = list(accumulate(counts, initial=0))
        counts = [sums[start[bottom] + k + 1] - sums[start[bottom]] for bottom, k in reads]
    return counts


def count_interval(interval: Interval, t: int) -> int:
    """Number of integers in [t*lo, t*hi]: floor(t*hi) - ceil(t*lo) + 1."""
    (t,) = _dilations((t,))
    ((l0, l1, lc), (h0, h1, hc)), d = interval.triples
    return floor_surd(t * h0, t * h1, hc, d) + floor_surd(-t * l0, -t * l1, lc, d) + 1


def _interval_counts(interval: Interval, ts: range) -> Iterator[int]:
    """count_interval at each t of a range of step 1, two floor_surd_run per STRIP_CHUNK t."""
    _dilations(ts[:1])  # t >= 0
    ((l0, l1, lc), (h0, h1, hc)), d = interval.triples
    for run in (ts[k:k + STRIP_CHUNK] for k in range(0, len(ts), STRIP_CHUNK)):
        tops, bottoms = floor_surd_run(h0, h1, hc, d, run), floor_surd_run(-l0, -l1, lc, d, run)
        yield from map(operator.add, map(operator.add, tops, bottoms), repeat(1))


def _edge(p: Point, q: Point, sign: int, m: int) -> tuple[int, int, int, Expansion]:
    """The line y = sign*l(x), for the line l through p/m and q/m with p left
    of q, as integers (A, B, C) with y = (A + B*x)/C and C > 0, and the
    expansion of its slope B/C."""
    (px, py), (qx, qy) = p, q
    a, b, c = sign * (py * qx - qy * px), sign * m * (qy - py), m * (qx - px)
    return a, b, c, Expansion((b, 0, c), 0)


def _column_floors(lo: int, hi: int, edge: tuple[int, int, int, Expansion]) -> int:
    """Sum of floor(y) over x = lo..hi on a line from _edge."""
    a, b, c, cf = edge
    return _floor_sum(hi - lo + 1, cf, (a + b * lo, 0, c), 0)


def count_rational_triangle2d(tri: RationalTriangle2D) -> int:
    """Lattice points inside or on a rational triangle.

    The vertices are scaled by the lcm m of their denominators to integer
    points, so every edge line has integer coefficients.  With the vertices
    a, b, c sorted by x, the vertical line through b cuts the triangle into
    two strips, each between the long edge a-c and one short edge.  Column x
    of a strip holds floor(top(x)) - ceil(bottom(x)) + 1 points, and
    ceil(y) = -floor(-y), so a strip is two floor sums; the two strips share
    the long edge and its expansion.
    """
    coords, m = to_integers([z for vertex in tri.vertices for z in vertex])
    a, b, c = sorted(zip(coords[::2], coords[1::2]))
    # b lies above the edge a-c iff a, b, c turn clockwise; then a-c is the bottom
    sign = -1 if (b[0] - a[0]) * (c[1] - a[1]) < (c[0] - a[0]) * (b[1] - a[1]) else 1
    long_edge = _edge(a, c, sign, m)
    # the first strip ends at column b.x; if a-b is vertical, that column is the second's
    mid = b[0] // m if a[0] < b[0] else -(-b[0] // m) - 1
    total = 0
    for lo, hi, (p, q) in ((-(-a[0] // m), mid, (a, b)), (mid + 1, c[0] // m, (b, c))):
        if lo <= hi:
            total += (_column_floors(lo, hi, long_edge) + _column_floors(lo, hi, _edge(p, q, -sign, m))
                      + hi - lo + 1)
    return total


def closed_form_admissible(pair: AdmissiblePair, t: int) -> Fraction:
    """Exact count of the admissible triangle's t-th dilate, any integer t:

    (t^2*beta + t*alpha*beta + z*beta*(alpha - z) + 2*alpha*sigma) / (2*alpha)
    with z = t mod alpha and sigma = [alpha divides t].
    """
    a, b, t = pair.alpha, pair.beta, exact_int(t)
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
