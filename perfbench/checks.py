"""Independent checks of the program's outputs.

Every answer is recomputed here from the command's inputs, with integer
arithmetic written for the benchmark and never with ``ehrcollapse`` code or
stored copies of earlier output.  Each ``check_*`` function returns ``None``
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional

from items import lowest_term_tuples, sequence

# -- exact counting ------------------------------------------------------------


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} floor((a*i + b) / m) for n >= 0, m >= 1, a, b >= 0.

    The Euclidean-like reduction of the AtCoder Library's ``floor_sum``.
    """
    ans = 0
    while True:
        if a >= m:
            ans += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            ans += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return ans
        n, b = divmod(y_max, m)
        m, a = a, m


def rational_count(p: int, q: int, r: int, s: int, t: int) -> int:
    """#{(x, y) >= 0 : (q/p)*x + (s/r)*y <= t}, by one floor sum.

    Column x holds floor(r*(t*p - q*x) / (p*s)) + 1 points; summing over
    x = X - i, X = floor(t*p/q), gives nonnegative floor-sum data.
    """
    x_max = t * p // q
    return floor_sum(x_max + 1, p * s, q * r, r * (t * p - q * x_max)) + x_max + 1


def admissible_count(alpha: int, beta: int, t: int) -> int:
    """(t^2*beta + t*alpha*beta + z*beta*(alpha - z) + 2*alpha*sigma) / (2*alpha)
    with z = t mod alpha and sigma = [alpha divides t]."""
    z = t % alpha
    sigma = 1 if z == 0 else 0
    num = t * t * beta + t * alpha * beta + z * beta * (alpha - z) + 2 * alpha * sigma
    if num % (2 * alpha):
        raise ArithmeticError(f"closed form is not an integer at t = {t}")
    return num // (2 * alpha)


def parse_leg(text: str) -> tuple[Fraction, Fraction, int]:
    """'n', 'n/m' or 'a,b,d' as (a, b, d) meaning a + b*sqrt(d)."""
    parts = text.split(",")
    if len(parts) == 1:
        return Fraction(parts[0]), Fraction(0), 0
    a, b, d = parts
    return Fraction(a), Fraction(b), int(d)


def _floor_form(x0: Fraction, x1: Fraction, b0: Fraction, b1: Fraction):
    """Integer data for y -> floor(x0 + x1*y + (b0 + b1*y)*sqrt(d))."""
    den = lcm(x0.denominator, x1.denominator, b0.denominator, b1.denominator)
    return (int(x0 * den), int(x1 * den), int(b0 * den), int(b1 * den), den)


def _floor_at(form, d: int, y: int) -> int:
    a0, a1, c0, c1, den = form
    a = a0 + a1 * y
    c = c0 + c1 * y
    if c == 0:
        return a // den
    root = isqrt(c * c * d)
    if root * root == c * c * d:
        return (a + (root if c > 0 else -root)) // den
    return (a + root) // den if c > 0 else (a - root - 1) // den


def _quotient(num, leg):
    """(n0 + n1*sqrt(d)) / (a + b*sqrt(d)) as a pair of rationals (x, z)."""
    n0, n1 = num
    a, b, d = leg
    norm = a * a - b * b * d
    return ((n0 * a - n1 * b * d) / norm, (n1 * a - n0 * b) / norm)


def quadratic_count(u_text: str, v_text: str, t: int) -> int:
    """#{(x, y) >= 0 : u*x + v*y <= t}, summed over y along the smaller leg
    coefficient (the axis with more terms), each column an exact isqrt floor."""
    u, v = parse_leg(u_text), parse_leg(v_text)
    d = u[2] or v[2]
    if u[2] and v[2] and u[2] != v[2]:
        raise ValueError("legs with different radicands")
    u, v = (u[0], u[1], d), (v[0], v[1], d)
    if float(u[0]) + float(u[1]) * d ** 0.5 < float(v[0]) + float(v[1]) * d ** 0.5:
        u, v = v, u  # iterate over the leg with the smaller coefficient
    # columns y = 0..floor(t/v); (t - v*y)/u = x0 + x1*y + (b0 + b1*y)*sqrt(d)
    ty = _quotient((Fraction(t), Fraction(0)), v)
    y_max = _floor_at(_floor_form(ty[0], Fraction(0), ty[1], Fraction(0)), d, 0)
    c0 = _quotient((Fraction(t), Fraction(0)), u)
    c1 = _quotient((-v[0], -v[1]), u)
    a0, a1, b0, b1, den = _floor_form(c0[0], c1[0], c0[1], c1[1])
    total = y_max + 1
    for y in range(y_max + 1):
        a = a0 + a1 * y
        b = b0 + b1 * y
        if b > 0:
            total += (a + isqrt(b * b * d)) // den
        elif b < 0:
            root = isqrt(b * b * d)
            total += (a - root - (root * root != b * b * d)) // den
        else:
            total += a // den
    return total


def dense_counts(u_text: str, v_text: str, t_max: int) -> list[int]:
    """Counts for t = 0..t_max when one leg is irrational and one rational.

    With u irrational and v = n/m, column x >= 1 holds
    floor((m*t - W_x - 1)/n) + 1 points, W_x = floor(m*u*x), when that is
    positive: m*u*x is irrational, so m*t - m*u*x lies strictly between
    m*t - W_x - 1 and m*t - W_x.  Each W_x takes one isqrt for all t.
    """
    u, v = parse_leg(u_text), parse_leg(v_text)
    if u[1] == 0:
        u, v = v, u
    if u[1] == 0 or v[1] != 0:
        raise ValueError("need one irrational and one rational leg")
    a, b, d = u
    n, m = v[0].numerator, v[0].denominator
    scale = lcm(a.denominator, b.denominator)
    ia, ib = int(a * scale * m), int(b * scale * m)  # m*u = (ia + ib*sqrt(d))/scale
    x_top = int(t_max / (float(a) + float(b) * d ** 0.5)) + 2
    walls = []
    for x in range(1, x_top + 1):
        c = ib * x
        root = isqrt(c * c * d)
        walls.append((ia * x + (root if c > 0 else -root - 1)) // scale + 1)
    out = []
    for t in range(t_max + 1):
        mt = m * t
        total = mt // n + 1
        for w in walls:
            if w > mt:
                break
            total += (mt - w) // n + 1
        out.append(total)
    return out


# -- finite differences and periods --------------------------------------------


def third_difference(values: list[int], step: int, t: int) -> int:
    return (values[t + 3 * step] - 3 * values[t + 2 * step]
            + 3 * values[t + step] - values[t])


def certified_minimal_period(values: list[int], denominator: int, period: int) -> Optional[str]:
    """Certify that ``period`` is the minimal period of a degree-2
    quasipolynomial with period dividing ``denominator``, from its values at
    t = 0 .. 3*denominator + 3*period - 1.

    The third difference with step d is itself a quasipolynomial of period
    ``denominator`` and degree <= 2, so it is zero everywhere exactly when it
    vanishes on 3*denominator consecutive t.  ``period`` passes when that
    holds for d = period and fails for every proper divisor d.
    """
    if period < 1 or denominator % period:
        return f"period {period} does not divide {denominator}"
    window = range(3 * denominator)
    if any(third_difference(values, period, t) for t in window):
        return f"{period} is not a period"
    for d in range(1, period):
        if period % d == 0 and not any(third_difference(values, d, t) for t in window):
            return f"{period} is not minimal: {d} is a period"
    return None


def minimal_period(values: list[int], denominator: int) -> int:
    """The least d dividing ``denominator`` whose certificate passes."""
    for d in range(1, denominator + 1):
        if denominator % d == 0 and certified_minimal_period(values, denominator, d) is None:
            return d
    raise ArithmeticError("no period divides the denominator")


def collapse_criterion(p: int, q: int, r: int, s: int) -> bool:
    """s | p, p | r*q + 1 and gcd((r*q + 1)/p, s) = 1: q is then a period."""
    return p % s == 0 and (r * q + 1) % p == 0 and gcd((r * q + 1) // p, s) == 1


# -- per-workload checks ---------------------------------------------------------


def _records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def check_search(info: dict, text: str, cache: Optional[dict] = None) -> Optional[str]:
    """Every lowest-term tuple of the box exactly once, each with a certified
    minimal period and the right criterion verdict."""
    records = _records(text)
    expected = lowest_term_tuples(info["box"])
    got = [tuple(r["params"][k] for k in "pqrs") for r in records]
    if sorted(got) != sorted(expected):
        return f"search output covers {len(got)} tuples, expected {len(expected)}"
    for tup, rec in zip(got, records):
        why = check_search_record(tup, rec, cache)
        if why:
            return f"{tup}: {why}"
    return None


def check_search_record(tup, rec: dict, cache: Optional[dict] = None) -> Optional[str]:
    p, q, r, s = tup
    denom = lcm(q, s)
    period = rec["minimal_period"]
    holds = collapse_criterion(p, q, r, s)
    if rec["denominator"] != denom:
        return f"denominator {rec['denominator']} != {denom}"
    if rec["criterion_predicted"] != holds:
        return f"criterion verdict {rec['criterion_predicted']} != {holds}"
    if rec["collapse"] != (period < denom):
        return "collapse flag disagrees with the period"
    if holds and q % period:
        return f"criterion holds but {period} does not divide q = {q}"
    key = (tup, period)
    if cache is not None and key in cache:
        return cache[key]
    top = 3 * denom + 3 * period
    values = [rational_count(p, q, r, s, t) for t in range(top)]
    why = certified_minimal_period(values, denom, period)
    if cache is not None:
        cache[key] = why
    return why


def _single_count(text: str, t: int) -> Optional[int]:
    records = _records(text)
    if len(records) != 1 or records[0].get("t") != t:
        return None
    return records[0]["count"]


def check_count(kind: str, info: dict, text: str) -> Optional[str]:
    """One ``count --t T`` record against the benchmark's own count."""
    t = info["t"]
    got = _single_count(text, t)
    if got is None:
        return f"expected one record for t = {t}"
    if kind == "rational":
        want = rational_count(*info["params"], t)
    elif kind == "admissible":
        want = admissible_count(info["alpha"], info["beta"], t)
    else:
        want = quadratic_count(info["u"], info["v"], t)
    return None if got == want else f"count at t = {t} is {got}, expected {want}"


def check_dense(info: dict, text: str) -> Optional[str]:
    """``count --t 0..N`` on quadratic legs, every t against the own count."""
    records = _records(text)
    ts = [r.get("t") for r in records]
    if ts != list(range(info["t_max"] + 1)):
        return "records do not cover t = 0..t_max in order"
    wants = dense_counts(info["u"], info["v"], info["t_max"])
    for rec, want in zip(records, wants):
        if rec["count"] != want:
            return f"count at t = {rec['t']} is {rec['count']}, expected {want}"
    return None


def _qp_value(coeffs: list[list[Fraction]], t: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs[t % len(coeffs)]):
        acc = acc * t + c
    return acc


def check_period(info: dict, text: str) -> Optional[str]:
    """``period --alpha --beta``: the minimal period divides alpha, is 1 exactly
    for alpha = 1, (2, 4) and (3, 3), equals the certified minimal period of
    the closed form, and the fitted quasipolynomial has t^2 coefficient
    beta/(2*alpha) and agrees with the closed form at large t."""
    alpha, beta = info["alpha"], info["beta"]
    records = _records(text)
    if len(records) != 1:
        return "expected one record"
    rec = records[0]
    period = rec["minimal_period"]
    qp = rec["quasipolynomial"]
    coeffs = [[Fraction(c) for c in row] for row in qp["coeffs"]]
    if (rec["alpha"], rec["beta"], rec["guaranteed_period"]) != (alpha, beta, alpha):
        return "record does not echo the pair"
    if alpha % period:
        return f"period {period} does not divide alpha = {alpha}"
    if (period == 1) != (alpha == 1 or (alpha, beta) in ((2, 4), (3, 3))):
        return f"period {period} contradicts the classification of ({alpha}, {beta})"
    if rec["collapse"] != (period < alpha):
        return "collapse flag disagrees with the period"
    if qp["period"] != period or len(coeffs) != period:
        return "quasipolynomial period differs from the minimal period"
    if any(len(row) != 3 or row[2] != Fraction(beta, 2 * alpha) for row in coeffs):
        return "a constituent's t^2 coefficient is not beta/(2*alpha)"
    values = [admissible_count(alpha, beta, t) for t in range(6 * alpha)]
    why = certified_minimal_period(values, alpha, period)
    if why:
        return why
    for t in range(10**6 * alpha, 10**6 * alpha + 2 * alpha):
        if _qp_value(coeffs, t) != admissible_count(alpha, beta, t):
            return f"quasipolynomial disagrees with the closed form at t = {t}"
    return None


def check_recurrence(kind: str, info: dict, text: str) -> Optional[str]:
    """``guess-rec``: a nonzero recurrence inside the bounds that annihilates
    the sequence extended to three times the length given to the program."""
    records = _records(text)
    if len(records) != 1:
        return "expected one record"
    rec = records[0]["recurrence"]
    if rec is None:
        return "no recurrence, but one exists inside the bounds"
    order, degree = rec["order"], rec["degree"]
    polys = [[Fraction(c) for c in row] for row in rec["polys"]]
    if not (0 <= order <= info["max_order"] and 0 <= degree <= info["max_degree"]):
        return f"cell ({order}, {degree}) is outside the bounds"
    if len(polys) != order + 1 or any(len(row) != degree + 1 for row in polys):
        return "polynomial table has the wrong shape"
    if not any(c for row in polys for c in row):
        return "zero recurrence"
    n = 3 * info["n"]
    if kind == "guess-admissible":
        values = [Fraction(admissible_count(info["alpha"], info["beta"], t)) for t in range(n)]
    else:
        values = sequence(info, n)
    # scale coefficients and values to integers: the sums stay zero or nonzero
    scale = lcm(*(c.denominator for row in polys for c in row))
    ipolys = [[int(c * scale) for c in row] for row in polys]
    vscale = lcm(*(v.denominator for v in values))
    ivalues = [int(v * vscale) for v in values]

    def poly(j: int, x: int) -> int:
        acc = 0
        for c in reversed(ipolys[j]):
            acc = acc * x + c
        return acc

    for m in range(n - order):
        if sum(poly(j, m + j) * ivalues[m + j] for j in range(order + 1)):
            return f"recurrence fails at n = {m}"
    return None


def check(command: dict, text: str, cache: Optional[dict] = None) -> Optional[str]:
    """Dispatch on the command kind built by ``items.py``."""
    kind, info = command["kind"], command["info"]
    if kind == "search":
        return check_search(info, text, cache)
    if kind in ("rational", "admissible", "quadratic"):
        return check_count(kind, info, text)
    if kind == "dense":
        return check_dense(info, text)
    if kind == "period":
        return check_period(info, text)
    return check_recurrence(kind, info, text)
