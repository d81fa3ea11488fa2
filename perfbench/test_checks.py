"""Tests of the benchmark's own checkers: each must accept a right output and
reject a corrupted one.  The right outputs are built here from brute force
and the checkers' own arithmetic, never by running the program.

Run: python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from math import comb, lcm
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import items  # noqa: E402


def _sign(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d)."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa if sa else sb
    if sa == 0:
        return sb
    return sa if a * a > b * b * d else sb


def brute_count(u, v, t: int) -> int:
    """Points (x, y) >= 0 with u*x + v*y <= t, legs as (a, b, d) triples."""
    (ua, ub, d1), (va, vb, d2) = u, v
    d = d1 or d2
    x_top = int(t / (float(ua) + float(ub) * d ** 0.5)) + 2
    y_top = int(t / (float(va) + float(vb) * d ** 0.5)) + 2
    n = 0
    for x in range(x_top):
        for y in range(y_top):
            if _sign(t - ua * x - va * y, -ub * x - vb * y, d) >= 0:
                n += 1
    return n


def _one(record: dict) -> str:
    return json.dumps(record) + "\n"


# -- exact counting -------------------------------------------------------------


def test_floor_sum_matches_the_definition():
    rng = random.Random(1)
    for _ in range(300):
        n, m, a, b = rng.randrange(0, 30), rng.randrange(1, 20), rng.randrange(0, 50), rng.randrange(0, 50)
        assert checks.floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_rational_count_matches_brute_force():
    for p, q, r, s in [(1, 1, 1, 1), (2, 3, 3, 2), (3, 7, 5, 11), (4, 1, 1, 5)]:
        for t in range(0, 9):
            u = (Fraction(q, p), Fraction(0), 0)
            v = (Fraction(s, r), Fraction(0), 0)
            assert checks.rational_count(p, q, r, s, t) == brute_count(u, v, t)


def test_quadratic_count_matches_brute_force():
    for u_text, v_text in [("1", "0,1,2"), ("1/2,3/4,3", "7/4"), ("0,1/2,5", "5/4")]:
        u, v = checks.parse_leg(u_text), checks.parse_leg(v_text)
        for t in range(0, 7):
            assert checks.quadratic_count(u_text, v_text, t) == brute_count(u, v, t)


def test_dense_counts_match_the_column_sum_along_the_other_axis():
    for u_text, v_text in [("1/2,3/4,3", "7/4"), ("7/4", "0,1/2,5"), ("0,1/17000,1000000007", "5/4")]:
        dense = checks.dense_counts(u_text, v_text, 60)
        assert dense == [checks.quadratic_count(u_text, v_text, t) for t in range(61)]


def test_admissible_closed_form_matches_brute_force():
    for alpha, beta in [(1, 5), (2, 4), (3, 3), (3, 5)]:
        m = alpha * beta
        u = (Fraction(alpha, 2), Fraction(1, 2 * beta), m * (m - 4))
        v = (Fraction(alpha, 2), Fraction(-1, 2 * beta), m * (m - 4))
        for t in range(0, 7):
            assert checks.admissible_count(alpha, beta, t) == brute_count(u, v, t)


# -- deep: a count off by one ------------------------------------------------------


def test_count_checks_reject_a_count_off_by_one():
    cases = [
        ("rational", {"params": [3, 7, 5, 11], "t": 100_003},
         checks.rational_count(3, 7, 5, 11, 100_003)),
        ("admissible", {"alpha": 3, "beta": 5, "t": 77_777},
         checks.admissible_count(3, 5, 77_777)),
        ("quadratic", {"u": "0,1,2", "v": "1", "t": 40},
         brute_count((Fraction(0), Fraction(1), 2), (Fraction(1), Fraction(0), 0), 40)),
    ]
    for kind, info, count in cases:
        assert checks.check_count(kind, info, _one({"t": info["t"], "count": count})) is None
        assert checks.check_count(kind, info, _one({"t": info["t"], "count": count + 1}))


def test_dense_check_rejects_one_count_off_by_one():
    info = {"u": "1/2,3/4,3", "v": "7/4", "t_max": 12}
    good = [{"t": t, "count": checks.quadratic_count(info["u"], info["v"], t)} for t in range(13)]
    assert checks.check_dense(info, "".join(map(_one, good))) is None
    good[7]["count"] -= 1
    assert checks.check_dense(info, "".join(map(_one, good)))


# -- sweep: a period that is a proper multiple of the true one ------------------------


def _search_record(tup, period):
    p, q, r, s = tup
    denom = lcm(q, s)
    return {"params": dict(zip("pqrs", tup)), "denominator": denom,
            "minimal_period": period,
            "criterion_predicted": checks.collapse_criterion(*tup),
            "collapse": period < denom}


def _true_period(tup) -> int:
    p, q, r, s = tup
    denom = lcm(q, s)
    values = [checks.rational_count(p, q, r, s, t) for t in range(6 * denom)]
    return checks.minimal_period(values, denom)


def test_search_check_rejects_a_proper_multiple_of_the_period():
    rejected = 0
    for tup in items.lowest_term_tuples((4, 6, 4, 6)):
        denom = lcm(tup[1], tup[3])
        period = _true_period(tup)
        assert checks.check_search_record(tup, _search_record(tup, period)) is None
        for k in range(2, denom // period + 1):
            if denom % (k * period) == 0:
                assert checks.check_search_record(tup, _search_record(tup, k * period))
                rejected += 1
    assert rejected > 10


def test_search_check_finds_collapse_and_rejects_a_missing_record():
    box = (3, 5, 3, 5)
    records = [_search_record(tup, _true_period(tup)) for tup in items.lowest_term_tuples(box)]
    assert any(rec["collapse"] for rec in records)
    info = {"box": list(box)}
    assert checks.check_search(info, "".join(map(_one, records))) is None
    assert checks.check_search(info, "".join(map(_one, records[1:])))


# -- quadratic: period records -------------------------------------------------------


def _period_record(alpha: int, beta: int, period: int) -> dict:
    """The closed form's constituents at the given period, which must be a
    multiple of the true one (constituents repeat)."""
    coeffs = []
    for z in range(period):
        sigma = 1 if z % alpha == 0 else 0
        zz = z % alpha
        const = Fraction(zz * beta * (alpha - zz) + 2 * alpha * sigma, 2 * alpha)
        coeffs.append([str(const), str(Fraction(beta, 2)), str(Fraction(beta, 2 * alpha))])
    return {"alpha": alpha, "beta": beta, "guaranteed_period": alpha,
            "minimal_period": period, "collapse": period < alpha,
            "quasipolynomial": {"period": period, "degree": 2, "coeffs": coeffs}}


def test_period_check_accepts_the_closed_form_and_rejects_a_multiple():
    for alpha, beta in [(1, 5), (3, 5), (4, 3)]:
        info = {"alpha": alpha, "beta": beta}
        assert checks.check_period(info, _one(_period_record(alpha, beta, alpha))) is None
    # (3, 3) and (2, 4) have period 1: the repeated table at period alpha is not minimal
    for alpha, beta in [(3, 3), (2, 4)]:
        info = {"alpha": alpha, "beta": beta}
        record = _period_record(alpha, beta, alpha)
        record["quasipolynomial"]["coeffs"] = [record["quasipolynomial"]["coeffs"][0]] * alpha
        assert checks.check_period(info, _one(record))
        one = _period_record(alpha, beta, alpha)
        one["quasipolynomial"]["coeffs"] = one["quasipolynomial"]["coeffs"][:1]
        one["quasipolynomial"]["period"] = one["minimal_period"] = 1
        one["collapse"] = True
        assert checks.check_period(info, _one(one)) is None


def test_period_check_rejects_a_changed_coefficient():
    record = _period_record(3, 5, 3)
    record["quasipolynomial"]["coeffs"][1][0] = str(Fraction(record["quasipolynomial"]["coeffs"][1][0]) + 1)
    assert checks.check_period({"alpha": 3, "beta": 5}, _one(record))


# -- recurrence: one coefficient changed ------------------------------------------------


def _guess_record(order: int, degree: int, polys) -> str:
    return _one({"recurrence": {"order": order, "degree": degree,
                                "polys": [[str(c) for c in row] for row in polys]}})


def test_recurrence_check_rejects_a_changed_coefficient():
    info = {"rule": "linear", "c": [1, 1], "init": [1, 1], "n": 30,
            "max_order": 3, "max_degree": 1}
    fib = [[1, 0], [1, 0], [-1, 0]]  # f(n) + f(n+1) - f(n+2) = 0
    assert checks.check_recurrence("guess-values", info, _guess_record(2, 1, fib)) is None
    fib[1][0] = 2
    assert checks.check_recurrence("guess-values", info, _guess_record(2, 1, fib))


def test_recurrence_check_on_admissible_counts():
    # counts of period alpha and degree 2 are annihilated by (E^alpha - 1)^3
    alpha = 2
    info = {"alpha": alpha, "beta": 5, "n": 40, "max_order": 6, "max_degree": 0}
    polys = [[0] for _ in range(3 * alpha + 1)]
    for k in range(4):
        polys[k * alpha][0] = comb(3, k) * (-1) ** (3 - k)
    assert checks.check_recurrence("guess-admissible", info, _guess_record(6, 0, polys)) is None
    polys[2][0] += 1
    assert checks.check_recurrence("guess-admissible", info, _guess_record(6, 0, polys))
    assert checks.check_recurrence("guess-admissible", info, _one({"recurrence": None}))


def test_recurrence_check_rejects_out_of_bounds_and_zero():
    info = {"rule": "linear", "c": [1, 1], "init": [1, 1], "n": 30,
            "max_order": 1, "max_degree": 0}
    assert checks.check_recurrence("guess-values", info,
                                   _guess_record(2, 0, [[1], [1], [-1]]))
    info["max_order"] = 3
    assert checks.check_recurrence("guess-values", info, _guess_record(2, 0, [[0], [0], [0]]))


def test_generated_values_follow_their_rules():
    lin = items.sequence({"rule": "linear", "c": [2, 3], "init": [1, 4]}, 6)
    assert lin == [1, 4, 14, 50, 178, 634]
    har = items.sequence({"rule": "harmonic", "c": 1, "s": 1}, 3)
    assert har == [1, Fraction(3, 2), Fraction(11, 6)]
    fac = items.sequence({"rule": "factorial", "c": 2, "k": 3}, 4)
    assert fac == [2, 6, 36, 324]
