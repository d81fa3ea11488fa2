"""Named self-check suites behind the `verify` CLI subcommand.

Each check re-derives a documented property from scratch and yields a
counterexample payload wherever the property fails; it passes when it yields
none, and run_suite reports the first one, stopping the check there.  Checks
are deterministic: random sampling uses a fixed seed.
"""

from __future__ import annotations

import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, Optional

from . import counting, criteria, precursive, quasipoly, sequences
from .arith import EhrcollapseError, QuadNumber
from .polytopes import (
    AdmissiblePair,
    AxisSimplex,
    Interval,
    RationalTriangleParams,
    TrianglePair,
    iter_admissible_pairs,
    iter_lowest_term_params,
    mcallister_woods_image,
    mcallister_woods_pair,
    reciprocal_params,
    scales_to_admissible,
)

SEED = 20260815


def _random_quad(rng: random.Random) -> QuadNumber:
    a = Fraction(rng.randint(-60, 60), rng.randint(1, 24))
    b = Fraction(rng.randint(-60, 60), rng.randint(1, 24))
    return QuadNumber(a, b, rng.randint(0, 80))


# -- arith ---------------------------------------------------------------


def _check_floor_certificate() -> Iterator[dict]:
    rng = random.Random(SEED)
    for _ in range(3000):
        x = _random_quad(rng)
        f = x.__floor__()
        if not ((x - f).sign() >= 0 and (x - (f + 1)).sign() < 0):
            yield {"value": str(x), "floor": f}


def _check_field_axioms() -> Iterator[dict]:
    rng = random.Random(SEED + 1)
    for _ in range(800):
        d = rng.choice([0, 2, 3, 5, 7, 10])
        xs = [
            QuadNumber(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 6)), d)
            for _ in range(3)
        ]
        x, y, z = xs
        if (x + y) * z != x * z + y * z or (x + y) + z != x + (y + z):
            yield {"x": str(x), "y": str(y), "z": str(z)}
        if x != 0 and x * (1 / x) != 1:
            yield {"x": str(x)}


def _check_sign_highprec() -> Iterator[dict]:
    rng = random.Random(SEED + 2)
    with localcontext() as ctx:
        ctx.prec = 40
        for _ in range(2000):
            x = _random_quad(rng)
            a, b = x.a, x.b
            approx = (Decimal(a.numerator) / a.denominator
                      + Decimal(b.numerator) / b.denominator * Decimal(x.d).sqrt())
            if abs(approx) > Decimal("1e-20"):
                float_sign = 1 if approx > 0 else -1
                if x.sign() != float_sign:
                    yield {"value": str(x), "highprec": float(approx)}


def _check_round_trip() -> Iterator[dict]:
    rng = random.Random(SEED + 3)
    for _ in range(500):
        x = _random_quad(rng)
        if QuadNumber.from_json_dict(x.to_json_dict()) != x:
            yield {"value": str(x)}


# -- counting --------------------------------------------------------------


def _check_closed_form() -> Iterator[dict]:
    for pair in iter_admissible_pairs(60):
        for t in range(12 * pair.alpha + 1):
            # a per-t floor sum: a run would follow the closed form's own recursion
            n = counting.count_triangle(pair, t)
            val = counting.closed_form_admissible(pair, t)
            if val.denominator != 1 or val != n:
                yield {"alpha": pair.alpha, "beta": pair.beta, "t": t,
                       "count": n, "closed_form": str(val)}


_SAMPLE_PAIRS: Callable[[], list[TrianglePair]] = lambda: [
    AdmissiblePair(3, 3).triangle(),
    AdmissiblePair(2, 4).triangle(),
    TrianglePair(QuadNumber(Fraction(1)), QuadNumber(Fraction(0), Fraction(1), 2)),
    TrianglePair(QuadNumber(Fraction(3, 2)), QuadNumber(Fraction(2, 3))),
]


def _check_leg_swap() -> Iterator[dict]:
    for pair in _SAMPLE_PAIRS():
        a = counting.count_triangle_many(pair, range(31))
        b = counting.count_triangle_many(pair.swapped(), range(31))
        if a != b:
            yield {"pair": pair.to_json_dict()}


def _check_monotone() -> Iterator[dict]:
    for pair in _SAMPLE_PAIRS():
        counts = counting.count_triangle_many(pair, range(40))
        if any(b < a for a, b in zip(counts, counts[1:])):
            yield {"pair": pair.to_json_dict(), "counts": counts[:10]}


def _check_interval_shift() -> Iterator[dict]:
    cases = [
        (Interval(QuadNumber(Fraction(0), Fraction(1), 2),
                  QuadNumber(Fraction(3), Fraction(1), 2)), 3),
        (Interval(QuadNumber(Fraction(1, 3), Fraction(1), 5),
                  QuadNumber(Fraction(7, 3), Fraction(1), 5)), 2),
    ]
    for iv, m in cases:
        for t in range(1, 1001):
            if counting.count_interval(iv, t) != m * t:
                yield {"t": t, "m": m}


def _check_simplex_enumeration() -> Iterator[dict]:
    simplices = [
        AxisSimplex((QuadNumber(Fraction(1, 2)), QuadNumber(Fraction(10, 3)),
                     QuadNumber(Fraction(3, 5)))),
        sequences.limit_tetrahedron(),
    ]
    for simplex in simplices:
        for t, got in enumerate(counting.count_axis_simplex_many(simplex, range(9))):
            want = _enumerate_simplex(simplex, t)
            if got != want:
                yield {"legs": [str(leg) for leg in simplex.legs],
                       "t": t, "got": got, "want": want}


def _enumerate_simplex(simplex: AxisSimplex, t: int) -> int:
    # sign-based nested enumeration, no floor calls
    def rec(legs: tuple[QuadNumber, ...], rem: QuadNumber) -> int:
        if rem.sign() < 0:
            return 0
        if not legs:
            return 1
        total, x = 0, 0
        while True:
            nxt = rem - QuadNumber.from_value(x) / legs[0]
            if nxt.sign() < 0:
                break
            total += rec(legs[1:], nxt)
            x += 1
        return total

    return rec(simplex.legs, QuadNumber.from_value(t))


def _image_mismatch(p: int, t_max: int) -> Iterator[dict]:
    """Counterexample payloads for the t <= t_max where image and axis differ."""
    params = mcallister_woods_pair(p)
    for t in range(1, t_max + 1):
        axis = counting.count_triangle(params, t)
        image = counting.count_rational_triangle2d(mcallister_woods_image(p, t))
        if axis != image:
            yield {"p": p, "t": t, "axis": axis, "image": image}


def _check_image_counts() -> Iterator[dict]:
    for p in range(2, 9):
        yield from _image_mismatch(p, 20)


# -- quasipoly ---------------------------------------------------------------


def _polynomial_counts(pair: AdmissiblePair, polynomial: Callable[[int], int]) -> Iterator[dict]:
    """The counts at t <= 200 are polynomial(t), and the minimal period is 1."""
    counts = counting.count_triangle_many(pair, range(201))
    for t, n in enumerate(counts):
        if n != polynomial(t):
            yield {"t": t, "count": n}
    if (period := quasipoly.minimal_period(pair)[1]) != 1:
        yield {"period": period}


def _check_period_divides_denominator() -> Iterator[dict]:
    for params in iter_lowest_term_params(5):
        period = quasipoly.certified_period(params)
        if params.denominator % period != 0:
            yield {"params": params.to_json_dict(), "period": period}


def _check_fit_rejection() -> Iterator[dict]:
    pair = TrianglePair(QuadNumber(Fraction(1)), QuadNumber(Fraction(0), Fraction(1), 2))
    counts = counting.count_triangle_many(pair, range(12))
    if (fit := quasipoly.fit_quasipolynomial(counts, 3, 2)) is not None:
        yield {"fit": fit.to_json_dict()}


def _check_series_numerators() -> Iterator[dict]:
    golden = counting.count_triangle_many(AdmissiblePair(3, 3), [1, 2])
    square = counting.count_triangle_many(AdmissiblePair(2, 4), [1, 2])
    got = (
        quasipoly.series_numerator(*golden).as_tuple(),
        quasipoly.series_numerator(*square).as_tuple(),
    )
    want = ((1, 0, 0), (1, 1, 0))
    if got != want:
        yield {"got": [[str(c) for c in row] for row in got]}


def _check_reciprocity_pattern() -> Iterator[dict]:
    for alpha, beta in ((3, 3), (2, 4), (1, 5), (4, 2), (5, 1)):
        pair = AdmissiblePair(alpha, beta)
        qp, _ = quasipoly.minimal_period(pair)
        for t in range(1, 51):
            rep = quasipoly.reciprocity_report(pair, t, qp)
            want = 1 if rep.alpha_divides_t else 0
            if rep.correction != want:
                yield {"alpha": alpha, "beta": beta, "t": t, "correction": str(rep.correction)}


def _check_series_nonnegative() -> Iterator[dict]:
    for pair in iter_admissible_pairs(60):
        if criteria.classify_admissible(pair.alpha, pair.beta) != criteria.PSEUDO_INTEGRAL:
            continue
        i1, i2 = counting.count_triangle_many(pair, [1, 2])
        num = quasipoly.series_numerator(i1, i2)
        if num.a1 < 0 or num.a2 < 0:
            yield {"alpha": pair.alpha, "beta": pair.beta,
                   "numerator": [str(c) for c in num.as_tuple()]}


def _check_series_monotone() -> Iterator[dict]:
    inner, outer = AdmissiblePair(3, 3), AdmissiblePair(2, 4)
    # containment certificate across radicands: separate scaled floors
    scale = 10 ** 6
    for small, large in ((inner.u, outer.u), (inner.v, outer.v)):
        leg_s, leg_l = 1 / small, 1 / large
        if (leg_s * scale).__floor__() + 1 > (leg_l * scale).__floor__():
            yield {"small_leg": str(leg_s), "large_leg": str(leg_l)}
    nums = []
    for pair in (inner, outer):
        i1, i2 = counting.count_triangle_many(pair, [1, 2])
        nums.append(quasipoly.series_numerator(i1, i2).as_tuple())
    if any(a > b for a, b in zip(*nums)):
        yield {"inner": [str(c) for c in nums[0]], "outer": [str(c) for c in nums[1]]}


# -- criteria ---------------------------------------------------------------


def _criterion_soundness(
    check: Callable[[RationalTriangleParams], criteria.CriterionReport]
) -> Iterator[dict]:
    """Wherever the criterion holds, the certified period divides the period
    divisor it predicts: q for collapse, 1 for pseudo-integral."""
    for params in iter_lowest_term_params(12):
        report = check(params)
        if not report.holds:
            continue
        period = quasipoly.certified_period(params)
        if report.predicted_period_divisor % period != 0:
            yield {"params": params.to_json_dict(), "period": period}


def _check_reciprocal_iff() -> Iterator[dict]:
    for p in range(1, 13):
        for q in range(1, 13):
            if gcd(p, q) != 1:
                continue
            report = criteria.check_reciprocal_criterion(p, q)
            period = quasipoly.certified_period(reciprocal_params(p, q))
            if report.holds != (q % period == 0):
                yield {"p": p, "q": q, "criterion": report.holds, "period": period}


def _check_beta_equation() -> Iterator[dict]:
    got = criteria.solve_beta_equation(100)
    if got != [(2, 4), (3, 3)]:
        yield {"got": got}


def _check_classification() -> Iterator[dict]:
    for pair in iter_admissible_pairs(60):
        label = criteria.classify_admissible(pair.alpha, pair.beta)
        period = quasipoly.certified_period(pair)
        if (label == criteria.PSEUDO_INTEGRAL) != (period == 1):
            yield {"alpha": pair.alpha, "beta": pair.beta, "label": label, "period": period}


def _check_mcallister_woods() -> Iterator[dict]:
    for p in range(2, 51):
        report = criteria.check_collapse_criterion(mcallister_woods_pair(p))
        if not (report.holds and report.predicted_period_divisor == 1):
            yield {"p": p, "verdict": report.verdict}
    for p in range(2, 16):
        period = quasipoly.certified_period(mcallister_woods_pair(p))
        if period != 1:
            yield {"p": p, "period": period}
        yield from _image_mismatch(p, 50)


# -- sequences ---------------------------------------------------------------


def _check_fib_facts() -> Iterator[dict]:
    # Asserts the computed gcd pattern: gcd(F_n, F_{n-1}) = 1 always, while
    # gcd(F_n, k) = 1 only for odd n (even-indexed terms are multiples of k,
    # starting with F_2 = k).  The blanket all-n coprimality sometimes quoted
    # is wrong for even n when k >= 2; the odd-index form below is what the
    # quasiperiod arguments consume, via the neighbors of an even index.
    for k in range(1, 7):
        for n in range(1, 31):
            g_prev, g_k = sequences.fib_gcds(k, n)
            if g_prev != 1:
                yield {"k": k, "n": n, "which": "gcd-consecutive"}
            want_k = 1 if (n % 2 == 1 or k == 1) else k
            if g_k != want_k:
                yield {"k": k, "n": n, "which": "gcd-with-k"}
            if sequences.fib_identity_residual(k, n) != 0:
                yield {"k": k, "n": n, "which": "identity"}


def _check_fib_quasiperiod() -> Iterator[dict]:
    for k in range(1, 7):
        for n in range(2, 31, 2):
            f = sequences.k_fib(k, n)
            if f > 30:
                break
            for tri_n in (n, n + 1):
                params = sequences.fib_triangle(k, tri_n)
                counts = counting.count_triangle_many(params, range(6 * f))
                fit = quasipoly.fit_quasipolynomial(counts, f, 2)
                if fit is None:
                    yield {"k": k, "n": tri_n, "quasiperiod": f}


def _check_fib_reciprocal_consistency() -> Iterator[dict]:
    # even n: F_n^2 + 1 = F_{n-1} F_{n+1}, so both neighbors pass the
    # reciprocal-triangle criterion with q = F_n
    for k in range(1, 7):
        for n in range(2, 31, 2):
            f = sequences.k_fib(k, n)
            for p in (sequences.k_fib(k, n - 1), sequences.k_fib(k, n + 1)):
                report = criteria.check_reciprocal_criterion(p, f)
                if not report.holds:
                    yield {"k": k, "n": n, "p": p, "q": f}


def _check_a_sequence() -> Iterator[dict]:
    want = [2, 3, 10, 17, 58, 99, 338]
    got = [sequences.a_sequence(n) for n in range(1, 8)]
    if got != want:
        yield {"got": got}


def _tetra_cubic_counts(cases) -> Iterator[dict]:
    """Each (payload, simplex) case counts sequences.tetra_polynomial(t) for
    t <= 40; a miss yields the payload with t and the count."""
    for named, simplex in cases:
        for t, got in enumerate(counting.count_axis_simplex_many(simplex, range(41))):
            if got != sequences.tetra_polynomial(t):
                yield {**named, "t": t, "got": got}


# -- recurrence ---------------------------------------------------------------


def _check_golden_recurrence() -> Iterator[dict]:
    counts = counting.count_triangle_many(AdmissiblePair(3, 3), range(61))
    order, degree = precursive.recurrence_from_quasipolynomial_bounds(1, 2)
    rec = precursive.guess_recurrence(counts, order, degree)
    if rec is None or not precursive.verify_recurrence(rec, counts):
        yield {"found": rec is not None}


def _check_no_recurrence() -> Iterator[dict]:
    # leg data with integer leg sum 2 but reciprocal-leg sum 5/2
    u = QuadNumber(Fraction(1), Fraction(1, 5), 5)
    v = QuadNumber(Fraction(1), Fraction(-1, 5), 5)
    if scales_to_admissible(Fraction(2), Fraction(5, 2)):
        yield {"scales": True}
    counts = counting.count_triangle_many(TrianglePair(u, v), range(201))
    rec = precursive.guess_recurrence(counts, 3, 3)
    if rec is not None:
        yield {"recurrence": rec.to_json_dict()}


_SUITE_CHECKS: dict[str, list[tuple[str, Callable[[], Iterator[dict]]]]] = {
    "arith": [
        ("floor-sign-certificate", _check_floor_certificate),
        ("field-axioms-sample", _check_field_axioms),
        ("sign-highprec-agreement", _check_sign_highprec),
        ("json-round-trip", _check_round_trip),
    ],
    "closed-form": [
        ("closed-form-matches-counts", _check_closed_form),
        ("golden-triangle-polynomial",
         lambda: _polynomial_counts(AdmissiblePair(3, 3), lambda t: (t + 1) * (t + 2) // 2)),
        ("square-polynomial-pair",
         lambda: _polynomial_counts(AdmissiblePair(2, 4), lambda t: (t + 1) ** 2)),
        ("leg-swap-symmetry", _check_leg_swap),
        ("monotone-in-t", _check_monotone),
        ("interval-integer-shift", _check_interval_shift),
        ("simplex-matches-enumeration", _check_simplex_enumeration),
        ("unimodular-image-counts", _check_image_counts),
        ("period-divides-denominator", _check_period_divides_denominator),
        ("fit-rejects-non-quasipolynomial", _check_fit_rejection),
    ],
    "criteria": [
        ("collapse-criterion-soundness",
         lambda: _criterion_soundness(criteria.check_collapse_criterion)),
        ("pseudo-integral-criterion-soundness",
         lambda: _criterion_soundness(criteria.check_pseudo_integral_criterion)),
        ("reciprocal-criterion-iff", _check_reciprocal_iff),
        ("beta-equation-solutions", _check_beta_equation),
        ("classification-matches-period", _check_classification),
        ("mcallister-woods-family", _check_mcallister_woods),
    ],
    "fibonacci": [
        ("fib-gcd-and-identity", _check_fib_facts),
        ("fib-quasiperiod-even-index", _check_fib_quasiperiod),
        ("fib-reciprocal-consistency", _check_fib_reciprocal_consistency),
    ],
    "tetrahedra": [
        ("a-sequence-values", _check_a_sequence),
        ("tetra-cubic-counts", lambda: _tetra_cubic_counts(
            ({"n": n}, sequences.tetra_family(n)) for n in (1, 2, 3))),
        ("tetra-limit-cubic-counts", lambda: _tetra_cubic_counts(
            [({}, sequences.limit_tetrahedron())])),
    ],
    "reciprocity": [
        ("reciprocity-correction-pattern", _check_reciprocity_pattern),
        ("series-numerator-values", _check_series_numerators),
        ("series-nonnegative-pseudo-integral", _check_series_nonnegative),
        ("series-monotone-nested-pair", _check_series_monotone),
    ],
    "recurrence": [
        ("golden-counts-recurrence", _check_golden_recurrence),
        ("non-integer-reciprocal-sum-no-recurrence", _check_no_recurrence),
    ],
}

SUITES = list(_SUITE_CHECKS) + ["all"]


def run_suite(name: str) -> list[tuple[str, str, Optional[dict]]]:
    """Run one suite (or 'all') and return a row (suite, check, outcome) for
    every check: the outcome is its first counterexample, or None when it
    yields none."""
    if name == "all":
        names = list(_SUITE_CHECKS)
    elif name in _SUITE_CHECKS:
        names = [name]
    else:
        raise EhrcollapseError(f"unknown suite {name!r}; choose from {SUITES}")
    return [(suite, check_name, next(check(), None))
            for suite in names for check_name, check in _SUITE_CHECKS[suite]]
