"""Acceptance gate: the twelve headline behaviors, each with a runtime budget.

Every test is exact (integer/rational equality) except the asymptotic-deficit
bound, which carries its stated tolerance.  Budgets are wall-clock seconds on
modest hardware.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from ehrcollapse import counting, criteria, precursive, quasipoly, sequences
from ehrcollapse.arith import QuadNumber, quad_sqrt
from ehrcollapse.polytopes import (
    AdmissiblePair,
    TrianglePair,
    iter_admissible_pairs,
    iter_lowest_term_params,
    mcallister_woods_image,
    mcallister_woods_pair,
    reciprocal_params,
    scales_to_admissible,
)


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def test_c01_golden_triangle_is_polynomial():
    with budget(1):
        pair = AdmissiblePair(3, 3)
        counts = counting.count_triangle_many(pair, range(201))
        for t, n in enumerate(counts):
            assert 2 * n == (t + 1) * (t + 2)
            # a per-t floor sum, not the run, which follows the closed form's recursion
            assert counting.closed_form_admissible(pair, t) == counting.count_triangle(pair, t)
        _, period = quasipoly.minimal_period(pair)
        assert period == 1


def test_c02_square_pair_and_classification_scan():
    with budget(5):
        counts = counting.count_triangle_many(AdmissiblePair(2, 4), range(201))
        assert counts == [(t + 1) ** 2 for t in range(201)]
        for pair in iter_admissible_pairs(60):
            label = criteria.classify_admissible(pair.alpha, pair.beta)
            expected_integral = pair.alpha == 1 or (pair.alpha, pair.beta) in (
                (3, 3), (2, 4))
            assert (label == criteria.PSEUDO_INTEGRAL) == expected_integral


def test_c03_admissible_periods_divide_alpha():
    with budget(120):
        for pair in iter_admissible_pairs(60):
            alpha = pair.alpha
            counts = counting.count_triangle_many(pair, range(6 * alpha))
            qp = quasipoly.fit_quasipolynomial(counts[: 3 * alpha], alpha, 2)
            assert qp is not None
            # 3*alpha held-out values beyond the fitting window
            assert all(qp.evaluate(t) == counts[t] for t in range(3 * alpha, 6 * alpha))
            _, period = quasipoly.minimal_period(pair)
            assert alpha % period == 0


def test_c04_collapse_criterion_soundness_to_twelve():
    with budget(300):
        checked = 0
        for params in iter_lowest_term_params(12):
            report = criteria.check_collapse_criterion(params)
            if not report.holds:
                continue
            _, period = quasipoly.minimal_period(params)
            assert params.q % period == 0, params
            checked += 1
        assert checked > 100


def test_c05_reciprocal_criterion_iff_to_twelve():
    with budget(300):
        for p in range(1, 13):
            for q in range(1, 13):
                if gcd(p, q) != 1:
                    continue
                holds = criteria.check_reciprocal_criterion(p, q).holds
                _, period = quasipoly.minimal_period(reciprocal_params(p, q))
                assert holds == (q % period == 0), (p, q)


def test_c06_pseudo_integral_criterion_and_unimodular_images():
    with budget(120):
        for params in iter_lowest_term_params(12):
            if not criteria.check_pseudo_integral_criterion(params).holds:
                continue
            _, period = quasipoly.minimal_period(params)
            assert period == 1, params
        for p in range(2, 16):
            params = mcallister_woods_pair(p)
            assert params.denominator == p
            _, period = quasipoly.minimal_period(params)
            assert period == 1
            for t in range(1, 51):
                image = mcallister_woods_image(p, t)
                assert (counting.count_rational_triangle2d(image)
                        == counting.count_triangle(params, t))


def test_c07_fibonacci_facts_and_quasiperiods():
    # the gcd-with-k clause is asserted in its sharp parity form: coprime at
    # odd indices, divisible at even ones (F_2 = k already); consecutive
    # terms are coprime everywhere and the degree-two identity always holds
    with budget(300):
        for k in range(1, 7):
            for n in range(1, 31):
                g_prev, g_k = sequences.fib_gcds(k, n)
                assert g_prev == 1
                assert g_k == (1 if n % 2 == 1 or k == 1 else k)
                assert sequences.fib_identity_residual(k, n) == 0
        for k in range(1, 7):
            for n in range(2, 31, 2):
                quasi = sequences.k_fib(k, n)
                if quasi > 30:
                    break
                for index in (n, n + 1):
                    params = sequences.fib_triangle(k, index)
                    counts = counting.count_triangle_many(params, range(6 * quasi))
                    fit = quasipoly.fit_quasipolynomial(counts, quasi, 2)
                    assert fit is not None, (k, index, quasi)


def test_c08_tetrahedra_family_and_limit():
    with budget(120):
        for n in (1, 2, 3):
            simplex = sequences.tetra_family(n)
            for t in range(41):
                assert (counting.count_axis_simplex(simplex, t)
                        == sequences.tetra_polynomial(t))
        limit = sequences.limit_tetrahedron()
        for t in range(41):
            assert (counting.count_axis_simplex(limit, t)
                    == sequences.tetra_polynomial(t))


def test_c08_tetrahedra_count_runs_of_twenty_thousand():
    ts = range(20001)
    want = [sequences.tetra_polynomial(t) for t in ts]
    for simplex in (sequences.limit_tetrahedron(), sequences.tetra_family(2)):
        with budget(2):
            assert counting.count_axis_simplex_many(simplex, ts) == want


def test_c09_reciprocity_correction_pattern():
    with budget(60):
        for alpha, beta in ((3, 3), (2, 4), (1, 5), (4, 2), (5, 1)):
            pair = AdmissiblePair(alpha, beta)
            qp, _ = quasipoly.minimal_period(pair)
            for t in range(1, 51):
                rep = quasipoly.reciprocity_report(pair, t, qp)
                assert rep.correction == (1 if t % alpha == 0 else 0), (alpha, beta, t)


def test_c10_series_numerators_nonnegative_and_monotone():
    with budget(1):
        golden = quasipoly.series_numerator(
            *counting.count_triangle_many(AdmissiblePair(3, 3), [1, 2]))
        square = quasipoly.series_numerator(
            *counting.count_triangle_many(AdmissiblePair(2, 4), [1, 2]))
        assert golden.as_tuple() == (1, 0, 0)
        assert square.as_tuple() == (1, 1, 0)
        assert all(a <= b for a, b in zip(golden.as_tuple(), square.as_tuple()))


def test_c11_asymptotic_deficit_vanishes():
    with budget(10):
        pair = TrianglePair(QuadNumber(Fraction(1)), quad_sqrt(2))
        assert counting.asymptotic_deficit(pair, 100_000) < 0.01


def test_c12_recurrence_found_and_absent():
    with budget(120):
        golden_counts = counting.count_triangle_many(AdmissiblePair(3, 3), range(61))
        rec = precursive.guess_recurrence(golden_counts, 3, 0)
        assert rec is not None and rec.order <= 3
        assert precursive.verify_recurrence(rec, golden_counts)

        assert not scales_to_admissible(Fraction(2), Fraction(5, 2))
        u = QuadNumber(Fraction(1), Fraction(1, 5), 5)
        v = QuadNumber(Fraction(1), Fraction(-1, 5), 5)
        assert u + v == 2 and 1 / u + 1 / v == Fraction(5, 2)
        counts = counting.count_triangle_many(TrianglePair(u, v), range(401))
        assert precursive.guess_recurrence(counts, 4, 4) is None
