"""Quasipolynomial fitting, minimal periods, series numerators, reciprocity."""

import json
import tracemalloc
from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_floor_sum import StepOffAt

from ehrcollapse import counting, sequences
from ehrcollapse.polytopes import (
    AdmissiblePair,
    RationalTriangleParams,
    TrianglePair,
    iter_admissible_pairs,
    iter_lowest_term_params,
)
from ehrcollapse.arith import EhrcollapseError, QuadNumber, fraction_text, horner, quad_sqrt
from ehrcollapse.quasipoly import (
    InsufficientSamplesError,
    Quasipolynomial,
    certified_period,
    fit_quasipolynomial,
    minimal_period,
    reciprocity_report,
    series_numerator,
)


def _triangle_values(t_max):
    return [Fraction((t + 1) * (t + 2), 2) for t in range(t_max + 1)]


# -- fitting ---------------------------------------------------------------------


def test_fit_single_polynomial():
    qp = fit_quasipolynomial(_triangle_values(8), 1, 2)
    assert qp is not None
    assert qp.coeffs == ((Fraction(1), Fraction(3, 2), Fraction(1, 2)),)


def test_fit_golden_counts_collapses():
    counts = counting.count_triangle_many(AdmissiblePair(3, 3), range(12))
    qp = fit_quasipolynomial(counts, 3, 2)
    assert qp is not None
    assert all(row == (Fraction(1), Fraction(3, 2), Fraction(1, 2))
               for row in qp.coeffs)


def test_fit_rejects_non_quasipolynomial_counts():
    pair = TrianglePair(QuadNumber(Fraction(1)), quad_sqrt(2))
    counts = counting.count_triangle_many(pair, range(12))
    assert fit_quasipolynomial(counts, 3, 2) is None


def test_fit_requires_enough_samples_per_residue():
    with pytest.raises(InsufficientSamplesError, match="residues 1..1 have fewer than 3"):
        fit_quasipolynomial(_triangle_values(4), 2, 2)  # residue 1 has 2 points


def test_fit_verifies_on_leftover_samples():
    # a sequence that agrees with a quadratic on the first three points per
    # residue but breaks later must be rejected, not silently accepted
    values = _triangle_values(8)
    values[8] += 1
    assert fit_quasipolynomial(values, 1, 2) is None


def test_a_fit_holds_one_difference_level_at_a_time():
    counts = counting.count_triangle_many(AdmissiblePair(3, 3), range(300000))
    tracemalloc.start()
    try:
        fit = fit_quasipolynomial(counts, 3, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one level listed in full would take 2.4 MB of pointers, besides its ints
    assert fit == fit_quasipolynomial(counts[:9], 3, 2) and peak < 1e6


def test_fit_at_a_multiple_of_the_true_period():
    qp = Quasipolynomial(2, 1, ((Fraction(1), Fraction(1, 2)),
                                (Fraction(-3), Fraction(2))))
    values = [qp.evaluate(t) for t in range(18)]
    fitted = fit_quasipolynomial(values, 6, 1)
    assert fitted is not None and fitted.period == 6
    assert fitted.coeffs == qp.coeffs * 3


def test_fit_then_verify_at_denominator_period():
    for params in [RationalTriangleParams(2, 3, 3, 2),
                   RationalTriangleParams(1, 7, 1, 13),
                   RationalTriangleParams(3, 10, 2, 15),
                   RationalTriangleParams(1, 30, 1, 5)]:
        den = params.denominator
        assert den <= 150
        counts = counting.count_triangle_many(params, range(3 * den))
        qp = fit_quasipolynomial(counts, den, 2)
        assert qp is not None
        held_out = range(3 * den, 3 * den + 10)
        unseen = counting.count_triangle_many(params, held_out)
        assert [qp.evaluate(t) for t in held_out] == unseen


# -- minimal period -----------------------------------------------------------------


def test_minimal_period_examples():
    qp, period = minimal_period(RationalTriangleParams(1, 2, 2, 1))
    assert period == 1
    assert qp.coeffs == ((Fraction(1), Fraction(3, 2), Fraction(1, 2)),)

    _, period = minimal_period(AdmissiblePair(3, 3))
    assert period == 1

    params = RationalTriangleParams(2, 3, 3, 2)
    qp, period = minimal_period(params)
    assert period == 3 and params.denominator == 6


def test_minimal_period_divides_every_successful_fit_period():
    params = RationalTriangleParams(2, 3, 3, 2)
    _, minimal = minimal_period(params)
    den = params.denominator
    counts = counting.count_triangle_many(params, range(6 * den))
    for candidate in (1, 2, 3, 6):
        qp = fit_quasipolynomial(counts, candidate, 2)
        assert (qp is not None) == (candidate % minimal == 0)


def test_admissible_minimal_period_divides_alpha():
    for pair in iter_admissible_pairs(30):
        qp, period = minimal_period(pair)
        assert pair.alpha % period == 0
        assert qp.evaluate(0) == 1


def test_certified_period_is_the_minimal_period():
    objs = list(iter_lowest_term_params(4)) + list(iter_admissible_pairs(12))
    for obj in objs:
        qp, period = minimal_period(obj)
        assert certified_period(obj) == period == qp.period


def test_minimal_period_counts_the_whole_certificate(monkeypatch):
    # u = 3/2 and v = 2/3 obey a recurrence of degree w = 3 + 2 + 1 = 6, so the
    # run is t < w + 3P = 24, one call whose floor sums recount its last 2 t
    params = RationalTriangleParams(2, 3, 3, 2)
    lengths = []
    real = counting.count_triangle_many

    def spy(obj, ts):
        ts = list(ts)
        lengths.append(len(ts))
        return real(obj, ts)

    monkeypatch.setattr(counting, "count_triangle_many", spy)
    _, period = minimal_period(params)
    assert period == 3 and lengths == [24]
    # so a step that is off only at the run's last t, t = 23, is refused
    pair = params.triangle()
    (n, m, box), last = pair.translate, 23 - (3 + 2) + 1
    monkeypatch.setitem(pair.__dict__, "translate", (n, m, StepOffAt(box, last, 1)))
    with pytest.raises(EhrcollapseError, match="translate identity"):
        minimal_period(params)


def test_minimal_period_certificate_spans_k_plus_1_periods(monkeypatch):
    # u = 6 and v = 1 obey L(t) = L(t-6) + L(t-1) - L(t-7) + 1; with the step
    # 2 in place of 1, the run of t < w + 3P = 8 + 18 is still a period-6
    # quadratic quasipolynomial (its generating function gains
    # z^7/((1-z)^2 (1-z^6))), so Delta^3 vanishes on the window, and only the
    # floor sums that close the run tell
    params = RationalTriangleParams(1, 6, 1, 1)
    pair = params.triangle()
    n, m, step = pair.translate
    run = counting.count_triangle_many(params, range(7))
    for t in range(7, 26):
        run.append(run[t - n] + run[t - m] - run[t - n - m] + step + 1)
    assert not any(run[t + 18] - 3 * run[t + 12] + 3 * run[t + 6] - run[t] for t in range(8))
    monkeypatch.setitem(pair.__dict__, "translate", (n, m, step + 1))
    with pytest.raises(EhrcollapseError, match="translate identity"):
        minimal_period(params)


@pytest.mark.parametrize("obj, broken", [
    # one more point in the box x < p, y < r at every t
    (RationalTriangleParams(2, 3, 3, 2), lambda n, m, box: (n, m, box + 1)),
    # one point fewer on the axes per unit of t
    (AdmissiblePair(3, 3), lambda n, m, beta: (n, m, beta - 1)),
])
def test_certificate_checks_the_run_independently(monkeypatch, obj, broken):
    # the certificate's run comes from the identity, and the floor sums that
    # close it are what tells a broken identity
    pair = obj.triangle()
    monkeypatch.setitem(pair.__dict__, "translate", broken(*pair.translate))
    with pytest.raises(EhrcollapseError, match="translate identity"):
        certified_period(obj)


@pytest.mark.parametrize("obj", [
    TrianglePair(Fraction(3, 2), Fraction(2, 3)),  # rational legs, not parameters
    AdmissiblePair(3, 3).triangle(),
    TrianglePair(quad_sqrt(2), Fraction(7, 4)),  # one rational leg: a strip identity
    TrianglePair(quad_sqrt(2), quad_sqrt(3)),  # no identity
])
def test_period_certificates_refuse_triangle_pairs(obj):
    # a pair with a two-shift identity certifies as its parameters or its
    # admissible pair, in either leg order; a strip or no identity is refused
    reference = {
        TrianglePair(Fraction(3, 2), Fraction(2, 3)): RationalTriangleParams(2, 3, 3, 2),
        AdmissiblePair(3, 3).triangle(): AdmissiblePair(3, 3),
    }.get(obj)
    for pair in (obj, obj.swapped()):
        if reference is not None:
            assert certified_period(pair) == certified_period(reference)
            assert minimal_period(pair) == minimal_period(reference)
            continue
        for certify in (certified_period, minimal_period):
            with pytest.raises(EhrcollapseError, match=r"^period needs rational legs, or legs"
                               r" with integer u \+ v and 1/u \+ 1/v$"):
                certify(pair)
    for certify in (certified_period, minimal_period):
        with pytest.raises(TypeError):
            certify(object())


def test_pairs_certify_as_their_parameters_and_admissible_pairs():
    objs = [*iter_lowest_term_params(4),
            *(AdmissiblePair(a, b) for a in range(1, 7) for b in range(1, 7) if a * b >= 5)]
    assert len(objs) == 121 + 28
    for obj in objs:
        pair = obj.triangle()
        want = minimal_period(obj)
        assert minimal_period(TrianglePair(pair.u, pair.v)) == want, obj
        assert minimal_period(pair.swapped()) == want, obj


def _assert_matches_the_divisor_scan(obj):
    guaranteed = obj.alpha if isinstance(obj, AdmissiblePair) else obj.denominator
    needed = oracles.divisor_scan_counts_needed(guaranteed, 2)
    counts = counting.count_triangle_many(obj, range(needed))
    want = oracles.period_by_divisor_scan(counts, guaranteed, 2)
    qp, period = minimal_period(obj)
    assert certified_period(obj) == period == qp.period == want, obj


def test_certified_period_matches_the_divisor_scan_rational():
    tuples = list(iter_lowest_term_params(6))
    assert len(tuples) == 529
    for params in tuples:
        _assert_matches_the_divisor_scan(params)


def test_certified_period_matches_the_divisor_scan_admissible():
    pairs = list(iter_admissible_pairs(80))
    assert len(pairs) > 300
    for pair in pairs:
        _assert_matches_the_divisor_scan(pair)


@pytest.mark.parametrize("k, n", [(1, 14), (2, 8), (3, 6)])
def test_fib_triangle_period_is_f_n(k, n):
    # denominator F_n F_(n-1) = 87841, 68952 and 39240, period F_n(k) for even n
    params = sequences.fib_triangle(k, n)
    assert params.denominator == sequences.k_fib(k, n) * sequences.k_fib(k, n - 1)
    assert certified_period(params) == sequences.k_fib(k, n)


def _oracle_minimal_period(counts, guaranteed, degree=2):
    """Constituents at the guaranteed period interpolated from oracle counts,
    checked on every further count, and the least divisor where they agree."""
    rows = oracles.fit_by_residue(counts, guaranteed, degree)
    assert rows is not None
    period = next(d for d in range(1, guaranteed + 1) if guaranteed % d == 0
                  and all(rows[z] == rows[z % d] for z in range(guaranteed)))
    return period, rows[:period]


def test_minimal_period_matches_oracle_interpolation_rational():
    for params in iter_lowest_term_params(5):
        den = params.denominator
        tup = (params.p, params.q, params.r, params.s)
        counts = oracles.count_triangle_rational_range(*tup, 6 * den - 1)
        assert counts[:6] == [oracles.count_triangle_rational(*tup, t) for t in range(6)]
        want = _oracle_minimal_period(counts, den)
        qp, period = minimal_period(params)
        assert (period, qp.coeffs) == want, params


def test_minimal_period_matches_oracle_interpolation_admissible():
    pairs = [pair for pair in iter_admissible_pairs(100)
             if pair.alpha <= 10 and pair.beta <= 10]
    assert len(pairs) > 50
    for pair in pairs:
        counts = [oracles.count_triangle_admissible(pair.alpha, pair.beta, t)
                  for t in range(6 * pair.alpha)]
        want = _oracle_minimal_period(counts, pair.alpha)
        qp, period = minimal_period(pair)
        assert (period, qp.coeffs) == want, (pair.alpha, pair.beta)


# -- evaluation and representation --------------------------------------------------


def test_evaluate_uses_residue_representative():
    qp, _ = minimal_period(AdmissiblePair(3, 3))
    assert qp.evaluate(-1) == 0
    assert qp.evaluate(-3) == 1
    assert qp.evaluate(5) == 21


def test_quasipolynomial_validation_and_json():
    with pytest.raises(ValueError):
        Quasipolynomial(0, 1, ())
    with pytest.raises(ValueError):
        Quasipolynomial(2, 1, ((Fraction(1), Fraction(1)),))  # one row, period 2
    qp = Quasipolynomial(2, 1, ((Fraction(1), Fraction(1, 2)),
                                (Fraction(0), Fraction(2))))
    again = Quasipolynomial.from_json_dict(qp.to_json_dict())
    assert again == qp


def test_certificate_limit_admits_the_largest_scheduled_period():
    # period --params 1,1000,1,999: P = 999000 reads w + 3P counts
    assert counting.MAX_CERTIFICATE_COUNTS >= 1000 + 999 + 1 + 3 * 999_000


def test_certificate_past_the_limit_is_refused_before_counting():
    with pytest.raises(EhrcollapseError, match="400000002 counts held at once"):
        certified_period(RationalTriangleParams(1, 10 ** 8, 1, 1))


@st.composite
def quasipolynomials(draw):
    period = draw(st.integers(min_value=1, max_value=4))
    degree = draw(st.integers(min_value=0, max_value=3))
    coeff = st.fractions(min_value=Fraction(-9), max_value=Fraction(9),
                         max_denominator=6)
    rows = tuple(
        tuple(draw(coeff) for _ in range(degree + 1)) for _ in range(period)
    )
    return Quasipolynomial(period, degree, rows)


@given(quasipolynomials())
@settings(max_examples=60)
def test_fit_recovers_sampled_quasipolynomial(qp):
    t_max = qp.period * (qp.degree + 3) - 1
    values = [qp.evaluate(t) for t in range(t_max + 1)]
    fitted = fit_quasipolynomial(values, qp.period, qp.degree)
    assert fitted is not None
    assert all(fitted.evaluate(t) == value for t, value in enumerate(values))
    assert fitted == qp


exact_values = st.integers(-40, 40) | st.fractions(Fraction(-40), Fraction(40), max_denominator=9)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 3), st.booleans(), st.data())
def test_fit_matches_the_residue_by_residue_oracle(period, degree, planted, data):
    # any values, or those of a planted quasipolynomial, on every class's
    # degree + 1 points and up to two periods more
    n = (degree + 1) * period + data.draw(st.integers(0, 2 * period))
    if planted:
        rows = data.draw(st.lists(st.lists(exact_values, min_size=degree + 1, max_size=degree + 1),
                                  min_size=period, max_size=period))
        values = [horner(rows[t % period], t) for t in range(n)]
    else:
        values = data.draw(st.lists(exact_values, min_size=n, max_size=n))
    fitted = fit_quasipolynomial(values, period, degree)
    assert (None if fitted is None else fitted.coeffs) == oracles.fit_by_residue(values, period, degree)
    assert fitted is not None or not planted
    if fitted is None:
        return
    record = fitted.to_json_dict()
    assert record["coeffs"] == [[fraction_text(c) for c in row] for row in fitted.coeffs]
    same = [Quasipolynomial(period, degree, fitted.coeffs),
            Quasipolynomial.from_json_dict(json.loads(json.dumps(record)))]
    if all(c.denominator == 1 for row in fitted.coeffs for c in row):
        same.append(Quasipolynomial(period, degree, [[int(c) for c in row] for row in fitted.coeffs]))
    assert all(qp == fitted and hash(qp) == hash(fitted) for qp in same)
    if n > (degree + 1) * period:  # one value that the fit checks, moved
        t = data.draw(st.integers((degree + 1) * period, n - 1))
        values[t] += data.draw(exact_values.filter(bool))
        assert fit_quasipolynomial(values, period, degree) is None
        assert oracles.fit_by_residue(values, period, degree) is None


def test_fit_refuses_a_class_short_of_degree_plus_one_values():
    for period in range(1, 13):
        for degree in range(4):
            enough = (degree + 1) * period
            assert fit_quasipolynomial([0] * enough, period, degree) == \
                Quasipolynomial(period, degree, [[0] * (degree + 1)] * period)
            for n in {0, degree * period, enough - 1}:
                short = n - degree * period
                with pytest.raises(InsufficientSamplesError,
                                   match=f"residues {max(short, 0)}..{period - 1} have fewer"):
                    fit_quasipolynomial([1] * n, period, degree)


def test_equal_tables_are_one_quasipolynomial_and_one_hash():
    # 1 + t/2 + t^2/2 on every t, written four ways
    want = Quasipolynomial(2, 2, [[1, Fraction(1, 2), Fraction(1, 2)]] * 2)
    same = [fit_quasipolynomial([1 + Fraction(t * (t + 1), 2) for t in range(8)], 2, 2),
            Quasipolynomial(2, 2, [["2/2", "3/6", "1/2"], ["1", "1/2", " 2/4 "]]),
            Quasipolynomial(2, 2, [(Fraction(1), Fraction(2, 4), Fraction(1, 2))] * 2)]
    assert all(qp == want and hash(qp) == hash(want) for qp in same)
    assert (want.numerators, want.denominator) == (((2, 1, 1), (2, 1, 1)), 2)
    assert want != Quasipolynomial(2, 2, [[1, Fraction(1, 2), Fraction(1, 3)]] * 2)
    assert Quasipolynomial(1, 0, [[0]]).denominator == 1


# -- series numerator and reciprocity -------------------------------------------------


def test_series_numerator_values():
    golden = counting.count_triangle_many(AdmissiblePair(3, 3), [1, 2])
    assert series_numerator(*golden).as_tuple() == (1, 0, 0)
    square = counting.count_triangle_many(AdmissiblePair(2, 4), [1, 2])
    assert series_numerator(*square).as_tuple() == (1, 1, 0)
    # unit triangle has the same first counts as the golden one
    assert series_numerator(3, 6).as_tuple() == (1, 0, 0)


def test_reciprocity_reports():
    golden = AdmissiblePair(3, 3)
    rep = reciprocity_report(golden, 1)
    assert (rep.value_at_neg_t, rep.interior_count, rep.correction) == (0, 0, 0)
    assert not rep.alpha_divides_t

    rep = reciprocity_report(golden, 3)
    assert (rep.value_at_neg_t, rep.interior_count, rep.correction) == (1, 0, 1)
    assert rep.alpha_divides_t

    rep = reciprocity_report(AdmissiblePair(2, 4), 2)
    assert (rep.value_at_neg_t, rep.interior_count, rep.correction) == (1, 0, 1)
    assert rep.alpha_divides_t


def test_reciprocity_pattern_small_sweep():
    for alpha, beta in ((3, 3), (2, 4), (4, 2)):
        pair = AdmissiblePair(alpha, beta)
        qp, _ = minimal_period(pair)
        for t in range(1, 25):
            rep = reciprocity_report(pair, t, qp)
            assert rep.correction == (1 if t % alpha == 0 else 0)
