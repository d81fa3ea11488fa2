"""Divisibility criteria, classification, and their match with computed periods."""

from math import gcd

import pytest

import oracles
from ehrcollapse import criteria, quasipoly
from ehrcollapse.criteria import (
    PSEUDO_INTEGRAL,
    check_collapse_criterion,
    check_pseudo_integral_criterion,
    check_reciprocal_criterion,
    classify_admissible,
    solve_beta_equation,
)
from ehrcollapse.polytopes import (
    RationalTriangleParams,
    iter_admissible_pairs,
    iter_lowest_term_params,
    reciprocal_params,
)


# -- collapse criterion ---------------------------------------------------------


def test_collapse_criterion_examples():
    report = check_collapse_criterion(RationalTriangleParams(3, 1, 2, 3))
    assert report.holds and report.predicted_period_divisor == 1

    report = check_collapse_criterion(RationalTriangleParams(2, 3, 3, 2))
    assert report.holds and report.predicted_period_divisor == 3

    report = check_collapse_criterion(RationalTriangleParams(1, 1, 1, 1))
    assert report.holds and report.predicted_period_divisor == 1

    report = check_collapse_criterion(RationalTriangleParams(1, 2, 3, 4))
    assert not report.holds and report.predicted_period_divisor is None


def test_collapse_condition_names():
    report = check_collapse_criterion(RationalTriangleParams(2, 3, 3, 2))
    names = [name for name, _ in report.conditions]
    assert len(names) == 3 and len(set(names)) == 3


# -- pseudo-integral criterion -----------------------------------------------------


def test_pseudo_integral_examples():
    assert check_pseudo_integral_criterion(RationalTriangleParams(1, 2, 2, 1)).holds
    assert check_pseudo_integral_criterion(RationalTriangleParams(3, 1, 2, 3)).holds
    assert not check_pseudo_integral_criterion(RationalTriangleParams(2, 3, 3, 2)).holds


def test_pseudo_integral_predicts_period_one():
    report = check_pseudo_integral_criterion(RationalTriangleParams(1, 2, 2, 1))
    assert report.predicted_period_divisor == 1


# -- reciprocal-pair criterion -------------------------------------------------------


def test_reciprocal_examples():
    assert check_reciprocal_criterion(2, 5).holds
    assert not check_reciprocal_criterion(3, 2).holds
    assert check_reciprocal_criterion(1, 1).holds
    assert (reciprocal_params(2, 5).p, reciprocal_params(2, 5).q) == (2, 5)
    assert reciprocal_params(2, 5).triangle().kind == "rational"


def test_reciprocal_requires_coprime():
    with pytest.raises(ValueError):
        check_reciprocal_criterion(2, 4)


def test_reciprocal_conditions_are_the_last_two_collapse_conditions():
    """For legs q/p and p/q, s = p divides p always; the other two collapse
    conditions are the reciprocal criterion's."""
    for p in range(1, 61):
        for q in range(1, 61):
            if gcd(p, q) == 1:
                report = check_reciprocal_criterion(p, q)
                collapse = check_collapse_criterion(reciprocal_params(p, q))
                assert collapse.conditions[0][1]
                assert [ok for _, ok in report.conditions] == \
                    [ok for _, ok in collapse.conditions[1:]], (p, q)


def test_reciprocal_iff_small():
    for p in range(1, 7):
        for q in range(1, 7):
            if gcd(p, q) != 1:
                continue
            holds = check_reciprocal_criterion(p, q).holds
            _, period = quasipoly.minimal_period(reciprocal_params(p, q))
            assert holds == (q % period == 0), (p, q, holds, period)


# -- report shape -------------------------------------------------------------------


def test_prediction_present_iff_all_conditions_hold():
    for params in iter_lowest_term_params(8):
        for check in (check_collapse_criterion, check_pseudo_integral_criterion):
            report = check(params)
            all_hold = all(ok for _, ok in report.conditions)
            assert report.holds == all_hold
            assert (report.predicted_period_divisor is not None) == all_hold


def test_report_json_shape():
    record = check_collapse_criterion(RationalTriangleParams(2, 3, 3, 2)).to_json_dict()
    assert set(record) == {"criterion", "conditions", "predicted_period_divisor",
                           "verdict"}
    assert all(set(c) == {"name", "holds"} for c in record["conditions"])


# -- classification and the beta equation ---------------------------------------------


def test_classify_examples():
    assert classify_admissible(3, 3) == PSEUDO_INTEGRAL
    assert classify_admissible(2, 4) == PSEUDO_INTEGRAL
    assert classify_admissible(1, 7) == PSEUDO_INTEGRAL
    assert classify_admissible(4, 2) == criteria.PSEUDO_RATIONAL_ONLY
    assert classify_admissible(2, 2) == criteria.NOT_ADMISSIBLE
    assert classify_admissible(1, 4) == criteria.NOT_ADMISSIBLE


def test_classification_matches_computed_period_small():
    for pair in iter_admissible_pairs(24):
        label = classify_admissible(pair.alpha, pair.beta)
        qp, period = quasipoly.minimal_period(pair)
        if label == PSEUDO_INTEGRAL:
            assert period == 1
            # a single polynomial taking integer values on all of Z
            assert all(qp.evaluate(t).denominator == 1 for t in range(-6, 7))
        else:
            assert period > 1


def test_solve_beta_equation():
    assert solve_beta_equation(100) == [(2, 4), (3, 3)]
    assert solve_beta_equation(1000) == [(2, 4), (3, 3)]
    assert solve_beta_equation(10 ** 12) == [(2, 4), (3, 3)]
    for bound in range(-5, 301):
        assert solve_beta_equation(bound) == oracles.solve_beta_equation_scan(bound)


def test_classify_matches_the_discriminant_test():
    solutions = oracles.solve_beta_equation_scan(40)
    for alpha in range(-3, 41):
        for beta in range(-3, 41):
            if not oracles.admissible_by_discriminant(alpha, beta):
                want = criteria.NOT_ADMISSIBLE
            elif alpha == 1 or (alpha, beta) in solutions:
                want = PSEUDO_INTEGRAL
            else:
                want = criteria.PSEUDO_RATIONAL_ONLY
            assert classify_admissible(alpha, beta) == want


# -- soundness against computed periods (small sweep; wide sweep in acceptance) --------


def test_collapse_criterion_sound_small():
    for params in iter_lowest_term_params(6):
        report = check_collapse_criterion(params)
        if report.holds:
            _, period = quasipoly.minimal_period(params)
            assert params.q % period == 0
