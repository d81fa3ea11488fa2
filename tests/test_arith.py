"""Exact quadratic arithmetic: canonical forms, order, floor, serialization."""

import json
import pickle
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from math import floor, inf, isqrt, nextafter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ehrcollapse import arith, counting, criteria, sequences
from ehrcollapse.arith import (
    Expansion,
    QuadNumber,
    RadicandMismatchError,
    floor_surd,
    floor_surd_run,
    parse_fraction,
    parse_quad,
    quad_sqrt,
)
from ehrcollapse.polytopes import (
    AdmissiblePair,
    AxisSimplex,
    Interval,
    RationalTriangle2D,
    RationalTriangleParams,
    TrianglePair,
    iter_admissible_pairs,
    iter_lowest_term_tuples,
    mcallister_woods_image,
    mcallister_woods_pair,
    scales_to_admissible,
)
from ehrcollapse.precursive import Recurrence, guess_recurrence, verify_recurrence
from ehrcollapse.quasipoly import (Quasipolynomial, fit_quasipolynomial, reciprocity_report,
                                  series_numerator)

fractions = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
radicands = st.integers(min_value=0, max_value=120)


@st.composite
def quads(draw, d=None):
    if d is None:
        d = draw(radicands)
    return QuadNumber(draw(fractions), draw(fractions), d)


# -- canonical form ------------------------------------------------------------


def test_normalizes_square_factors():
    # the triple is reduced, and the radicand is kept as given, square factors and all
    x = QuadNumber(Fraction(0), Fraction(1), 8)
    assert (x.triple, x.d) == ((0, 1, 1), 8)
    assert x == QuadNumber(Fraction(0), Fraction(2), 2) and str(x) == "0+1*sqrt(8)"


def test_normalizes_perfect_square_radicand():
    x = QuadNumber(Fraction(1), Fraction(1, 2), 12)
    assert (x.a, x.b, x.d) == (Fraction(1), Fraction(1, 2), 12)
    y = QuadNumber(Fraction(1), Fraction(3), 4)
    assert y == 7 and y.d == 0
    z = QuadNumber(Fraction(1), Fraction(1), 1000003 ** 2)
    assert z == 1000004 and z.d == 0
    assert QuadNumber(Fraction(2), Fraction(5), 1) == 7 and QuadNumber(3, 5, 0).triple == (3, 0, 1)


def test_zero_b_clears_radicand():
    assert QuadNumber(Fraction(5, 3), Fraction(0), 7).d == 0


def test_rejects_negative_radicand():
    with pytest.raises(ValueError):
        QuadNumber(Fraction(0), Fraction(1), -2)


@given(quads())
def test_canonical_form_is_stable(x):
    again = QuadNumber(x.a, x.b, x.d)
    assert (again.a, again.b, again.d) == (x.a, x.b, x.d)


@given(st.data(), quads(), st.one_of(st.integers(2, 50), st.just(1000003)))
def test_equal_values_hash_equal(data, x, s):
    assert hash(QuadNumber(x.a, x.b, x.d)) == hash(x)
    if x.is_rational:
        assert hash(x) == hash(x.a)
    else:
        # the same value over the radicand s*s*d, a small square factor or a prime one
        wide = QuadNumber(x.a, x.b / s, s * s * x.d)
        assert wide.d == s * s * x.d
        assert wide == x and hash(wide) == hash(x)
        y = data.draw(quads(d=x.d))
        assert (wide < y, y < wide, floor(wide)) == (x < y, y < x, floor(x))


def test_hash_with_a_denominator_that_is_a_multiple_of_the_hash_modulus():
    # hashes are taken modulo this prime without a gcd, except in this case
    m = sys.hash_info.modulus
    x = QuadNumber(Fraction(3, 7), Fraction(-2, 5), 11)
    a, b, c = x.triple
    wide = arith._new(a * m, b, c * m, m * m * x.d)
    assert wide == x and hash(wide) == hash(x)
    assert hash(QuadNumber(Fraction(5, m))) == hash(Fraction(5, m))


def test_a_square_factor_of_the_radicand_is_kept():
    p, q = 1000003, 1000033  # primes: p*p*q is kept as it is
    wide = QuadNumber(Fraction(1), Fraction(1), p * p * q)
    narrow = QuadNumber(Fraction(1), Fraction(p), q)
    assert (wide.d, narrow.d) == (p * p * q, q)
    assert wide == narrow and hash(wide) == hash(narrow)
    assert wide - narrow == 0 and floor(wide) == floor(narrow)
    assert (wide * narrow).d == q
    assert wide != quad_sqrt(q + 1)
    assert wide != QuadNumber(Fraction(1), Fraction(p + 1), q)
    with pytest.raises(RadicandMismatchError):
        wide + quad_sqrt(2)
    # an operation keeps the radicand of its operands, and sqrt(12) == 2*sqrt(3)
    x = QuadNumber(Fraction(1), Fraction(1, 3), 10 ** 9 + 7)
    y = x * x + x
    assert (y.d, y.b) == (10 ** 9 + 7, Fraction(1))
    assert QuadNumber(Fraction(0), Fraction(1), 12) == QuadNumber(Fraction(0), Fraction(2), 3)


# -- field laws ----------------------------------------------------------------


@given(st.data(), st.sampled_from([0, 2, 3, 5, 7, 10, 13]))
def test_field_laws_share_radicand(data, d):
    x = data.draw(quads(d=d))
    y = data.draw(quads(d=d))
    z = data.draw(quads(d=d))
    assert (x + y) + z == x + (y + z)
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert x - x == 0 and not x - x
    assert 1 - x == -(x - 1)  # __rsub__
    if x != 0:
        assert x * (1 / x) == 1


@given(quads())
def test_conjugate_norm_is_rational(x):
    norm = x * x.conjugate()
    assert norm.is_rational
    assert norm.as_fraction() == x.a * x.a - x.b * x.b * x.d


@given(quads(), st.integers(min_value=-4, max_value=6))
def test_pow_matches_repeated_multiplication(x, n):
    out = QuadNumber(Fraction(1))
    for _ in range(abs(n)):
        out = out * x
    if n >= 0:
        assert x ** n == out
    elif x != 0:
        assert x ** n * out == 1  # the product of -n factors, inverted
    else:
        with pytest.raises(ZeroDivisionError, match="^division by zero$"):
            x ** n


def test_zero_to_a_negative_power_is_division_by_zero():
    assert not QuadNumber(0)
    for n in (-1, -4):
        with pytest.raises(ZeroDivisionError, match="^division by zero$"):
            QuadNumber(0) ** n


def test_mixed_radicands_rejected():
    r2 = quad_sqrt(2)
    r3 = quad_sqrt(3)
    with pytest.raises(RadicandMismatchError):
        r2 + r3
    with pytest.raises(RadicandMismatchError):
        r2 * r3
    # rational operands always combine
    assert r2 + 1 == QuadNumber(Fraction(1), Fraction(1), 2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        quad_sqrt(2) / QuadNumber(Fraction(0))


# -- order and floor -------------------------------------------------------------


def test_known_signs_and_floors():
    r2 = quad_sqrt(2)
    assert (r2 - 1).sign() == 1 and (r2 - 2).sign() == -1
    assert floor(r2) == 1
    assert floor(-r2) == -2
    golden_root = QuadNumber(Fraction(3, 2), Fraction(1, 2), 5)  # (3+sqrt 5)/2
    assert floor(golden_root) == 2
    assert floor(QuadNumber(Fraction(7))) == 7
    assert floor(QuadNumber(Fraction(-7, 2))) == -4


@given(quads())
def test_floor_certificate(x):
    f = floor(x)
    assert (x - f).sign() >= 0
    assert (x - (f + 1)).sign() < 0


@given(quads())
def test_ceil_matches_floor(x):
    c = x.__ceil__()
    assert (QuadNumber.from_value(c) - x).sign() >= 0
    assert (QuadNumber.from_value(c - 1) - x).sign() < 0


@given(st.data(), st.sampled_from([0, 2, 3, 5, 7, 10]))
def test_order_is_consistent_with_difference_sign(data, d):
    x = data.draw(quads(d=d))
    y = data.draw(quads(d=d))
    assert (x < y) == ((x - y).sign() < 0)
    assert (x <= y) == ((x - y).sign() <= 0)
    assert (x < y) or (x == y) or (x > y)


@given(quads(), st.one_of(st.integers(-60, 60), fractions), st.booleans())
@example(QuadNumber(3), 3, True)
@example(QuadNumber(Fraction(1, 2)), Fraction(1, 2), False)
def test_order_against_ints_and_fractions_on_both_sides(x, y, rational):
    # <=, > and >= come from __lt__ and equality (total_ordering), and an int
    # or a Fraction on the left reaches them reflected
    if rational:
        x = QuadNumber(x.a)
    sign = (x - y).sign()
    assert [x < y, x <= y, x > y, x >= y] == [sign < 0, sign <= 0, sign > 0, sign >= 0]
    assert [y < x, y <= x, y > x, y >= x] == [sign > 0, sign >= 0, sign < 0, sign <= 0]


@given(quads())
@settings(max_examples=60)
def test_sign_matches_scaled_isqrt(x):
    # independent exact check: compare a and -b*sqrt(d) via squared integers
    num_a = x.a.numerator * x.b.denominator
    num_b = x.b.numerator * x.a.denominator
    lhs, rhs = num_a * abs(num_a), -num_b * abs(num_b) * x.d
    want = (lhs > rhs) - (lhs < rhs) if x.d else (x.a > 0) - (x.a < 0)
    assert x.sign() == want


# -- helpers and serialization ----------------------------------------------------


def test_quad_sqrt_is_exact():
    assert quad_sqrt(Fraction(4, 9)) == Fraction(2, 3)
    half = quad_sqrt(Fraction(1, 2))
    assert half * half == Fraction(1, 2)
    assert half.d == 2
    with pytest.raises(ValueError):
        quad_sqrt(-1)


def test_parse_quad_forms():
    assert parse_quad("7") == 7
    assert parse_quad("5/3") == Fraction(5, 3)
    assert parse_quad("3/2,1/2,5") == QuadNumber(Fraction(3, 2), Fraction(1, 2), 5)
    assert str(QuadNumber(Fraction(3, 2))) == "3/2"
    with pytest.raises(ValueError):
        parse_quad("1,2")


def _fraction_or_error(text):
    """Fraction(text), or the error text parse_fraction gives when it raises."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        return f"zero denominator in {text!r}"
    except ValueError:
        return f"invalid fraction value: {text!r}"


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.from_regex(r"-?[0-9]{1,25}(/[0-9]{1,25})?", fullmatch=True),
    st.text("0123456789-+/_.eE \u0663\u00b2", max_size=8),
    st.text(max_size=4),
))
@example("+5")
@example(" 5")
@example("5 ")
@example("1.5")
@example("1e3")
@example("1_0")
@example("--5")
@example("-")
@example("/5")
@example("5/")
@example("1/0")
@example("-3/00")
@example("-0/7")
@example("007/014")
@example("\u0663")
@example("\u0663/4")
@example("1" * 5000)
def test_parse_fraction_reads_what_fraction_reads(text):
    want = _fraction_or_error(text)
    try:
        got = parse_fraction(text)
    except ValueError as exc:
        got = str(exc)
    assert got == want and type(got) is type(want)


@given(quads())
def test_json_round_trip(x):
    encoded = x.to_json_dict()
    assert all(isinstance(v, str) for v in encoded.values())
    assert QuadNumber.from_json_dict(encoded) == x
    assert pickle.loads(pickle.dumps(x)) == x


def _decimal_float(x: QuadNumber) -> float:
    """float(x) through stdlib decimal at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, b = x.a, x.b
        value = Decimal(a.numerator) / a.denominator
        if x.d:
            value += Decimal(b.numerator) / b.denominator * Decimal(x.d).sqrt()
        return float(value)


@settings(max_examples=60, deadline=None)
@given(st.fractions(max_denominator=10 ** 12), st.fractions(max_denominator=10 ** 12),
       st.integers(0, 10 ** 30), st.integers(1, 10 ** 15), st.integers(1, 3))
def test_float_is_correctly_rounded(a, b, d, r, e):
    x = QuadNumber(a, b, d)
    assert float(x) == _decimal_float(x)
    # sqrt(r*r + e) - r ~ e/(2r) cancels as far as a + b*sqrt(d) can, so the
    # scaled floor keeps the fewest bits beyond a float's
    y = QuadNumber(Fraction(-r), Fraction(1), r * r + e)
    assert float(y) == _decimal_float(y)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-300, max_value=1e300), st.integers(2, 10 ** 30),
       st.integers(60, 120), st.sampled_from((1, -1)), st.sampled_from((1, -1)))
def test_float_rounds_values_near_a_tie(f, d, shift, side, sign):
    """x = the midpoint of f and the next float, moved by side*(sqrt(d) - isqrt(d))
    at about 2**-shift of its size: it rounds away from the midpoint's side."""
    r = isqrt(d)
    if r * r == d:
        d += 1
        r = isqrt(d)
    up = nextafter(f, inf)
    mid = (Fraction(f) + Fraction(up)) / 2
    scale = Fraction(1, 2 ** shift) * mid
    x = sign * QuadNumber(mid - side * r * scale, side * scale, d)
    want = sign * (up if side > 0 else f)
    assert float(x) == _decimal_float(x) == want


def test_isqrt_agreement_on_large_values():
    # the floor path must stay exact far beyond float precision
    big = 10 ** 18
    x = QuadNumber(Fraction(0), Fraction(big), 2)
    assert floor(x) == isqrt(2 * big * big)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 3, 10 ** 3).filter(bool),
       st.integers(1, 10 ** 4), st.sampled_from((2, 7, 10 ** 9 + 7, 2 ** 64 + 13)),
       st.one_of(st.just(0), st.integers(0, 60), st.integers(0, 10 ** 12)),
       st.integers(0, 40), st.integers(1, 9))
@example(0, -1, 1, 2, 0, 3, 1)  # at m = 0, b < 0 gives floor(0) = 0, not -1
def test_a_floor_run_is_floor_surd_at_each_m(a, b, c, d, start, length, step):
    ms = range(start, start + length * step, step)
    assert floor_surd_run(a, b, c, d, ms) == [floor_surd(m * a, m * b, c, d) for m in ms]
    assert floor_surd_run(a, 0, c, d, ms) == [m * a // c for m in ms]


# (3 + 4*sqrt(13))/28 = [0; 1, 1, 1, 1, 1, 4, 1, 806, ...]; 1/(8*sqrt(10**9 + 7)) has a_1 = 252982
SLOPES_WITH_A_LARGE_PARTIAL_QUOTIENT = [(3, 4, 28, 13), (0, 1, 8 * (10 ** 9 + 7), 10 ** 9 + 7)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(SLOPES_WITH_A_LARGE_PARTIAL_QUOTIENT),
                 st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 3, 10 ** 3).filter(bool),
                           st.integers(1, 10 ** 4), st.sampled_from((2, 13, 10 ** 9 + 7)))),
       st.sampled_from((1, -1)), st.sampled_from((1, -1)),
       st.one_of(st.integers(0, 3), st.integers(0, 10 ** 6), st.integers(0, 10 ** 40)),
       st.integers(0, 2000), st.integers(1, 5))
def test_a_long_floor_run_far_out_is_floor_surd_at_each_m(slope, sign_a, sign_b, start, length,
                                                          step):
    """Runs of up to 2000 m from offsets up to 10^40, on slopes with either
    sign of each part, among them partial quotients of 806 and 252982."""
    a, b, c, d = slope
    a, b = sign_a * a, sign_b * b
    ms = range(start, start + length * step, step)
    assert floor_surd_run(a, b, c, d, ms) == [floor_surd(m * a, m * b, c, d) for m in ms]


def test_a_floor_run_near_10_to_the_1000_walks_its_2600_words_in_a_loop():
    """sqrt(2) = [1; 2, 2, ...]: q_k passes 10^1000 after about 2600 words, more
    than the recursion limit, and the run still reads each one."""
    ms = range(10 ** 1000, 10 ** 1000 + 60)
    assert floor_surd_run(0, 1, 1, 2, ms) == [floor_surd(0, m, 1, 2) for m in ms]


def test_the_slopes_with_a_large_partial_quotient_have_one():
    for (a, b, c, d), k, big in zip(SLOPES_WITH_A_LARGE_PARTIAL_QUOTIENT, (8, 1), (806, 252982)):
        cf = Expansion((a, b, c), d)
        for _ in range(k + 1):
            cf.grow()
        assert cf.steps[k][0] == big


def test_to_integers_scales_by_the_lcm_of_the_denominators():
    assert arith.to_integers([Fraction(1, 2), 3, Fraction(-2, 3)]) == ([3, 18, -4], 6)
    assert arith.to_integers([4, 5]) == ([4, 5], 1)
    assert arith.to_integers([]) == ([], 1)


# -- the exact-rational toolkit shared by quasipolynomials and recurrences -------------


def test_the_toolkit_scales_evaluates_and_writes_exactly():
    assert arith.horner([Fraction(1, 2), 0, 3], 2) == Fraction(25, 2)
    assert arith.horner([5, -1], -3) == 8 and arith.horner([], 7) == 0
    assert [arith.fraction_text(x) for x in (3, Fraction(-2, 4), -2 ** 70)] == \
        ["3/1", "-1/2", f"{-2 ** 70}/1"]
    assert arith.fraction_rows([[1, "-3/6"], (Fraction(2, 3), " 5 ")], 2, 2) == \
        ((1, Fraction(-1, 2)), (Fraction(2, 3), 5))
    with pytest.raises(ValueError, match="2 rows of 2"):
        arith.fraction_rows([[1, 2], [3]], 2, 2)
    with pytest.raises(TypeError, match="QuadNumber"):
        arith.fraction_rows([[quad_sqrt(2)]], 1, 1)
    with pytest.raises(TypeError, match="str"):
        arith.to_integers([1, "1/2"])


FLOAT_CALLS = {
    "to_integers": lambda: arith.to_integers([Fraction(1, 3), 0.5]),
    "QuadNumber": lambda: QuadNumber(1, 0.5, 2),
    "QuadNumber radicand": lambda: QuadNumber(0, 1, 2.0),
    "quad_sqrt": lambda: quad_sqrt(2.0),
    "fit_quasipolynomial": lambda: fit_quasipolynomial([1, 2, 0.5, 4], 1, 1),
    "guess_recurrence": lambda: guess_recurrence([1.0] * 12, 1, 0),
    "verify_recurrence": lambda: verify_recurrence(Recurrence(1, 0, ((1,), (-1,))), [1, 1.0]),
    "Quasipolynomial": lambda: Quasipolynomial(1, 1, ((Fraction(1), 0.5),)),
    "Recurrence": lambda: Recurrence(0, 0, ((0.1,),)),
    "RationalTriangle2D": lambda: RationalTriangle2D(((0, 0), (1, 0), (0, 0.5))),
    "RationalTriangleParams.from_fractions": lambda: RationalTriangleParams.from_fractions(0.1, 1),
    "scales_to_admissible": lambda: scales_to_admissible(0.5, 8.0),
    "series_numerator": lambda: series_numerator(0.1, 2),
    "count_triangle": lambda: counting.count_triangle(RationalTriangleParams(2, 3, 3, 2), 2.5),
    "count_triangle_many": lambda: counting.count_triangle_many(AdmissiblePair(3, 3), [0, 1.0]),
    "count_triangle_interior": lambda: counting.count_triangle_interior(AdmissiblePair(3, 3), 2.5),
    "count_axis_simplex_many": lambda: counting.count_axis_simplex_many(
        sequences.limit_tetrahedron(), [3.9]),
    "count_interval": lambda: counting.count_interval(Interval(QuadNumber(0), quad_sqrt(2)), 2.5),
    "closed_form_admissible": lambda: counting.closed_form_admissible(AdmissiblePair(3, 3), 2.0),
    "k_fib": lambda: sequences.k_fib(2.5, 4),
    "tetra_polynomial": lambda: sequences.tetra_polynomial(2.5),
    "AdmissiblePair": lambda: AdmissiblePair(3.0, 3.0),
    "RationalTriangleParams": lambda: RationalTriangleParams(2.0, 3, 3, 2),
    "TrianglePair": lambda: TrianglePair(1, 0.5),
    "AxisSimplex": lambda: AxisSimplex((1, 0.5)),
    "Interval": lambda: Interval(0, 0.5),
    "QuadNumber arithmetic": lambda: quad_sqrt(2) + 0.5,
    # a size: each call is taken, or refused as something else, where a size is not checked
    "fit_quasipolynomial period": lambda: fit_quasipolynomial([1] * 9, 1.0, 2),
    "fit_quasipolynomial degree": lambda: fit_quasipolynomial([1], 1, 2.0),
    "Quasipolynomial period": lambda: Quasipolynomial(1.0, 1, [[1, 2]]),
    "Quasipolynomial degree": lambda: Quasipolynomial(1, 1.0, [[1, 2]]),
    "Recurrence order": lambda: Recurrence(1.0, 0, [[1], [-1]]),
    "Recurrence degree": lambda: Recurrence(0, 1.0, [[1, 2]]),
    "guess_recurrence max_order": lambda: guess_recurrence([1] * 3, 1.0, 0),
    "guess_recurrence max_degree": lambda: guess_recurrence([1] * 3, 0, 1.0),
    # an int parameter beside a range check
    "classify_admissible": lambda: criteria.classify_admissible(3.0, 3.0),
    "check_reciprocal_criterion": lambda: criteria.check_reciprocal_criterion(2.0, 3),
    "solve_beta_equation": lambda: criteria.solve_beta_equation(3.0),
    "a_sequence": lambda: sequences.a_sequence(5.0),
    "tetra_family": lambda: sequences.tetra_family(2.0),
    "mcallister_woods_image": lambda: mcallister_woods_image(3, 2.0),
    "Quasipolynomial.evaluate": lambda: Quasipolynomial(1, 0, [[1]]).evaluate(2.5),
    "QuadNumber.__pow__": lambda: quad_sqrt(2) ** 0.5,
    "fib_gcds": lambda: sequences.fib_gcds(2, 5.0),
    "fib_identity_residual": lambda: sequences.fib_identity_residual(2, 5.0),
    "iter_lowest_term_tuples": lambda: next(iter_lowest_term_tuples(3, 3, 3.0)),
    "iter_admissible_pairs": lambda: list(iter_admissible_pairs(5.5)),
    "mcallister_woods_pair": lambda: mcallister_woods_pair(3.0),
    "fib_triangle": lambda: sequences.fib_triangle(2, 3.0),
}


@pytest.mark.parametrize("name", FLOAT_CALLS)
def test_a_float_is_refused_by_every_exact_entry_point(name):
    with pytest.raises(TypeError, match="float"):
        FLOAT_CALLS[name]()


# each row is its FLOAT_CALLS row with True in place of the float
BOOL_CALLS = {
    "to_integers": lambda: arith.to_integers([Fraction(1, 3), True]),
    "QuadNumber": lambda: QuadNumber(1, True, 2),
    "QuadNumber radicand": lambda: QuadNumber(0, 1, True),
    "quad_sqrt": lambda: quad_sqrt(True),
    "fit_quasipolynomial": lambda: fit_quasipolynomial([1, 2, True, 4], 1, 1),
    "guess_recurrence": lambda: guess_recurrence([True] * 12, 1, 0),
    "verify_recurrence": lambda: verify_recurrence(Recurrence(1, 0, ((1,), (-1,))), [1, True]),
    "Quasipolynomial": lambda: Quasipolynomial(1, 1, ((Fraction(1), True),)),
    "Recurrence": lambda: Recurrence(0, 0, ((True,),)),
    "RationalTriangle2D": lambda: RationalTriangle2D(((0, 0), (1, 0), (0, True))),
    "RationalTriangleParams.from_fractions": lambda: RationalTriangleParams.from_fractions(True, 1),
    "scales_to_admissible": lambda: scales_to_admissible(True, 8),
    "series_numerator": lambda: series_numerator(True, 2),
    "count_triangle": lambda: counting.count_triangle(RationalTriangleParams(2, 3, 3, 2), True),
    "count_triangle_many": lambda: counting.count_triangle_many(AdmissiblePair(3, 3), [0, True]),
    "count_triangle_interior": lambda: counting.count_triangle_interior(AdmissiblePair(3, 3), True),
    "count_axis_simplex_many": lambda: counting.count_axis_simplex_many(
        sequences.limit_tetrahedron(), [True]),
    "count_interval": lambda: counting.count_interval(Interval(QuadNumber(0), quad_sqrt(2)), True),
    "closed_form_admissible": lambda: counting.closed_form_admissible(AdmissiblePair(3, 3), True),
    "k_fib": lambda: sequences.k_fib(True, 4),
    "tetra_polynomial": lambda: sequences.tetra_polynomial(True),
    "AdmissiblePair": lambda: AdmissiblePair(True, 5),
    "RationalTriangleParams": lambda: RationalTriangleParams(True, 2, 1, 1),
    "TrianglePair": lambda: TrianglePair(1, True),
    "AxisSimplex": lambda: AxisSimplex((1, True)),
    "Interval": lambda: Interval(0, True),
    "QuadNumber arithmetic": lambda: quad_sqrt(2) + True,
    "fit_quasipolynomial period": lambda: fit_quasipolynomial([1] * 9, True, 2),
    "fit_quasipolynomial degree": lambda: fit_quasipolynomial([1] * 9, 1, True),
    "Quasipolynomial period": lambda: Quasipolynomial(True, 0, [[1]]),
    "Quasipolynomial degree": lambda: Quasipolynomial(1, True, [[1, 2]]),
    "Recurrence order": lambda: Recurrence(True, 0, [[1], [-1]]),
    "Recurrence degree": lambda: Recurrence(0, True, [[1, 2]]),
    "guess_recurrence max_order": lambda: guess_recurrence([1] * 30, True, 0),
    "guess_recurrence max_degree": lambda: guess_recurrence([1] * 30, 0, True),
    "classify_admissible": lambda: criteria.classify_admissible(True, 5),
    "check_reciprocal_criterion": lambda: criteria.check_reciprocal_criterion(True, 2),
    "solve_beta_equation": lambda: criteria.solve_beta_equation(True),
    "a_sequence": lambda: sequences.a_sequence(True),
    "tetra_family": lambda: sequences.tetra_family(True),
    "mcallister_woods_image": lambda: mcallister_woods_image(3, True),
    "Quasipolynomial.evaluate": lambda: Quasipolynomial(1, 0, [[1]]).evaluate(True),
    "QuadNumber.__pow__": lambda: quad_sqrt(2) ** True,
    "fib_gcds": lambda: sequences.fib_gcds(2, True),
    "fib_identity_residual": lambda: sequences.fib_identity_residual(2, True),
    "iter_lowest_term_tuples": lambda: next(iter_lowest_term_tuples(3, 3, True)),
    "iter_admissible_pairs": lambda: list(iter_admissible_pairs(True)),
    "mcallister_woods_pair": lambda: mcallister_woods_pair(True),
    "fib_triangle": lambda: sequences.fib_triangle(2, True),
}


def test_the_bool_and_float_tables_name_the_same_entry_points():
    assert BOOL_CALLS.keys() == FLOAT_CALLS.keys()


@pytest.mark.parametrize("name", BOOL_CALLS)
def test_a_bool_is_refused_by_the_polytope_constructors(name):
    with pytest.raises(TypeError, match="bool"):
        BOOL_CALLS[name]()


rationals = st.fractions(max_denominator=10 ** 6) | st.integers(-(2 ** 70), 2 ** 70)


@st.composite
def rational_tables(draw):
    """A Quasipolynomial or a Recurrence that its constructor accepts, of sizes
    drawn as ints or bools."""
    cls = draw(st.sampled_from([Quasipolynomial, Recurrence]))
    size = draw(st.sampled_from((1, 2, 3, 4, True)))
    degree = draw(st.sampled_from((0, 1, 2, 3, True)))
    rows = size + (cls is Recurrence)
    table = draw(st.lists(st.lists(rationals, min_size=degree + 1, max_size=degree + 1),
                          min_size=rows, max_size=rows))
    try:
        return cls(size, degree, table)
    except (TypeError, ValueError):  # a bool size, or the zero recurrence
        assume(False)


@given(rational_tables())
def test_a_table_reads_back_from_its_json(table):
    text = json.dumps(table.to_json_dict())
    assert type(table).from_json_dict(json.loads(text)) == table


ZERO_DENOMINATOR_READS = {
    "Quasipolynomial": lambda: Quasipolynomial.from_json_dict(
        {"period": 1, "degree": 1, "coeffs": [["1/2", "1/0"]]}),
    "Recurrence": lambda: Recurrence.from_json_dict(
        {"order": 1, "degree": 0, "polys": [["1/0"], ["1/1"]]}),
    "QuadNumber a": lambda: QuadNumber.from_json_dict(
        {"a_num": "1", "a_den": "0", "b_num": "1", "b_den": "1", "d": "2"}),
    "QuadNumber b": lambda: QuadNumber.from_json_dict(
        {"a_num": "1", "a_den": "1", "b_num": "1", "b_den": "0", "d": "2"}),
}


@pytest.mark.parametrize("name", ZERO_DENOMINATOR_READS)
def test_a_zero_denominator_read_back_is_a_value_error(name):
    with pytest.raises(ValueError, match="zero denominator"):
        ZERO_DENOMINATOR_READS[name]()


# each call, its error and the start of its message
REFUSALS = {
    "RationalTriangleParams.from_fractions": (
        lambda: RationalTriangleParams.from_fractions(-1, 1), ValueError, "legs must be positive"),
    "asymptotic_deficit": (
        lambda: counting.asymptotic_deficit(AdmissiblePair(3, 3), 0), ValueError, "need t >= 1"),
    "reciprocity_report": (
        lambda: reciprocity_report(AdmissiblePair(3, 3), 0), ValueError, "need t >= 1"),
    "Quasipolynomial": (lambda: Quasipolynomial(1, -1, [[]]), ValueError, "degree must be >= 0"),
    "count_triangle": (lambda: counting.count_triangle(object(), 1), TypeError,
                       "expected a triangle-like object, got object"),
    "QuadNumber.as_fraction": (lambda: QuadNumber(0, 1, 2).as_fraction(), ValueError,
                               r"0\+1\*sqrt\(2\) is irrational"),
    "QuadNumber.__pow__": (lambda: quad_sqrt(2) ** 0.5, TypeError, "exponent must be an int"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_out_of_range_input_is_refused_by_its_entry_point(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("values, holds", [([], False), ([1, 1], False), ([1, 1, 2], True)])
def test_a_recurrence_holds_only_on_at_least_order_plus_one_values(values, holds):
    fibonacci = Recurrence(2, 0, ((1,), (1,), (-1,)))  # f(n) + f(n+1) - f(n+2) = 0
    assert verify_recurrence(fibonacci, values) is holds


def test_exact_int_takes_only_an_int():
    assert arith.exact_int(3) == 3 and arith.exact_int(-2 ** 70) == -2 ** 70
    for bad in (1.9, 1.0, "1", True, None, Fraction(2)):
        with pytest.raises(TypeError, match="expected int"):
            arith.exact_int(bad)


INEXACT_SIZES = {
    "period 1.9": (Quasipolynomial, {"period": 1.9, "degree": 0, "coeffs": [["1/1"]]}),
    "period '1'": (Quasipolynomial, {"period": "1", "degree": 0, "coeffs": [["1/1"]]}),
    "degree true": (Quasipolynomial, {"period": 1, "degree": True, "coeffs": [["1/1", "1/1"]]}),
    "order '1'": (Recurrence, {"order": "1", "degree": 0, "polys": [["1/1"], ["-1/1"]]}),
    "degree 0.5": (Recurrence, {"order": 1, "degree": 0.5, "polys": [["1/1"], ["-1/1"]]}),
    "order 1.0": (Recurrence, {"order": 1.0, "degree": 0, "polys": [["1/1"], ["-1/1"]]}),
}


@pytest.mark.parametrize("name", INEXACT_SIZES)
def test_a_size_read_back_must_be_a_json_integer(name):
    cls, obj = INEXACT_SIZES[name]
    with pytest.raises(TypeError, match="expected int"):
        cls.from_json_dict(obj)


def test_tables_keep_their_repr_and_fields():
    qp = Quasipolynomial(2, 1, ((1, Fraction(1, 2)), ("3/4", -2)))
    rec = Recurrence(1, 1, ((Fraction(2, 3), 0), (-1, "1/6")))
    assert repr(qp) == ("Quasipolynomial(period=2, degree=1, numerators=((4, 2), (3, -8)),"
                        " denominator=4)")
    assert repr(rec) == ("Recurrence(order=1, degree=1, numerators=((4, 0), (-6, 1)),"
                         " denominator=6)")
    assert qp.FIELDS == ("period", "degree", "numerators", "denominator")
    assert rec.FIELDS == ("order", "degree", "numerators", "denominator")
    assert (qp.period, qp.degree, qp.coeffs, qp.numerators, qp.denominator) == (
        2, 1, ((1, Fraction(1, 2)), (Fraction(3, 4), -2)), ((4, 2), (3, -8)), 4)
    assert (rec.order, rec.degree, rec.polys, rec.numerators, rec.denominator) == (
        1, 1, ((Fraction(2, 3), 0), (-1, Fraction(1, 6))), ((4, 0), (-6, 1)), 6)


@pytest.mark.parametrize("cls, shape, rows", [(Recurrence, (2, 0), [[1], [1], [-1]]),
                                              (Quasipolynomial, (2, 1), [[1, 3], [-2, 5]])])
def test_a_table_of_integers_holds_int_numerators(cls, shape, rows):
    """Built from ints, or read back from their 'n/1' text, a table holds the
    int numerators of the table that _of builds, not Fraction(n, 1)."""
    built = cls(*shape, rows)
    for table in (built, cls.from_json_dict(built.to_json_dict())):
        assert all(type(c) is int for row in table.numerators for c in row)
        assert repr(table) == repr(cls._of(*shape, rows, 1))


# numerators past 2**64 of either sign, and integers, which are written n/1
exact_entries = (st.integers(-2 ** 200, 2 ** 200)
                 | st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 80)))


def _tables(count, width):
    return st.lists(st.lists(exact_entries, min_size=width, max_size=width),
                    min_size=count, max_size=count)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([Quasipolynomial, Recurrence]), st.integers(0, 3), st.integers(0, 3),
       st.data())
def test_coefficient_tables_read_back_exactly(cls, size, degree, data):
    rows = data.draw(_tables(size + 1, degree + 1))
    if cls is Recurrence and not any(c for row in rows for c in row):
        rows[0][0] = 2 ** 65
    shape = (size + 1, degree) if cls is Quasipolynomial else (size, degree)  # period or order
    built = cls(*shape, [[Fraction(c) for c in row] for row in rows])
    assert cls(*shape, [[str(c) for c in row] for row in rows]) == built
    assert cls(*shape, rows) == built
    record = json.loads(json.dumps(built.to_json_dict()))
    table = record["coeffs" if cls is Quasipolynomial else "polys"]
    assert all(re.fullmatch(r"-?\d+/[1-9]\d*", text) for row in table for text in row)
    again = cls.from_json_dict(record)
    assert again == built and hash(again) == hash(built)
    assert all(type(c) is Fraction for row in getattr(again, cls.KEYS[1]) for c in row)
