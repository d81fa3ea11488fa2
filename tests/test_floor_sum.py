"""Floor-sum triangle counts against independent oracles.

At small t the oracles are the brute-force point loops of ``oracles.py``; at
huge t they are exact formulas that share no code with the floor sum: the
admissible closed form, and quasipolynomials fitted at small t (with
Ehrhart-Macdonald reciprocity for interior counts of rational triangles).
"""

from fractions import Fraction
from math import floor, gcd, isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ehrcollapse import counting
from ehrcollapse.arith import QuadNumber
from ehrcollapse.polytopes import (
    AdmissiblePair,
    RationalTriangleParams,
    TrianglePair,
    iter_admissible_pairs,
)
from ehrcollapse.quasipoly import minimal_period


@st.composite
def lowest_term_params(draw, bound=12):
    p, q, r, s = (draw(st.integers(1, bound)) for _ in range(4))
    return RationalTriangleParams(p // gcd(p, q), q // gcd(p, q), r // gcd(r, s), s // gcd(r, s))


radicands = st.one_of(st.integers(2, 200), st.integers(2, 10 ** 12), st.integers(2, 10 ** 30))


@st.composite
def quad_leg(draw, d):
    """A leg a + b*sqrt(d) between about 1/4 and 6, with either sign of b
    (b = 0 when d is a square), or a rational leg."""
    if draw(st.booleans()):
        return QuadNumber(Fraction(draw(st.integers(1, 24)), 4))
    k = draw(st.integers(1, 3)) * draw(st.sampled_from((1, -1)))
    b = Fraction(k, isqrt(d) + draw(st.integers(0, 3)))
    lift = Fraction(draw(st.integers(1, 8)), 4)
    surd = QuadNumber(Fraction(0), b, d)
    a = lift if k > 0 else floor(-surd) + 1 + lift
    return QuadNumber(Fraction(a), b, d)


def _triple(x: QuadNumber) -> tuple[int, int, int]:
    c = x.a.denominator * x.b.denominator
    return int(x.a * c), int(x.b * c), c


@settings(max_examples=60, deadline=None)
@given(lowest_term_params(), st.integers(0, 40))
def test_rational_counts_match_range_oracle(params, t_max):
    want = oracles.count_triangle_rational_range(params.p, params.q, params.r, params.s, t_max)
    assert counting.count_triangle_many(params, range(t_max + 1)) == want


@settings(max_examples=60, deadline=None)
@given(lowest_term_params(), st.integers(0, 30))
def test_rational_interior_matches_strict_oracle(params, t):
    want = oracles.count_triangle_rational(params.p, params.q, params.r, params.s, t, strict=True)
    assert counting.count_triangle_interior(params, t) == want


@settings(max_examples=40, deadline=None)
@given(st.data(), radicands)
def test_quadratic_counts_match_point_oracle(data, d):
    u, v = data.draw(quad_leg(d)), data.draw(quad_leg(d))
    pair = TrianglePair(u, v)
    dd = u.d or v.d
    ts = range(13)
    assert counting.count_triangle_many(pair, ts) == [
        oracles.count_triangle_quad(_triple(u), _triple(v), dd, t) for t in ts]
    assert [counting.count_triangle_interior(pair, t) for t in ts] == [
        oracles.count_triangle_quad(_triple(u), _triple(v), dd, t, strict=True) for t in ts]


@settings(max_examples=25, deadline=None)
@given(st.data(), st.integers(1, 200), st.sampled_from(((1000003, 1000033), (1000033, 10 ** 9 + 7))))
def test_square_factor_past_the_trial_bound_counts_as_squarefree(data, k, primes):
    """Legs over p*p*n, with n = k*q and primes p, q past the trial-division
    bound, keep the square factor p*p; they count as the same legs over n."""
    p, q = primes
    u, v = data.draw(quad_leg(k * q)), data.draw(quad_leg(k * q))
    wide_u, wide_v = (QuadNumber(x.a, x.b / p, p * p * x.d) if x.d else x for x in (u, v))
    assert (wide_u.d, wide_v.d) == (p * p * u.d, p * p * v.d)
    ts = range(13)
    want = counting.count_triangle_many(TrianglePair(u, v), ts)
    want_interior = [counting.count_triangle_interior(TrianglePair(u, v), t) for t in ts]
    for pair in (TrianglePair(wide_u, wide_v), TrianglePair(wide_u, v), TrianglePair(u, wide_v)):
        assert counting.count_triangle_many(pair, ts) == want
        assert [counting.count_triangle_interior(pair, t) for t in ts] == want_interior


def test_admissible_interior_matches_strict_oracle():
    for alpha, beta in ((3, 3), (2, 4), (1, 5), (3, 5), (4, 5), (7, 2)):
        pair = AdmissiblePair(alpha, beta)
        for t in range(0, 25):
            assert (counting.count_triangle_interior(pair, t)
                    == oracles.count_triangle_admissible(alpha, beta, t, strict=True))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(iter_admissible_pairs(12))), st.integers(10 ** 15, 10 ** 40))
def test_admissible_counts_match_closed_form_at_huge_t(pair, t):
    for s in (t, t + 1, t - t % pair.alpha):
        assert counting.count_triangle(pair, s) == counting.closed_form_admissible(pair, s)


@settings(max_examples=30, deadline=None)
@given(lowest_term_params(bound=8), st.integers(10 ** 15, 10 ** 40))
def test_rational_counts_match_fitted_quasipolynomial_at_huge_t(params, t):
    qp, _ = minimal_period(params)
    assert counting.count_triangle(params, t) == qp.evaluate(t)
    # the open triangle's count is the quasipolynomial at -t (reciprocity)
    assert counting.count_triangle_interior(params, t) == qp.evaluate(-t)


def test_counting_handles_legs_past_int64():
    huge = 1 << 40
    pair = TrianglePair(QuadNumber(Fraction(huge)), QuadNumber(Fraction(1, huge)))
    t = huge + 1
    # columns x = 0 and x = 1 only: floor(t*huge) + 1 + floor((t - huge)*huge) + 1
    assert counting.count_triangle(pair, t) == t * huge + 1 + (t - huge) * huge + 1


def test_isqrt_floor_is_exact_at_scale():
    # a leg longer than every t leaves the single column x = 0, which holds
    # floor(t*sqrt(2)) + 1 points for v = 1/sqrt(2)
    ts = [k + e for k in (10 ** 6, 10 ** 9, (1 << 30) - 5) for e in (-1, 0, 1)]
    pair = TrianglePair(QuadNumber(Fraction(1 << 31)), QuadNumber(Fraction(0), Fraction(1, 2), 2))
    assert counting.count_triangle_many(pair, ts) == [isqrt(2 * t * t) + 1 for t in ts]
