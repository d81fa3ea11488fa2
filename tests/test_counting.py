"""Lattice-point counters vs independent oracles and frozen known values."""

import time
import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from ehrcollapse import counting
from ehrcollapse.arith import (EhrcollapseError, QuadNumber, RadicandMismatchError, parse_quad,
                              quad_sqrt)
from ehrcollapse.polytopes import (
    AdmissiblePair,
    AxisSimplex,
    Interval,
    RationalTriangle2D,
    RationalTriangleParams,
    TrianglePair,
    iter_admissible_pairs,
    mcallister_woods_image,
    mcallister_woods_pair,
)
from ehrcollapse.quasipoly import minimal_period

GOLDEN = AdmissiblePair(3, 3)
SQUARE = AdmissiblePair(2, 4)
SQRT2_PAIR = TrianglePair(QuadNumber(Fraction(1)), quad_sqrt(2))


# -- frozen values -------------------------------------------------------------


def test_golden_counts_are_triangle_numbers():
    counts = counting.count_triangle_many(GOLDEN, range(11))
    assert counts == [(t + 1) * (t + 2) // 2 for t in range(11)]


def test_square_pair_counts():
    counts = counting.count_triangle_many(SQUARE, range(11))
    assert counts == [(t + 1) ** 2 for t in range(11)]


def test_sqrt2_pair_counts():
    counts = counting.count_triangle_many(SQRT2_PAIR, range(11))
    assert counts == [1, 2, 4, 7, 10, 14, 19, 24, 30, 37, 45]


def test_fibonacci_pair_counts():
    params = RationalTriangleParams(2, 3, 3, 2)
    assert counting.count_triangle_many(params, range(7)) == [1, 2, 5, 9, 13, 19, 26]


def test_unit_triangle_and_integral_cases():
    unit = RationalTriangleParams(1, 1, 1, 1)
    assert counting.count_triangle(unit, 0) == 1
    assert counting.count_triangle(unit, 10) == 66


def test_explicit_triangle2d():
    tri = RationalTriangle2D((
        (Fraction(0), Fraction(0)),
        (Fraction(2), Fraction(0)),
        (Fraction(1), Fraction(1, 2)),
    ))
    assert counting.count_rational_triangle2d(tri) == 3


def test_mw_image_matches_axis_triangle():
    for p in (2, 3, 5):
        params = mcallister_woods_pair(p)
        for t in range(1, 13):
            image = mcallister_woods_image(p, t)
            assert (counting.count_rational_triangle2d(image)
                    == counting.count_triangle(params, t))
    # the p = 2 image at t = 2 in particular
    assert counting.count_rational_triangle2d(mcallister_woods_image(2, 2)) == 6


def test_interval_with_integer_span():
    iv = Interval(quad_sqrt(2), 3 + quad_sqrt(2))
    for t in (1, 2, 3, 10, 250):
        assert counting.count_interval(iv, t) == 3 * t
    rational_iv = Interval(QuadNumber(Fraction(1, 2)), QuadNumber(Fraction(5, 2)))
    assert counting.count_interval(rational_iv, 1) == 2  # {1, 2}
    assert counting.count_interval(rational_iv, 2) == 5  # {1..5}


def test_interior_counts():
    assert counting.count_triangle_interior(GOLDEN, 1) == 0
    assert counting.count_triangle_interior(GOLDEN, 3) == 0
    # reciprocity for the golden triangle: 10 points at -6, one unit correction
    assert counting.count_triangle_interior(GOLDEN, 6) == 9
    unit = RationalTriangleParams(1, 1, 1, 1)
    assert counting.count_triangle_interior(unit, 3) == 1  # only (1, 1)


# -- oracle agreement -----------------------------------------------------------


def test_rational_counts_match_bruteforce():
    for p in range(1, 4):
        for q in range(1, 5):
            for r in range(1, 4):
                for s in range(1, 5):
                    try:
                        params = RationalTriangleParams(p, q, r, s)
                    except ValueError:
                        continue
                    for t in (0, 1, 2, 3, 7, 12):
                        assert (counting.count_triangle(params, t)
                                == oracles.count_triangle_rational(p, q, r, s, t))


def test_admissible_counts_match_integer_decision_oracle():
    for pair in iter_admissible_pairs(24):
        for t in range(0, 25, 3):
            assert (counting.count_triangle(pair, t)
                    == oracles.count_triangle_admissible(pair.alpha, pair.beta, t))


def test_simplex_counts_match_bruteforce():
    legs = [Fraction(1, 2), Fraction(10, 3), Fraction(3, 5)]
    simplex = AxisSimplex(tuple(QuadNumber(leg) for leg in legs))
    for t in range(9):
        assert (counting.count_axis_simplex(simplex, t)
                == oracles.count_simplex_rational(legs, t))
    pair_2d = AxisSimplex((QuadNumber(Fraction(2, 3)), QuadNumber(Fraction(5, 7))))
    for t in range(12):
        assert (counting.count_axis_simplex(pair_2d, t)
                == oracles.count_simplex_rational([Fraction(2, 3), Fraction(5, 7)], t))


def _reciprocal(leg: tuple[int, int, int], d: int) -> tuple[int, int, int]:
    # c / (a + b sqrt(d)) = c (a - b sqrt(d)) / (a^2 - b^2 d)
    a, b, c = leg
    norm = a * a - b * b * d
    return (c * a, -c * b, norm) if norm > 0 else (-c * a, c * b, -norm)


SIMPLEX_LEG_SETS = [  # (legs as (a, b, c) = (a + b sqrt(d)) / c, d)
    ([(1, 0, 2), (10, 0, 3), (3, 0, 5)], 0),
    ([(0, 1, 1), (1, 0, 1), (1, 0, 2)], 2),
    ([(1, 1, 1), (2, 0, 3), (0, 1, 2)], 2),
    ([(0, 1, 1), (1, 0, 2), (0, 1, 1)], 3),
    ([(1, 1, 2), (3, 0, 2), (0, 1, 3)], 3),
]


def test_simplex_counts_do_not_depend_on_leg_order():
    for legs, d in SIMPLEX_LEG_SETS:
        want = oracles.count_simplex_quad_range([_reciprocal(leg, d) for leg in legs], d, 30)
        quads = [QuadNumber(Fraction(a, c), Fraction(b, c), d) for a, b, c in legs]
        for perm in permutations(quads):
            simplex = AxisSimplex(perm)
            assert [counting.count_axis_simplex(simplex, t) for t in range(31)] == want


def test_simplex_legs_from_two_fields_are_rejected():
    # rejected when built, before any count, even one at t = 0 that needs no step
    for legs in ((quad_sqrt(2), quad_sqrt(3), QuadNumber(Fraction(1))),
                 (quad_sqrt(2), quad_sqrt(3)),
                 (QuadNumber(Fraction(1)), quad_sqrt(8), quad_sqrt(3))):
        with pytest.raises(RadicandMismatchError):
            AxisSimplex(legs)
    # sqrt(8) = 2*sqrt(2) shares the field of sqrt(2)
    simplex = AxisSimplex((quad_sqrt(2), quad_sqrt(8), QuadNumber(Fraction(1))))
    assert counting.count_axis_simplex(simplex, 0) == 1


def test_simplex_quad_oracle_matches_rational_oracle():
    legs = [Fraction(1, 2), Fraction(10, 3), Fraction(3, 5)]
    recips = [(leg.denominator, 0, leg.numerator) for leg in legs]
    assert (oracles.count_simplex_quad_range(recips, 0, 8)
            == [oracles.count_simplex_rational(legs, t) for t in range(9)])


def test_irrational_interval_matches_oracle():
    iv = Interval(QuadNumber(Fraction(1, 3), Fraction(1), 5),
                  QuadNumber(Fraction(9, 2), Fraction(1, 2), 5))
    for t in range(13):
        assert (counting.count_interval(iv, t)
                == oracles.count_interval_quad((1, 3, 3), (9, 1, 2), 5, t))


def test_simplex_slices_sum_to_triangle():
    # 3-dim count decomposes into 2-dim counts over the first coordinate
    legs = (QuadNumber(Fraction(1, 2)), QuadNumber(Fraction(10, 3)),
            QuadNumber(Fraction(3, 5)))
    simplex = AxisSimplex(legs)
    tail = AxisSimplex(legs[1:])
    for t in range(11):
        direct = counting.count_axis_simplex(simplex, t)
        sliced = sum(counting.count_axis_simplex(tail, t - 2 * x)
                     for x in range(t // 2 + 1))
        assert direct == sliced


def test_simplex_with_many_equal_legs_merges_right_hand_sides():
    # 200 legs of 1 at t = 2 leave three distinct right-hand sides, each
    # counted once: C(202, 2) points, in well under a second
    start = time.perf_counter()
    assert counting.count_axis_simplex(AxisSimplex((QuadNumber(1),) * 200), 2) == 20301
    assert time.perf_counter() - start < 1


coords = st.fractions(-12, 12, max_denominator=6)


@st.composite
def rational_triangles(draw):
    """Three vertices in [-12, 12] with denominators <= 6.  Some triangles
    have a vertical or a horizontal edge, or both, and some lie between two
    integer columns."""
    (x0, y0), (x1, y1), (x2, y2) = ((draw(coords), draw(coords)) for _ in range(3))
    shape = draw(st.sampled_from(("any", "vertical", "horizontal", "right", "no-column")))
    if shape in ("vertical", "right"):
        x1 = x0
    if shape in ("horizontal", "right"):
        y2 = y0
    if shape == "no-column":
        base = draw(st.integers(-12, 11))
        x0, x1, x2 = (base + Fraction(draw(st.integers(1, 5)), 6) for _ in range(3))
    vertices = ((x0, y0), (x1, y1), (x2, y2))
    assume((x1 - x0) * (y2 - y0) != (x2 - x0) * (y1 - y0))
    return vertices


@settings(max_examples=200, deadline=None)
@given(rational_triangles())
def test_rational_triangle_counts_match_membership_oracle(vertices):
    want = oracles.count_triangle2d(vertices)
    for perm in permutations(vertices):
        assert counting.count_rational_triangle2d(RationalTriangle2D(perm)) == want


@settings(max_examples=50)
@given(coords, coords, coords, coords, st.fractions(-3, 3, max_denominator=4))
def test_degenerate_triangles_are_rejected(ax, ay, bx, by, lam):
    c = (ax + lam * (bx - ax), ay + lam * (by - ay))
    with pytest.raises(ValueError, match="degenerate"):
        RationalTriangle2D(((ax, ay), (bx, by), c))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 15), st.integers(1, 10 ** 15))
def test_mw_image_matches_axis_triangle_at_huge_t(p, t):
    params = mcallister_woods_pair(p)
    qp, _ = minimal_period(params)  # period 1: one polynomial, exact at every t
    image = counting.count_rational_triangle2d(mcallister_woods_image(p, t))
    assert image == counting.count_triangle(params, t) == qp.evaluate(t)


# -- closed form ------------------------------------------------------------------


def test_closed_form_matches_counts():
    # per-t floor sums: a run of an admissible pair is the closed form's own
    # recursion L(t) = L(t - alpha) + beta*t, so it would check nothing
    for pair in iter_admissible_pairs(24):
        for t in range(3 * pair.alpha + 1):
            value = counting.closed_form_admissible(pair, t)
            assert value.denominator == 1 and value == counting.count_triangle(pair, t)


def test_closed_form_negative_arguments():
    # residue-representative convention: z stays in [0, alpha)
    assert counting.closed_form_admissible(GOLDEN, -1) == 0
    assert counting.closed_form_admissible(GOLDEN, -3) == 1
    assert counting.closed_form_admissible(SQUARE, -2) == 1


# -- bulk API and validation --------------------------------------------------------


def test_count_many_matches_single():
    ts = [0, 5, 3, 11]
    many = counting.count_triangle_many(GOLDEN, ts)
    assert many == [counting.count_triangle(GOLDEN, t) for t in ts]


def test_negative_dilation_rejected():
    with pytest.raises(ValueError):
        counting.count_triangle(GOLDEN, -1)
    with pytest.raises(ValueError):
        counting.count_axis_simplex(AxisSimplex((QuadNumber(Fraction(1)),)), -2)


def test_a_dilation_is_an_int_that_is_not_a_bool_and_not_negative():
    simplex = AxisSimplex((QuadNumber(Fraction(1, 2)), QuadNumber(Fraction(3))))
    iv = Interval(QuadNumber(0), QuadNumber(Fraction(3, 2)))
    for bad in (True, Fraction(3)):
        for call in (lambda: counting.count_triangle_many(GOLDEN, [bad]),
                     lambda: counting.count_axis_simplex_many(simplex, [2, bad]),
                     lambda: counting.count_triangle_interior(GOLDEN, bad),
                     lambda: counting.count_interval(iv, bad),
                     lambda: counting.closed_form_admissible(GOLDEN, bad)):
            with pytest.raises(TypeError, match="expected int"):
                call()
    for call in (lambda: counting.count_triangle_many(GOLDEN, [3, -1, 2]),
                 lambda: counting.count_axis_simplex_many(simplex, [0, -1]),
                 lambda: counting.count_interval(iv, -1)):
        with pytest.raises(ValueError, match="dilation factors must be >= 0"):
            call()


def test_the_dilation_gate_holds_a_batch_of_the_limit_and_refuses_one_more(monkeypatch):
    simplex = AxisSimplex(tuple(QuadNumber(Fraction(leg)) for leg in ("1/2", "10/3", "3/5")))
    calls = ((counting.count_triangle_many, GOLDEN), (counting.count_axis_simplex_many, simplex))
    batches = (range(5), [4, 0, 3, 1, 2])
    want = [count(obj, ts) for ts in batches for count, obj in calls]
    monkeypatch.setattr(counting, "MAX_CERTIFICATE_COUNTS", 5)
    assert [count(obj, ts) for ts in batches for count, obj in calls] == want

    def no_count(*args):
        raise AssertionError("counted past the limit")

    monkeypatch.setattr(counting, "_count_below", no_count)
    monkeypatch.setattr(counting, "floor_surd", no_count)
    for ts in (range(6), [5, 0, 4, 1, 3, 2], range(10, 22, 2)):
        for count, obj in calls:
            with pytest.raises(EhrcollapseError,
                               match="^6 counts held at once are more than the limit of 5$"):
                count(obj, ts)
    for count, obj in calls:  # a range too long for len()
        with pytest.raises(EhrcollapseError, match=f"^{10 ** 30} counts held at once"):
            count(obj, range(10 ** 30))


def test_a_stepped_range_is_sized_before_it_is_listed(monkeypatch):
    simplex = AxisSimplex(tuple(QuadNumber(Fraction(leg)) for leg in ("1/2", "10/3", "3/5")))
    calls = ((counting.count_triangle_many, GOLDEN), (counting.count_axis_simplex_many, simplex))
    want = [[count(obj, [t])[0] for t in range(0, 10, 2)] for count, obj in calls]
    limit = counting.MAX_CERTIFICATE_COUNTS
    monkeypatch.setattr(counting, "MAX_CERTIFICATE_COUNTS", 5)
    assert [count(obj, range(0, 10, 2)) for count, obj in calls] == want

    def no_list(t):
        raise AssertionError("listed a range past the limit")

    monkeypatch.setattr(counting, "exact_int", no_list)
    for count, obj in calls:
        with pytest.raises(EhrcollapseError,
                           match="^6 counts held at once are more than the limit of 5$"):
            count(obj, range(0, 12, 2))
    monkeypatch.setattr(counting, "MAX_CERTIFICATE_COUNTS", limit)
    for count, obj in calls:  # 10^30 / 7 t, rounded up, past 2^63
        with pytest.raises(EhrcollapseError,
                           match=f"^{-(-10 ** 30 // 7)} counts held at once"):
            count(obj, range(10 ** 30, 0, -7))


def test_a_batch_of_per_t_floor_sums_holds_only_its_counts():
    # the rational leg has r = 9 floors per t, more than a strip takes: no identity
    pair = TrianglePair(parse_quad("0,1,1000000007"), Fraction(1, 9))
    assert pair.translate is None
    tracemalloc.start()
    try:
        counts = counting.count_triangle_many(pair, range(20000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 20000 counts take about 0.8 MB; a list of every t beside them would pass 1.5 MB
    assert len(counts) == 20000 and peak < 1.5e6


def test_asymptotic_deficit_shrinks():
    coarse = counting.asymptotic_deficit(SQRT2_PAIR, 100)
    fine = counting.asymptotic_deficit(SQRT2_PAIR, 10_000)
    assert 0 <= fine < coarse < 1
