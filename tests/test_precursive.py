"""Recurrence guessing: exact fits, verification, and deterministic absence."""

import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ehrcollapse import counting, precursive
from ehrcollapse.arith import QuadNumber
from ehrcollapse.polytopes import AdmissiblePair, RationalTriangleParams, TrianglePair
from ehrcollapse.precursive import (
    InsufficientDataError,
    Recurrence,
    guess_recurrence,
    recurrence_from_quasipolynomial_bounds,
    verify_recurrence,
)

TRIANGLE_NUMBERS = [(n + 1) * (n + 2) // 2 for n in range(61)]


def _shift_minus_one_cubed():
    # (S - 1)^3: constant coefficients 1, -3, 3, -1
    return Recurrence(3, 0, ((Fraction(-1),), (Fraction(3),),
                             (Fraction(-3),), (Fraction(1),)))


# -- Recurrence objects -----------------------------------------------------------


def test_recurrence_validation():
    with pytest.raises(ValueError):
        Recurrence(1, 0, ((Fraction(0),), (Fraction(0),)))
    with pytest.raises(ValueError):
        Recurrence(2, 0, ((Fraction(1),), (Fraction(1),)))  # needs order+1 rows


def test_recurrence_json_round_trip():
    rec = Recurrence(1, 1, ((Fraction(3), Fraction(1)), (Fraction(0), Fraction(-1))))
    assert Recurrence.from_json_dict(rec.to_json_dict()) == rec


# -- verify -----------------------------------------------------------------------


def test_verify_third_difference_annihilates_quadratic():
    assert verify_recurrence(_shift_minus_one_cubed(), TRIANGLE_NUMBERS)


def test_verify_second_difference_does_not():
    rec = Recurrence(2, 0, ((Fraction(1),), (Fraction(-2),), (Fraction(1),)))
    assert not verify_recurrence(rec, TRIANGLE_NUMBERS)


def test_verify_accepts_rational_coefficients_and_values():
    # half of (n+3) f(n) - (n+1) f(n+1) = 0, read back from JSON, on the
    # triangle numbers and on the triangle numbers over 7
    rec = Recurrence.from_json_dict(
        {"order": 1, "degree": 1, "polys": [["3/2", "1/2"], ["0/1", "-1/2"]]})
    assert rec.polys[0] == (Fraction(3, 2), Fraction(1, 2))
    sevenths = [Fraction(v, 7) for v in TRIANGLE_NUMBERS]
    assert verify_recurrence(rec, TRIANGLE_NUMBERS)
    assert verify_recurrence(rec, sevenths)
    off = Recurrence.from_json_dict(
        {"order": 1, "degree": 1, "polys": [["3/2", "1/3"], ["0/1", "-1/2"]]})
    assert not verify_recurrence(off, TRIANGLE_NUMBERS)
    assert not verify_recurrence(off, sevenths)
    # f(n) - f(n+1)/2 = 0: the two polynomials have different denominators
    halving = Recurrence.from_json_dict({"order": 1, "degree": 0, "polys": [["1/1"], ["-1/2"]]})
    powers = [Fraction(2 ** n, 3) for n in range(20)]
    assert verify_recurrence(halving, powers)
    assert not verify_recurrence(halving, powers[:-1] + [powers[-1] + 1])


def test_verify_reads_the_last_window():
    bumped = TRIANGLE_NUMBERS[:-1] + [TRIANGLE_NUMBERS[-1] + 1]
    assert not verify_recurrence(_shift_minus_one_cubed(), bumped)


def test_verify_shifted_coefficient_convention():
    # (n+3) f(n) - (n+1) f(n+1) = 0 for triangle numbers; p_1 is evaluated at
    # its own index, so p_1(m) = -m
    rec = Recurrence(1, 1, ((Fraction(3), Fraction(1)), (Fraction(0), Fraction(-1))))
    assert verify_recurrence(rec, TRIANGLE_NUMBERS)


@st.composite
def tables_on_values(draw):
    """An integer table of order <= 3 and degree <= 2, and integer values: ones
    that follow it (its last row is a constant 1 or -1) with perhaps one bumped
    window that they then follow again, or random ones."""
    k, d = draw(st.integers(0, 3)), draw(st.integers(0, 2))
    table = [[draw(st.integers(-3, 3)) for _ in range(d + 1)] for _ in range(k)]
    table.append([draw(st.sampled_from((1, -1)))] + [0] * d)
    n_values = k + draw(st.integers(0, 30))
    if draw(st.booleans()):
        return table, draw(st.lists(st.integers(-3, 3), min_size=n_values, max_size=n_values))
    bumped = draw(st.integers(-1, n_values)) + k  # the value the bumped window ends at
    values = draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k))
    while len(values) < n_values:
        n = len(values) - k
        acc = sum(sum(c * (n + j) ** i for i, c in enumerate(row)) * values[n + j]
                  for j, row in enumerate(table[:-1]))
        values.append(-acc * table[-1][0] + (len(values) == bumped))
    return table, values


@settings(max_examples=300, deadline=None)
@given(tables_on_values(), st.integers(1, 7))
def test_holds_matches_the_window_oracle_at_any_run_length(case, run):
    table, values = case
    with mock.patch.object(precursive, "RUN", run):
        assert precursive._holds(table, values) == oracles.recurrence_holds(table, values)


def _fibonacci_broken_at(length, window):
    """F(n+2) = F(n+1) + F(n) at every window n but one."""
    f = [1, 1]
    while len(f) < length:
        f.append(f[-1] + f[-2] + (len(f) == window + 2))
    return f


@pytest.mark.parametrize("run", range(1, 8))
def test_holds_reads_the_last_window_of_each_run(run):
    table = [[1], [1], [-1]]
    for length in (2 * run + 2, 3 * run + 3):
        windows = length - 2
        assert precursive._holds(table, _fibonacci_broken_at(length, -1))
        for window in (run - 1, 2 * run - 1, windows - 1):
            values = _fibonacci_broken_at(length, window)
            assert not oracles.recurrence_holds(table, values)
            with mock.patch.object(precursive, "RUN", run):
                assert not precursive._holds(table, values), (run, length, window)


def test_holds_keeps_one_run_of_window_sums():
    counts = counting.count_triangle_many(AdmissiblePair(3, 3), range(200001))
    tracemalloc.start()
    try:
        assert precursive._holds([[-1], [3], [-3], [1]], counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


# -- guess ------------------------------------------------------------------------


def test_guess_triangle_numbers():
    rec = guess_recurrence(TRIANGLE_NUMBERS, 4, 2)
    assert rec is not None and rec.order <= 3
    assert verify_recurrence(rec, TRIANGLE_NUMBERS)


def test_guess_golden_counts():
    counts = counting.count_triangle_many(AdmissiblePair(3, 3), range(61))
    rec = guess_recurrence(counts, 3, 0)
    assert rec is not None
    assert rec.polys == ((Fraction(1),), (Fraction(-3),),
                         (Fraction(3),), (Fraction(-1),))


def test_guess_is_deterministic():
    first = guess_recurrence(TRIANGLE_NUMBERS, 4, 2)
    second = guess_recurrence(list(TRIANGLE_NUMBERS), 4, 2)
    assert first == second


def test_guess_requires_enough_values():
    with pytest.raises(InsufficientDataError):
        guess_recurrence(TRIANGLE_NUMBERS[:20], 4, 2)


def test_quasipolynomial_bounds_yield_recurrences():
    cases = [
        (RationalTriangleParams(2, 3, 3, 2), 3, 2),
        (RationalTriangleParams(1, 2, 2, 1), 1, 2),
    ]
    for params, period, degree in cases:
        order, deg = recurrence_from_quasipolynomial_bounds(period, degree)
        assert (order, deg) == (period * (degree + 1), 0)
        n_values = 2 * (order + 1) + order + 10
        counts = counting.count_triangle_many(params, range(n_values))
        rec = guess_recurrence(counts, order, deg)
        assert rec is not None and rec.order <= order and rec.degree == 0
        assert verify_recurrence(rec, counts)


def test_non_quasipolynomial_counts_have_no_recurrence_in_bounds():
    # leg sum 2, reciprocal-leg sum 5/2: no integer scaling is admissible,
    # and no recurrence exists within any bounds with (k+1)(d+1) <= 25
    u = QuadNumber(Fraction(1), Fraction(1, 5), 5)
    v = QuadNumber(Fraction(1), Fraction(-1, 5), 5)
    assert u + v == 2 and 1 / u + 1 / v == Fraction(5, 2)
    counts = counting.count_triangle_many(TrianglePair(u, v), range(401))
    frontier = [(24, 0), (11, 1), (7, 2), (5, 3), (4, 4),
                (3, 5), (2, 7), (1, 11), (0, 24)]
    for max_order, max_degree in frontier:
        assert (max_order + 1) * (max_degree + 1) <= 25
        assert guess_recurrence(counts, max_order, max_degree) is None


@pytest.fixture
def exact_passes(monkeypatch):
    """The column counts of the calls of the exact nullspace, in order."""
    calls, exact = [], precursive.nullspace_vector

    def counted(rows, ncols):
        calls.append(ncols)
        return exact(rows, ncols)

    monkeypatch.setattr(precursive, "nullspace_vector", counted)
    return calls


def test_a_recurrence_that_breaks_early_costs_no_exact_pass(exact_passes):
    # Fibonacci numbers, or zeros, on the first 200 values and random ints
    # after: the first shared rows satisfy F(n+2) = F(n+1) + F(n), but the
    # last ones show the break, so every cell is skipped without a nullspace
    rng = random.Random(1)
    fib = [1, 1]
    while len(fib) < 200:
        fib.append(fib[-1] + fib[-2])
    tail = [rng.randint(-9, 9) for _ in range(400)]
    for head in (fib, [0] * 200):
        assert guess_recurrence(head + tail, 9, 1) is None
    assert exact_passes == []


def _enough(max_order, max_degree):
    return 2 * (max_order + 1) * (max_degree + 1) + max_order + 13


def _seeded_values():
    """(values, max order, max degree): f(n+2) = 2f(n+1) + 3f(n), the harmonic
    sums of 2/(k+3) and 3 * 2^n * n!, each at bounds with room to spare."""
    linear = [Fraction(1), Fraction(4)]
    while len(linear) < _enough(3, 1):
        linear.append(2 * linear[-1] + 3 * linear[-2])
    harmonic = [sum(Fraction(2, k + 3) for k in range(n + 1)) for n in range(_enough(2, 1))]
    factorial = [Fraction(3)]
    while len(factorial) < _enough(2, 2):
        factorial.append(factorial[-1] * 2 * len(factorial))
    return [(linear, 3, 1), (harmonic, 2, 1), (factorial, 2, 2)]


def test_recurrences_found_from_the_seed_cost_no_exact_pass(exact_passes):
    # the column that first reduces to 0 mod P gives the recurrence itself, so
    # admissible counts and seeded sequences never reach the exact nullspace
    cases = [(counting.count_triangle_many(AdmissiblePair(alpha, beta), range(_enough(k, d))), k, d)
             for alpha, beta in ((2, 3), (2, 4), (3, 2), (3, 4))
             for k, d in ((9, 0), (9, 1), (6, 1))]
    for values, max_order, max_degree in cases + _seeded_values():
        rec = guess_recurrence(values, max_order, max_degree)
        assert rec is not None and verify_recurrence(rec, values)
    assert exact_passes == []


P = precursive.P


@pytest.mark.parametrize("values, max_order, max_degree, want", [
    # every column is 0 mod P, so the first seed is (1) and does not hold
    ([P * (n + 1) for n in range(6)], 1, 0, None),
    ([P * (n + 1) for n in range(9)], 2, 0, [["1/1"], ["-2/1"], ["1/1"]]),
    ([P * (n + 1) for n in range(10)], 1, 1, [["2/1", "1/1"], ["0/1", "-1/1"]]),
    ([P * (n + 1) for n in range(52)], 3, 2, [["2/1", "1/1"], ["0/1", "-1/1"]]),
    # the ratio 2^40 + 1 is past the bound of the rational reconstruction
    ([(2 ** 40 + 1) ** n for n in range(8)], 1, 0, [["1099511627777/1"], ["-1/1"]]),
])
def test_a_seed_that_fails_falls_back_to_the_exact_pass(exact_passes, values, max_order,
                                                        max_degree, want):
    rec = guess_recurrence(values, max_order, max_degree)
    assert (rec and rec.to_json_dict()["polys"]) == want
    assert (rec and (rec.order, rec.degree, rec.polys)) == \
        oracles.guess_recurrence_unfiltered(values, max_order, max_degree)
    assert exact_passes


# -- planted recurrences with rational values ---------------------------------------


def _planted_values(draw, k, d, n_values):
    """Values of sum_j p_j(n+j) f(n+j) = 0, j = 0..k, with integer p_j of
    degree <= d, p_k(m) > 0 for m >= 0, and rational start values."""
    coeff = st.integers(-4, 4)
    polys = [[draw(coeff) for _ in range(d + 1)] for _ in range(k)]
    polys.append([draw(st.integers(1, 4))] + [draw(st.integers(0, 3)) for _ in range(d)])
    fracs = st.fractions(min_value=-5, max_value=5, max_denominator=9)
    values = [draw(fracs) for _ in range(k)]

    def p(j, m):
        return sum(c * m ** i for i, c in enumerate(polys[j]))

    while len(values) < n_values:
        n = len(values) - k
        acc = sum(p(j, n + j) * values[n + j] for j in range(k))
        values.append(-acc / p(k, n + k))
    return values


@st.composite
def planted(draw):
    """Values of a planted recurrence of order k and degree d; returns the
    values, k and d."""
    k, d = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    n_values = 2 * (k + 1) * (d + 1) + k + 1 + draw(st.integers(0, 6))
    return _planted_values(draw, k, d, n_values), k, d


@settings(max_examples=80, deadline=None)
@given(planted())
def test_guess_finds_planted_rational_recurrences(case):
    values, k, d = case
    rec = guess_recurrence(values, k, d)
    assert rec is not None
    assert (rec.order, rec.degree) <= (k, d)
    assert verify_recurrence(rec, values)
    assert all(c.denominator == 1 for row in rec.polys for c in row)
    assert (rec.order, rec.degree, rec.polys) == oracles.guess_recurrence_unfiltered(values, k, d)


@st.composite
def sequences_in_bounds(draw):
    """Bounds (order <= 5, degree <= 2) and enough values for them: random
    small ints, a planted recurrence with constant or polynomial coefficients,
    or a planted recurrence whose values are replaced by random ints from some
    index on, so that it holds only on a prefix."""
    max_order, max_degree = draw(st.integers(0, 5)), draw(st.integers(0, 2))
    n_values = 2 * (max_order + 1) * (max_degree + 1) + max_order + 1 + draw(st.integers(0, 8))
    kind = draw(st.sampled_from(("random", "constant", "polynomial", "prefix")))
    if kind == "random":
        return draw(st.lists(st.integers(-3, 3), min_size=n_values, max_size=n_values)), \
            max_order, max_degree
    k = draw(st.integers(1, max(1, max_order)))
    d = 0 if kind == "constant" else draw(st.integers(0, max_degree))
    values = _planted_values(draw, k, d, n_values)
    if kind == "prefix":
        cut = draw(st.integers(k + 1, n_values - 1))
        values[cut:] = draw(st.lists(st.integers(-3, 3), min_size=n_values - cut,
                                     max_size=n_values - cut))
    return values, max_order, max_degree


@settings(max_examples=200, deadline=None)
@given(sequences_in_bounds())
def test_guess_matches_the_unfiltered_oracle(case):
    values, max_order, max_degree = case
    rec = guess_recurrence(values, max_order, max_degree)
    want = oracles.guess_recurrence_unfiltered(values, max_order, max_degree)
    assert (rec and (rec.order, rec.degree, rec.polys)) == want


@settings(max_examples=100, deadline=None)
@given(sequences_in_bounds())
def test_guess_without_any_seed_matches_the_unfiltered_oracle(case):
    # no entry reconstructs, so every dependent column takes the exact pass
    values, max_order, max_degree = case
    with mock.patch.object(precursive, "_rational", lambda x: None):
        rec = guess_recurrence(values, max_order, max_degree)
    want = oracles.guess_recurrence_unfiltered(values, max_order, max_degree)
    assert (rec and (rec.order, rec.degree, rec.polys)) == want
