"""k-Fibonacci data, the tetrahedron sequence, and the families they build."""

import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from ehrcollapse.arith import QuadNumber
from ehrcollapse.sequences import (
    a_sequence,
    fib_gcds,
    fib_identity_residual,
    fib_triangle,
    k_fib,
    limit_tetrahedron,
    tetra_family,
    tetra_polynomial,
)


def test_k_fib_values():
    assert [k_fib(1, n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert k_fib(1, 6) == 8
    assert k_fib(2, 4) == 12
    assert k_fib(3, 3) == 10
    with pytest.raises(ValueError):
        k_fib(0, 3)
    with pytest.raises(ValueError):
        k_fib(1, -1)


def test_fib_identity_holds():
    for k in range(1, 7):
        for n in range(1, 31):
            assert fib_identity_residual(k, n) == 0
    assert fib_identity_residual(2, 2) == 0  # 4 - 4 - 1 + 1


def test_fib_gcd_pattern_is_sharp():
    # consecutive terms are always coprime; gcd with k alternates by parity
    for k in range(1, 7):
        for n in range(1, 31):
            g_prev, g_k = fib_gcds(k, n)
            assert g_prev == 1
            assert g_k == (1 if n % 2 == 1 or k == 1 else k)
    # the even-index side in particular: F_2(k) = k exactly
    assert fib_gcds(2, 2) == (1, 2)
    assert k_fib(5, 2) == 5


@pytest.mark.parametrize("fn", [fib_gcds, fib_identity_residual])
def test_fib_gcds_and_residual_need_n_at_least_1(fn):
    with pytest.raises(ValueError, match=r"^need n >= 1$"):
        fn(2, 0)
    with pytest.raises(ValueError, match="need k >= 1"):
        fn(0, 1)


def test_even_index_terms_are_multiples_of_k():
    for k in range(2, 7):
        for n in range(0, 31, 2):
            assert k_fib(k, n) % k == 0
        for n in range(1, 31, 2):
            assert k_fib(k, n) % k == 1 % k


def test_fib_triangle_params():
    params = fib_triangle(1, 4)
    assert (params.u, params.v) == (Fraction(3, 2), Fraction(2, 3))
    params = fib_triangle(2, 2)
    assert (params.u, params.v) == (Fraction(2), Fraction(1, 2))
    params = fib_triangle(2, 4)
    assert (params.u, params.v) == (Fraction(12, 5), Fraction(5, 12))
    with pytest.raises(ValueError):
        fib_triangle(1, 1)


def test_a_sequence_values():
    assert [a_sequence(n) for n in range(1, 8)] == [2, 3, 10, 17, 58, 99, 338]
    with pytest.raises(ValueError):
        a_sequence(0)


def test_a_sequence_recurrence_continues():
    for n in range(5, 20):
        assert a_sequence(n) == 6 * a_sequence(n - 2) - a_sequence(n - 4)


def test_a_sequence_matches_the_list_recurrence_and_keeps_four_terms():
    vals = [2, 3, 10, 17]
    while len(vals) < 300:
        vals.append(6 * vals[-2] - vals[-4])
    assert [a_sequence(n) for n in range(1, 301)] == vals
    tracemalloc.start()
    try:
        a_sequence(20001)  # a list of every term peaks at about 35 MB here
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_tetra_family_legs():
    legs = tetra_family(1).legs
    assert legs == (QuadNumber(Fraction(1, 2)), QuadNumber(Fraction(10, 3)),
                    QuadNumber(Fraction(3, 5)))
    legs = tetra_family(2).legs
    assert legs == (QuadNumber(Fraction(1, 2)), QuadNumber(Fraction(58, 17)),
                    QuadNumber(Fraction(17, 29)))


def test_limit_tetrahedron_legs():
    legs = limit_tetrahedron().legs
    assert legs[0] == Fraction(1, 2)
    assert legs[1] == QuadNumber(Fraction(2), Fraction(1), 2)
    assert legs[2] == QuadNumber(Fraction(2), Fraction(-1), 2)
    assert legs[1] * legs[2] == 2  # conjugate product


def test_tetra_polynomial_values():
    assert [tetra_polynomial(t) for t in range(5)] == [1, 4, 10, 20, 35]
    assert all(tetra_polynomial(t).denominator == 1 for t in range(20))


def test_tetra_polynomial_is_the_exact_cubic_as_an_int():
    for t in range(-50, 51):
        value = tetra_polynomial(t)
        assert type(value) is int
        assert value == Fraction(t ** 3, 6) + t * t + Fraction(11 * t, 6) + 1


def test_fib_triangle_legs_are_reciprocal_and_coprime():
    for k in (1, 2, 3):
        for n in range(2, 12):
            params = fib_triangle(k, n)
            assert params.u * params.v == 1
            assert gcd(params.p, params.q) == 1 and gcd(params.r, params.s) == 1
