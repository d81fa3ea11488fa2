"""Integer sequences that parametrize collapsing families.

* k-Fibonacci numbers F_n(k): F_0 = 0, F_1 = 1, F_n = k*F_{n-1} + F_{n-2};
  consecutive pairs give reciprocal-leg triangles whose period collapses.
* The sequence a_1, a_2, ... = 2, 3, 10, 17, ... with a_n = 6*a_{n-2} - a_{n-4},
  feeding a family of tetrahedra that all share one cubic counting polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator

from .arith import QuadNumber, exact_int
from .polytopes import AxisSimplex, RationalTriangleParams, reciprocal_params


def fib_pairs(k: int, start: int = 0) -> Iterator[tuple[int, int]]:
    """(F_{n-1}(k), F_n(k)) for n = start, start + 1, ..., one step of the
    recurrence per pair, with F_{-1} = 1 so that F_1 = k*F_0 + F_{-1}."""
    k, start = exact_int(k), exact_int(start)
    if k < 1 or start < 0:
        raise ValueError("need k >= 1 and n >= 0")
    prev, cur = 1, 0
    for _ in range(start):
        prev, cur = cur, k * cur + prev
    while True:
        yield prev, cur
        prev, cur = cur, k * cur + prev


def k_fib(k: int, n: int) -> int:
    """F_n(k) with F_0 = 0, F_1 = 1, F_n = k*F_{n-1} + F_{n-2}."""
    return next(fib_pairs(k, n))[1]


def fib_identity_residual(k: int, n: int) -> int:
    """F_n^2 - k*F_{n-1}*F_n - F_{n-1}^2 + (-1)^n; zero for all k, n >= 1."""
    if exact_int(n) < 1:
        raise ValueError("need n >= 1")
    f_prev, f_n = next(fib_pairs(k, n))
    return f_n * f_n - k * f_prev * f_n - f_prev * f_prev + (-1) ** n


def fib_gcds(k: int, n: int) -> tuple[int, int]:
    """(gcd(F_n, F_{n-1}), gcd(F_n, k)) for n >= 1.

    The first gcd is 1 for every k, n.  The second is 1 exactly when n is odd
    or k = 1; even-indexed terms are divisible by k (F_2 = k already), so the
    blanket coprimality sometimes quoted for all n only holds in the odd-index
    form, which is also the only form the quasiperiod arguments need.
    """
    if exact_int(n) < 1:
        raise ValueError("need n >= 1")
    f_prev, f_n = next(fib_pairs(k, n))
    return (gcd(f_n, f_prev), gcd(f_n, k))


def fib_triangle(k: int, n: int) -> RationalTriangleParams:
    """Reciprocal-leg triangle with u = F_n(k)/F_{n-1}(k); needs n >= 2."""
    if exact_int(n) < 2:
        raise ValueError("need n >= 2 so that F_{n-1} >= 1")
    return reciprocal_params(*next(fib_pairs(k, n)))


def a_sequence(n: int) -> int:
    """a_1, a_2, a_3, a_4 = 2, 3, 10, 17 and a_n = 6*a_{n-2} - a_{n-4}."""
    if exact_int(n) < 1:
        raise ValueError("need n >= 1")
    a, b, c, d = 2, 3, 10, 17  # a_{m-3}, ..., a_m, from m = 4
    for _ in range(n - 4):
        a, b, c, d = b, c, d, 6 * c - a
    return (a, b, c, d)[min(n, 4) - 1]


def tetra_family(n: int) -> AxisSimplex:
    """Tetrahedron with legs (1/2, a_{2n+1}/a_{2n}, 2*a_{2n}/a_{2n+1})."""
    if exact_int(n) < 1:
        raise ValueError("need n >= 1")
    even, odd = a_sequence(2 * n), a_sequence(2 * n + 1)
    return AxisSimplex((
        QuadNumber(Fraction(1, 2)),
        QuadNumber(Fraction(odd, even)),
        QuadNumber(Fraction(2 * even, odd)),
    ))


def limit_tetrahedron() -> AxisSimplex:
    """Limit of the family: legs (1/2, 2 + sqrt(2), 2 - sqrt(2))."""
    return AxisSimplex((
        QuadNumber(Fraction(1, 2)),
        QuadNumber(Fraction(2), Fraction(1), 2),
        QuadNumber(Fraction(2), Fraction(-1), 2),
    ))


def tetra_polynomial(t: int) -> int:
    """t^3/6 + t^2 + 11*t/6 + 1 = (t + 1)(t + 2)(t + 3)/6: the shared counting
    polynomial of the family, exact since 6 divides three consecutive integers' product."""
    t = exact_int(t)
    return (t + 1) * (t + 2) * (t + 3) // 6
