"""Exact arithmetic in real quadratic fields.

A :class:`QuadNumber` is a number a + b*sqrt(d) with rational a, b and a
squarefree integer radicand d >= 0.  All operations (field arithmetic, sign,
comparison, floor) are exact; no floating point is consulted anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Union

Rational = Fraction

RationalLike = Union[int, Fraction]
QuadLike = Union[int, Fraction, "QuadNumber"]


class RadicandMismatchError(ValueError):
    """Raised when combining two irrational numbers with different radicands."""


@lru_cache(maxsize=256)
def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (s, m) with d = s*s*m and m squarefree.

    Cached because every QuadNumber operation canonicalizes its radicand
    and trial division costs O(sqrt(d)).
    """
    s, m, p = 1, 1, 2
    while p * p <= d:
        if d % p == 0:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                m *= p
        p += 1 if p == 2 else 2
    return s, m * d


def floor_surd(a: int, b: int, c: int, d: int) -> int:
    """floor((a + b*sqrt(d)) / c) for integers with c > 0 and either b == 0
    or d > 1 squarefree, by integer square roots only.

    floor((a + y)/c) = (a + floor(y)) // c for any real y, and
    floor(b*sqrt(d)) = isqrt(b*b*d) when b > 0 (b*sqrt(d) is irrational),
    = -isqrt(b*b*d) - 1 when b < 0.
    """
    if b == 0:
        return a // c
    root = isqrt(b * b * d)
    if b > 0:
        return (a + root) // c
    return (a - root - 1) // c


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class QuadNumber:
    """a + b*sqrt(d), kept in canonical form.

    Canonical means: d is squarefree, d == 0 whenever the number is rational,
    and b == 0 whenever d == 0.  The constructor normalizes any input, so two
    equal values always have identical field tuples.
    """

    a: Fraction
    b: Fraction = Fraction(0)
    d: int = 0

    def __post_init__(self) -> None:
        a = _as_fraction(self.a)
        b = _as_fraction(self.b)
        d = self.d
        if not isinstance(d, int) or d < 0:
            raise ValueError(f"radicand must be a nonnegative int, got {d!r}")
        if b == 0 or d == 0:
            b, d = Fraction(0), 0
        else:
            s, m = _squarefree_split(d)
            b, d = b * s, m
            if d == 1:
                a, b, d = a + b, Fraction(0), 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    # -- classification ----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    def is_integer(self) -> bool:
        return self.d == 0 and self.a.denominator == 1

    def as_fraction(self) -> Fraction:
        if self.d != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def conjugate(self) -> "QuadNumber":
        return QuadNumber(self.a, -self.b, self.d)

    # -- coercion and shared radicand ---------------------------------------

    @classmethod
    def from_value(cls, x: QuadLike) -> "QuadNumber":
        if isinstance(x, QuadNumber):
            return x
        return cls(_as_fraction(x))

    def _common_d(self, other: "QuadNumber") -> int:
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise RadicandMismatchError(
            f"cannot combine sqrt({self.d}) with sqrt({other.d})"
        )

    # -- field operations ---------------------------------------------------

    def __add__(self, other: QuadLike) -> "QuadNumber":
        o = QuadNumber.from_value(other)
        return QuadNumber(self.a + o.a, self.b + o.b, self._common_d(o))

    __radd__ = __add__

    def __neg__(self) -> "QuadNumber":
        return QuadNumber(-self.a, -self.b, self.d)

    def __sub__(self, other: QuadLike) -> "QuadNumber":
        return self + (-QuadNumber.from_value(other))

    def __rsub__(self, other: QuadLike) -> "QuadNumber":
        return (-self) + other

    def __mul__(self, other: QuadLike) -> "QuadNumber":
        o = QuadNumber.from_value(other)
        d = self._common_d(o)
        a = self.a * o.a + self.b * o.b * d
        b = self.a * o.b + self.b * o.a
        return QuadNumber(a, b, d)

    __rmul__ = __mul__

    def _invert(self) -> "QuadNumber":
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return QuadNumber(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other: QuadLike) -> "QuadNumber":
        o = QuadNumber.from_value(other)
        self._common_d(o)
        return self * o._invert()

    def __rtruediv__(self, other: QuadLike) -> "QuadNumber":
        return QuadNumber.from_value(other) / self

    def __pow__(self, n: int) -> "QuadNumber":
        if not isinstance(n, int):
            raise TypeError("exponent must be an int")
        if n < 0:
            return (self ** (-n))._invert()
        out = QuadNumber(Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- exact order --------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        sa = (self.a > 0) - (self.a < 0)
        if self.d == 0:
            return sa
        sb = (self.b > 0) - (self.b < 0)
        if sa == sb or sb == 0:
            return sa
        if sa == 0:
            return sb
        # a and b*sqrt(d) have opposite strict signs: compare a^2 with b^2*d
        lhs = self.a * self.a
        rhs = self.b * self.b * self.d
        if lhs == rhs:
            return 0
        return sa if lhs > rhs else sb

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, QuadNumber)):
            o = QuadNumber.from_value(other)
            return self.a == o.a and self.b == o.b and self.d == o.d
        return NotImplemented

    def __hash__(self) -> int:
        # rational values hash like their Fraction, so q == 1 implies equal hashes
        if self.d == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __lt__(self, other: QuadLike) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: QuadLike) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: QuadLike) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: QuadLike) -> bool:
        return (self - other).sign() >= 0

    def __abs__(self) -> "QuadNumber":
        return -self if self.sign() < 0 else self

    # -- exact floor ----------------------------------------------------------

    def __floor__(self) -> int:
        # write self as (A + B*sqrt(d)) / C with integers A, B and C > 0
        c = lcm(self.a.denominator, self.b.denominator)
        big_a = self.a.numerator * (c // self.a.denominator)
        big_b = self.b.numerator * (c // self.b.denominator)
        return floor_surd(big_a, big_b, c, self.d)

    def __ceil__(self) -> int:
        return -((-self).__floor__())

    def __float__(self) -> float:
        # approximate; used for display and sanity checks only
        return float(self.a) + float(self.b) * self.d ** 0.5

    # -- presentation and serialization --------------------------------------

    def __str__(self) -> str:
        if self.d == 0:
            return str(self.a)
        return f"{self.a}+{self.b}*sqrt({self.d})"

    def __repr__(self) -> str:
        return f"QuadNumber({self.a!r}, {self.b!r}, {self.d})"

    def to_json_dict(self) -> dict[str, str]:
        return {
            "a_num": str(self.a.numerator),
            "a_den": str(self.a.denominator),
            "b_num": str(self.b.numerator),
            "b_den": str(self.b.denominator),
            "d": str(self.d),
        }

    @classmethod
    def from_json_dict(cls, obj: dict[str, str]) -> "QuadNumber":
        return cls(
            Fraction(int(obj["a_num"]), int(obj["a_den"])),
            Fraction(int(obj["b_num"]), int(obj["b_den"])),
            int(obj["d"]),
        )


def quad_sign(x: QuadLike) -> int:
    """Exact sign of x in {-1, 0, 1}."""
    return QuadNumber.from_value(x).sign()


def quad_floor(x: QuadLike) -> int:
    """Exact floor of x, computed with integer square roots only."""
    return QuadNumber.from_value(x).__floor__()


def quad_sqrt(n: RationalLike) -> QuadNumber:
    """Exact sqrt(n) for a nonnegative rational n, as a QuadNumber."""
    f = _as_fraction(n)
    if f < 0:
        raise ValueError("square root of a negative number")
    # sqrt(p/q) = sqrt(p*q)/q
    return QuadNumber(Fraction(0), Fraction(1, f.denominator), f.numerator * f.denominator)


def parse_quad(text: str) -> QuadNumber:
    """Parse 'n', 'n/m', or a triple 'a,b,d' (a, b rational, d integer)."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        return QuadNumber(Fraction(parts[0]))
    if len(parts) == 3:
        return QuadNumber(Fraction(parts[0]), Fraction(parts[1]), int(parts[2]))
    raise ValueError(f"expected 'a' or 'a,b,d', got {text!r}")
