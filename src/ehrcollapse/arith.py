"""Exact arithmetic in real quadratic fields.

A :class:`QuadNumber` is a number (A + B*sqrt(d)) / C, stored as the integers
A, B, C and d; the counting layer reads the same integer triples.  All
operations (field arithmetic, sign, comparison, floor) are exact and consult
no floating point; ``float()`` rounds the exact value correctly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce, total_ordering
from itertools import accumulate, chain
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction]
QuadLike = Union[int, Fraction, "QuadNumber"]
Triple = tuple[int, int, int]  # (A, B, C) stands for (A + B*sqrt(d)) / C
IntRows = tuple[tuple[int, ...], ...]

class EhrcollapseError(ValueError):
    """Base of the errors this package raises on input it cannot handle."""


class InternalCheckError(EhrcollapseError):
    """Raised when a result fails a check that holds for every input: a bug."""


class RadicandMismatchError(EhrcollapseError):
    """Raised when combining two irrational numbers from different fields."""


def _common_d(d1: int, d2: int) -> int:
    """The radicand on which numbers over sqrt(d1) and sqrt(d2) combine.

    Two irrational radicands share a field iff d1*d2 is a perfect square;
    then the larger one is rewritten in terms of the smaller one.
    """
    if d1 == d2 or d2 == 0:
        return d1
    if d1 == 0:
        return d2
    prod = d1 * d2
    if isqrt(prod) ** 2 != prod:
        raise RadicandMismatchError(f"cannot combine sqrt({d1}) with sqrt({d2})")
    return min(d1, d2)


def floor_surd(a: int, b: int, c: int, d: int) -> int:
    """floor((a + b*sqrt(d)) / c) for integers with c > 0 and either b == 0
    or d > 1 not a perfect square, by integer square roots only.

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


def floor_surd_run(a: int, b: int, c: int, d: int, ms: range) -> list[int]:
    """[floor_surd(m*a, m*b, c, d) for m in ms], ms ascending from m >= 0: b = 0 by
    m*a//c, and a step-k range as every k-th floor of a contiguous run.  With
    w = (a + b*sqrt(d))/c irrational, floor((n+1)*w) - floor(n*w) = floor(w) + x_n,
    x_0 = 0, and x_1 x_2 ... is the characteristic Sturmian word of frac(w) =
    [0; a_1, a_2, ...], whose prefixes include each standard word s_k =
    s_{k-1}^{a_k} s_{k-2}, k >= 1, s_-1 = 1, s_0 = 0 (Lothaire, *Algebraic
    Combinatorics on Words*, 2002, ch. 2).  A loop cuts the run's letters from
    the s_k, building no word longer than the run, and one accumulate sums them."""
    if b == 0 or not ms:
        return [m * a // c for m in ms]
    lo, i, j, f = ms[0], max(ms[0] - 1, 0), ms[-1] - 1, floor_surd(a, b, c, d)  # cut [i, j)
    cf, q, e, words = Expansion((a, b, c), d), [1, 1], [0, 0], [[f + 1], [f]]  # s_k at k + 1
    cf.grow()
    while len(q) < 3 or q[-1] < j:  # s_k opens with e[k + 1] copies of s_{k-1}; K >= 1
        cf.grow()
        e.append(cf.steps[-1][0] - (len(q) == 2))
        q.append(e[-1] * q[-1] + q[-2])
        if q[-1] <= j - i:
            words.append(words[-1] * e[-1] + words[-2])
    letters, todo = [f] if lo == 0 <= j else [], [(len(q) - 2, i, j, 1)] if j > i else []
    while todo:  # (k, i, j, copies): the next piece, copies of s_k[i:j]
        k, i, j, copies = todo.pop()
        if j - i == q[k + 1]:  # whole words inside the cut, so they were built
            letters += words[k + 1] * copies
        else:  # split at the copies of s_{k-1} that i and j - 1 are in
            p, n = q[k], e[k + 1]
            bi, bj = min(i // p, n), min((j - 1) // p, n)
            if bi < bj:
                todo.append((k - 1 - (bj == n), 0, j - bj * p, 1))
                if bj - bi > 1:
                    todo.append((k - 1, 0, p, bj - bi - 1))
            todo.append((k - 1 - (bi == n), i - bi * p, min(j - bi * p, p), 1))
    run = list(accumulate(letters, initial=floor_surd(lo * a, lo * b, c, d)))
    return run[::ms.step] if ms.step > 1 else run


def reduced_triple(a: int, b: int, c: int) -> Triple:
    """The triple (a, b, c) divided by gcd(a, b, c), with c > 0 (c != 0)."""
    if c < 0:
        a, b, c = -a, -b, -c
    g = gcd(a, b, c)
    return a // g, b // g, c // g


class Expansion:
    """The continued fraction of a = (A + B*sqrt(d))/C, grown as far as it is read.

    With a_0 = a and a_{k+1} = 1/frac(a_k), steps[k] is the tuple
    (floor(a_k), F0, F1, FC, R0, R1, RC), where (F0 + F1*sqrt(d))/FC is
    frac(a_k) and (R0 + R1*sqrt(d))/RC is a_{k+1}, reduced.  A rational a
    ends at the first k with frac(a_k) = 0, whose step holds zeros after
    floor(a_k); a quadratic irrational never ends, so a reader calls grow()
    for each step it needs past the last one built, and no step is built twice.
    """

    __slots__ = ("steps", "d", "_next")

    def __init__(self, a: Triple, d: int) -> None:
        self.steps: list[tuple[int, ...]] = []
        self.d, self._next = d, reduced_triple(*a)  # _next is the slope the next step expands

    def grow(self) -> None:
        """Append the next step; a rational expansion must not have ended."""
        a0, a1, ac = self._next
        d = self.d
        q = floor_surd(a0, a1, ac, d)
        a0 -= q * ac
        if a0 == 0 and a1 == 0:
            self.steps.append((q, 0, 0, 0, 0, 0, 0))
        else:
            # 1/frac = ac*(a0 - a1*sqrt(d)) / (a0^2 - a1^2*d)
            r0, r1, rc = self._next = reduced_triple(ac * a0, -ac * a1, a0 * a0 - a1 * a1 * d)
            self.steps.append((q, a0, a1, ac, r0, r1, rc))


_alloc = object.__new__
_set = object.__setattr__


def _immutable(self, *_) -> None:
    """__setattr__ and __delattr__ of a class whose instances never change."""
    raise AttributeError(f"{type(self).__name__} is immutable")


def _store(x: "QuadNumber", a: int, b: int, c: int, d: int) -> "QuadNumber":
    if b == 0 or d == 0:
        b = d = 0
    _set(x, "triple", reduced_triple(a, b, c))
    _set(x, "d", d)
    return x


def _new(a: int, b: int, c: int, d: int) -> "QuadNumber":
    """(a + b*sqrt(d)) / c for c != 0 and d either 0 or the radicand of an
    existing QuadNumber: reduces the triple and never tests d for a square."""
    return _store(_alloc(QuadNumber), a, b, c, d)


def _align(x: "QuadNumber", y: "QuadNumber") -> tuple[Triple, Triple, int]:
    """The triples of x and y over one radicand, and that radicand."""
    if x.d == y.d:
        return x.triple, y.triple, x.d
    d = _common_d(x.d, y.d)
    return x._over(d), y._over(d), d


@total_ordering
class QuadNumber:
    """(A + B*sqrt(d)) / C with integers A, B, C and d, kept in canonical form.

    Canonical means: C > 0 and gcd(A, B, C) == 1; B == 0 and d == 0 whenever
    the number is rational; otherwise d > 1 is not a perfect square.  The
    constructor takes rational a, b with value a + b*sqrt(d) and keeps d as
    given, square factors and all, unless d is a perfect square, which makes
    the number rational; results of operations keep the radicand of their
    operands.  Equality and hashing go by value, whichever radicand a value
    carries (sqrt(12) == 2*sqrt(3)); the order is __lt__ alone, and
    functools.total_ordering derives <=, > and >=.
    """

    __slots__ = ("triple", "d")

    triple: Triple
    d: int

    def __init__(self, a: RationalLike, b: RationalLike = 0, d: int = 0) -> None:
        (big_a, big_b), c = to_integers((a, b))
        if exact_int(d) < 0:
            raise ValueError(f"radicand must be a nonnegative int, got {d!r}")
        r = isqrt(d)
        if r * r == d:  # sqrt(d) is the integer r: a rational number, stored with d = 0
            big_a, big_b = big_a + big_b * r, 0
        _store(self, big_a, big_b, c, d)

    __setattr__ = __delattr__ = _immutable

    def __reduce__(self):
        return _new, (*self.triple, self.d)

    @property
    def a(self) -> Fraction:
        return Fraction(self.triple[0], self.triple[2])

    @property
    def b(self) -> Fraction:
        return Fraction(self.triple[1], self.triple[2])

    # -- classification ----------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    def is_integer(self) -> bool:
        return self.d == 0 and self.triple[2] == 1

    def as_fraction(self) -> Fraction:
        if self.d != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def conjugate(self) -> "QuadNumber":
        a, b, c = self.triple
        return _new(a, -b, c, self.d)

    # -- coercion and shared radicand ---------------------------------------

    @classmethod
    def from_value(cls, x: QuadLike) -> "QuadNumber":
        """x itself, or the exact number x as a QuadNumber; else TypeError."""
        if isinstance(x, QuadNumber):
            return x
        return _new(_exact_number(x).numerator, 0, x.denominator, 0)

    def _over(self, d: int) -> Triple:
        """This number's triple over the radicand d of its field."""
        if self.d == d or self.d == 0:
            return self.triple
        a, b, c = self.triple
        # sqrt(self.d) = r*sqrt(d)/d with r*r = self.d*d
        return a * d, b * isqrt(self.d * d), c * d

    # -- field operations ---------------------------------------------------

    def __add__(self, other: QuadLike) -> "QuadNumber":
        (a1, b1, c1), (a2, b2, c2), d = _align(self, QuadNumber.from_value(other))
        return _new(a1 * c2 + a2 * c1, b1 * c2 + b2 * c1, c1 * c2, d)

    __radd__ = __add__

    def __neg__(self) -> "QuadNumber":
        a, b, c = self.triple
        return _new(-a, -b, c, self.d)

    def __sub__(self, other: QuadLike) -> "QuadNumber":
        (a1, b1, c1), (a2, b2, c2), d = _align(self, QuadNumber.from_value(other))
        return _new(a1 * c2 - a2 * c1, b1 * c2 - b2 * c1, c1 * c2, d)

    def __rsub__(self, other: QuadLike) -> "QuadNumber":
        return QuadNumber.from_value(other) - self

    def __mul__(self, other: QuadLike) -> "QuadNumber":
        (a1, b1, c1), (a2, b2, c2), d = _align(self, QuadNumber.from_value(other))
        return _new(a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1, c1 * c2, d)

    __rmul__ = __mul__

    def __truediv__(self, other: QuadLike) -> "QuadNumber":
        (a1, b1, c1), (a2, b2, c2), d = _align(self, QuadNumber.from_value(other))
        norm = a2 * a2 - b2 * b2 * d
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return _new(c2 * (a1 * a2 - b1 * b2 * d), c2 * (a2 * b1 - a1 * b2), c1 * norm, d)

    def __rtruediv__(self, other: QuadLike) -> "QuadNumber":
        return QuadNumber.from_value(other) / self

    def __pow__(self, n: int) -> "QuadNumber":
        if not _is_exact(n, int):
            raise TypeError(f"exponent must be an int, got {type(n).__name__}")
        if n < 0:
            return 1 / self ** -n
        out = _new(1, 0, 1, 0)
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
        a, b, _ = self.triple
        sa = (a > 0) - (a < 0)
        if b == 0:
            return sa
        sb = (b > 0) - (b < 0)
        if sa == sb or sa == 0:
            return sb
        # a and b*sqrt(d) have opposite strict signs; a^2 != b^2*d since d is
        # not a perfect square
        return sa if a * a > b * b * self.d else sb

    def __bool__(self) -> bool:
        return self.triple[0] != 0 or self.triple[1] != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadNumber):
            if self.d == other.d:
                return self.triple == other.triple
            if not (self.d and other.d):
                return False
            try:
                (a1, b1, c1), (a2, b2, c2), _ = _align(self, other)
            except RadicandMismatchError:
                return False
            return a1 * c2 == a2 * c1 and b1 * c2 == b2 * c1
        if isinstance(other, (int, Fraction)):
            a, _, c = self.triple
            return self.d == 0 and a * other.denominator == other.numerator * c
        return NotImplemented

    def __hash__(self) -> int:
        a, b, c = self.triple
        # rational values hash like their Fraction, so q == 1 implies equal hashes
        if b == 0:
            return hash(Fraction(a, c))
        # a and sign(b)*b^2*d are the same whichever radicand carries the value
        return hash((Fraction(a, c), Fraction(b * abs(b) * self.d, c * c)))

    def __lt__(self, other: QuadLike) -> bool:
        return (self - other).sign() < 0

    def __abs__(self) -> "QuadNumber":
        return -self if self.sign() < 0 else self

    # -- exact floor ----------------------------------------------------------

    def __floor__(self) -> int:
        return floor_surd(*self.triple, self.d)

    def __ceil__(self) -> int:
        a, b, c = self.triple
        return -floor_surd(-a, -b, c, self.d)

    def __float__(self) -> float:
        """The float nearest to the exact value (ties to even)."""
        a, b, c = self.triple
        if b == 0:
            return a / c  # int division rounds correctly
        d = self.d
        # |a + b*sqrt(d)| = |a^2 - b^2*d| / |a - b*sqrt(d)| >= 1 / (2*m) with
        # m = max(|a|, |b|*sqrt(d)) < 2**bits, so n = floor(self * 2**k) has
        # |n| >= 2**55.  The value is irrational and lies strictly between n and
        # n + 1, where no float and no midpoint between floats falls, so it
        # rounds as n + 1/2 does.
        bits = max(a.bit_length(), b.bit_length() + (d.bit_length() + 1) // 2)
        k = 56 + bits + c.bit_length()
        n = floor_surd(a << k, b << k, c, d)
        return (2 * n + 1) / (1 << (k + 1))

    # -- presentation and serialization --------------------------------------

    def __str__(self) -> str:
        if self.d == 0:
            return str(self.a)
        return f"{self.a}+{self.b}*sqrt({self.d})"

    def __repr__(self) -> str:
        return f"QuadNumber({self.a!r}, {self.b!r}, {self.d})"

    def to_json_dict(self) -> dict[str, str]:
        a, b = self.a, self.b
        return {
            "a_num": str(a.numerator),
            "a_den": str(a.denominator),
            "b_num": str(b.numerator),
            "b_den": str(b.denominator),
            "d": str(self.d),
        }

    @classmethod
    def from_json_dict(cls, obj: dict[str, str]) -> "QuadNumber":
        try:
            a, b = (Fraction(int(obj[f"{x}_num"]), int(obj[f"{x}_den"])) for x in "ab")
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {obj!r}") from None
        return cls(a, b, int(obj["d"]))


def shared_triples(xs: Sequence[QuadNumber]) -> tuple[list[Triple], int]:
    """The triples (A, B, C) of xs over one radicand d, and d.

    Raises RadicandMismatchError unless all of xs lie in one field.
    """
    d = reduce(_common_d, (x.d for x in xs), 0)
    return [x._over(d) for x in xs], d


def quad_sqrt(n: RationalLike) -> QuadNumber:
    """Exact sqrt(n) for a nonnegative rational n, as a QuadNumber."""
    (num,), den = to_integers((n,))
    if num < 0:
        raise ValueError("square root of a negative number")
    # sqrt(num/den) = sqrt(num*den)/den
    return QuadNumber(0, Fraction(1, den), num * den)


def to_integers(values: Sequence[RationalLike]) -> tuple[Sequence[int], int]:
    """values, each an exact number, times the lcm of their denominators, and
    that lcm; ints alone come back uncopied, with scale 1: no caller changes them."""
    if {int}.issuperset(map(type, values)):
        return values, 1
    scale = lcm(*((v if isinstance(v, Fraction) else _exact_number(v)).denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def fraction_rows(rows: Iterable[Iterable], count: int,
                  width: int) -> tuple[tuple[Fraction, ...], ...]:
    """rows as count rows of width Fractions, each entry an exact number or 'n/d'
    text; another entry raises TypeError, another shape ValueError."""
    table = tuple(tuple(c if isinstance(c, Fraction) else parse_fraction(c) if isinstance(c, str)
                        else Fraction(_exact_number(c)) for c in row) for row in rows)
    if len(table) != count or any(len(row) != width for row in table):
        raise ValueError(f"expected {count} rows of {width} numbers")
    return table


def horner(coeffs: Sequence, x):
    """coeffs[0] + coeffs[1]*x + coeffs[2]*x^2 + ..., by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def fraction_text(x: RationalLike, den: int = 1) -> str:
    """x / den as 'n/d' text in lowest terms with d >= 1, for an int den >= 1, so
    an int x alone reads 'x/1'; parse_fraction reads it back."""
    n, d = x.numerator, x.denominator * den
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


def integer_table(rows: Iterable[Iterable[RationalLike]], den: int = 1) -> tuple[IntRows, int]:
    """The rationals rows[i][j] / den (ints or Fractions, over an int den != 0)
    in their one form: integer rows over a positive denominator, all divided by
    the gcd of the denominator and every entry, so that two tables of equal
    rationals have equal forms.  Every row has the width of the first."""
    rows = tuple(map(tuple, rows))
    entries = [*chain.from_iterable(rows)]
    flat, scale = to_integers(entries)
    den *= scale
    g = gcd(den, *flat) * (-1 if den < 0 else 1)
    if flat and (g != 1 or flat is not entries):  # Fraction(n, 1) entries become ints too
        rows = tuple(zip(*[iter([c // g for c in flat])] * len(rows[0])))
    return rows, den // g


def _is_exact(x: object, kinds: Union[type, tuple[type, ...]] = (int, Fraction)) -> bool:
    """The one rule: an exact number is an int that is not a bool, or a Fraction."""
    return isinstance(x, kinds) and type(x) is not bool


def exact_int(x: object) -> int:
    """x when it is an int and not a bool, such as a JSON integer read back;
    anything else, a float, a Fraction or text among them, raises TypeError."""
    if type(x) is not int and not _is_exact(x, int):  # a plain int needs no call
        raise TypeError(f"expected int, got {type(x).__name__}")
    return x


def _exact_number(x: object) -> RationalLike:
    """x when it is an exact number; anything else, such as a float, raises TypeError."""
    if not _is_exact(x):
        raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
    return x


class Frozen:
    """The shared body of a value class that names its fields in FIELDS: its
    instances compare (within one class), hash and print by their fields,
    refuse assignment and keep a cached_property in their __dict__, which
    pickling keeps too.  A class that checks its input stores its fields with
    vars(self).update in its own __init__; any other gets one that takes them
    in order or by name."""

    FIELDS: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # the methods read the fields as one tuple display, compiled once per
        # class, so that they cost no loop over FIELDS per call
        names = "".join(f"{name}, " for name in cls.FIELDS)
        values = "(" + "".join(f"self.{name}, " for name in cls.FIELDS) + ")"
        cls.__eq__ = eval(f"lambda self, other: {values} == {values.replace('self.', 'other.')}"
                          " if other.__class__ is self.__class__ else NotImplemented")
        cls.__hash__ = eval(f"lambda self: hash({values})")
        if cls.__init__ is object.__init__:
            cls.__init__ = eval(f"lambda self, {names}:"
                                f" vars(self).update(zip(self.FIELDS, ({names})))")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__qualname__}({fields})"

    __setattr__ = __delattr__ = _immutable


class RationalTable(Frozen):
    """The shared body of a value class that holds a table of rationals in the
    one form of integer_table, as numerators over a denominator.  KEYS names
    its field that sizes the table and its view, the cached_property over
    _fractions; with "degree", these are the keys of the JSON form, which
    writes each entry as 'n/d'.  A subclass names its four fields in FIELDS
    and checks the shape of the rows it is given."""

    KEYS: tuple[str, str]

    def _fractions(self) -> tuple[tuple[Fraction, ...], ...]:
        """The table as rows of Fractions, which equality, hashing and repr
        never read."""
        den = self.denominator
        return tuple(tuple(Fraction(c, den) for c in row) for row in self.numerators)

    def _fill(self, size: int, degree: int, rows: Iterable[Iterable[RationalLike]],
              den: int = 1) -> None:
        numerators, denominator = integer_table(rows, den)
        vars(self).update({self.KEYS[0]: size, "degree": degree, "numerators": numerators,
                           "denominator": denominator})

    @classmethod
    def _of(cls, size: int, degree: int, rows: Iterable[Iterable[int]], den: int):
        """The table of integer rows over den, with no shape check."""
        table = cls.__new__(cls)
        table._fill(size, degree, rows, den)
        return table

    def to_json_dict(self) -> dict:
        size, view = self.KEYS
        den = self.denominator
        return {size: getattr(self, size), "degree": self.degree,
                view: [[fraction_text(c, den) for c in row] for row in self.numerators]}

    @classmethod
    def from_json_dict(cls, obj: dict):
        size, view = cls.KEYS
        return cls(obj[size], obj["degree"], obj[view])


def parse_int(text: str) -> int:
    """int(text), with the text argparse gives an int option that is not one."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def parse_fraction(text: str) -> Fraction:
    """Fraction(text), with the wording of parse_int for text that is not one and
    a zero denominator reported as a ValueError; ASCII '-'?digits('/'digits)?
    is read faster by int()."""
    try:
        if text.isascii():
            num, slash, den = text.partition("/")
            if num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
                return Fraction(int(num), int(den or 1))
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(f"invalid fraction value: {text!r}") from None


def parse_quad(text: str) -> QuadNumber:
    """Parse 'n', 'n/m', or a triple 'a,b,d' (a, b rational, d integer)."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1:
        return QuadNumber(parse_fraction(parts[0]))
    if len(parts) == 3:
        return QuadNumber(parse_fraction(parts[0]), parse_fraction(parts[1]), parse_int(parts[2]))
    raise ValueError(f"expected 'a' or 'a,b,d', got {text!r}")
