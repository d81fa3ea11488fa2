"""Floor-sum triangle counts against independent oracles.

At small t the oracles are the brute-force point loops of ``oracles.py``; at
huge t they are exact formulas that share no code with the floor sum: the
admissible closed form, and quasipolynomials fitted at small t (with
Ehrhart-Macdonald reciprocity for interior counts of rational triangles).
"""

import pickle
from fractions import Fraction
from itertools import permutations
from math import floor, gcd, isqrt
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from ehrcollapse import counting
from ehrcollapse.arith import EhrcollapseError, Expansion, QuadNumber, parse_quad
from ehrcollapse.polytopes import (
    MAX_STRIP_FLOORS,
    AdmissiblePair,
    AxisSimplex,
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


@settings(max_examples=150, deadline=None)
@given(st.data(), lowest_term_params(), st.integers(0, 60))
def test_translate_identity_run_matches_per_t_counts(data, params, a):
    """A run a..a+n-1 with n on both sides of the 2q + s cut, where longer runs
    are counted by the translate identity."""
    p, q, r, s = params.p, params.q, params.r, params.s
    n = data.draw(st.integers(0, 3 * (q + s)))
    run = range(a, a + n)
    per_t = [counting.count_triangle(params, t) for t in run]
    assert per_t == oracles.count_triangle_rational_range(p, q, r, s, a + n - 1)[a:]
    assert counting.count_triangle_many(params, run) == per_t
    assert counting.count_triangle_many(params, list(run)) == per_t
    assert counting.count_triangle_many(params, iter(run)) == per_t
    pair = TrianglePair(parse_quad(f"{q}/{p}"), parse_quad(f"{s}/{r}"))
    assert counting.count_triangle_many(pair, run) == per_t
    assert counting.count_triangle_many(pair.swapped(), run) == per_t


@settings(max_examples=60, deadline=None)
@given(st.data(), lowest_term_params())
def test_unordered_t_lists_take_per_t_counts(data, params):
    ts = data.draw(st.lists(st.integers(0, 80), max_size=3 * (params.q + params.s)))
    want = [counting.count_triangle(params, t) for t in ts]
    assert counting.count_triangle_many(params, ts) == want
    shuffled = data.draw(st.permutations(ts))
    assert counting.count_triangle_many(params, shuffled) == [
        counting.count_triangle(params, t) for t in shuffled]
    descending = range(80, 80 - len(ts), -1)
    assert counting.count_triangle_many(params, descending) == [
        counting.count_triangle(params, t) for t in descending]
    repeated = [t for t in ts for _ in range(2)]
    assert counting.count_triangle_many(params, repeated) == [n for n in want for _ in range(2)]


def test_runs_no_longer_than_q_plus_s_on_huge_legs_are_per_t_counts():
    huge = 1 << 40
    for params in (RationalTriangleParams(huge + 1, huge, 3, 2), RationalTriangleParams(2, 3, 1, huge)):
        for a in (0, 5, huge - 3):
            run = range(a, a + 40)
            want = [counting.count_triangle(params, t) for t in run]
            assert counting.count_triangle_many(params, run) == want
            assert counting.count_triangle_many(params.triangle().swapped(), run) == want


@st.composite
def translate_pairs(draw):
    """A triangle with a translate identity (n, m, step) of
    TrianglePair.translate: rational legs, an admissible pair, or a quadratic
    irrational leg with a rational leg of denominator at most
    MAX_STRIP_FLOORS, in either order."""
    kind = draw(st.sampled_from(("rational", "admissible", "strip")))
    if kind == "rational":
        pair = draw(lowest_term_params()).triangle()
    elif kind == "admissible":
        alpha, beta = draw(st.sampled_from([(a, b) for a in range(1, 15) for b in range(1, 20)
                                            if a * b >= 5]))
        pair = AdmissiblePair(alpha, beta).triangle()
    else:
        d = draw(st.sampled_from((2, 3, 5, 7, 10, 13, 10 ** 9 + 7)))
        irrational = draw(quad_leg(d).filter(lambda x: not x.is_rational))
        r = draw(st.integers(1, MAX_STRIP_FLOORS))
        rational = QuadNumber(Fraction(draw(st.integers(1, 3 * r)), r))
        pair = TrianglePair(irrational, rational)
    return pair.swapped() if draw(st.booleans()) else pair


starts = st.one_of(st.integers(0, 60), st.integers(0, 10 ** 12))


@settings(max_examples=100, deadline=None)
@given(st.data(), translate_pairs(), starts)
def test_translate_runs_of_irrational_triangles_match_per_t_counts(data, pair, a):
    """Runs a..a+len-1 of any length, on both sides of the 2n + m cut past
    which the identity extends them, as a range and as a list."""
    n, m, _ = pair.translate
    run = range(a, a + data.draw(st.integers(0, 4 * n + 2 * m + 12)))
    per_t = [counting.count_triangle(pair, t) for t in run]
    assert counting.count_triangle_many(pair, run) == per_t
    assert counting.count_triangle_many(pair, list(run)) == per_t
    assert counting.count_triangle_many(pair.swapped(), run) == per_t


def _rows(pair):
    """r of the rational leg s/r of a strip pair."""
    return (pair.v if pair.v.is_rational else pair.u).triple[2]


@settings(max_examples=60, deadline=None)
@given(st.data(), translate_pairs(), starts)
def test_a_list_of_consecutive_t_is_counted_as_its_range(data, pair, a):
    """A list a, a + 1, ... makes the floor-sum calls of the equal range: n + m
    seeds (for a strip, the counts at the min(n, r*a) points t = m/r just below
    t = a), then n closing sums; a list with a gap, or out of order, is one
    call of a floor sum per t."""
    n, m, _ = pair.translate
    seeds = n + m if m else min(n, _rows(pair) * a)
    run = range(a, a + data.draw(st.integers(2 * n + m + 1, 4 * n + 2 * m + 12)))
    gap = data.draw(st.integers(1, len(run) - 1))
    calls, count_below = [], counting._count_below

    def recorded(pair, ts, d):
        ts = list(ts)
        calls.append(len(ts))
        return count_below(pair, ts, d)

    gapped = [t + (t >= a + gap) for t in run]
    want, want_gapped = ([counting.count_triangle(pair, t) for t in ts] for ts in (run, gapped))
    with patch.object(counting, "_count_below", recorded):
        assert counting.count_triangle_many(pair, run) == want
        assert counting.count_triangle_many(pair, list(run)) == want
        assert counting.count_triangle_many(pair, gapped) == want_gapped
        assert counting.count_triangle_many(pair, list(run)[::-1]) == want[::-1]
    assert calls == [seeds, n, seeds, n, len(run), len(run)]


class StepOffAt(int):
    """A constant identity step that is off by error at its k-th use alone."""

    def __new__(cls, step, k, error):
        obj = super().__new__(cls, step)
        obj.k, obj.error = k, error
        return obj

    def __radd__(self, count):
        self.k -= 1
        return count + int(self) + (self.error if self.k == 0 else 0)


@settings(max_examples=150, deadline=None)
@given(st.data(), translate_pairs().filter(lambda pair: pair.translate[1]), starts,
       st.sampled_from((1, -1)))
def test_an_off_by_one_inside_a_translate_run_fails_its_tail_check(data, pair, a, error):
    """One wrong step anywhere in the extension reaches the last count of its
    residue class mod n, which the run's closing floor sums recount."""
    n, m, step = pair.translate
    length = data.draw(st.integers(2 * n + m + 1, 4 * n + 2 * m + 12))
    bad = data.draw(st.integers(a + n + m, a + length - 1))
    # the run extends t = a + n + m, a + n + m + 1, ... in turn
    step = StepOffAt(step, bad - a - n - m + 1, error)
    broken = TrianglePair(pair.u, pair.v)
    broken.__dict__["translate"] = (n, m, step)
    with pytest.raises(EhrcollapseError, match="translate identity"):
        counting.count_triangle_many(broken, range(a, a + length))


@settings(max_examples=150, deadline=None)
@given(st.data(), translate_pairs().filter(lambda pair: pair.translate[1] == 0), starts,
       st.integers(1, 6), st.sampled_from((1, -1)), st.booleans())
def test_an_off_by_one_in_a_strip_letter_or_row_sum_fails_its_tail_check(data, pair, a, chunk,
                                                                         error, in_letter):
    """One letter of a chunk's Beatty word, or one running sum of its pass over
    one residue mod s, off by error: the counts C(m) of each residue class it
    touches are off from there on, in that chunk and, carried, in the next.
    The closing floor sums recount the last count of every class, so the run
    fails whenever one of its counts C(r*t) is off, and is right otherwise."""
    n, _, _ = pair.translate
    r, run_of, accumulate_of = _rows(pair), counting.floor_surd_run, counting.accumulate
    run = range(a, a + data.draw(st.integers(2 * n + 1, 4 * n + 3 * chunk + 12)))
    target = data.draw(st.integers(0, -(-len(run) // chunk) - 1))  # the chunk at fault
    residue = data.draw(st.integers(0, n - 1))
    runs, passes, off = [], [], []  # the m of each chunk, the passes, the m whose C is off

    def faulty_run(a, b, c, d, ms):  # one letter off: each floor after it is off
        values = run_of(a, b, c, d, ms)
        runs.append(ms)
        if in_letter and len(runs) - 1 == target and len(ms) > 1:
            at = data.draw(st.integers(1, len(ms) - 1))
            values[at:] = [x + error for x in values[at:]]
            off.extend(ms[at:])
        return values

    def faulty_accumulate(column):  # one running sum off: each one after it is off
        sums = list(accumulate_of(column))
        passes.append(len(runs) - 1)
        if not in_letter and passes[-1] == target and passes.count(target) == residue + 1 \
                and len(sums) > 1:
            at = data.draw(st.integers(1, len(sums) - 1))
            sums[at:] = [x + error for x in sums[at:]]
            off.append(runs[-1][0] + residue + (at - 1) * n)  # entry j: m = start + k + (j - 1)*s
        return sums

    per_t = [counting.count_triangle(pair, t) for t in run]
    with patch.object(counting, "STRIP_CHUNK", chunk), \
            patch.object(counting, "floor_surd_run", faulty_run), \
            patch.object(counting, "accumulate", faulty_accumulate):
        try:
            counts = counting.count_triangle_many(pair, run)
        except EhrcollapseError as exc:
            assert "translate identity" in str(exc)
            counts = None
    assert len(runs) == -(-len(run) // chunk) and len(passes) == n * len(runs)
    reached = any(r * t >= m and (r * t - m) % n == 0 for m in off for t in run)
    assert counts == (None if reached else per_t)


@settings(max_examples=60, deadline=None)
@given(st.data(), translate_pairs().filter(lambda pair: pair.translate[1] == 0), starts,
       st.integers(1, 6))
def test_strip_runs_across_chunk_boundaries_match_per_t_counts(data, pair, a, chunk):
    """A strip run takes its strips in chunks of STRIP_CHUNK t; chunks of one
    to six t put boundaries all through the run."""
    n, _, _ = pair.translate
    run = range(a, a + data.draw(st.integers(2 * n + 1, 4 * n + 3 * chunk + 12)))
    per_t = [counting.count_triangle(pair, t) for t in run]
    with patch.object(counting, "STRIP_CHUNK", chunk):
        assert counting.count_triangle_many(pair, run) == per_t
        assert counting.count_triangle_many(pair, list(run)) == per_t


def test_a_strip_run_longer_than_one_chunk_matches_per_t_counts():
    pair = TrianglePair(parse_quad("3,3/4,7"), Fraction(7, 4))  # 1/u has a negative surd
    run = range(3, 3 + counting.STRIP_CHUNK + 40)
    assert pair.translate[1] == 0
    per_t = counting.count_triangle_many(pair, run[::-1])[::-1]  # a descending list is no run
    assert counting.count_triangle_many(pair, run) == per_t


@st.composite
def two_leg_pairs(draw):
    """The legs u, v of a triangle of translate_pairs, or of one with no
    translate identity: an irrational leg beside another of its field or
    beside a rational leg of denominator above MAX_STRIP_FLOORS."""
    if draw(st.booleans()):
        return draw(translate_pairs())
    d = draw(st.sampled_from((2, 3, 5, 7, 10 ** 9 + 7)))
    irrational = quad_leg(d).filter(lambda x: not x.is_rational)
    r = draw(st.integers(MAX_STRIP_FLOORS + 1, 12))
    rational = st.integers(1, 3 * r).map(lambda s: QuadNumber(Fraction(s, r)))
    pair = TrianglePair(draw(irrational), draw(st.one_of(irrational, rational)))
    assume(pair.translate is None)
    return pair


@settings(max_examples=100, deadline=None)
@given(st.data(), two_leg_pairs(), starts)
def test_a_two_leg_simplex_counts_as_its_triangle(data, pair, a):
    """The simplex of legs 1/u and 1/v, given in either order, counts what the
    triangle of its legs counts, over runs and shuffled lists, and what the
    point oracle counts at t <= 30."""
    legs = (1 / pair.u, 1 / pair.v)
    small, big = sorted(legs)
    triangle = TrianglePair(1 / small, 1 / big)
    run = range(a, a + data.draw(st.integers(0, 60)))
    shuffled = data.draw(st.permutations(run))
    for simplex in (AxisSimplex(legs), AxisSimplex(legs[::-1])):
        for ts in (run, shuffled):
            assert (counting.count_axis_simplex_many(simplex, ts)
                    == counting.count_triangle_many(triangle, ts))
    want = oracles.count_simplex_quad_range([_triple(pair.u), _triple(pair.v)], pair.slopes[1], 30)
    assert counting.count_axis_simplex_many(AxisSimplex(legs), range(31)) == want


@pytest.mark.parametrize("legs", ["2 3", "1,1,2 3/7", "3/7 1,1,2", "3/2,-1/2,5 3/2,1/2,5"])
def test_a_two_leg_simplex_run_makes_the_identity_calls(legs):
    """A run of a simplex of two legs is a run of its triangle: n + m seeds
    (none for a strip from t = 0, whose counts below t = 0 are 0) and n
    closing floor sums, whatever the legs' order."""
    simplex = AxisSimplex(tuple(map(parse_quad, legs.split())))
    n, m, _ = simplex.final_triangle.translate
    calls, count_below = [], counting._count_below

    def recorded(pair, ts, d):
        ts = list(ts)
        calls.append(len(ts))
        return count_below(pair, ts, d)

    want = counting.count_triangle_many(simplex.final_triangle, [*range(2000)][::-1])[::-1]
    with patch.object(counting, "_count_below", recorded):
        assert counting.count_axis_simplex_many(simplex, range(2000)) == want
    assert calls == [n + m if m else 0, n]


def test_pairs_that_counted_a_translate_run_still_pickle():
    for pair in (AdmissiblePair(3, 3), TrianglePair(parse_quad("1/2,3/4,7"), Fraction(7, 4))):
        want = counting.count_triangle_many(pair, range(40))
        copy = pickle.loads(pickle.dumps(pair))
        assert copy == pair and counting.count_triangle_many(copy, range(40)) == want


def test_rational_legs_of_large_denominator_have_no_strip():
    sqrt2 = QuadNumber(Fraction(0), Fraction(1), 2)
    for v in (Fraction(1, MAX_STRIP_FLOORS + 1), Fraction(1, 10 ** 6)):
        assert TrianglePair(sqrt2, v).translate is None
        assert TrianglePair(v, sqrt2).translate is None
    assert TrianglePair(sqrt2, QuadNumber(Fraction(0), Fraction(1), 3)).translate is None
    # two rational legs u = q/p, v = s/r have the identity (min(q, s), max(q, s), p*r)
    # whatever r is
    assert TrianglePair(Fraction(1, 2), Fraction(3, 4)).translate == (1, 3, 8)
    assert TrianglePair(Fraction(7, 10 ** 6), Fraction(3, 4)).translate == (3, 7, 4 * 10 ** 6)


@st.composite
def no_identity_pairs(draw):
    """A quadratic irrational leg beside a rational leg of denominator above
    MAX_STRIP_FLOORS, or beside an irrational leg that makes no admissible
    pair, in either order."""
    d = draw(st.sampled_from((2, 3, 5, 7, 10, 13, 10 ** 9 + 7)))
    irrational = draw(quad_leg(d).filter(lambda x: not x.is_rational))
    if draw(st.booleans()):
        other = QuadNumber(draw(st.fractions(1, 20, max_denominator=10 ** 6).filter(
            lambda x: x.denominator > MAX_STRIP_FLOORS)))
    else:
        other = draw(quad_leg(draw(st.sampled_from((d, 3 if d == 2 else 2))))
                     .filter(lambda x: not x.is_rational
                             and (x.d != irrational.d or not (irrational + x).is_integer())))
    pair = TrianglePair(irrational, other)
    return pair.swapped() if draw(st.booleans()) else pair


@settings(max_examples=100, deadline=None)
@given(translate_pairs(), no_identity_pairs())
def test_a_translate_is_integers_that_pickle_and_a_strip_holds_its_slope(with_identity,
                                                                         without):
    """translate is None or a tuple of ints, one of them at most a tuple of four
    ints; it is the same after a pickle and hashes.  A strip's step (r, a, b, c)
    holds -1/(r*u) = (a + b*sqrt(d))/c for its irrational leg u and the radicand
    d of its slopes, so a wrong sign or a wrong r shows without a count."""
    assert without.translate is None
    for pair in (with_identity, without):
        identity = pair.translate
        copy = pickle.loads(pickle.dumps(pair))
        assert copy.translate == identity and hash(copy.translate) == hash(identity)
        if identity is None:
            continue
        n, m, step = identity
        ints = (n, m) + (step if m == 0 else (step,))
        assert all(type(x) is int for x in ints) and len(ints) == (6 if m == 0 else 3)
        if m == 0:
            r, a, b, c = step
            leg, irrational = (pair.v, pair.u) if pair.v.is_rational else (pair.u, pair.v)
            assert leg == QuadNumber(Fraction(n, r))
            d = pair.slopes[1]
            assert QuadNumber(Fraction(a, c), Fraction(b, c), d) == -1 / (irrational * r)


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
@given(st.data(), st.integers(1, 200), st.sampled_from((1, 1000033, 10 ** 9 + 7)),
       st.one_of(st.integers(2, 50), st.sampled_from((1000003, 1000033))))
def test_a_square_factor_of_the_radicand_leaves_the_counts_alone(data, k, q, s):
    """Legs over s*s*n, with n = k*q and s a small square factor or a prime past
    10**6, keep the square factor s*s; they count as the same legs over n."""
    u, v = data.draw(quad_leg(k * q)), data.draw(quad_leg(k * q))
    wide_u, wide_v = (QuadNumber(x.a, x.b / s, s * s * x.d) if x.d else x for x in (u, v))
    assert (wide_u.d, wide_v.d) == (s * s * u.d, s * s * v.d)
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


# -- one expansion per slope -----------------------------------------------------


nonsquare_radicands = radicands.filter(lambda d: isqrt(d) ** 2 != d)


@st.composite
def slope_and_offsets(draw):
    """A slope a, the radicand its expansion is built over, and offsets b over
    a radicand d for the walk: an integer or rational a (negative too, as the
    strips of a rational triangle pass them) with rational or quadratic
    offsets, or a quadratic a with offsets over its own d."""
    kind = draw(st.sampled_from(("integer", "rational", "quadratic")))
    if kind == "quadratic":
        d = draw(nonsquare_radicands)
        scale = draw(st.sampled_from((1, isqrt(d))))
        c = draw(st.integers(1, 40)) * scale
        a0 = draw(st.one_of(st.just(0), st.integers(-3 * c, 3 * c)))  # 0: a = b*sqrt(d)/c
        a = (a0, draw(st.integers(-5, 5).filter(bool)), c)
        a_d = d
    else:
        c = 1 if kind == "integer" else draw(st.integers(1, 40))
        a, a_d = (draw(st.integers(-6 * c, 6 * c)), 0, c), 0
        d = draw(st.one_of(st.just(0), nonsquare_radicands))
    root = isqrt(d)
    offset = st.builds(
        lambda b0, b1, bc: (b0, b1 if d else 0, bc * (root or 1)),
        st.integers(-10 ** 6, 10 ** 6), st.integers(-5, 5), st.integers(1, 40))
    return a, a_d, d, offset


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_expansion_serves_many_floor_sums(data):
    """Calls in random order read one expansion, some deeper and some
    shallower than the calls before them; each equals a walk of a fresh
    expansion and, for small n, a point loop.  The shared expansion grows
    as deep as the deepest call and no deeper."""
    a, a_d, d, offsets = data.draw(slope_and_offsets())
    shared = Expansion(a, a_d)
    calls = data.draw(st.lists(
        st.tuples(st.one_of(st.integers(0, 60), st.integers(10 ** 3, 10 ** 12)), offsets),
        min_size=2, max_size=8))
    depth = 0
    for n, b in calls:
        fresh = Expansion(a, a_d)
        got = counting._floor_sum(n, shared, b, d)
        assert got == counting._floor_sum(n, fresh, b, d)
        if n <= 60:
            assert got == oracles.floor_sum_points(n, a, b, d)
        depth = max(depth, len(fresh.steps))
    assert len(shared.steps) == depth


def _steps(cf, n):
    """The first n steps of cf, grown as needed."""
    while len(cf.steps) < n:
        cf.grow()
    return cf.steps[:n]


def _quotients(cf, n):
    return [step[0] for step in _steps(cf, n)]


def _continued_fraction_value(quotients):
    value = Fraction(quotients[-1])
    for q in reversed(quotients[:-1]):
        value = q + 1 / value
    return value


def test_expansion_of_known_slopes():
    assert _steps(Expansion((-4, 0, 1), 0), 1) == [(-4, 0, 0, 0, 0, 0, 0)]  # ends at step 0
    rational = _steps(Expansion((-7, 0, 5), 0), 4)  # -7/5 = [-2; 1, 1, 2]
    assert [step[0] for step in rational] == [-2, 1, 1, 2]
    assert [step[3] == 0 for step in rational] == [False, False, False, True]
    sqrt2, golden = Expansion((0, 1, 1), 2), Expansion((1, 1, 2), 5)
    assert _quotients(sqrt2, 8) == [1] + [2] * 7
    assert _quotients(golden, 8) == [1] * 8
    assert _quotients(Expansion((0, 1, 2), 2), 5) == [0, 1, 2, 2, 2]  # sqrt(2)/2
    assert sqrt2.steps[1][4:] == (1, 1, 1)  # 1/(sqrt(2) - 1) = 1 + sqrt(2), reduced


def test_floor_sum_rejects_an_offset_from_another_field():
    counting._floor_sum(5, Expansion((1, 0, 3), 0), (0, 1, 1), 3)  # a rational slope fits any field
    with pytest.raises(AssertionError):
        counting._floor_sum(5, Expansion((0, 1, 1), 2), (0, 1, 1), 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
def test_rational_expansion_ends_and_gives_back_its_slope(p, q):
    cf = Expansion((p * 3, 0, q * 3), 0)  # the builder reduces a, too
    cf.grow()
    while cf.steps[-1][3]:
        cf.grow()
    quotients = [step[0] for step in cf.steps]
    assert _continued_fraction_value(quotients) == Fraction(p, q)
    assert all(q >= 1 for q in quotients[1:])


@settings(max_examples=40, deadline=None)
@given(st.data(), radicands)
def test_closed_and_interior_counts_share_the_expansion(data, d):
    """Closed and interior counts of one triangle, in random order of t,
    walk the triangle's one expansion and match the point oracles; it grows
    as deep as the deepest count on a new triangle needs."""
    u, v = data.draw(quad_leg(d)), data.draw(quad_leg(d))
    pair = TrianglePair(u, v)
    cf = pair.expansion
    dd = u.d or v.d
    depth = 0
    for t in data.draw(st.permutations(range(15))):
        assert counting.count_triangle_interior(pair, t) == oracles.count_triangle_quad(
            _triple(u), _triple(v), dd, t, strict=True)
        assert counting.count_triangle_many(pair, [t]) == [
            oracles.count_triangle_quad(_triple(u), _triple(v), dd, t)]
        fresh = TrianglePair(u, v)
        counting.count_triangle_interior(fresh, t)
        counting.count_triangle_many(fresh, [t])
        depth = max(depth, len(fresh.expansion.steps))
    assert pair.expansion is cf and len(cf.steps) == depth


@settings(max_examples=25, deadline=None)
@given(st.data(), radicands, st.integers(2, 3))
def test_simplex_counts_share_the_expansion_in_every_leg_order(data, d, dim):
    legs = [data.draw(quad_leg(d)) for _ in range(dim)]
    dd = max(leg.d for leg in legs)
    want = oracles.count_simplex_quad_range([_triple(1 / leg) for leg in legs], dd, 6)
    for perm in permutations(legs):
        simplex = AxisSimplex(perm)
        cf = simplex.final_triangle.expansion
        ts = data.draw(st.permutations(range(7)))
        assert [counting.count_axis_simplex(simplex, t) for t in ts] == [want[t] for t in ts]
        assert simplex.final_triangle.expansion is cf and cf.steps


@settings(max_examples=20, deadline=None)
@given(st.data(), radicands, st.integers(3, 4))
def test_simplex_counts_match_the_oracle_in_every_leg_order(data, d, dim):
    """3-D and 4-D legs from one field: the walk takes the smallest legs, in
    whatever order they are given, and every order counts alike."""
    legs = [data.draw(quad_leg(d)) for _ in range(dim)]
    dd = max(leg.d for leg in legs)
    t_max = 6 if dim == 3 else 4
    want = oracles.count_simplex_quad_range([_triple(1 / leg) for leg in legs], dd, t_max)
    for perm in permutations(legs):
        simplex = AxisSimplex(perm)
        assert [counting.count_axis_simplex(simplex, t) for t in range(t_max + 1)] == want


@settings(max_examples=30, deadline=None)
@given(st.data(), radicands, st.sampled_from((1, 3, 4)))
def test_simplex_count_runs_and_lists_match_the_oracle_in_every_leg_order(data, d, dim):
    """count_axis_simplex_many on a run from any start and on a shuffled list
    with repeats, for one leg (the points 0 <= x <= t*L) and for 3-D and 4-D
    legs from one field, in every leg order."""
    legs = [data.draw(quad_leg(d)) for _ in range(dim)]
    dd = max(leg.d for leg in legs)
    t_max = {1: 12, 3: 8, 4: 5}[dim]
    want = oracles.count_simplex_quad_range([_triple(1 / leg) for leg in legs], dd, t_max)
    start = data.draw(st.integers(0, t_max))
    ts = data.draw(st.lists(st.integers(0, t_max), max_size=2 * t_max))
    for perm in permutations(legs):
        simplex = AxisSimplex(perm)
        assert counting.count_axis_simplex_many(simplex, range(start, t_max + 1)) == want[start:]
        assert counting.count_axis_simplex_many(simplex, ts) == [want[t] for t in ts]


def test_simplex_counts_with_a_huge_step_denominator_match_the_oracle():
    # the walked leg near 3/4 has a step 1/L of denominator ~1.7e27, so the
    # walk's right-hand sides carry that denominator
    d = 9554652451792730
    legs = [QuadNumber(Fraction(5, 2)), QuadNumber(3),
            QuadNumber(6, Fraction(-4096, 133458469607), d),
            QuadNumber(Fraction(7, 4), Fraction(-32768, 3203003270571), d)]
    want = oracles.count_simplex_quad_range([_triple(1 / leg) for leg in legs], d, 6)
    assert want == [1, 11, 64, 201, 490, 1006, 1851]
    for perm in permutations(legs):
        simplex = AxisSimplex(perm)
        assert simplex.walk[1] > 10 ** 27
        assert counting.count_axis_simplex_many(simplex, range(7)) == want
        assert counting.count_axis_simplex_many(simplex, [6, 0, 6, 3]) == [1851, 1, 1851, 201]
