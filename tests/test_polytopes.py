"""Parameter objects: validation, classification, exact identities."""

import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ehrcollapse.arith import QuadNumber, quad_sqrt
from ehrcollapse.criteria import CriterionReport, check_collapse_criterion
from ehrcollapse.polytopes import (
    AdmissiblePair,
    AxisSimplex,
    Interval,
    NotIrrationalError,
    RationalTriangle2D,
    RationalTriangleParams,
    TrianglePair,
    is_admissible,
    iter_admissible_pairs,
    iter_lowest_term_params,
    mcallister_woods_image,
    mcallister_woods_pair,
    scales_to_admissible,
)
from ehrcollapse.precursive import Recurrence
from ehrcollapse.quasipoly import Quasipolynomial, ReciprocityReport, SeriesNumerator


# -- AdmissiblePair ---------------------------------------------------------------


def test_admissible_exact_identities():
    # leg sum, reciprocal-leg sum, and product as exact identities
    for pair in iter_admissible_pairs(100):
        assert pair.u + pair.v == pair.alpha
        assert 1 / pair.u + 1 / pair.v == pair.beta
        assert pair.u * pair.v == Fraction(pair.alpha, pair.beta)
        assert pair.u >= pair.v > 0


def test_admissible_rejects_small_or_square_products():
    for alpha, beta in ((1, 1), (1, 4), (2, 2), (4, 1), (2, 1)):
        with pytest.raises(NotIrrationalError):
            AdmissiblePair(alpha, beta)
    with pytest.raises(ValueError):
        AdmissiblePair(0, 5)


def test_admissibility_matches_the_discriminant_test():
    for alpha in range(-3, 41):
        for beta in range(-3, 41):
            want = oracles.admissible_by_discriminant(alpha, beta)
            assert is_admissible(alpha, beta) == want
            if want:
                AdmissiblePair(alpha, beta)
            elif alpha < 1 or beta < 1:
                with pytest.raises(ValueError, match="must be positive integers"):
                    AdmissiblePair(alpha, beta)
            else:
                with pytest.raises(NotIrrationalError, match="rational leg ratio"):
                    AdmissiblePair(alpha, beta)
    want = [(a, b) for a in range(1, 201) for b in range(1, 200 // a + 1)
            if oracles.admissible_by_discriminant(a, b)]
    assert [(pair.alpha, pair.beta) for pair in iter_admissible_pairs(200)] == want


def test_admissible_known_roots():
    golden = AdmissiblePair(3, 3)
    assert golden.u == QuadNumber(Fraction(3, 2), Fraction(1, 2), 5)
    assert golden.v == golden.u.conjugate()
    square = AdmissiblePair(2, 4)
    assert square.u == QuadNumber(Fraction(1), Fraction(1, 4), 8)
    assert square.u == QuadNumber(Fraction(1), Fraction(1, 2), 2)


def test_admissible_triangle_kind():
    assert AdmissiblePair(3, 3).triangle().kind == "admissible"
    assert AdmissiblePair(5, 1).triangle().kind == "admissible"


# -- TrianglePair classification -----------------------------------------------------


def test_triangle_pair_kinds():
    rational = TrianglePair(QuadNumber(Fraction(3, 2)), QuadNumber(Fraction(2, 3)))
    assert rational.kind == "rational"
    other = TrianglePair(QuadNumber(Fraction(1)), quad_sqrt(2))
    assert other.kind == "other"
    # integer sums but mismatched radicands stay unclassified
    mixed = TrianglePair(1 + quad_sqrt(2), 1 + quad_sqrt(3))
    assert mixed.kind == "other"


def test_triangle_pair_positive_legs_required():
    with pytest.raises(ValueError):
        TrianglePair(QuadNumber(Fraction(0)), QuadNumber(Fraction(1)))
    with pytest.raises(ValueError):
        TrianglePair(QuadNumber(Fraction(1)), quad_sqrt(2) - 2)


def test_triangle_pair_swap_and_json():
    pair = AdmissiblePair(3, 3).triangle()
    assert pair.swapped().u == pair.v
    encoded = pair.to_json_dict()
    assert encoded["class"] == "admissible"
    assert set(encoded) == {"u", "v", "class"}


# -- RationalTriangleParams ---------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        RationalTriangleParams(2, 4, 1, 1)  # q/p not in lowest terms
    with pytest.raises(ValueError):
        RationalTriangleParams(1, 1, 3, 6)
    with pytest.raises(ValueError):
        RationalTriangleParams(0, 1, 1, 1)


def test_params_legs_and_denominator():
    params = RationalTriangleParams(2, 3, 3, 2)
    assert params.u == Fraction(3, 2) and params.v == Fraction(2, 3)
    assert params.denominator == 6
    assert RationalTriangleParams(1, 2, 2, 1).denominator == 2
    assert RationalTriangleParams(1, 1, 1, 1).denominator == 1


def test_params_from_fractions_reduces():
    params = RationalTriangleParams.from_fractions(Fraction(6, 4), Fraction(2, 3))
    assert (params.p, params.q, params.r, params.s) == (2, 3, 3, 2)


def test_params_triangle():
    params = RationalTriangleParams(2, 3, 5, 4)
    assert params.triangle().kind == "rational"


def _lowest_terms(n, d):
    g = gcd(n, d)
    return n // g, d // g


sizes = st.integers(1, 40) | st.integers(1, 2 ** 80)


@given(st.builds(_lowest_terms, sizes, sizes), st.builds(_lowest_terms, sizes, sizes))
def test_the_params_triangle_is_the_pair_of_its_fractions(pq, rs):
    (p, q), (r, s) = pq, rs
    triangle = RationalTriangleParams(p, q, r, s).triangle()
    pair = TrianglePair(Fraction(q, p), Fraction(s, r))
    assert triangle == pair
    assert (triangle.u.triple, triangle.v.triple, triangle.u.d, triangle.v.d) == (
        (q, 0, p), (s, 0, r), 0, 0)
    assert triangle.slopes == pair.slopes and triangle.translate == pair.translate


# -- simplex, interval, explicit triangle ----------------------------------------------


def test_axis_simplex_validation():
    simplex = AxisSimplex((QuadNumber(Fraction(1, 2)), QuadNumber(Fraction(3))))
    assert simplex.dim == 2
    with pytest.raises(ValueError):
        AxisSimplex(())
    with pytest.raises(ValueError):
        AxisSimplex((QuadNumber(Fraction(1)), QuadNumber(Fraction(0))))


def test_interval_validation():
    Interval(quad_sqrt(2), 3 + quad_sqrt(2))
    with pytest.raises(ValueError):
        Interval(quad_sqrt(2), quad_sqrt(2))
    with pytest.raises(ValueError):
        Interval(3 + quad_sqrt(2), quad_sqrt(2))


def test_triangle2d_validation():
    with pytest.raises(ValueError):
        RationalTriangle2D((
            (Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(1)),
            (Fraction(2), Fraction(2)),
        ))


# -- families and scans ------------------------------------------------------------


def test_mcallister_woods_pair_shape():
    params = mcallister_woods_pair(5)
    assert (params.p, params.q, params.r, params.s) == (5, 1, 4, 5)
    with pytest.raises(ValueError):
        mcallister_woods_pair(1)


def test_mcallister_woods_pair_passes_criterion():
    for p in range(2, 51):
        report = check_collapse_criterion(mcallister_woods_pair(p))
        assert report.holds and report.predicted_period_divisor == 1


def test_mcallister_woods_image_vertices():
    tri = mcallister_woods_image(3, 2)
    assert tri.vertices == (
        (Fraction(0), Fraction(0)),
        (Fraction(6), Fraction(0)),
        (Fraction(2), Fraction(4, 3)),
    )


def test_iterators_are_sorted_and_in_bounds():
    pairs = list(iter_admissible_pairs(30))
    assert all(p.alpha * p.beta <= 30 for p in pairs)
    keys = [(p.alpha, p.beta) for p in pairs]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert (3, 3) in keys and (2, 4) in keys and (1, 4) not in keys

    tuples = [(p.p, p.q, p.r, p.s) for p in iter_lowest_term_params(3)]
    assert tuples == sorted(tuples)
    assert (2, 3, 3, 2) in tuples and (2, 4, 1, 1) not in tuples

    boxed = [(p.p, p.q, p.r, p.s) for p in iter_lowest_term_params(2, 3, 1, 4)]
    assert boxed == sorted(boxed)
    assert boxed == [(p, q, 1, s) for p in (1, 2) for q in (1, 2, 3) for s in (1, 2, 3, 4)
                     if (p, q) != (2, 2)]


def test_scales_to_admissible():
    # (3/2, 4) doubles to the admissible (3, 2)
    assert scales_to_admissible(Fraction(3, 2), Fraction(4))
    assert scales_to_admissible(Fraction(3), Fraction(3))
    # no integer scaling of (2, 5/2) lands on integer sums
    assert not scales_to_admissible(Fraction(2), Fraction(5, 2))
    assert not scales_to_admissible(Fraction(1), Fraction(4))


sums = st.fractions(min_value=Fraction(-2), max_value=Fraction(60), max_denominator=12)
# (a/c, b*c/k) dilates by c to (a, b/k), which is admissible for k = 1 and a*b >= 5
dilates = st.builds(lambda a, c, b, k: (Fraction(a, c), Fraction(b * c, k)),
                    st.integers(-3, 40), st.integers(1, 12), st.integers(-3, 40), st.integers(1, 12))


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.tuples(sums, sums), dilates))
def test_scales_to_admissible_matches_the_scan(sum_pair):
    assert scales_to_admissible(*sum_pair) == oracles.scales_to_admissible_scan(*sum_pair)


admissible_legs = st.sampled_from([(pair.u, pair.v) for pair in iter_admissible_pairs(40)])
scales = st.fractions(min_value=Fraction(1, 6), max_value=Fraction(6), max_denominator=6)


@settings(max_examples=200, deadline=None)
@given(admissible_legs, admissible_legs, scales, scales, st.booleans())
def test_kind_matches_the_ratio_test(first, second, r1, r2, conjugate):
    # legs of one pair, of two pairs, scaled and conjugated, and one leg rational
    u, v = first[0] * r1, (second[1] if conjugate else first[1]) * r2
    for legs in ((u, v), (v, u), (u, QuadNumber(r2)), (QuadNumber(r1), v)):
        if all(leg > 0 for leg in legs):
            assert TrianglePair(*legs).kind == oracles.classify_legs_by_ratio(*legs)


# -- value classes ------------------------------------------------------------------


_Q = "QuadNumber(Fraction({}, {}), Fraction({}, {}), {})"
_CONDITIONS = (("s divides p", True), ("p divides r*q + 1", False))
VALUE_CLASSES = [
    (TrianglePair, dict(u=Fraction(1, 2), v=quad_sqrt(2)), dict(u=Fraction(1, 2), v=quad_sqrt(3)),
     f"TrianglePair(u={_Q.format(1, 2, 0, 1, 0)}, v={_Q.format(0, 1, 1, 1, 2)})"),
    (AdmissiblePair, dict(alpha=4, beta=3), dict(alpha=3, beta=4),
     # u, v = 2 +- sqrt(96)/6, over the radicand alpha*beta*(alpha*beta - 4) = 96 as it is
     f"AdmissiblePair(alpha=4, beta=3, u={_Q.format(2, 1, 1, 6, 96)}, v={_Q.format(2, 1, -1, 6, 96)})"),
    (RationalTriangleParams, dict(p=7, q=13, r=11, s=9), dict(p=7, q=13, r=9, s=11),
     "RationalTriangleParams(p=7, q=13, r=11, s=9)"),
    (AxisSimplex, dict(legs=(Fraction(1, 2), 3)), dict(legs=(3, Fraction(1, 2))),
     f"AxisSimplex(legs=({_Q.format(1, 2, 0, 1, 0)}, {_Q.format(3, 1, 0, 1, 0)}))"),
    (Interval, dict(lo=Fraction(1, 3), hi=quad_sqrt(2)), dict(lo=Fraction(1, 2), hi=quad_sqrt(2)),
     f"Interval(lo={_Q.format(1, 3, 0, 1, 0)}, hi={_Q.format(0, 1, 1, 1, 2)})"),
    (RationalTriangle2D, dict(vertices=((0, 0), (1, 0), (0, "1/2"))),
     dict(vertices=((0, 0), (0, "1/2"), (1, 0))),
     "RationalTriangle2D(vertices=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1),"
     " Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 2))))"),
    (CriterionReport, dict(criterion="collapse", conditions=_CONDITIONS,
                           predicted_period_divisor=None, verdict="no-prediction"),
     dict(criterion="collapse", conditions=_CONDITIONS[:1], predicted_period_divisor=None,
          verdict="no-prediction"),
     "CriterionReport(criterion='collapse', conditions=(('s divides p', True),"
     " ('p divides r*q + 1', False)), predicted_period_divisor=None, verdict='no-prediction')"),
    (SeriesNumerator, dict(a0=Fraction(1), a1=Fraction(-2), a2=Fraction(1, 2)),
     dict(a0=Fraction(1), a1=Fraction(-2), a2=Fraction(3, 2)),
     "SeriesNumerator(a0=Fraction(1, 1), a1=Fraction(-2, 1), a2=Fraction(1, 2))"),
    (ReciprocityReport, dict(t=3, value_at_neg_t=Fraction(7, 2), interior_count=2,
                             correction=Fraction(3, 2), alpha_divides_t=True),
     dict(t=3, value_at_neg_t=Fraction(7, 2), interior_count=2, correction=Fraction(3, 2),
          alpha_divides_t=False),
     "ReciprocityReport(t=3, value_at_neg_t=Fraction(7, 2), interior_count=2,"
     " correction=Fraction(3, 2), alpha_divides_t=True)"),
    (Quasipolynomial, dict(period=2, degree=1, coeffs=((1, Fraction(1, 2)), ("3/4", -2))),
     dict(period=2, degree=1, coeffs=((1, Fraction(1, 2)), ("3/4", -3))),
     "Quasipolynomial(period=2, degree=1, numerators=((4, 2), (3, -8)), denominator=4)"),
    (Recurrence, dict(order=1, degree=1, polys=((Fraction(2, 3), 0), (-1, "1/6"))),
     dict(order=1, degree=1, polys=((Fraction(2, 3), 0), (-1, "1/7"))),
     "Recurrence(order=1, degree=1, numerators=((4, 0), (-6, 1)), denominator=6)"),
]


def _fill_caches(obj):
    """The triangle of obj, if it has one, with its slopes, expansion and translate
    read, so a pickle holds them as cached; a table's view is read."""
    if hasattr(obj, "KEYS"):
        getattr(obj, obj.KEYS[1])
    pair = obj if isinstance(obj, TrianglePair) else getattr(obj, "triangle", lambda: None)()
    if pair is not None:
        pair.slopes, pair.expansion.grow(), pair.translate
    return pair


@pytest.mark.parametrize("cls, fields, other, text", VALUE_CLASSES,
                         ids=[row[0].__name__ for row in VALUE_CLASSES])
def test_value_classes_compare_hash_print_freeze_and_pickle_by_their_fields(cls, fields, other,
                                                                          text):
    obj = cls(**fields)
    assert repr(obj) == text
    same, different = cls(**fields), cls(**other)
    assert obj == same and hash(obj) == hash(same) and not obj != same
    assert obj != different and hash(obj) != hash(different)
    assert obj != type(cls.__name__, (cls,), {})(**fields)  # equal only within one class
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(obj, name, getattr(different, name))
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert repr(obj) == text
    pair = _fill_caches(obj)
    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is cls and back == obj and repr(back) == text
    if hasattr(cls, "KEYS"):  # a table keeps its view as it was read
        view = cls.KEYS[1]
        assert vars(back)[view] == vars(obj)[view] == getattr(cls(**fields), view)
    if pair is not None:
        copy = back if isinstance(back, TrianglePair) else vars(back)["_triangle"]
        assert {"slopes", "expansion", "translate"} <= vars(copy).keys()
        assert copy.slopes == pair.slopes and copy.expansion.steps == pair.expansion.steps
        assert copy.translate == pair.translate
