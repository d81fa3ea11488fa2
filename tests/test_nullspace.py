"""Integer nullspaces and the column rank test mod p against the Fraction RREF oracle."""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ehrcollapse.precursive import P, _independent, _seed, nullspace_vector


def _primitive_positive(vec):
    """The oracle's Fraction vector as a primitive integer vector whose first
    nonzero entry is positive."""
    scale = lcm(*(v.denominator for v in vec))
    ints = [int(v * scale) for v in vec]
    g = gcd(*ints)
    ints = [v // g for v in ints]
    return ints if next(v for v in ints if v) > 0 else [-v for v in ints]


@st.composite
def integer_systems(draw):
    """Rows of width ncols; some are integer combinations of earlier rows,
    some repeat earlier rows, so the rank is often short of ncols."""
    ncols = draw(st.integers(1, 7))
    entries = st.integers(-10 ** draw(st.integers(1, 12)), 10 ** draw(st.integers(1, 12)))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("fresh", "combination", "repeat", "zero")))
        if kind == "fresh" or not rows:
            rows.append([draw(entries) for _ in range(ncols)])
        elif kind == "combination":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
            rows.append([x * u + y * v for u, v in zip(a, b)])
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append([0] * ncols)
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_nullspace_matches_rref_oracle(system):
    rows, ncols = system
    want = oracles.nullspace_vector_rref(rows, ncols)
    got = nullspace_vector(rows, ncols)
    if want is None:
        assert got is None
        return
    assert got == _primitive_positive(want)
    # the oracle's vector up to a nonzero scale, and in the nullspace
    ratio = Fraction(next(g for g in got if g)) / next(w for w in want if w)
    assert all(g == ratio * w for g, w in zip(got, want))
    assert all(sum(a * v for a, v in zip(row, got)) == 0 for row in rows)


@settings(max_examples=100, deadline=None)
@given(integer_systems(), st.randoms(use_true_random=False))
def test_nullspace_ignores_row_order(system, rnd):
    rows, ncols = system
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert nullspace_vector(shuffled, ncols) == nullspace_vector(rows, ncols)


def test_nullspace_known_vectors():
    # x + y + z = 0 and x - z = 0: the nullspace is spanned by (1, -2, 1)
    assert nullspace_vector([[1, 1, 1], [1, 0, -1]], 3) == [1, -2, 1]
    # the first nonzero entry, in a pivot column, is made positive
    assert nullspace_vector([[2, 3]], 2) == [3, -2]
    assert nullspace_vector([[0, 0]], 2) == [1, 0]
    assert nullspace_vector([], 2) == [1, 0]
    assert nullspace_vector([[1, 2], [3, 4]], 2) is None


def test_nullspace_checks_the_rows_after_the_last_pivot():
    # two pivots of three columns leave (1, -2, 1); later rows are checked against it
    span = [[1, 1, 1], [1, 0, -1]]
    assert nullspace_vector(span + [[2, 1, 0], [0, 0, 0], [-1, 1, 3]], 3) == [1, -2, 1]
    assert nullspace_vector(span + [[2, 1, 0], [0, 0, 1]], 3) is None
    assert nullspace_vector(span + [[2, 1, 0]] * 5 + [[1, 2, 4]], 3) is None
    # one column: no row is eliminated, every row is checked against (1)
    assert nullspace_vector([], 1) == [1]
    assert nullspace_vector([[0], [0]], 1) == [1]
    assert nullspace_vector([[3]], 1) is None
    assert nullspace_vector([[0], [0], [-7]], 1) is None
    # rows from a generator are read once
    assert nullspace_vector(iter(span + [[0, 0, 1]]), 3) is None


@settings(max_examples=200, deadline=None)
@given(integer_systems(), st.randoms(use_true_random=False))
def test_columns_independent_mod_p_leave_no_rational_nullspace(system, rnd):
    rows, ncols = system
    order = list(range(ncols))
    rnd.shuffle(order)
    basis = []
    independent = all(_independent(basis, [row[c] % P for row in rows]) for c in order)
    # a nonzero minor mod P is a nonzero minor over the rationals
    if independent:
        assert oracles.nullspace_vector_rref(rows, ncols) is None
    # a zero column, or more columns than rows, always leaves a dependent one
    if len(rows) < ncols or any(not any(row[c] for row in rows) for c in order):
        assert not independent


@st.composite
def residue_columns(draw):
    """Columns of residues mod P, all of one length: random (small, near P or
    anywhere below it), repeats, zeros and combinations mod P of earlier ones."""
    nrows = draw(st.integers(1, 8))
    entries = st.one_of(st.integers(0, 9), st.integers(P - 9, P - 1), st.integers(0, P - 1))
    cols = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(("fresh", "combination", "repeat", "zero")))
        if kind == "fresh" or not cols:
            cols.append([draw(entries) for _ in range(nrows)])
        elif kind == "combination":
            picked = draw(st.lists(st.sampled_from(cols), min_size=1, max_size=4))
            coeffs = [draw(entries) for _ in picked]
            cols.append([sum(c * col[n] for c, col in zip(coeffs, picked)) % P
                         for n in range(nrows)])
        elif kind == "repeat":
            cols.append(list(draw(st.sampled_from(cols))))
        else:
            cols.append([0] * nrows)
    return cols


@settings(max_examples=300, deadline=None)
@given(residue_columns())
def test_rank_test_matches_the_oracle_that_reduces_at_every_step(cols):
    # the one decision no verification rechecks is a skipped cell, so the
    # unscaled basis must say independent exactly when the scaled one does, and
    # leave _seed the same pivots, inverses and factors
    basis, scaled = [], []
    for col in cols:
        independent = _independent(basis, list(col))
        assert independent == oracles.independent_scaled(scaled, list(col), P)
        (pivot, entry, inv, factors), (pivot_s, entry_s, inv_s, factors_s) = basis[-1], scaled[-1]
        assert (pivot, inv, factors) == (pivot_s, inv_s, factors_s)
        assert all(0 <= x < P for x in entry)
        assert [x * inv % P for x in entry] == entry_s
        if not independent:
            assert _seed(basis, len(cols)) == _seed(scaled, len(cols))
            break
