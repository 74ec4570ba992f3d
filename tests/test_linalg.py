"""Property tests of the exact linear-algebra kernel: fraction-free integer
and rational rank against the pivot count of the rational reduced row
echelon form, the integer kernel against its nullspace, and span
membership against ranks."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from math import gcd

from ncpq._linalg import in_span, int_echelon, int_kernel, int_rank, rank

from oracles import rref, rref_nullspace, rref_rank

ENTRIES = st.integers(min_value=-6, max_value=6)


@st.composite
def integer_matrices(draw):
    """Integer matrices up to 8x8. Half of them are made degenerate: some
    rows and columns zeroed, and some rows integer combinations of others."""
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(0, 8))
    rows = [draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if not draw(st.booleans()):
        return rows, ncols
    zero_cols = draw(st.sets(st.integers(0, ncols - 1))) if ncols else set()
    zero_rows = draw(st.sets(st.integers(0, nrows - 1))) if nrows else set()
    for row in rows:
        for c in zero_cols:
            row[c] = 0
    for r in zero_rows:
        rows[r] = [0] * ncols
    for r in range(nrows):
        if nrows > 1 and draw(st.booleans()):
            a, b = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
            x, y = draw(ENTRIES), draw(ENTRIES)
            rows[r] = [x * p + y * q for p, q in zip(rows[a], rows[b])]
    return rows, ncols


@st.composite
def low_rank_products(draw):
    """A (rows x k)(k x cols) product, of rank at most k."""
    nrows, ncols, k = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(0, 3))
    left = [draw(st.lists(ENTRIES, min_size=k, max_size=k)) for _ in range(nrows)]
    right = [draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)) for _ in range(k)]
    rows = [[sum(left[i][s] * right[s][j] for s in range(k)) for j in range(ncols)]
            for i in range(nrows)]
    return rows, ncols, k


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_int_rank_matches_rational_rank(case):
    rows, ncols = case
    assert int_rank(rows, ncols) == rref_rank(rows, ncols)


@settings(max_examples=200, deadline=None)
@given(low_rank_products())
def test_int_rank_of_low_rank_products(case):
    rows, ncols, k = case
    got = int_rank(rows, ncols)
    assert got == rref_rank(rows, ncols)
    assert got <= k


@st.composite
def fraction_matrices(draw):
    """Rational matrices with denominators 2..7: the integer matrices above
    with each row divided by its own denominator, then some rows replaced by
    combinations of two others with rational coefficients, so rows mix
    denominators and rank deficiency survives."""
    rows, ncols = draw(integer_matrices())
    dens = st.integers(2, 7)
    rows = [[Fraction(x, d) for x in row] for row in rows for d in [draw(dens)]]
    for r in range(len(rows)):
        if len(rows) > 1 and draw(st.booleans()):
            a, b = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            x, y = Fraction(draw(ENTRIES), draw(dens)), Fraction(draw(ENTRIES), draw(dens))
            rows[r] = [x * p + y * q for p, q in zip(rows[a], rows[b])]
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(fraction_matrices())
def test_rank_of_fraction_matrices(case):
    rows, ncols = case
    assert rank(rows, ncols) == rref_rank(rows, ncols)


NON_UNITS = st.sampled_from([-6, -4, -3, -2, 2, 3, 4, 6])


@st.composite
def sparse_non_unit_matrices(draw):
    """Sparse integer matrices up to 10x10 with no unit entry: at most three
    nonzero entries per row, each row then scaled by a common factor, and
    some rows replaced by combinations of two others, so pivots are never
    units and rows share factors."""
    nrows, ncols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for c in draw(st.sets(st.integers(0, ncols - 1), max_size=3)):
            row[c] = draw(NON_UNITS)
        factor = draw(st.integers(1, 5))
        rows.append([factor * x for x in row])
    for r in range(nrows):
        if nrows > 1 and draw(st.booleans()):
            a, b = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
            x, y = draw(NON_UNITS), draw(NON_UNITS)
            rows[r] = [x * p + y * q for p, q in zip(rows[a], rows[b])]
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(sparse_non_unit_matrices())
def test_int_rank_of_sparse_matrices_without_unit_pivots(case):
    rows, ncols = case
    before = [list(row) for row in rows]
    assert int_rank(rows, ncols) == rref_rank(rows, ncols)
    assert rows == before  # the input is not modified


def test_int_rank_with_shared_factors_and_non_unit_pivots():
    assert int_rank([[2, 4], [3, 6]], 2) == 1
    assert int_rank([[4, 6], [6, 9]], 2) == 1
    assert int_rank([[6, 0, 4], [0, 9, 6], [6, 9, 10]], 3) == 2
    assert int_rank([[2, 0], [0, 3]], 2) == 2
    assert int_rank([[0, 4, 6], [3, 2, 0], [3, 0, -3]], 3) == 2


def test_int_rank_degenerate_shapes():
    assert int_rank([], 0) == 0
    assert int_rank([], 4) == 0
    assert int_rank([[], []], 0) == 0
    assert int_rank([[0, 0, 0], [0, 0, 0]], 3) == 0
    assert int_rank([[0, 2, 4], [0, 1, 2], [0, 0, 0]], 3) == 1
    assert int_rank([[1, 2, 3, 4], [2, 4, 6, 9]], 4) == 2
    upper = [[int(j >= i) for j in range(8)] for i in range(8)]
    assert int_rank(upper, 8) == 8
    assert int_rank(upper[::-1], 8) == 8


def _kernel_cases():
    return st.one_of(integer_matrices(),
                     low_rank_products().map(lambda case: case[:2]),
                     sparse_non_unit_matrices())


@settings(max_examples=200, deadline=None)
@given(_kernel_cases())
def test_int_kernel_is_a_primitive_basis_of_the_nullspace(case):
    rows, ncols = case
    basis = int_kernel(rows, ncols)
    oracle = rref_nullspace(rows, ncols)
    assert len(basis) == len(oracle) == ncols - int_rank(rows, ncols)
    free = [c for c in range(ncols) if c not in rref(rows, ncols)[1]]
    for v, w, f in zip(basis, oracle, free):
        assert all(type(x) is int for x in v)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)
        assert gcd(*v) == 1 and v[f] > 0
        # parallel to the rational vector with 1 at its free column
        assert all(x == v[f] * y for x, y in zip(v, w))


@settings(max_examples=200, deadline=None)
@given(_kernel_cases(), st.lists(ENTRIES, min_size=10, max_size=10), st.booleans())
def test_in_span_is_no_rank_increase(case, entries, combine):
    rows, ncols = case
    v = entries[:ncols]
    if combine and rows:
        # half the time, a combination of the rows, which must be in the span
        v = [sum(c * row[j] for c, row in zip(entries, rows)) for j in range(ncols)]
    echelon = int_echelon(rows, ncols)
    assert in_span(echelon, v) == (int_rank(list(rows) + [v], ncols) == int_rank(rows, ncols))
    if combine and rows:
        assert in_span(echelon, v)


def test_int_echelon_rows_start_at_their_pivots():
    echelon = int_echelon([[0, 2, 4, 1], [0, 1, 2, 3], [1, 0, 0, 0]], 4)
    assert [c for c, _ in echelon] == [0, 1, 3]
    for c, row in echelon:
        assert row[c] and not any(row[:c])


def test_int_kernel_scales_to_integers():
    # The rational kernel vector (-1/2, -3/2, 1), scaled by 2.
    assert int_kernel([[2, 0, 1], [0, 2, 3]], 3) == [(-1, -3, 2)]
    assert int_kernel([[0, 3, 6]], 3) == [(1, 0, 0), (0, -2, 1)]
    assert int_kernel([], 2) == [(1, 0), (0, 1)]
    assert int_kernel([[1, 2]], 2) == [(-2, 1)]
    assert int_kernel([[4, 6]], 2) == [(-3, 2)]
