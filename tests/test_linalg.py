"""Property tests of the exact linear-algebra kernel: fraction-free integer
rank against the rational reduced row echelon form, and the integer
inverse of unimodular matrices."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpq import generate_roots, parse_quiver
from ncpq._linalg import identity_matrix, int_rank, mat_inverse, mat_mul, rank

from conftest import A3_TEXT, D4_TEXT, KRONECKER_TEXT

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
    assert int_rank(rows, ncols) == rank(rows, ncols)


@settings(max_examples=200, deadline=None)
@given(low_rank_products())
def test_int_rank_of_low_rank_products(case):
    rows, ncols, k = case
    got = int_rank(rows, ncols)
    assert got == rank(rows, ncols)
    assert got <= k


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


_REFLECTION_SETS = {
    name: [r.element.matrix for r in roots.reflections()]
    for name, roots in (
        ("a3", generate_roots(parse_quiver(A3_TEXT))),
        ("d4", generate_roots(parse_quiver(D4_TEXT))),
        ("kronecker", generate_roots(parse_quiver(KRONECKER_TEXT), 7)),
    )
}


@st.composite
def reflection_words(draw):
    name = draw(st.sampled_from(sorted(_REFLECTION_SETS)))
    refls = _REFLECTION_SETS[name]
    word = draw(st.lists(st.sampled_from(refls), max_size=8))
    return len(refls[0]), word


@settings(max_examples=200, deadline=None)
@given(reflection_words())
def test_mat_inverse_round_trips_reflection_products(case):
    n, word = case
    product = identity_matrix(n)
    for m in word:
        product = mat_mul(product, m)
    inv = mat_inverse(product)
    assert mat_mul(product, inv) == identity_matrix(n)
    assert mat_mul(inv, product) == identity_matrix(n)
    reversed_product = identity_matrix(n)
    for m in reversed(word):
        reversed_product = mat_mul(reversed_product, m)
    assert inv == reversed_product  # reflections are involutions


def test_mat_inverse_unimodular_with_pivot_swap():
    a = ((0, 1), (1, 0))
    assert mat_inverse(a) == a
    b = ((2, 1), (1, 1))
    assert mat_inverse(b) == ((1, -1), (-1, 2))
    assert mat_inverse(((-1,),)) == ((-1,),)
    assert mat_inverse(()) == ()


@pytest.mark.parametrize("matrix", [
    ((0,),),
    ((1, 2), (2, 4)),
    ((0, 0), (0, 1)),
    ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
])
def test_mat_inverse_rejects_singular(matrix):
    with pytest.raises(ValueError, match="singular"):
        mat_inverse(matrix)


@pytest.mark.parametrize("matrix", [
    ((2,),),
    ((-3,),),
    ((2, 0), (0, 1)),
    ((1, 1), (1, -1)),
])
def test_mat_inverse_rejects_non_unimodular(matrix):
    with pytest.raises(ValueError, match="not invertible over the integers"):
        mat_inverse(matrix)
