"""Exact linear algebra over the integers and rationals.

Matrices are tuples of row tuples. No floating point enters the package
anywhere. Integer matrices (Weyl-group elements, Cartan matrices, the
intertwiner equations of integral representations) are handled
fraction-free: products, the Bareiss determinant, and the rank by sparse
elimination that touches only the rows meeting each pivot column. `rank`
is fraction-free too: it clears the denominators of each rational row
and calls `int_rank`. `fractions.Fraction` arithmetic is used only by
`rref` and the nullspaces built on it (`right_nullspace`,
`left_nullspace`), which serve the cokernel step of the rep layer's
reflection-functor transport and its explicit Hom bases. Sizes are desk
scale, so plain elimination is the right tool.

Degenerate shapes (zero rows or columns) occur naturally in quiver
representations, so row lists may be empty; callers pass the column
count explicitly where it cannot be inferred.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Sequence

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]
RatMatrix = tuple[tuple[int | Fraction, ...], ...]


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Product of two square integer matrices of equal size."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(a: IntMatrix, v: IntVector) -> IntVector:
    return tuple(sum(map(mul, row, v)) for row in a)


def det_bareiss(a: IntMatrix) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def int_rank(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Exact rank of an integer matrix, by sparse fraction-free elimination.

    Any shape is accepted, including no rows, zero rows and zero columns.
    Column by column, the pivot is the remaining row whose entry p in the
    column is nonzero and least in absolute value (a unit if there is one;
    ties go to the first such row). Every other row with an entry f there
    becomes p*row - f*pivot_row and is then divided by the gcd of its
    entries. With the pivot row kept, both steps are invertible over the
    rationals (p != 0), so the row space does not change; the pivot row is
    then the only row nonzero in the column, so it adds exactly one to the
    rank of the rest. Rows with a zero in the column, most of them on the
    sparse intertwiner systems, are not touched.
    """
    m = [row for row in rows if any(row)]
    r = 0
    for c in range(ncols):
        if not m:
            break
        pivot = None
        for i, row in enumerate(m):
            x = row[c]
            if x and (pivot is None or abs(x) < abs(m[pivot][c])):
                pivot = i
                if x in (1, -1):
                    break
        if pivot is None:
            continue
        pr = m.pop(pivot)
        p = pr[c]
        r += 1
        kept = []
        for row in m:
            f = row[c]
            if f:
                row = [p * x - f * y for x, y in zip(row, pr)]
                g = gcd(*row)
                if not g:
                    continue
                if g != 1:
                    row = [x // g for x in row]
            kept.append(row)
        m = kept
    return r


def rref(rows: Sequence[Sequence[Fraction | int]], ncols: int):
    """Reduced row echelon form. Returns (rows, pivot_columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Sequence[Sequence[Fraction | int]], ncols: int) -> int:
    """Exact rank of a rational matrix, fraction-free.

    A matrix of ints goes to `int_rank` as it is. Otherwise each row is
    multiplied by the lcm of its entries' denominators, which is a nonzero
    integer and so keeps the rank, and the integer matrix goes to
    `int_rank`. Ints carry `numerator` and `denominator` as Fractions do.
    """
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return int_rank(rows, ncols)
    scaled = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        scaled.append([x.numerator * (den // x.denominator) for x in row])
    return int_rank(scaled, ncols)


def right_nullspace(rows: Sequence[Sequence[Fraction | int]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Deterministic basis of {v : A v = 0}, one vector per free column."""
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][free]
        basis.append(tuple(v))
    return basis


def left_nullspace(rows: Sequence[Sequence[Fraction | int]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of {y : y A = 0} for A with len(rows) rows and ncols columns."""
    nrows = len(rows)
    transposed = [[rows[r][c] for r in range(nrows)] for c in range(ncols)]
    return right_nullspace(transposed, nrows)
