"""Exact linear algebra over the integers and rationals.

Matrices are tuples of row tuples. No floating point enters the package
anywhere. Integer matrices (Weyl-group elements, Cartan matrices) are
handled fraction-free: products, Bareiss determinant and rank, and the
inverse of a unimodular matrix all stay in the integers.
`fractions.Fraction` is used only by `rref` and the functions built on it
(`rank`, `right_nullspace`, `left_nullspace`), which serve the rep-layer
nullspaces over the rationals. Sizes are desk scale (the rank of a root
system), so plain Gaussian elimination is the right tool.

Degenerate shapes (zero rows or columns) occur naturally in quiver
representations, so row lists may be empty; callers pass the column
count explicitly where it cannot be inferred.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]
FracMatrix = tuple[tuple[Fraction, ...], ...]


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Product of two square integer matrices of equal size."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(a: IntMatrix, v: IntVector) -> IntVector:
    return tuple(sum(map(mul, row, v)) for row in a)


def mat_inverse(a: IntMatrix) -> IntMatrix:
    """Inverse of an integer matrix that is invertible over the integers.

    Fraction-free Gauss-Jordan (Bareiss): the row operations turn [A | I]
    into [d I | d A^-1] with every division exact, and d = +-det(A). A is
    invertible over the integers exactly when d = +-1, so d A^-1 is then
    the inverse up to the sign d. Raises ValueError otherwise.
    """
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        m[k], m[pivot] = m[pivot], m[k]
        pk = m[k]
        p = pk[k]
        for i in range(n):
            if i != k:
                row = m[i]
                f = row[k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, pk)]
        prev = p
    if prev not in (1, -1):
        raise ValueError("matrix is not invertible over the integers")
    return tuple(tuple(prev * x for x in row[n:]) for row in m)


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
    """Exact rank of an integer matrix (fraction-free Bareiss elimination).

    Any shape is accepted, including no rows, zero rows and zero columns.
    After k pivots every remaining entry is a (k+1)-minor of the input, so
    each division by the previous pivot is exact.
    """
    m = [list(row) for row in rows if any(row)]
    r = 0
    prev = 1
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pr = m[r]
        p = pr[c]
        for i in range(r + 1, len(m)):
            row = m[i]
            f = row[c]
            m[i] = [(p * x - f * y) // prev for x, y in zip(row, pr)]
        prev = p
        r += 1
        if r == len(m):
            break
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
    return len(rref(rows, ncols)[1])


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
