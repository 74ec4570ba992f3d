"""Exact linear algebra over the integers and rationals.

Matrices are tuples of row tuples. No floating point enters the package
anywhere. Integer matrices (Weyl-group elements, Cartan matrices, the
intertwiner equations of integral representations) are handled
fraction-free: products and one elimination, the sparse echelon
`int_echelon`, which touches only the rows meeting each pivot column.
Its pivot count is the rank (`int_rank`), and back-substitution up its
rows gives an integer kernel basis (`int_kernel`). A `Fraction` is only
ever read: `integer_rows` clears the denominators of each rational row
before `rank` or a kernel sees it. Sizes are desk scale, so plain
elimination is the right tool.

`mat_mul` is the general product, exact in integers, behind
`weyl.compose`. A product of a reflection and a group element does not
come here: it is the rank-one step of `weyl` on each row.

Degenerate shapes (zero rows or columns) occur naturally in quiver
representations, so row lists may be empty; callers pass the column
count explicitly where it cannot be inferred.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from math import gcd, lcm
from operator import mul

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]
# A rational entry is a `fractions.Fraction`, which this module only reads.
RatMatrix = tuple[tuple["int | Fraction", ...], ...]


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Product of two square integer matrices of equal size."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def mat_vec(a: IntMatrix, v: IntVector) -> IntVector:
    return tuple(sum(map(mul, row, v)) for row in a)


def int_echelon(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, Sequence[int]]]:
    """Row echelon form of an integer matrix, by sparse fraction-free
    elimination: the (pivot column, pivot row) pairs, in column order.

    Any shape is accepted, including no rows, zero rows and zero columns.
    Column by column, the pivot is the remaining row whose entry p in the
    column is nonzero and least in absolute value (a unit if there is one;
    ties go to the first such row). Every other row with an entry f there
    becomes p*row - f*pivot_row and is then divided by the gcd of its
    entries. With the pivot row kept, both steps are invertible over the
    rationals (p != 0), so the row space does not change; the pivot row is
    then the only row nonzero in the column. So the pivot rows, each zero
    left of its column, span the row space. Rows with a zero in the
    column, most of them on the sparse intertwiner systems, are not
    touched.
    """
    m = [row for row in rows if any(row)]
    echelon = []
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
        echelon.append((c, pr))
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
    return echelon


def int_rank(rows: Sequence[Sequence[int]], ncols: int) -> int:
    """Exact rank of an integer matrix: the pivot count of `int_echelon`."""
    return len(int_echelon(rows, ncols))


def int_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[IntVector]:
    """Basis of {v : A v = 0}: per free column of `int_echelon`, the
    primitive integer vector positive there and zero at the other free
    columns, so parallel to the rational reduced-echelon one. Found by
    back-substitution up the pivot rows from the unit vector: where the
    pivot p does not divide the sum s of the row's other terms, v is
    first scaled by |p|/g, g = gcd(s, p). That keeps v primitive, since
    the pivot entry becomes ±s/g, which is coprime to |p|/g."""
    echelon = int_echelon(rows, ncols)
    pivots = {c for c, _ in echelon}
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for c, row in reversed(echelon):
            s = sum(map(mul, row, v))
            if s:
                p = row[c]
                scale = abs(p) // gcd(s, p)
                if scale != 1:
                    v = [x * scale for x in v]
                v[c] = -s * scale // p
        basis.append(tuple(v))
    return basis


def integer_rows(rows: Sequence[Sequence[Fraction | int]]) -> Sequence[Sequence[int]]:
    """The rows, each scaled by the lcm of its entries' denominators,
    which keeps the row space; a matrix of ints is returned as it is.
    Ints carry `numerator` and `denominator` as Fractions do."""
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows
    scaled = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        scaled.append([x.numerator * (den // x.denominator) for x in row])
    return scaled


def rank(rows: Sequence[Sequence[Fraction | int]], ncols: int) -> int:
    """Exact rank of a rational matrix, fraction-free: `int_rank` of its
    `integer_rows`."""
    return int_rank(integer_rows(rows), ncols)
