"""Independent brute-force oracles used to pin expected values.

Nothing here shares an algorithm with the production code paths it
checks: absolute lengths come from a plain breadth-first search over
reflection products, factorization counts from exhaustive tuple
enumeration with shared prefixes, determinants from cofactor expansion,
Ext dimensions from the cokernel of the canonical two-term resolution,
with ranks from the rational reduced row echelon form.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction

from ncpq import make_reflection, Quiver
from ncpq._linalg import rref
from ncpq.weyl import RootSystem, simple_root


def bfs_absolute_lengths(roots: RootSystem) -> dict:
    """Map every group element's matrix to its reflection-product distance
    from the identity. Requires a complete (finite) root system."""
    assert roots.complete
    n = roots.n
    gens = [r.element.matrix for r in roots.reflections()]
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    dist = {ident: 0}
    frontier = deque([ident])
    while frontier:
        cur = frontier.popleft()
        for g in gens:
            nxt = tuple(
                tuple(sum(cur[i][k] * g[k][j] for k in range(n)) for j in range(n))
                for i in range(n))
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                frontier.append(nxt)
    return dist


def brute_force_factorizations(roots: RootSystem, target_matrix, length: int) -> set:
    """All length-`length` tuples of positive roots whose reflections
    multiply to the target, by exhaustive enumeration with shared
    prefixes."""
    n = roots.n
    refls = [(r.root, r.element.matrix) for r in roots.reflections()]
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    found = set()

    def extend(prefix_product, picked):
        if len(picked) == length:
            if prefix_product == target_matrix:
                found.add(tuple(picked))
            return
        for root, mat in refls:
            nxt = tuple(
                tuple(sum(prefix_product[i][k] * mat[k][j] for k in range(n))
                      for j in range(n))
                for i in range(n))
            picked.append(root)
            extend(nxt, picked)
            picked.pop()

    extend(ident, [])
    return found


def det_cofactor(matrix) -> Fraction:
    """Determinant by cofactor expansion; fine for the tiny matrices here."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(matrix[0][0])
    total = Fraction(0)
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        sign = -1 if j % 2 else 1
        total += sign * matrix[0][j] * det_cofactor(minor)
    return total


def leading_principal_minors(matrix) -> list:
    return [det_cofactor([row[:k] for row in matrix[:k]])
            for k in range(1, len(matrix) + 1)]


def random_acyclic_quiver(rng: random.Random, max_n: int = 5,
                          max_arrows: int = 6) -> Quiver:
    """Random acyclic quiver: arrows only go forward along a random
    vertex order, so no cycle can form."""
    n = rng.randint(1, max_n)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    position = {v: k for k, v in enumerate(order)}
    arrows = []
    if n > 1:
        for _ in range(rng.randint(0, max_arrows)):
            h, t = rng.sample(range(1, n + 1), 2)
            if position[h] > position[t]:
                h, t = t, h
            arrows.append((h, t))
    return Quiver(n, tuple(arrows))


def random_positive_root(rng: random.Random, roots: RootSystem):
    return rng.choice(sorted(roots.positive_real_roots))


def random_reflection_tuple_roots(rng: random.Random, roots: RootSystem, length: int):
    return tuple(random_positive_root(rng, roots) for _ in range(length))


def apply_word(roots: RootSystem, word, vector):
    """Image of a vector under a word in simple reflections, leftmost letter
    applied last."""
    out = vector
    for i in reversed(word):
        refl = make_reflection(roots.quiver, simple_root(roots.n, i))
        out = refl.element(out)
    return out


def rref_rank(rows, ncols) -> int:
    """Rank as the pivot count of the rational reduced row echelon form."""
    return len(rref(rows, ncols)[1])


def ext_dim_via_resolution(M, N) -> int:
    """Independent Ext computation from the canonical two-term resolution.

    Applies the map (f_i) -> (N_a f_h - f_t M_a) to each basis element of
    the direct sum of the vertex Hom spaces and measures its cokernel.
    """
    assert M.quiver == N.quiver
    q = M.quiver
    codomain = sum(N.dims[t - 1] * M.dims[h - 1] for h, t in q.arrows)
    columns = []
    for i in range(q.n):
        for r in range(N.dims[i]):
            for c in range(M.dims[i]):
                # unit map at vertex i, entry (r, c)
                image = []
                for k, (h, t) in enumerate(q.arrows):
                    h -= 1
                    t -= 1
                    Ma, Na = M.maps[k], N.maps[k]
                    for rr in range(N.dims[t]):
                        for cc in range(M.dims[h]):
                            val = Fraction(0)
                            if i == h and cc == c:
                                val += Na[rr][r]
                            if i == t and rr == r:
                                val -= Ma[c][cc]
                            image.append(val)
                columns.append(image)
    if codomain == 0:
        return 0
    matrix_rows = [[col[j] for col in columns] for j in range(codomain)]
    return codomain - rref_rank(matrix_rows, len(columns))
