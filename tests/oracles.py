"""Independent brute-force oracles used to pin expected values.

Nothing here shares an algorithm with the production code paths it
checks: absolute lengths come from a plain breadth-first search over
reflection products, factorization counts from exhaustive tuple
enumeration with shared prefixes, the minimal reflection factorizations
of an element and the lexicographically smallest one from a memoized
depth-first search and a greedy descent that take t <= w from
`absolute_leq` (the Carter rank of w - t), not from the walk's
moved-space membership, determinants from cofactor expansion,
Ext dimensions from the cokernel of the canonical two-term resolution,
with ranks and kernels from the rational reduced row echelon form
(Gauss-Jordan over `Fraction`, which the package does not use), type
classification from the sums of all principal minors, braid orbits from
moves on roots that rebuild the whole tuple's product after every move,
mutation edges from one `braid_mutate` call per edge (it shares the
pair formula with `mutation_graph` but checks its whole result
exceptional) with the product of the whole sequence compared before and
after, conjugation depths by breadth-first search over roots under the simple
reflections, the whole group by breadth-first search over products with
the simple reflections, the interval [1, c] by filtering the whole group,
interval sizes from the Coxeter-Catalan numbers of the
literature, factorization counts from n!·h^n/|W| (both pinned for E7
and E8 too), relative simples from
embeddings found by scanning combinations of explicit Hom bases, the
subcategories as the thick closures of all exceptional antichains, not
by the descent from the whole category, exceptional sequences by a
backtracker over prefixes, not over the descent, and the
bijection's flags from every complete exceptional sequence of every
subcategory and from containment against absolute order on every pair.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from ncpq import (absolute_length, absolute_leq, braid_mutate, build_registry, cartan_matrix, cox,
                  coxeter_element, enumerate_exceptional_antichains, generate_roots,
                  identity, interval_covers, make_reflection, Quiver, ReflectionTuple,
                  sequence_product, thick_closure)
from ncpq.exc import ExcSequence, closure_indecomposables, order_antichain
from ncpq.weyl import (RootSystem, WeylElement, compose, positive_representative, simple_reflect,
                       simple_root)

# |NC(c)| = prod (h + e_i + 1) / (e_i + 1) over the exponents e_i, with h
# the Coxeter number (Bessis 2003; Armstrong, Mem. AMS 949, 2009).
COXETER_CATALAN = {"A2": 5, "A3": 14, "A4": 42, "A5": 132,
                   "D4": 50, "D5": 182, "E6": 833}

# Minimal reflection factorizations of a Coxeter element, n!·h^n/|W|
# (Deligne 1974; Chapoton 2006), with h the Coxeter number.
FACTORIZATION_COUNTS = {"A2": 3, "A3": 16, "A4": 125, "A5": 1296,
                        "D4": 162, "D5": 2048, "E6": 41472}

# E7 and E8: (Coxeter-Catalan number, n!·h^n/|W|) from the same formulas
# (Armstrong, Mem. AMS 949, 2009; Chapoton 2006), kept apart from the two
# tables above so that the brute-force tests over them stay desk-sized.
CLOSED_FORM_PINS = {"E7": (4160, 1062882), "E8": (25080, 37968750)}

# One orientation of each Dynkin diagram, linear or branching at vertex 3.
DYNKIN_QUIVERS = {
    "A2": Quiver(2, ((1, 2),)),
    "A3": Quiver(3, ((1, 2), (2, 3))),
    "A4": Quiver(4, ((1, 2), (2, 3), (3, 4))),
    "A5": Quiver(5, ((1, 2), (2, 3), (3, 4), (4, 5))),
    "D4": Quiver(4, ((1, 2), (3, 2), (4, 2))),
    "D5": Quiver(5, ((1, 2), (2, 3), (3, 4), (3, 5))),
    "E6": Quiver(6, ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))),
    "E7": Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7))),
    "E8": Quiver(8, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8))),
}


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


def conjugation_depths_by_bfs(roots: RootSystem) -> dict:
    """Map every positive root to its distance from the simple roots,
    each step one simple reflection followed by the positive
    representative, by breadth-first search."""
    n = roots.n
    dist = {simple_root(n, i): 0 for i in range(1, n + 1)}
    frontier = deque(dist)
    while frontier:
        v = frontier.popleft()
        for i in range(n):
            w = positive_representative(simple_reflect(roots.cartan, i, v))
            if w not in dist:
                dist[w] = dist[v] + 1
                frontier.append(w)
    return dist


def weyl_group(q: Quiver) -> set:
    """Every element of the finite Weyl group of q, by breadth-first
    search from the identity over left products with the simple
    reflections, which generate W. s_i w differs from w only in row i,
    which becomes w_i - sum_k a_ik w_k for the Cartan matrix a."""
    a = cartan_matrix(q).entries
    n = q.n
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    seen = {ident}
    frontier = deque([ident])
    while frontier:
        w = frontier.popleft()
        for i in range(n):
            row = tuple(w[i][j] - sum(a[i][k] * w[k][j] for k in range(n)) for j in range(n))
            nxt = w[:i] + (row,) + w[i + 1:]
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return {WeylElement(m) for m in seen}


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


def minimal_reflection_factorizations(w: WeylElement, roots: RootSystem) -> set:
    """All factorizations of w into absolute_length(w) reflections, as
    ordered tuples of positive roots, by a depth-first search memoized per
    remaining element.

    A reflection t starts a minimal factorization of the remaining element
    r exactly when t <= r in absolute order, decided here by `absolute_leq`
    (the Carter rank of r - t), not by the walk's span membership. Since
    t*r <= r, the reflections below t*r are among those below r, which
    are passed down as the candidates."""
    assert roots.complete
    ident = identity(w.n).matrix
    memo: dict = {}

    def factorizations(remaining: WeylElement, candidates) -> list:
        if remaining.matrix == ident:
            return [()]
        found = memo.get(remaining.matrix)
        if found is None:
            below = tuple(t for t in candidates if absolute_leq(t.element, remaining, roots))
            found = [(t.root,) + rest
                     for t in below
                     for rest in factorizations(compose(t.element, remaining), below)]
            memo[remaining.matrix] = found
        return found

    return set(factorizations(w, roots.reflections()))


def factor_in_reflections(w: WeylElement, roots: RootSystem, reg) -> ReflectionTuple:
    """The lexicographically smallest minimal reflection factorization of
    w, by greedy descent: the first reflection t in root order with
    t <= w by `absolute_leq` starts a minimal factorization, then w
    becomes t*w."""
    assert roots.complete
    assert frozenset(reg.roots()) == roots.positive_real_roots
    ident = identity(w.n)
    picks = []
    remaining = w
    while remaining != ident:
        t = next(t for t in roots.reflections() if absolute_leq(t.element, remaining, roots))
        picks.append(t)
        remaining = compose(t.element, remaining)
    assert len(picks) == absolute_length(w, roots)
    return ReflectionTuple(w.n, tuple(picks))


def braid_orbit_by_full_products(q: Quiver, start) -> set:
    """Braid orbit of a tuple of positive real roots, by breadth-first
    search over the moves on roots: (a, b) becomes (b, s_b(a)) or
    (s_a(b), a), signs dropped. The symmetric form comes from the arrows
    and every move rebuilds the product of the whole tuple's reflection
    matrices and requires it unchanged."""
    n = q.n

    def form(x, y):
        total = 2 * sum(a * b for a, b in zip(x, y))
        for h, t in q.arrows:
            total -= x[h - 1] * y[t - 1] + y[h - 1] * x[t - 1]
        return total

    def reflect(alpha, v):
        s = form(alpha, v)
        return tuple(vi - s * ai for vi, ai in zip(v, alpha))

    def positive(v):
        return v if sum(v) > 0 else tuple(-x for x in v)

    def product(roots):
        out = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        for alpha in roots:
            cols = [reflect(alpha, tuple(1 if i == j else 0 for i in range(n)))
                    for j in range(n)]
            out = tuple(tuple(sum(out[i][k] * cols[j][k] for k in range(n)) for j in range(n))
                        for i in range(n))
        return out

    start = tuple(start)
    target = product(start)
    seen = {start}
    frontier = deque([start])
    while frontier:
        cur = frontier.popleft()
        for i in range(len(cur) - 1):
            a, b = cur[i], cur[i + 1]
            for pair in ((b, positive(reflect(b, a))), (positive(reflect(a, b)), a)):
                nxt = cur[:i] + pair + cur[i + 2:]
                if product(nxt) != target:
                    raise AssertionError(f"move {cur} -> {nxt} changed the product")
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def mutation_edges_by_braid_mutate(seqs, reg) -> set:
    """Forward mutation edges between complete sequences, as index pairs
    into the list sorted by roots: one `braid_mutate` call per edge, whose
    result must be in the set and keep the product of the reflections at
    the whole sequence."""
    nodes = sorted(seqs, key=lambda s: s.roots)
    index = {s.roots: k for k, s in enumerate(nodes)}
    edges = set()
    for k, s in enumerate(nodes):
        target = sequence_product(s.roots, reg.rootsystem)
        for i in range(1, len(s)):
            moved = braid_mutate(s, i, False, reg)
            if sequence_product(moved.roots, reg.rootsystem) != target:
                raise AssertionError(f"mutation {s.roots} -> {moved.roots} changed the product")
            j = index[moved.roots]
            if j != k:
                edges.add((min(j, k), max(j, k)))
    return edges


def nc_by_group_filter(c, q: Quiver, roots: RootSystem) -> set:
    """The interval [1, c] of absolute order as a filter on the whole
    group: every element of W, kept when it lies below c."""
    return {w for w in weyl_group(q) if absolute_leq(w, c, roots)}


def exceptional_sequences(pool, length: int, reg):
    """Every exceptional sequence of the given length with members in pool,
    lazily, by backtracking over prefixes: an entry may follow the chosen
    prefix when it sends no Hom and no Ext to any of it."""
    chosen: list = []
    orthogonal = [(x, reg.right_orth(x)) for x in pool]

    def backtrack():
        if len(chosen) == length:
            yield tuple(chosen)
            return
        for x, orth in orthogonal:
            if orth.issuperset(chosen):
                chosen.append(x)
                yield from backtrack()
                chosen.pop()

    return backtrack()


def complete_sequences_within(sub, reg) -> list:
    """All complete exceptional sequences of a subcategory: length equal
    to its rank, members among its indecomposables, thick closure equal to
    the subcategory. The closure depends only on the member set, so it is
    computed once per set."""
    generates: dict = {}
    out = []
    for s in exceptional_sequences(sorted(sub.ind_roots), sub.rank, reg):
        members = frozenset(s)
        ok = generates.get(members)
        if ok is None:
            ok = generates[members] = closure_indecomposables(s, reg) == sub.ind_roots
        if ok:
            out.append(s)
    return out


def down_sets(covers) -> dict:
    """down(w) = {w} together with down(x) for every x covered by w, so
    the set of all u <= w. `covers` lists every element before the
    elements it covers (as `interval_covers` does), so walking it
    backwards builds each down-set after those of its children."""
    down: dict = {}
    for w in reversed(covers):
        down[w] = frozenset({w}).union(*(down[x] for x in covers[w]))
    return down


def order_failures_by_all_pairs(subs, values, c, roots) -> list:
    """(a, b, direction) for every ordered pair of subcategories, as
    indices, where containment and absolute order on their values
    disagree: "forward" when subs[a] lies in subs[b] but values[a] is not
    below values[b], "backward" for the converse. u <= w is membership of
    u in the down-set of w, built from the walk below c; a value outside
    [1, c] gets a walk of its own."""
    down = down_sets(interval_covers(c, roots))
    for value in values:
        if value not in down:
            down.update(down_sets(interval_covers(value, roots)))
    out = []
    for a, (sub_a, val_a) in enumerate(zip(subs, values)):
        for b, (sub_b, val_b) in enumerate(zip(subs, values)):
            contained = sub_a.ind_roots <= sub_b.ind_roots
            if contained != (val_a in down[val_b]):
                out.append((a, b, "forward" if contained else "backward"))
    return out


def subcategories(q: Quiver, reg) -> list:
    """The thick closures of all exceptional antichains, in the order of
    the sorted antichains."""
    antichains = sorted(enumerate_exceptional_antichains(q, reg),
                        key=lambda a: tuple(sorted(a)))
    return [thick_closure(ExcSequence(order_antichain(a, reg)), reg) for a in antichains]


def bijection_flags_by_brute_force(q: Quiver, order) -> dict:
    """The flags of `verify_bijection`, from the definitions: every
    complete exceptional sequence of every subcategory multiplied out
    (through a prefix memo) and compared with its cox, and containment
    compared with absolute order on every pair of subcategories."""
    roots = generate_roots(q)
    reg = build_registry(q, roots)
    c = coxeter_element(q, order)
    interval = set(interval_covers(c, roots))
    subs = subcategories(q, reg)
    values = [cox(sub, reg, roots) for sub in subs]
    prefix = {(): identity(q.n)}

    def product(seq):
        found = prefix.get(seq)
        if found is None:
            found = prefix[seq] = compose(product(seq[:-1]), roots.reflection(seq[-1]).element)
        return found

    well_defined = all(value in interval and all(product(s) == value
                                                 for s in complete_sequences_within(sub, reg))
                       for sub, value in zip(subs, values))
    directions = {d for _, _, d in order_failures_by_all_pairs(subs, values, c, roots)}
    return {
        "well_defined": well_defined,
        "injective": len(set(values)) == len(subs),
        "surjective": set(values) == interval,
        "order_iso_forward": "forward" not in directions,
        "order_iso_backward": "backward" not in directions,
        "order_iso": not directions,
    }


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


def kind_by_principal_minor_sums(entries) -> str:
    """Finite / affine / indefinite from the sums of the k-by-k principal
    minors, k = 1..n, by cofactor expansion. For a symmetric matrix these
    are the elementary symmetric functions of the eigenvalues: all
    positive is positive definite, all nonnegative positive semidefinite.
    Semidefinite with every connected component of corank at most one,
    not definite, is affine. Exponential in n."""
    n = len(entries)
    sums = [sum(det_cofactor([[entries[i][j] for j in sub] for i in sub])
                for sub in combinations(range(n), k)) for k in range(1, n + 1)]
    if all(s > 0 for s in sums):
        return "finite"
    if all(s >= 0 for s in sums):
        comps, seen = [], set()
        for start in range(n):
            if start not in seen:
                comp, stack = {start}, [start]
                while stack:
                    v = stack.pop()
                    for u in range(n):
                        if u not in comp and entries[v][u]:
                            comp.add(u)
                            stack.append(u)
                seen |= comp
                comps.append(sorted(comp))
        if all(len(comp) - rref_rank([[entries[i][j] for j in comp] for i in comp], len(comp)) <= 1
               for comp in comps):
            return "affine"
    return "indefinite"


def leading_principal_minors(matrix) -> list:
    return [det_cofactor([row[:k] for row in matrix[:k]])
            for k in range(1, len(matrix) + 1)]


@st.composite
def oriented_dynkin(draw, names):
    """A random orientation of one of the named `DYNKIN_QUIVERS` with a
    random admissible order, as (name, quiver, order)."""
    name = draw(st.sampled_from(names))
    base = DYNKIN_QUIVERS[name]
    arrows = tuple((t, h) if draw(st.booleans()) else (h, t) for h, t in base.arrows)
    order: list[int] = []
    while len(order) < base.n:
        ready = [v for v in base.vertices if v not in order
                 and all(h in order for h, t in arrows if t == v)]
        order.append(draw(st.sampled_from(ready)))
    return name, Quiver(base.n, arrows), tuple(order)


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


def rref(rows, ncols):
    """Reduced row echelon form over the rationals, by Gauss-Jordan
    elimination. Returns (rows, pivot_columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list = []
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


def rref_nullspace(rows, ncols) -> list:
    """Basis of {v : A v = 0} from the reduced row echelon form: per free
    column, the vector with 1 there, 0 at the other free columns."""
    reduced, pivots = rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][free]
        basis.append(tuple(v))
    return basis


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


def is_nonneg_combination(target, gens, memo: dict) -> bool:
    """Whether target is a sum of members of gens, repeats allowed. The
    gens must be nonzero and nonnegative. memo holds the answers found so
    far; calls with the same gens may share it, and no others."""
    if all(x == 0 for x in target):
        return True
    cached = memo.get(target)
    if cached is not None:
        return cached
    out = False
    for g in gens:
        if all(gi <= vi for gi, vi in zip(g, target)):
            if is_nonneg_combination(tuple(vi - gi for vi, gi in zip(target, g)), gens, memo):
                out = True
                break
    memo[target] = out
    return out


def simples_by_injective_maps(ind, reg) -> tuple:
    """Members of a thick subcategory with no proper subobject inside it,
    in root order: m is not simple when some other member embeds into it
    (`IndecRegistry.has_injective_hom`, a scan over combinations of a
    rational Hom basis) with a quotient whose dimension vector is a
    nonnegative sum of members."""
    members = sorted(ind)
    spans: dict = {}
    return tuple(
        m for m in members
        if not any(other != m and reg.has_injective_hom(other, m)
                   and is_nonneg_combination(tuple(mi - oi for mi, oi in zip(m, other)),
                                             members, spans)
                   for other in members))
