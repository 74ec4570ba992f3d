"""Independent brute-force oracles used to pin expected values.

Nothing here shares an algorithm with the production code paths it
checks, apart from `interval_covers`, the package's walk of [1, c]
keyed by element, and `labelled_covers`, the package's mask diagram
with each cover's letter and child written out by its own loop over the
roots, which are views and not oracles. The generic level-by-level walk
`walk_down` runs the Brady-Watt walk and the frozenset descent. The
maximal chains of the mask diagram come from one nested generator per
level (`maximal_chains_by_nested_generators`, which reads the covers
through `weyl._children`), not from the package's one stack. Absolute
lengths come from a plain breadth-first search over
reflection products, factorization counts from exhaustive tuple
enumeration with shared prefixes, the minimal reflection factorizations
of an element and the lexicographically smallest one from a memoized
depth-first search and a greedy descent that take t <= w from
`absolute_leq` (the Carter rank of w - t), not from the walk's
letter sets, the interval's Hasse diagram from the Brady-Watt walk
(`reflections_below`: one echelon of the moved space per element and
one span reduction per inherited candidate), not from the Euler form,
determinants from cofactor expansion, topological orders from Kahn's
algorithm on a min-heap of in-degrees over arrow lists
(`topological_sort_by_heap`), not on the package's bit masks,
Ext dimensions from the cokernel of the canonical two-term resolution,
with ranks and kernels from the rational reduced row echelon form
(Gauss-Jordan over `Fraction`, which the package does not use), each
registry module from its own root walk and replay, with no memo shared
between roots and this module's own cokernel step, which builds each
reflected quiver afresh and copies every entry, type
classification from the sums of all principal minors, braid orbits from
moves on roots that rebuild the whole tuple's product after every move,
and from a breadth-first search over forward and inverse moves
(`hurwitz_orbit`, `same_orbit`) on this module's own move table, which
has both directions where the package's `braid_edges` table has only the
forward one, mutation edges from one `braid_mutate` call per edge (on
the same two-way table, its whole result checked exceptional) with the
product of the whole sequence compared before and after, conjugation
depths by breadth-first search over roots under the simple
reflections, the whole group by breadth-first search over products with
the simple reflections, the interval [1, c] by filtering the whole
group, interval sizes from the Coxeter-Catalan numbers of the
literature, factorization counts from n!·h^n/|W| (both pinned for E7
and E8 too), relative simples from
embeddings found by scanning combinations of explicit Hom bases, the
subcategories as the thick closures of all exceptional antichains, not
by the descent from the whole category, the antichains by a backtracker
over Hom-orthogonal subsets with Hom ranked (`rep.hom_dim`) for every
root pair, not as the simples of the descent's nodes, the descent itself
on frozensets of root tuples with Hom ranked where the Euler form is 0,
not on the registry's int masks or its Euler-form Hom, exceptional
sequences by a
backtracker over prefixes, not over the descent, and the
bijection's flags from every complete exceptional sequence of every
subcategory and from containment against absolute order on every pair.
A reflection here is a matrix built column by column from the
symmetric form (`reflection_matrix`), not the package's rank-one step,
and the Brady-Watt walk, the two-way move table and the tuple products
multiply those matrices by `compose`. The test-only members that left
the package live here too: the completion `extend_to_complete`, the
slot scan `slot_fillers` and a module's `to_debug_json`.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
import weakref
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterator, NamedTuple, Sequence

from hypothesis import strategies as st

from ncpq import (absolute_length, build_registry, cartan_matrix, cox, coxeter_element,
                  generate_roots, identity, is_exceptional_sequence, Quiver, rep,
                  sequence_product, thick_closure)
from ncpq._linalg import RatMatrix, int_echelon, int_kernel, int_rank, integer_rows, mat_mul
from ncpq.exc import ExcSequence, closure_indecomposables, order_antichain, right_perp
from ncpq.errors import CapExceededError, NcpqError, NonFiniteTypeError, ValidationError
from ncpq.hurwitz import DEFAULT_ORBIT_CAP
from ncpq.quiver import (Vector, connected_components, euler_form, symmetric_form,
                         topological_order)
from ncpq.rep import IndecRegistry, Representation, _is_simple_vector, simple_representation
from ncpq import weyl
from ncpq.weyl import (Reflection, RootSystem, WeylElement, _children, _missing, complete_roots,
                       compose, element_matrices, is_positive, positive_representative, simple_root)

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

# Linear A6-A8 and D6-D7 (`linear_dynkin`): (|[1, c]|, maximal chains
# of [1, c]), from Cat(A_n) = C(2n+2, n+1)/(n+2),
# Cat(D_n) = (3n-2)/n · C(2n-2, n-1), (n+1)^(n-1) factorizations for A_n
# and 2(n-1)^n for D_n (Armstrong, Mem. AMS 949, 2009; Chapoton 2006).
FAMILY_PINS = {"A6": (429, 16807), "A7": (1430, 262144), "A8": (4862, 4782969),
               "D6": (672, 31250), "D7": (2508, 559872)}

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


def reflection_matrix(q: Quiver, alpha: Vector) -> WeylElement:
    """The reflection at a positive real root as a matrix, column by
    column: column j is s_alpha(e_j) = e_j - (alpha, e_j) alpha under
    `symmetric_form`. It shares no step with `weyl.Reflection`."""
    if not is_positive(alpha):
        raise ValidationError(f"reflection root {alpha} is not positive")
    if symmetric_form(q, alpha, alpha) != 2:
        raise ValidationError(f"{alpha} is not a real root: (a, a) != 2")
    columns = []
    for j in q.vertices:
        e = simple_root(q.n, j)
        s = symmetric_form(q, alpha, e)
        columns.append(tuple(x - s * a for x, a in zip(e, alpha)))
    return WeylElement(tuple(zip(*columns)))


def simple_reflect(cartan, i: int, v: Vector) -> Vector:
    """Image of v under the simple reflection s_{i+1} (i is 0-based):
    only coordinate i changes, by the pairing of v with simple root i."""
    s = sum(x * y for x, y in zip(cartan[i], v))
    return v[:i] + (v[i] - s,) + v[i + 1:]


def linear_dynkin(name: str) -> Quiver:
    """A_n as the path 1 -> 2 -> ... -> n; D_n as the path to n - 1 with
    a last arrow n - 2 -> n."""
    n = int(name[1:])
    if name[0] == "A":
        return Quiver(n, tuple((i, i + 1) for i in range(1, n)))
    return Quiver(n, tuple((i, i + 1) for i in range(1, n - 1)) + ((n - 2, n),))


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


def absolute_leq(u: WeylElement, w: WeylElement, roots: RootSystem) -> bool:
    """Absolute order: u <= w iff |u| + |u^-1 w| = |w|.

    Carter's lemma (Carter 1972, Lemma 2; see `absolute_length`) gives
    |u^-1 w| = rank(u^-1 w - I) = rank(u^-1 (w - u)) = rank(w - u), since
    u^-1 is invertible. The test is then |u| + rank(w - u) = |w|, with no
    inverse and no product. Requires a complete root system.
    """
    lu = absolute_length(u, roots)
    lw = absolute_length(w, roots)
    if lu > lw:
        return False
    diff = [[x - y for x, y in zip(wr, ur)] for wr, ur in zip(w.matrix, u.matrix)]
    return lu + int_rank(diff, w.n) == lw


def in_span(echelon: list[tuple[int, Sequence[int]]], v: Sequence[int]) -> bool:
    """Whether the integer vector v lies in the span of an `int_echelon`:
    v becomes p*v - f*row for each pivot p whose column holds f in v,
    which clears that column for good, and a nonzero vector of the span is
    nonzero on some pivot column."""
    for c, row in echelon:
        f = v[c]
        if f:
            p = row[c]
            v = [p * x - f * y for x, y in zip(v, row)]
    return not any(v)


def _moved_space(w: WeylElement):
    """`int_echelon` of the columns of w - I, which span the moved space
    Mov(w) = im(w - I). Its pivot count is rank(w - I)."""
    n, m = w.n, w.matrix
    return int_echelon([[m[i][j] - (i == j) for i in range(n)] for j in range(n)], n)


def reflections_below(w: WeylElement, roots: RootSystem,
                      _candidates: tuple[Reflection, ...] | None = None,
                      ) -> tuple[Reflection, ...]:
    """The reflections t <= w in absolute order, in root order; the walk
    keeps them as its diagram's letters, so they are not memoized.

    t <= w means |t w| = |w| - 1, or as well |w t| = |w| - 1, since
    w t = t (t w) t is conjugate to t w and absolute length is invariant
    under conjugation: these are the last letters of the minimal
    reflection factorizations of w. By Brady-Watt (2002, "A
    partial order on the orthogonal group") they are the t whose root a
    lies in Mov(w) = im(w - I), so one echelon of Mov(w) and one
    membership reduction per candidate decide them, and the echelon's
    pivot count fills the memo of |w|. Proof: t fixes a^perp pointwise, so
    Fix(t w) and Fix(w) meet a^perp in the same space F, and each is F or
    one larger. As w is a product of |w| reflections (Carter's lemma),
    det w = (-1)^|w| = -det(t w), so exactly one of the two is F. Hence
    |t w| = |w| - 1 iff Fix(w) lies in a^perp, iff a lies in
    Fix(w)^perp = Mov(w), when w preserves the form B, which is
    nondegenerate in finite type: B(y, (w - I) x) = B((w^-1 - I) y, x).

    So w must lie in W and preserve B. A call with `_candidates` None
    checks w^T A w = A, for A the symmetric Cartan matrix, and raises
    ValidationError otherwise; `interval_covers_by_moved_spaces` refuses
    an orthogonal w outside W, as its walk cannot reach the identity.
    `_candidates`, for that walk, is the set found below some u >= w with
    w = u*t: w inherits the check from u, and only those need testing, as
    t <= w <= u implies t <= u. Requires a complete root system.
    """
    roots.require_complete()
    pool = _candidates
    if pool is None:
        pool = roots.reflections()
        a = roots.cartan
        if w.n != roots.n or mat_mul(mat_mul(tuple(zip(*w.matrix)), a), w.matrix) != a:
            raise ValidationError("the given element does not preserve the symmetric "
                                  "form of this root system")
    moved = _moved_space(w)
    roots._abs_len[w] = len(moved)
    return tuple(t for t in pool if in_span(moved, t.root))


def walk_down(top, expand: Callable, what: str) -> dict:
    """The Hasse diagram below `top`, walked down level by level: each
    node mapped to `expand(node)`, a dict from its letters, in order, to
    the nodes they reach, every node before the nodes it covers.

    A child met again is replaced by the object met first, so equal
    nodes are held once. A node met at two levels is refused as a bug.
    Holding more than `weyl.DEFAULT_INTERVAL_CAP` nodes (read at call
    time) raises CapExceededError("<what> exceeds cap N"); each node is
    counted when first met, so the bound is exact. The package's walk,
    `weyl.mask_covers`, ran on it until it stored masks alone; it stays
    here for the walks that compare with it.
    """
    cap = weyl.DEFAULT_INTERVAL_CAP
    covers: dict = {}
    level: dict = {top: top}
    held = 1
    while level:
        met: dict = {}
        for node in level:
            children = expand(node)
            for x, child in children.items():
                kept = met.get(child)
                if kept is None:
                    held += 1
                    if held > cap:
                        raise CapExceededError(f"{what} exceeds cap {cap}")
                    kept = met[child] = child
                children[x] = kept
            covers[node] = children
        if not covers.keys().isdisjoint(met):
            raise NcpqError("the walk down met a node at two levels; this is a bug")
        level = met
    return covers


def labelled_covers(diagram: dict, roots: RootSystem) -> dict:
    """The mask diagram `diagram` (`weyl.mask_covers`, each mask mapped to
    its level) in its labelled form: each mask mapped to a dict from its
    letters, in root order, to the masks they reach, the child through
    the k-th root being `mask & orth[k]`. It runs its own loop over the
    roots, not the package's `_children`."""
    letters, orth = roots.sorted_roots(), roots.orth
    return {b: {letters[k]: b & orth[k] for k in range(len(letters)) if b >> k & 1}
            for b in diagram}


def interval_covers_by_moved_spaces(c: WeylElement, roots: RootSystem) -> dict:
    """The labelled Hasse diagram of [1, c] by the Brady-Watt walk, for
    any c: each element w mapped to the elements it covers, w*t for the
    reflections t <= w (`reflections_below`), each keyed by the root of
    t, in root order. |w*t| = |t*w|, as the two are conjugate, so t <= w
    decides both, and w*t <= w as (w t)^-1 w = t has length one.

    The walk is complete. If u <= w then u^-1 w has absolute length
    k = |w| - |u|, so u^-1 w = t_1 ... t_k with reflections t_i, and
    u = w t_k ... t_1. Put w_0 = w and w_i = w_(i-1) t_(k+1-i), so
    w_k = u: each step lowers the length by at most one and k steps lower
    it by k, so each lowers it by exactly one, t_(k+1-i) <= w_(i-1), and
    u lies on a chain of covers below w. The walk is sound because
    w*t <= w and the order is transitive. A child is tested only against
    the reflections below its first parent, which hold all reflections
    below it (Brady-Watt 2002: w*t <= w gives Mov(w t) in Mov(w)).

    Reaching the identity writes c as a product of reflections, which
    certifies c in W; a walk that ends without it raises ValidationError.
    """
    candidates: dict = {}
    matrices = {a: reflection_matrix(roots.quiver, a) for a in roots.sorted_roots()}

    def expand(w: WeylElement) -> dict:
        below = reflections_below(w, roots, candidates.get(w))
        children = {t.root: compose(w, matrices[t.root]) for t in below}
        for child in children.values():
            candidates.setdefault(child, below)
        return children

    covers = walk_down(c, expand, "interval size")
    if identity(c.n) not in covers:
        raise ValidationError("the given element does not lie in this Weyl group")
    return covers


def interval_covers(c: WeylElement,
                    roots: RootSystem) -> dict[WeylElement, dict[Vector, WeylElement]]:
    """The package's diagram of [1, c] (`walk_elements`, proof in its
    docstring) keyed by element, not by mask: each element w mapped to the
    elements w*t it covers, each keyed by the root of t, in root order,
    for the tests that hold it beside the element-keyed oracles. It is a
    view of the walk under test, not an oracle."""
    diagram, elements = element_matrices(c, roots)
    covers = labelled_covers(diagram, roots)
    for children in covers.values():
        for x, child in children.items():
            children[x] = elements[child]
    return {elements[mask]: children for mask, children in covers.items()}


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


class MatrixReflection(NamedTuple):
    """A reflection as this module holds it: its root and its matrix
    (`reflection_matrix`)."""

    root: Vector
    element: WeylElement


@dataclass(frozen=True)
class ReflectionTuple:
    """Ordered tuple of reflections of a quiver's Weyl group; equality and
    hash are by (quiver, items)."""

    quiver: Quiver
    items: tuple[MatrixReflection, ...]

    def __post_init__(self):
        for r in self.items:
            if r.element.n != self.n:
                raise ValidationError("reflection rank does not match tuple rank")

    def __len__(self) -> int:
        return len(self.items)

    @property
    def n(self) -> int:
        return self.quiver.n

    @functools.cached_property
    def product(self) -> WeylElement:
        """Left-to-right product of the matrices by `compose`, computed on
        first use."""
        return functools.reduce(compose, (r.element for r in self.items), identity(self.n))

    @property
    def roots(self) -> tuple[Vector, ...]:
        return tuple(r.root for r in self.items)


def tuple_from_roots(q: Quiver, roots: tuple[Vector, ...]) -> ReflectionTuple:
    """Build a tuple of reflections at the given positive real roots."""
    return ReflectionTuple(q, tuple(MatrixReflection(r, reflection_matrix(q, r)) for r in roots))


class _Braid:
    """Braid moves of one search on interned reflections, forward and
    inverse: the move at i swaps the pair (a, b) to (b, s_b(a)) and the
    inverse move swaps it to (s_a(b), a), signs dropped.

    Each reflection gets a small int id, once, by its root, and a tuple
    becomes a tuple of ids; `matrix` gives the matrix at a root not yet
    interned. The move table maps (id_a, id_b, inverse) to the
    ids of the moved pair (b', c'); an entry is filled, and its pair
    products compared by `compose`, the first time that pair is moved.
    After that a move is a table lookup and tuple slicing. Each search
    makes its own and drops it."""

    def __init__(self, matrix: Callable[[Vector], WeylElement]) -> None:
        self.matrix = matrix
        self.reflections: list[MatrixReflection] = []
        self.ids: dict[Vector, int] = {}
        self.table: dict[tuple[int, int, bool], tuple[int, int]] = {}

    def intern(self, r: MatrixReflection) -> int:
        k = self.ids.get(r.root)
        if k is None:
            k = self.ids[r.root] = len(self.reflections)
            self.reflections.append(r)
        elif self.reflections[k].element != r.element:
            raise NcpqError(f"two reflections at root {r.root} have different matrices")
        return k

    def root_id(self, root: Vector) -> int:
        """The id of the reflection at `root`, looked up if it is new."""
        k = self.ids.get(root)
        return self.intern(MatrixReflection(root, self.matrix(root))) if k is None else k

    def ids_of(self, t: ReflectionTuple) -> tuple[int, ...]:
        return tuple(self.intern(r) for r in t.items)

    def tuple_of(self, q: Quiver, ids: tuple[int, ...]) -> ReflectionTuple:
        return ReflectionTuple(q, tuple(self.reflections[k] for k in ids))

    def roots_of(self, ids: tuple[int, ...]) -> tuple[Vector, ...]:
        return tuple(self.reflections[k].root for k in ids)

    def _fill(self, key: tuple[int, int, bool]) -> tuple[int, int]:
        ia, ib, inverse = key
        a, b = self.reflections[ia], self.reflections[ib]
        by, r = (a, b) if inverse else (b, a)
        root = positive_representative(by.element(r.root))
        try:
            k = self.root_id(root)
        except ValidationError as err:
            raise NcpqError(f"moved vector {root} is not a root; this is a bug") from err
        moved = (k, ia) if inverse else (ib, k)
        b_new, c_new = (self.reflections[j] for j in moved)
        if compose(a.element, b.element) != compose(b_new.element, c_new.element):
            raise NcpqError("braid move changed the reflection product; this is a bug")
        self.table[key] = moved
        return moved

    def step(self, ids: tuple[int, ...], i: int, inverse: bool) -> tuple[int, ...]:
        """The move at position i (1-based) on a tuple of ids."""
        if not 1 <= i <= len(ids) - 1:
            raise ValidationError(f"move index {i} out of range 1..{len(ids) - 1}")
        key = (ids[i - 1], ids[i], inverse)
        moved = self.table.get(key) or self._fill(key)
        return ids[: i - 1] + moved + ids[i + 1:]

    def neighbours(self, ids: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], int]]:
        """Every forward and inverse move of a tuple of ids, with its
        signed index (+i forward, -i inverse)."""
        for i in range(1, len(ids)):
            yield self.step(ids, i, False), i
            yield self.step(ids, i, True), -i


def _braid(q: Quiver) -> _Braid:
    """A move table that builds each moved reflection's matrix from its root."""
    return _Braid(functools.partial(reflection_matrix, q))


def hurwitz_move(t: ReflectionTuple, i: int, inverse: bool = False) -> ReflectionTuple:
    """Apply the braid move at position i (1-based, 1 <= i <= len-1)."""
    braid = _braid(t.quiver)
    return braid.tuple_of(t.quiver, braid.step(braid.ids_of(t), i, inverse))


def _search(braid: _Braid, start: tuple[int, ...], cap: int,
            goal: tuple[int, ...] | None = None) -> dict[tuple[int, ...], int]:
    """Breadth-first search of the braid orbit of a tuple of ids, stopping
    once `goal` is reached. Maps each tuple reached to the signed move
    that reached it from its parent, 0 for the start: the opposite move
    leads back to the parent, as a move and its inverse undo each other.
    Reaching more than `cap` tuples raises CapExceededError."""
    if cap < 1:
        raise ValidationError("cap must be positive")
    parents = {start: 0}
    frontier = deque([start])
    while frontier:
        for nxt, move in braid.neighbours(frontier.popleft()):
            if nxt not in parents:
                if len(parents) >= cap:
                    raise CapExceededError(f"orbit size exceeds cap {cap}")
                parents[nxt] = move
                if nxt == goal:
                    return parents
                frontier.append(nxt)
    return parents


def hurwitz_orbit(t: ReflectionTuple, cap: int = DEFAULT_ORBIT_CAP) -> set[ReflectionTuple]:
    """Closure of t under all forward and inverse moves."""
    braid = _braid(t.quiver)
    return {braid.tuple_of(t.quiver, ids) for ids in _search(braid, braid.ids_of(t), cap)}


def braid_graph_by_two_way_moves(q: Quiver, start: tuple[Vector, ...]
                                 ) -> tuple[list[tuple[Vector, ...]], set[tuple[int, int]]]:
    """The braid orbit of a root tuple, sorted, and its braid graph as
    index pairs (j, k), j < k, one for every forward and every inverse
    move of this module's two-way table that leaves the tuple."""
    braid = _braid(q)
    orbit = sorted(_search(braid, braid.ids_of(tuple_from_roots(q, start)), DEFAULT_ORBIT_CAP),
                   key=braid.roots_of)
    index = {ids: k for k, ids in enumerate(orbit)}
    edges = {(min(j, k), max(j, k)) for j, ids in enumerate(orbit)
             for moved, _ in braid.neighbours(ids) if (k := index[moved]) != j}
    return [braid.roots_of(ids) for ids in orbit], edges


def same_orbit(a: ReflectionTuple, b: ReflectionTuple,
               cap: int = DEFAULT_ORBIT_CAP) -> tuple[bool, list[int] | None]:
    """Decide whether b lies in the braid orbit of a.

    Returns (True, certificate) where the certificate is a list of signed
    move indices (+i forward, -i inverse) carrying a onto b, or
    (False, None). Unequal products answer False immediately since every
    move preserves the product. Tuples of different lengths or over
    different quivers raise ValidationError: over two quivers equal
    products need not mean equal reflections.
    """
    if a.quiver != b.quiver or len(a) != len(b):
        raise ValidationError("only tuples of one length over one quiver are comparable")
    if a.product != b.product:
        return False, None
    if a.roots == b.roots:
        return True, []
    braid = _braid(a.quiver)
    start, goal = braid.ids_of(a), braid.ids_of(b)
    parents = _search(braid, start, cap, goal)
    if goal not in parents:
        return False, None
    moves: list[int] = []
    key = goal
    while parents[key]:
        move = parents[key]
        moves.append(move)
        key = braid.step(key, abs(move), move > 0)  # the opposite move: back to the parent
    moves.reverse()
    return True, moves


def replay_certificate(t: ReflectionTuple, moves: list[int]) -> ReflectionTuple:
    """Apply a signed move word as produced by same_orbit."""
    braid = _braid(t.quiver)
    ids = braid.ids_of(t)
    for m in moves:
        ids = braid.step(ids, abs(m), m < 0)
    return braid.tuple_of(t.quiver, ids)


def braid_mutate(seq: ExcSequence, i: int, inverse: bool, reg: IndecRegistry) -> ExcSequence:
    """Braid move at i on a complete exceptional sequence, checked
    exceptional: the Hurwitz move on the reflections at its roots, so
    (a, b) becomes (b, s_b(a)) forward and (s_a(b), a) inverse, signs
    dropped, on the move table above."""
    if len(seq) != reg.quiver.n:
        raise ValidationError("braid mutation is defined on complete sequences")
    braid = _braid(reg.quiver)
    roots = braid.roots_of(braid.step(tuple(map(braid.root_id, seq.roots)), i, inverse))
    if not is_exceptional_sequence(roots, reg):
        raise NcpqError("mutation produced a non-exceptional sequence; this is a bug")
    return ExcSequence(roots)


def factor_in_reflections(w: WeylElement, roots: RootSystem, reg) -> ReflectionTuple:
    """The lexicographically smallest minimal reflection factorization of
    w, by greedy descent: the first reflection t in root order with
    t <= w by `absolute_leq` starts a minimal factorization, then w
    becomes t*w."""
    assert roots.complete
    assert frozenset(reg.roots()) == roots.positive_real_roots
    ident = identity(w.n)
    pool = tuple_from_roots(roots.quiver, roots.sorted_roots()).items
    picks = []
    remaining = w
    while remaining != ident:
        t = next(t for t in pool if absolute_leq(t.element, remaining, roots))
        picks.append(t)
        remaining = compose(t.element, remaining)
    assert len(picks) == absolute_length(w, roots)
    return ReflectionTuple(roots.quiver, tuple(picks))


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


def neighbour_masks(n: int, edges) -> list[int]:
    """The neighbour masks of the undirected graph on 0..n-1 with these
    edges, as `quiver.connected_components` reads a graph."""
    neighbours = [0] * n
    for a, b in edges:
        neighbours[a] |= 1 << b
        neighbours[b] |= 1 << a
    return neighbours


def is_connected(n: int, edges) -> bool:
    """Whether the undirected graph on 0..n-1 with these edges is one
    component under `quiver.connected_components`."""
    return len(connected_components((1 << n) - 1, neighbour_masks(n, edges))) == 1


def nc_by_group_filter(c, q: Quiver, roots: RootSystem) -> set:
    """The interval [1, c] of absolute order as a filter on the whole
    group: every element of W, kept when it lies below c."""
    return {w for w in weyl_group(q) if absolute_leq(w, c, roots)}


# The frozenset `right_orth` of each registry, per root, so that oracles
# calling it once per subcategory rank each pair once.
_RIGHT_ORTHS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def right_orth_by_frozensets(a, reg) -> frozenset:
    """The roots m with Hom(a, m) = Ext(a, m) = 0, as a frozenset of root
    tuples: the registry's `right_orth` before it filled int masks and
    read Hom off the Euler form.

    If <a, m> != 0, Hom and Ext cannot both vanish; if <a, m> = 0,
    Ext = Hom. So m lies here exactly when <a, m> = 0 and
    Hom(a, m) = 0, and only those pairs are ranked, by `rep.hom_dim`
    on the modules, not by the registry, once per registry and root. An
    unregistered `a` raises ValidationError."""
    orths = _RIGHT_ORTHS.setdefault(reg, {})
    if a not in orths:
        M = reg[a]  # refuses an unregistered root
        orths[a] = frozenset(m for m in reg.roots()
                             if euler_form(reg.quiver, a, m) == 0 and rep.hom_dim(M, reg[m]) == 0)
    return orths[a]


def subcategory_covers_by_frozensets(reg) -> dict:
    """The descent of `exc.subcategory_covers` on frozensets of root
    tuples, as it ran before the masks: B maps each member x, in root
    order, to B ∩ x^⊥, read from `right_orth_by_frozensets`."""

    def expand(b: frozenset) -> dict:
        return {x: b & right_orth_by_frozensets(x, reg) for x in sorted(b)}

    return walk_down(frozenset(reg.roots()), expand, "subcategory count")


def exceptional_sequences(pool, length: int, reg):
    """Every exceptional sequence of the given length with members in pool,
    lazily, by backtracking over prefixes: an entry may follow the chosen
    prefix when it sends no Hom and no Ext to any of it."""
    chosen: list = []
    orthogonal = [(x, right_orth_by_frozensets(x, reg)) for x in pool]

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


def extend_to_complete(seq: ExcSequence, reg: IndecRegistry) -> ExcSequence:
    """Complete a sequence by prepending, smallest usable root first.

    Candidates are the roots receiving no Hom and no Ext from the current
    members, which is exactly the condition for prepending to preserve
    exceptionality.
    """
    if not is_exceptional_sequence(seq.roots, reg):
        raise ValidationError("input is not an exceptional sequence")
    n = reg.quiver.n
    current = list(seq.roots)
    while len(current) < n:
        candidates = sorted(right_perp(current, reg))
        if not candidates:
            raise NcpqError("no completion exists; this is a bug in finite type")
        current.insert(0, candidates[0])
    result = ExcSequence(tuple(current))
    if not is_exceptional_sequence(result.roots, reg):
        raise NcpqError("completion failed validation; this is a bug")
    return result


def slot_fillers(seq: ExcSequence, i: int, reg: IndecRegistry) -> frozenset[Vector]:
    """Roots that make the sequence exceptional when put in slot i (1-based)."""
    if not 1 <= i <= len(seq):
        raise ValidationError(f"slot {i} out of range 1..{len(seq)}")
    out = []
    for x in reg.roots():
        candidate = seq.roots[: i - 1] + (x,) + seq.roots[i:]
        if is_exceptional_sequence(candidate, reg):
            out.append(x)
    return frozenset(out)


def to_debug_json(module: Representation) -> dict:
    """The module's dimensions and its maps over one common denominator."""
    denom = math.lcm(*(x.denominator for m in module.maps for row in m for x in row))
    return {
        "dims": list(module.dims),
        "denominator": denom,
        "maps": [[[int(x * denom) for x in row] for row in m] for m in module.maps],
    }


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
        down[w] = frozenset({w}).union(*(down[x] for x in covers[w].values()))
    return down


def order_failures_by_all_pairs(subs, values, c, roots) -> list:
    """(a, b, direction) for every ordered pair of subcategories, as
    indices, where containment and absolute order on their values
    disagree: "forward" when subs[a] lies in subs[b] but values[a] is not
    below values[b], "backward" for the converse. u <= w is membership of
    u in the down-set of w, built from the Brady-Watt walk below c; a
    value outside [1, c] gets a walk of its own."""
    down = down_sets(interval_covers_by_moved_spaces(c, roots))
    for value in values:
        if value not in down:
            down.update(down_sets(interval_covers_by_moved_spaces(value, roots)))
    out = []
    for a, (sub_a, val_a) in enumerate(zip(subs, values)):
        for b, (sub_b, val_b) in enumerate(zip(subs, values)):
            contained = sub_a.ind_roots <= sub_b.ind_roots
            if contained != (val_a in down[val_b]):
                out.append((a, b, "forward" if contained else "backward"))
    return out


def maximal_chains_by_nested_generators(diagram: dict[int, int],
                                        roots: RootSystem) -> Iterator[tuple[Vector, ...]]:
    """The maximal chains of the mask diagram, read upward from the bottom
    through one generator per level: (x,) + s for each parent reaching a
    node through x, in letter order, and each chain s above that parent;
    the top has one empty chain. A child that the diagram lacks raises
    NcpqError before any chain is listed. This was the package's lister
    before it kept the path on one stack (`weyl.maximal_chains`)."""
    letters, orth = roots.sorted_roots(), roots.orth
    parents: dict[int, list[tuple[int, int]]] = {b: [] for b in diagram}
    for b in diagram:
        for k, child in _children(b, orth):
            if child not in parents:
                raise _missing(child)
            parents[child].append((k, b))
    for ups in parents.values():
        ups.sort()

    def above(node: int) -> Iterator[tuple[Vector, ...]]:
        ups = parents[node]
        if not ups:
            yield ()
        for k, parent in ups:
            for rest in above(parent):
                yield (letters[k],) + rest

    return above(next(reversed(diagram)))


def topological_sort_by_heap(n: int, arrows) -> tuple[int, ...] | None:
    """Kahn's algorithm on vertices 0..n-1, taking the smallest available
    vertex first; every arrow's head precedes its tail. Parallel arrows may
    repeat. Returns None when the arrows contain an oriented cycle."""
    successors: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for h, t in arrows:
        successors[h].append(t)
        indeg[t] += 1
    available = [v for v in range(n) if indeg[v] == 0]
    order = []
    while available:
        v = heapq.heappop(available)
        order.append(v)
        for t in successors[v]:
            indeg[t] -= 1
            if indeg[t] == 0:
                heapq.heappush(available, t)
    return tuple(order) if len(order) == n else None


def _ext_quiver(members: Sequence[Vector], reg: IndecRegistry) -> dict[tuple[int, int], int]:
    """The Ext-quiver of the members: dim Ext(members[i], members[j]) at
    (i, j), for each i != j where it is not 0."""
    ext = {}
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            if i != j and (d := reg.ext(a, b)):
                ext[i, j] = d
    return ext


def exceptional_antichains_by_backtracking(q: Quiver, reg) -> set:
    """All pairwise Hom-orthogonal root sets whose Ext-quiver is acyclic,
    including the empty one, by backtracking over Hom-orthogonal subsets
    with Hom ranked by `rep.hom_dim` for every ordered pair of distinct
    roots, not read off the Euler form, and not from the descent. `q`
    must be the registry's quiver."""
    if q != reg.quiver:
        raise ValidationError("the quiver is not the registry's quiver")
    roots = reg.roots()
    k = len(roots)
    hom = {(i, j): rep.hom_dim(reg[roots[i]], reg[roots[j]])
           for i in range(k) for j in range(k) if i != j}
    orthogonal = [[i != j and hom[i, j] == 0 and hom[j, i] == 0
                   for j in range(k)] for i in range(k)]
    found: set = set()
    chosen: list[int] = []

    def backtrack(start: int):
        members = tuple(roots[i] for i in chosen)
        if topological_sort_by_heap(len(members), _ext_quiver(members, reg)) is not None:
            found.add(frozenset(members))
        for nxt in range(start, k):
            if all(orthogonal[i][nxt] for i in chosen):
                chosen.append(nxt)
                backtrack(nxt + 1)
                chosen.pop()

    backtrack(0)
    return found


def subcategories(q: Quiver, reg) -> list:
    """The thick closures of all exceptional antichains, found by the
    backtracker, in the order of the sorted antichains."""
    antichains = sorted(exceptional_antichains_by_backtracking(q, reg),
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
        out = reflection_matrix(roots.quiver, simple_root(roots.n, i))(out)
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


def _reflect_quiver(q: Quiver, v: int) -> Quiver:
    arrows = tuple((t, h) if h == v or t == v else (h, t) for h, t in q.arrows)
    return Quiver(q.n, arrows)


def _source_cokernel_step(rep: Representation, j: int) -> Representation:
    """Reverse the arrows at a source j, replacing the space there by the
    cokernel of the combined outgoing map. Requires that map injective,
    which holds along indecomposable transport."""
    q = rep.quiver
    if not q.is_source(j):
        raise NcpqError(f"vertex {j} is not a source")
    out_idx = q.arrow_indices_from(j)
    dj = rep.dims[j - 1]
    block_rows = []
    offsets = []
    total_rows = 0
    for k in out_idx:
        t = q.arrows[k][1]
        offsets.append(total_rows)
        total_rows += rep.dims[t - 1]
        block_rows.extend(rep.maps[k])
    # The rows y of proj span {y : y phi = 0}, whose size is total_rows - dj
    # exactly when phi is injective.
    proj = int_kernel(integer_rows(list(zip(*block_rows))), total_rows)
    new_dim_j = len(proj)
    if new_dim_j != total_rows - dj:
        raise NcpqError("outgoing map is not injective; transport is broken")
    dims = tuple(new_dim_j if v == j else rep.dims[v - 1] for v in q.vertices)
    pairs: list[tuple[tuple[int, int], RatMatrix]] = []
    for k, (h, t) in enumerate(q.arrows):
        if k in out_idx:
            pos = out_idx.index(k)
            off = offsets[pos]
            width = rep.dims[t - 1]
            new_map = tuple(
                tuple(proj[r][off + c] for c in range(width))
                for r in range(new_dim_j))
            pairs.append(((t, h), new_map))
        else:
            pairs.append(((h, t), rep.maps[k]))
    pairs.sort(key=lambda p: p[0])
    new_q = Quiver(q.n, tuple(p[0] for p in pairs))
    return Representation(new_q, dims, tuple(p[1] for p in pairs))


def indecomposable_by_own_walk(q: Quiver, alpha, roots: RootSystem | None = None):
    """The indecomposable at alpha by its own walk: down the cycled
    reversed topological order of q to the first simple root, then every
    cokernel step replayed in reverse by `_source_cokernel_step` here,
    not the package's, sharing nothing with other roots."""
    if roots is None:
        roots = complete_roots(q)
    if not roots.classification.is_finite:
        raise NonFiniteTypeError("indecomposables are only tabulated in finite type")
    if alpha not in roots.positive_real_roots:
        raise ValidationError(f"{alpha} is not a positive root of this quiver")
    sink_word = tuple(reversed(topological_order(q)))
    quivers = [q]
    word: list[int] = []
    vec = alpha
    step = 0
    max_steps = 4 * q.n * len(roots.positive_real_roots) + 16
    while _is_simple_vector(vec) is None:
        j = sink_word[step % q.n]
        cur = quivers[-1]
        if not cur.is_sink(j):
            raise NcpqError(f"vertex {j} is not a sink at step {step}")
        vec = simple_reflect(roots.cartan, j - 1, vec)
        if not is_positive(vec):
            raise NcpqError("root walk left the positive cone; this is a bug")
        word.append(j)
        quivers.append(_reflect_quiver(cur, j))
        step += 1
        if step > max_steps:
            raise NcpqError("root walk failed to reach a simple root")
    rep = simple_representation(quivers[-1], _is_simple_vector(vec))
    for k in range(len(word) - 1, -1, -1):
        rep = _source_cokernel_step(rep, word[k])
        if rep.quiver != quivers[k]:
            raise NcpqError("transport misaligned the quiver; this is a bug")
    if rep.dims != alpha:
        raise NcpqError("transport produced the wrong dimension vector")
    return rep
