"""Real roots, reflections, Weyl-group arithmetic, absolute length, and
the non-crossing partition interval below a Coxeter element.

Group elements are exact integer matrices acting on the root lattice in the
basis of simple roots; products compose left to right, i.e. the product
a*b applies b first. Root generation runs on any acyclic quiver and
flags a truncated root system as incomplete. Absolute length, the
interval and conjugation depth are finite type only: they refuse to run
rather than truncate silently.

An element of [1, c] that the walk and `verify` hold is its height
vector phi(w) = 1^T w, the heights of w(a_1), ..., w(a_n), which fixes
w (`walk_elements`, with the proof). Its one product is
phi(w*t) = phi(w) - (phi(w) . a) (A a)^T at the root a of t
(`_height_step`), n operations; `element_of_heights` reads the matrix
back, for a failure report.

The matrix product with a reflection is w*t, `reflect_right`. A
reflection at a root a is t = I - a r^T, with r^T = a^T A for the
symmetric Cartan matrix A, so w*t changes only the columns that I - t
moves, about n * (|supp a| + |supp r|) operations instead of the n^3 of a
full product. It is exact for any matrix of t: I - t is read off the
matrix, its nonzero rows written as integer multiples of their primitive
rows (`Reflection._sparse`), and every row of w*t is updated from the
original row of w. It makes every reflection-times-matrix product of the
package: the matrices of [1, c] where they are printed or returned
(`element_matrices`), the folds of `multiply` (behind `coxeter_element`,
`exc.sequence_product` and the exchange witness's s_i*P), the witness's
P*s_alpha and the braid table's pair products. `compose`
(`_linalg.mat_mul`) stays the general product.

Both posets of the bijection are one Hasse diagram on int masks over
the roots (`mask_covers`), each mask mapped to its level: a mask is the
letter set of an element of [1, c] (`walk_elements`, with its proof)
and the indecomposables of a thick subcategory
(`exc.subcategory_covers`). The diagram is its masks: the letters of a
mask are its bits, and its child through bit k is `mask & orth[k]`, one
loop (`_children`) that the walk and every reader run. It has the
Coxeter-Catalan number of nodes (`quiver.coxeter_catalan`), which the
walk reads before it starts. `chain_counts` counts its maximal chains,
`maximal_chains` lists them, and `braid_transitive` certifies that the
braid group moves any chain to any other (proof in its docstring).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, reduce
from math import gcd
from operator import mul
from typing import Iterable, Iterator

from ._linalg import IntMatrix, identity_matrix, int_rank, mat_mul, mat_vec
from .errors import CapExceededError, NcpqError, NonFiniteTypeError, ValidationError
from .quiver import (
    Classification,
    Quiver,
    Vector,
    cartan_matrix,
    classify_type,
    connected_components,
    coxeter_catalan,
    euler_form,
    is_admissible_order,
    positive_root_count,
    symmetric_form,
)

DEFAULT_HEIGHT_BOUND = 100
DEFAULT_INTERVAL_CAP = 1_000_000
DEFAULT_ROOT_CAP = 1_000_000


@dataclass(frozen=True)
class WeylElement:
    """Invertible integer matrix acting on the root lattice.

    Equal and hashed as its matrix. Elements key many memo tables, and a
    tuple of tuples does not keep its hash, so the hash is computed once
    per element, on first use.
    """

    matrix: IntMatrix

    @cached_property
    def _hash(self) -> int:
        return hash(self.matrix)

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.matrix)

    def __call__(self, v: Vector) -> Vector:
        return mat_vec(self.matrix, v)

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.matrix]


def identity(n: int) -> WeylElement:
    return WeylElement(identity_matrix(n))


def compose(a: WeylElement, b: WeylElement) -> WeylElement:
    """Product a*b; applied to a vector, b acts first."""
    if a.n != b.n:
        raise ValidationError("composing elements of different rank")
    return WeylElement(mat_mul(a.matrix, b.matrix))


@dataclass(frozen=True)
class Reflection:
    """Reflection at a positive real root, with its matrix.

    The product with an element (`reflect_right`) reads I - t off the
    matrix, not off the root, so a matrix that disagrees with its root
    multiplies as that matrix does.
    """

    root: Vector
    element: WeylElement

    @cached_property
    def _sparse(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """I - t, sparsely, computed once per reflection, on first use: its
        nonzero rows grouped by their primitive row p, each group the pair
        ((i, c_i), ...), ((j, p_j), ...) of the rows i of I - t, each equal
        to c_i * p, and the nonzero entries of p. At a root a with
        r^T = a^T A, A the symmetric Cartan matrix, I - t = a r^T is one
        group: the rows at the support of a, all positive multiples of r."""
        groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for i, row in enumerate(self.element.matrix):
            d = [(i == j) - x for j, x in enumerate(row)]
            g = gcd(*d)
            if g:
                groups.setdefault(tuple(x // g for x in d), []).append((i, g))
        return tuple((tuple(rows), tuple((j, x) for j, x in enumerate(p) if x))
                     for p, rows in groups.items())


def reflect_right(w: WeylElement, t: Reflection) -> WeylElement:
    """The product w*t, equal to compose(w, t.element) for any matrix of t:
    w*t = w - w*(I - t), so row k of w loses s * p for each group of
    I - t, where s = sum of c_i * w_ki over the group's rows i. Each s is
    read off the original row of w, never one an earlier group updated,
    so the product is exact however many groups there are."""
    if t.element.n != w.n:
        raise ValidationError("composing elements of different rank")
    rows = []
    for row in w.matrix:
        new = None
        for coefs, p in t._sparse:
            s = 0
            for i, c in coefs:
                s += c * row[i]
            if s:
                if new is None:
                    new = list(row)
                for j, x in p:
                    new[j] -= s * x
        rows.append(row if new is None else tuple(new))
    return WeylElement(tuple(rows))


def multiply(factors: Iterable[Reflection], n: int) -> WeylElement:
    """Left-to-right product of the reflections, so the last acts first on
    a vector: the first factor's element times each later one by
    `reflect_right`, so k factors take k - 1 products. Only no factors at
    all give the identity of rank n."""
    factors = iter(factors)
    first = next(factors, None)
    return identity(n) if first is None else reduce(reflect_right, factors, first.element)


def height_vector(w: WeylElement) -> Vector:
    """phi(w) = 1^T w, the heights of w(a_1), ..., w(a_n): the column sums
    of w's matrix. The identity's is (1, ..., 1)."""
    return tuple(map(sum, zip(*w.matrix)))


def _height_step(v: Vector, step: tuple[tuple[tuple[int, int], ...], Vector]) -> Vector:
    """phi(w*t) from v = phi(w), for t the reflection at a root a given as
    its `RootSystem.height_steps` entry (the nonzero (j, a_j) and A a):
    w*t = w - (w a) (A a)^T, so phi(w*t) = v - (v . a) (A a)^T."""
    support, row = step
    s = 0
    for j, x in support:
        s += v[j] * x
    return tuple([x - s * y for x, y in zip(v, row)])


def element_of_heights(v: Vector, roots: RootSystem) -> WeylElement:
    """The element w with phi(w) = v (`height_vector`), read back by descent:
    while some v_j = ht w(a_j) < 0, w*s_j is shorter, and its vector is
    v - v_j (A a_j)^T (`_height_step`). The descent moves A^-1 v into the
    dominant chamber, so it stops, after at most one step per positive
    root, at a vector with no negative entry, which is (1, ..., 1), the
    identity's, exactly when v is some phi(w); any other v raises
    NcpqError. The steps j_1, ..., j_m give w = s_(j_m) ... s_(j_1)."""
    n, word = roots.n, []
    while (j := next((j for j, x in enumerate(v) if x < 0), None)) is not None:
        v = _height_step(v, (((j, 1),), roots.cartan[j]))
        word.append(j + 1)
    if v != (1,) * n:
        raise NcpqError(f"{v} is not the height vector of a Weyl group element; this is a bug")
    return multiply((roots.reflection(simple_root(n, j)) for j in reversed(word)), n)


def is_positive(v: Vector) -> bool:
    return any(x != 0 for x in v) and all(x >= 0 for x in v)


def is_negative(v: Vector) -> bool:
    return any(x != 0 for x in v) and all(x <= 0 for x in v)


def positive_representative(v: Vector) -> Vector:
    """The positive vector among v and -v; rejects mixed signs."""
    if is_positive(v):
        return v
    if is_negative(v):
        return tuple(-x for x in v)
    raise NcpqError(f"vector {v} is neither positive nor negative")


def reflect(q: Quiver, alpha: Vector, w: Vector) -> Vector:
    """Image of w under the reflection at alpha: w - (alpha, w) alpha."""
    s = symmetric_form(q, alpha, w)
    return tuple(wi - s * ai for wi, ai in zip(w, alpha))


def make_reflection(q: Quiver, alpha: Vector) -> Reflection:
    """Build the reflection at a positive real root, validating both facts."""
    if not is_positive(alpha):
        raise ValidationError(f"reflection root {alpha} is not positive")
    if symmetric_form(q, alpha, alpha) != 2:
        raise ValidationError(f"{alpha} is not a real root: (a, a) != 2")
    columns = [reflect(q, alpha, simple_root(q.n, j)) for j in q.vertices]
    return Reflection(alpha, WeylElement(tuple(zip(*columns))))


def simple_root(n: int, i: int) -> Vector:
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def simple_reflect(cartan: IntMatrix, i: int, v: Vector) -> Vector:
    """Image of v under the simple reflection s_{i+1} (i is 0-based):
    only coordinate i changes, by the pairing of v with simple root i."""
    s = sum(map(mul, cartan[i], v))
    return v[:i] + (v[i] - s,) + v[i + 1:]


def _truncated(classification: Classification, height_bound: int) -> NonFiniteTypeError:
    return NonFiniteTypeError(
        f"{classification} root system truncated at height {height_bound}: this needs "
        f"finite type with every positive root of height <= {height_bound}")


class RootSystem:
    """Positive real roots of a quiver, possibly truncated by height.

    `complete` is True only when the type is finite and the reflection
    closure stabilized below the height bound; otherwise the set is an
    explicit truncation. Instances are immutable apart from internal memo
    tables, plain dicts safe to fill concurrently under the GIL: the
    reflections, and the absolute lengths `absolute_length` has computed.
    """

    def __init__(self, quiver: Quiver, positive_real_roots: frozenset[Vector],
                 complete: bool, height_bound: int,
                 classification: Classification):
        self.quiver = quiver
        self.positive_real_roots = positive_real_roots
        self.complete = complete
        self.height_bound = height_bound
        self.classification = classification
        self.cartan = cartan_matrix(quiver).entries
        self._reflections: dict[Vector, Reflection] = {}
        self._abs_len: dict[WeylElement, int] = {}

    @property
    def n(self) -> int:
        return self.quiver.n

    def require_complete(self) -> None:
        """The one refusal of work that needs every positive root: a
        NonFiniteTypeError unless the set is `complete`, which holds only
        in finite type with no root above the height bound."""
        if not self.complete:
            raise _truncated(self.classification, self.height_bound)

    def sorted_roots(self) -> tuple[Vector, ...]:
        return tuple(sorted(self.positive_real_roots))

    def reflection(self, root: Vector) -> Reflection:
        if root not in self.positive_real_roots:
            raise ValidationError(f"{root} is not a known positive real root")
        refl = self._reflections.get(root)
        if refl is None:
            refl = make_reflection(self.quiver, root)
            self._reflections[root] = refl
        return refl

    def reflections(self) -> tuple[Reflection, ...]:
        return tuple(self.reflection(r) for r in self.sorted_roots())

    @cached_property
    def height_steps(self) -> tuple[tuple[tuple[tuple[int, int], ...], Vector], ...]:
        """At each root a, in `sorted_roots` order, made once: the nonzero
        entries (j, a_j) of a and the row A a of the symmetric Cartan
        matrix, which `_height_step` reads."""
        return tuple((tuple((j, x) for j, x in enumerate(a) if x), mat_vec(self.cartan, a))
                     for a in self.sorted_roots())

    @cached_property
    def euler(self) -> tuple[tuple[int, ...], ...]:
        """<a, b> = `euler_form` at row a and column b, in `sorted_roots`
        order, made once, on first use, by bilinearity from the form's
        matrix on the simple roots. `orth` and the registry's Hom masks
        read it."""
        ordered = self.sorted_roots()
        simples = [simple_root(self.n, i) for i in self.quiver.vertices]
        columns = [[euler_form(self.quiver, s, t) for s in simples] for t in simples]
        rows = [[sum(map(mul, a, col)) for col in columns] for a in ordered]
        return tuple(tuple(sum(map(mul, row, b)) for b in ordered) for row in rows)

    @cached_property
    def orth(self) -> tuple[int, ...]:
        """At each root a, the mask of the roots s with <a, s> = 0 (bit k for
        the k-th root), made once: the letters the walk keeps through a,
        and the right perpendicular a^⊥ of the module at a (no Hom and no
        Ext from it; proof in the `IndecRegistry` docstring)."""
        return tuple(sum(1 << k for k, e in enumerate(row) if e == 0) for row in self.euler)

    @cached_property
    def left_orth(self) -> tuple[int, ...]:
        """At each root a, the mask of the roots s with <s, a> = 0: `orth`
        transposed, made once from `orth` itself, so the two tables always
        agree. The left perpendicular of the module at a."""
        orth = self.orth
        return tuple(sum(1 << s for s, o in enumerate(orth) if o >> a & 1)
                     for a in range(len(orth)))


def generate_roots(q: Quiver, height_bound: int = DEFAULT_HEIGHT_BOUND, *,
                   classification: Classification | None = None) -> RootSystem:
    """Close the simple roots under simple reflections, keeping positive
    vectors of coordinate sum <= height_bound. The quiver is classified
    here unless its caller already holds its `classification`.

    Every vector reached is a positive real root v, and s_i changes only
    coordinate i: s_i(v) is negative exactly when v = alpha_i (the one
    real root that is a multiple of alpha_i), and otherwise positive
    unless its coordinate i is negative, which is a mixed-sign bug.

    Truncation is never silent: it clears the `complete` flag. Holding
    more than DEFAULT_ROOT_CAP roots (read at call time, each root counted
    when first met) raises CapExceededError("root count exceeds cap N").
    """
    cap = DEFAULT_ROOT_CAP
    if height_bound < 1:
        raise ValidationError("height bound must be positive")
    cart = cartan_matrix(q)
    if classification is None:
        classification = classify_type(cart)
    simples = [simple_root(q.n, i) for i in q.vertices]
    seen: set[Vector] = set(simples)
    frontier = deque(simples)
    truncated = False
    while frontier:
        if len(seen) > cap:
            raise CapExceededError(f"root count exceeds cap {cap}")
        v = frontier.popleft()
        for i in range(q.n):
            if v == simples[i]:
                continue  # s_i sends alpha_i to -alpha_i
            w = simple_reflect(cart.entries, i, v)
            if w[i] < 0:
                raise NcpqError(f"mixed-sign image {w} in root generation")
            if sum(w) > height_bound:
                truncated = True
                continue
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    complete = classification.is_finite and not truncated
    return RootSystem(q, frozenset(seen), complete, height_bound, classification)


def complete_roots(q: Quiver) -> RootSystem:
    """Every positive root of a finite-type quiver, from `generate_roots`
    and checked by `RootSystem.require_complete`. A quiver outside finite
    type, or one with a root above DEFAULT_HEIGHT_BOUND, is refused with
    the same error before any root is generated: in a connected Dynkin
    type of rank r with N positive roots the highest root has height
    h - 1, for the Coxeter number h = 2N/r (Bourbaki, Lie VI §1.11), and
    each root is supported on one component.
    """
    classification = classify_type(cartan_matrix(q))
    if not classification.is_finite or any(
            2 * positive_root_count(part) // int(part[1:]) - 1 > DEFAULT_HEIGHT_BOUND
            for part in classification.label.split("+")):
        raise _truncated(classification, DEFAULT_HEIGHT_BOUND)
    roots = generate_roots(q, classification=classification)
    roots.require_complete()
    return roots


def coxeter_element(q: Quiver, order: tuple[int, ...]) -> WeylElement:
    """Product of the simple reflections in an admissible order.

    Admissible means every arrow's source vertex is listed before its
    target, which makes the simples in that order an exceptional sequence.
    """
    order = tuple(order)
    if sorted(order) != list(q.vertices):
        raise ValidationError(f"{order} is not a permutation of 1..{q.n}")
    if not is_admissible_order(q, order):
        raise ValidationError(f"{order} is not an admissible exceptional ordering")
    return multiply((make_reflection(q, simple_root(q.n, i)) for i in order), q.n)


def absolute_length(w: WeylElement, roots: RootSystem) -> int:
    """Minimal number of real-root reflections whose product is w.

    By Carter's lemma (R. W. Carter, "Conjugacy classes in the Weyl
    group", Compositio Math. 25 (1972), Lemma 2) the absolute length of w
    equals the codimension of its fixed space, rank(w - I) (validated
    against breadth-first search in the test suite). Memoized per element
    on the root system; only a checked element enters the memo. Requires
    a complete root system.
    """
    length = roots._abs_len.get(w)
    if length is None:
        roots.require_complete()
        if w.n != roots.n:
            raise ValidationError("element rank does not match root system")
        n, m = w.n, w.matrix
        length = roots._abs_len[w] = int_rank([[m[i][j] - (i == j) for j in range(n)]
                                               for i in range(n)], n)
    return length


def _children(b: int, orth: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """The covers below the mask b, in bit order: (k, b & orth[k]) for each
    bit k of b, its letter and the child it reaches."""
    rest = b
    while rest:
        low = rest & -rest
        k = low.bit_length() - 1
        yield k, b & orth[k]
        rest ^= low


def _missing(mask: int) -> NcpqError:
    """The error of a reader that computes a child the diagram lacks."""
    return NcpqError(f"the mask {mask:#b} is not in the diagram; this is a bug")


def mask_covers(roots: RootSystem, what: str = "interval size") -> dict[int, int]:
    """The package's one walk: the Hasse diagram on int masks over
    `RootSystem.sorted_roots`, each mask mapped to its level, walked down
    from the mask of every root (level n) level by level, so every mask
    comes before the masks it covers. A mask's covers are fixed by the
    mask: its letters are its bits, in root order, and the child through
    bit k is `mask & orth[k]` (`RootSystem.orth`, `_children`), one level
    down.

    The diagram has the Coxeter-Catalan number of masks
    (`quiver.coxeter_catalan`, read off the classification): when that
    is more than DEFAULT_INTERVAL_CAP (read at call time), it raises
    CapExceededError("<what> exceeds cap N") before walking. A walk that
    meets another number of masks, or a mask at two levels, is refused as
    a bug; it stops at the first level past the number.
    """
    roots.require_complete()
    cap, size = DEFAULT_INTERVAL_CAP, coxeter_catalan(roots.classification.label)
    if size > cap:
        raise CapExceededError(f"{what} exceeds cap {cap}")
    orth = roots.orth
    level, rank = [(1 << len(orth)) - 1], roots.n
    diagram = dict.fromkeys(level, rank)
    while level and len(diagram) <= size:
        rank -= 1
        met: dict[int, int] = {}
        for b in level:
            for _, child in _children(b, orth):
                if child not in met:
                    met[child] = rank
        if not diagram.keys().isdisjoint(met):
            raise NcpqError("the walk down met a node at two levels; this is a bug")
        diagram.update(met)
        level = met
    if len(diagram) != size:
        raise NcpqError(f"the walk down did not meet the Coxeter-Catalan number {size} of "
                        "nodes; this is a bug")
    return diagram


def _walk(c: WeylElement, roots: RootSystem, top, step, bottom) -> tuple[dict[int, int], dict]:
    """The walk of [1, c] that `walk_elements` and `element_matrices` make:
    c checked (E c = -E^T) before any walk, the diagram (`mask_covers`),
    and each mask's element, `top` at the first mask and step(w, k) at a
    mask first met below w through bit k, one step per node in the order
    the walk meets them; the empty mask's must be `bottom`. A child
    missing from the diagram and another bottom raise NcpqError."""
    q = roots.quiver
    simples = [simple_root(q.n, i) for i in q.vertices]
    euler = tuple(tuple(euler_form(q, a, b) for b in simples) for a in simples)
    if c.n != q.n or mat_mul(euler, c.matrix) != tuple(zip(*((-x for x in r) for r in euler))):
        raise ValidationError("the given element is not the Coxeter element of the quiver")
    diagram = mask_covers(roots)
    orth = roots.orth
    elements = {next(iter(diagram)): top}
    for mask in diagram:
        w = elements[mask]
        for k, child in _children(mask, orth):
            if child not in elements:
                if child not in diagram:
                    raise _missing(child)
                elements[child] = step(w, k)
    if elements.get(0) != bottom:
        raise NcpqError("the interval walk ended off the identity; this is a bug")
    return diagram, elements


def walk_elements(c: WeylElement, roots: RootSystem) -> tuple[dict[int, int], dict[int, Vector]]:
    """The entry to the interval [1, c] of absolute order that holds its
    elements as vectors (`element_matrices` holds matrices): its Hasse
    diagram on masks (`mask_covers`), each mask mapped to |w|, and each
    mask's element w as its height vector phi(w) (`height_vector`):
    phi(c) at the top, and phi(w*t) at a mask first met below w through
    the root of t, one `_height_step` per node in the order the walk meets
    them. The covers below w are the w*t for the reflections t <= w: the
    letters of w are the roots of those t, and bit k of w reaches w*t for
    t at the k-th root.

    Before any walk, c is checked to be the Coxeter element of the root
    system's quiver, the one element with E c = -E^T for E the Euler
    form's matrix on the simple roots (proof below; one n x n product):
    any other c raises ValidationError. NcpqError reports a child missing
    from the diagram and an empty mask off the identity's vector.

    The vector fixes the element: phi(w)_j = ht w(a_j) = B(rho, w a_j) =
    (A w^-1 rho)_j, for the form B = x^T A y and rho = A^-1 (1, ..., 1)
    (B(rho, a_j) = 1). A is invertible, and w^-1 rho fixes w, since no
    reflection fixes rho (B(rho, a) = ht a > 0) and the stabilizer of a
    vector is generated by the reflections that fix it (Humphreys 1990,
    Reflection Groups and Coxeter Groups, 1.12). The step is exact: with
    t = I - a (A a)^T, 1^T w t = phi(w) - (phi(w) . a) (A a)^T.

    The masks are letter sets: the letters of w are the roots a with
    t_a <= w, every root at c, and the child of w through a keeps the
    letters s of w with <a, s> = 0, for <.,.> = `euler_form`. Proof,
    with B the symmetric form (positive definite in finite type) and
    Mov(w) = im(w - I):

    - Letters. t_a <= w iff a lies in Mov(w), and |w| = dim Mov(w)
      (Brady-Watt 2002, "A partial order on the orthogonal group";
      Carter 1972, Lemma 2).
    - The Wall form of w in W is W_w(u, v) = B(u, x) on Mov(w), for any
      x with v = (I - w) x (x is fixed up to Fix(w) = Mov(w)^perp).
      W_w(v, v) = B(x, x) - B(w x, x) = B(v, v) / 2, so W_w(a, a) = 1 at
      a root and B = W_w + W_w^T on Mov(w).
    - At c it is the Euler form. Number the vertices in an admissible
      order, so E = I + U for E_ij = <e_i, e_j>, U strictly upper
      triangular, and A = E + E^T. In y = c x = s_1 ... s_n x, s_n first,
      coordinate k is set by s_k alone, from y above k and x below it:
      y_k = -x_k - sum_(j<k) A_kj x_j - sum_(j>k) A_kj y_j, so E y =
      -E^T x and E (I - c) = A, invertible. Mov(c) is everything, and
      v = (I - c) x gives B(u, x) = u^T A x = u^T E v: W_c = <.,.>.
    - One step. For a root a in Mov(w) and u = w t_a, t_a x =
      x - B(a, x) a: (I - u)(t_a x) = v - B(a, x) a = v - W_w(a, v) a.
      As x runs over the space, v = (I - w) x runs over Mov(w), so Mov(u)
      is the image of this projection, {v in Mov(w) : W_w(a, v) = 0},
      and there W_u(m, v) = B(m, t_a x) = B(m, x) = W_w(m, v). By
      induction from c, W_w = <.,.> on every Mov(w) of the walk, and the
      letters of w t_a are the s of w with <a, s> = 0; a drops out, as
      <a, a> = 1.
    - The side. (I - t_a w) x = v + B(a, w x) a, with B(a, w x) =
      B(a, x) - B(a, v) = -W_w(v, a): screening on <s, a> = 0 would give
      the letters of t_a w, a conjugate of w t_a, under w t_a's matrix.
    - Keys. A minimal factorization w = t_1 ... t_k puts Mov(w) in the
      span of their k roots, so the roots in Mov(w) span it, and Mov(w)
      fixes w: (I - w) x is the one v in M = Mov(w) with <m, v> = B(m, x)
      for all m in M (one, as <m, v> = 0 for all m puts x in
      M^perp = Fix(w)). So the masks are in bijection with the elements.

    The walk is complete: if u <= w, then u^-1 w = t_1 ... t_k with
    k = |w| - |u|, and w_i = w t_k ... t_(k+1-i) lowers the length by
    exactly one at each of the k steps to u, so u lies on a chain of
    covers below w.

    `verify` checks each element against cox(B) on its mask.
    """
    steps = roots.height_steps
    return _walk(c, roots, height_vector(c), lambda v, k: _height_step(v, steps[k]),
                 (1,) * roots.n)


def element_matrices(c: WeylElement,
                     roots: RootSystem) -> tuple[dict[int, int], dict[int, WeylElement]]:
    """`walk_elements` with each mask's element as its matrix, for the
    callers that print or return matrices: the same checks and diagram,
    c at the top, and w*t at a mask first met below w through the root of
    t, one `reflect_right` per node in the order the walk meets them."""
    reflections = roots.reflections()
    return _walk(c, roots, c, lambda w, k: reflect_right(w, reflections[k]), identity(c.n))


def chain_counts(diagram: dict[int, int], roots: RootSystem) -> dict[int, int]:
    """For each mask of the diagram (`mask_covers`), the number of
    maximal chains of covers from it down, by dynamic programming upward.
    A child that the diagram lacks below its parent raises NcpqError.

    On the interval walk it is the number of minimal reflection
    factorizations of w. A factorization w = t_1 ... t_k with k = |w|
    gives the chain w > w t_k > w t_k t_(k-1) > ... > 1, each step a
    cover because it lowers the length by one, and the chain gives back
    the t_i. The walk is complete below every element it holds (see
    `walk_elements`), so every such chain is in it. On the descent it
    is the number of complete exceptional sequences of a subcategory.
    """
    orth = roots.orth
    chains: dict[int, int] = {}
    try:
        for b in reversed(diagram):
            count = 0
            for _, child in _children(b, orth):
                count += chains[child]
            chains[b] = count or 1
    except KeyError as missing:
        raise _missing(missing.args[0]) from None
    return chains


def maximal_chains(diagram: dict[int, int], roots: RootSystem) -> Iterator[tuple[Vector, ...]]:
    """The maximal chains of the mask diagram (`mask_covers`), lazily and
    in lexicographic order, each as the letters of its covers from the
    bottom, the letter of bit k being `sorted_roots()[k]`. Every maximal
    chain of these posets runs from their one bottom, the walk's last
    mask and its one mask without bits, to their one top, the first mask.
    So the chains are read upward along the inverted covers: each node
    lists its parents with the letter that reaches it, in letter order,
    and one depth-first walk up from the bottom keeps the letters of the
    current path on one stack, yielding a copy of it at the top, the one
    node without parents (a diagram of one node has one chain, the empty
    one). A node has at most one parent through each letter (w = u*t
    above u through t on the interval, B = thick(A ∪ {x}) above A
    through x on the descent), so equal first letters mean equal parents
    and the chains come sorted. Each chain is built once, as one tuple,
    when it is yielded, and no earlier: the walk holds one path.
    On the interval walk, whose covers are w > w*t through the root of
    t, the chain c > c t_n > ... > 1 reads the minimal reflection
    factorization c = t_1 ... t_n; on the descent, whose covers are
    B > B ∩ x^⊥ through x, it reads the complete exceptional sequence
    (x_1, ..., x_n). A child that the diagram lacks below its parent
    raises NcpqError before any chain is listed.
    """
    letters, orth = roots.sorted_roots(), roots.orth
    parents: dict[int, list[tuple[Vector, int]]] = {b: [] for b in diagram}
    for b in diagram:
        for k, child in _children(b, orth):
            if child not in parents:
                raise _missing(child)
            parents[child].append((letters[k], b))
    for ups in parents.values():
        ups.sort()
    return _upward(parents, next(reversed(diagram)))


def _upward(parents: dict[int, list[tuple[Vector, int]]],
            bottom: int) -> Iterator[tuple[Vector, ...]]:
    """The paths from the bottom to the nodes without parents, as their
    letters, depth first in the order of each node's parents."""
    if not parents[bottom]:
        yield ()
        return
    path: list[Vector] = []
    stack = [iter(parents[bottom])]
    while stack:
        for letter, parent in stack[-1]:
            path.append(letter)
            if parents[parent]:
                stack.append(iter(parents[parent]))
                break
            yield tuple(path)
            path.pop()
        else:
            stack.pop()
            if path:
                path.pop()


def braid_transitive(diagram: dict[int, int], roots: RootSystem) -> bool:
    """Certificate that the braid group acts transitively on the maximal
    chains of the mask diagram (`mask_covers`), read from the bottom as
    in `maximal_chains`: at every node w, the graph on the letters of w,
    with an edge a - b for each letter b of the child reached through a,
    is connected.

    On the masks: the child of b through bit a is `b & orth[a]`
    (`RootSystem.orth`), so the graph at b is b under the neighbour masks
    orth[a] | left_orth[a], and it must be one component
    (`quiver.connected_components`). The children themselves are fixed by
    the masks, and a reader that meets one missing from the diagram
    (`chain_counts`, `maximal_chains`, `walk_elements`) raises NcpqError.

    Proof, by induction up the diagram; a node with no children has one
    chain. The chains of w that end with a are s + (a,) for the chains s
    below the child w_a reached through a, one orbit by induction under
    the moves that leave the last letter alone. For an edge a - b there
    is a chain (..., b, a), and one braid move on its last two letters
    gives a chain that ends with b:
    - On the interval [1, c] the chains are the minimal reflection
      factorizations and the letters of w are the reflections t <= w
      (Bessis 2003, The dual braid monoid, Prop. 1.6.1). The move on the
      last pair sends (..., b, a) to (..., b a b, b), which puts b last
      and keeps the product, as b a = (b a b) b, so it is a
      factorization of w again.
    - On the subcategory descent the chains are the complete exceptional
      sequences, and those of B that end in x are the complete sequences
      of B ∩ x^⊥ followed by x. The inverse mutation of the last pair
      (b, a) gives (s_b(a), b), which puts b last, and mutation keeps
      complete exceptional sequences (Crawley-Boevey 1993).
    So the orbits of the chains that end with a and with b meet, and
    when the graph is connected all chains of w lie in one orbit.

    The top's own condition is also necessary: a move on the last two
    letters of (..., b, a) puts b last, an edge a - b, or puts some a'
    last with a a letter of w_a', an edge a' - a, and every other move
    keeps the last letter. A failure further down leaves the orbit
    count open and also reads False.
    """
    undirected = list(map(int.__or__, roots.orth, roots.left_orth))
    return all(len(connected_components(b, undirected)) < 2 for b in diagram)


def noncrossing_partitions(c: WeylElement, q: Quiver, *,
                           roots: RootSystem | None = None) -> set[WeylElement]:
    """Interval {s : s <= c} of absolute order in a finite Weyl group: the
    matrices (`element_matrices`) of the mask diagram's elements
    (`walk_elements`, proof in its docstring). Any c but the Coxeter
    element of the roots' quiver is refused before the walk; `roots`
    defaults to `complete_roots`, which refuses before generating any."""
    if roots is None:
        roots = complete_roots(q)
    return set(element_matrices(c, roots)[1].values())


@dataclass(frozen=True)
class ExchangeWitness:
    """Index t and the two sides of the exchange identity, as matrices."""

    t: int
    lhs: WeylElement
    rhs: WeylElement

    @property
    def verified(self) -> bool:
        return self.lhs == self.rhs


def exchange_index(word: tuple[int, ...], alpha: Vector, roots: RootSystem) -> ExchangeWitness:
    """Exchange property for a word in simple reflections sending alpha < 0.

    With suffixes P_t = s_{i_t} ... s_{i_k}, returns the minimal t where
    P_{t+1}(alpha) > 0 but P_t(alpha) < 0, together with the verified
    matrix identity s_{i_t} P_{t+1} = P_{t+1} s_alpha.
    """
    q = roots.quiver
    word = tuple(word)
    k = len(word)
    if k == 0:
        raise ValidationError("word must be nonempty")
    for i in word:
        if not (1 <= i <= q.n):
            raise ValidationError(f"word letter {i} outside 1..{q.n}")
    if alpha not in roots.positive_real_roots:
        raise ValidationError(f"{alpha} is not a known positive real root")
    simples = {i: make_reflection(q, simple_root(q.n, i)) for i in set(word)}
    # images[t] = s_{i_{t+1}} ... s_{i_k} (alpha), indexed t = 0..k
    images: list[Vector] = [()] * (k + 1)
    images[k] = alpha
    for t in range(k, 0, -1):
        images[t - 1] = simple_reflect(roots.cartan, word[t - 1] - 1, images[t])
    if not is_negative(images[0]):
        raise ValidationError("the word does not send alpha to a negative vector")
    t_min = next(t for t in range(1, k + 1)
                 if is_positive(images[t]) and is_negative(images[t - 1]))
    lhs = multiply((simples[i] for i in word[t_min - 1:]), q.n)
    rhs = reflect_right(multiply((simples[i] for i in word[t_min:]), q.n),
                        make_reflection(q, alpha))
    if lhs != rhs:
        raise NcpqError("exchange identity failed to verify; this is a bug")
    return ExchangeWitness(t_min, lhs, rhs)


def conjugation_depth(r: Reflection, q: Quiver, *,
                      roots: RootSystem | None = None) -> int:
    """Minimal standard length of a conjugator writing r as w s_j w^-1:
    the distance from the simple roots to the root a of r, where each step
    conjugates by one simple reflection and takes the positive
    representative. In finite type it is ht(a) - 1.

    Proof. Finite type is simply laced and its form B is positive
    definite, so for a positive root b != a_i Cauchy-Schwarz gives
    |B(b, a_i)| < 2: the pairing is -1, 0 or 1, s_i(b) = b - B(b, a_i) a_i
    is again positive (s_i permutes the positive roots other than a_i),
    and one step changes the height by at most one (a step from a_i by s_i
    returns to a_i). Every path from a simple root (height 1) to a thus
    takes at least ht(a) - 1 steps. Conversely, if a = sum c_i a_i is not simple, then
    2 = B(a, a) = sum c_i B(a, a_i) with every c_i >= 0, so some B(a, a_i)
    is 1, and s_i lowers the height by exactly one; by induction ht(a) - 1
    steps reach a simple root. The test suite checks it against a
    breadth-first search over the roots. `roots` defaults to
    `complete_roots`, which refuses before generating any.
    """
    if roots is None:
        roots = complete_roots(q)
    if not roots.classification.is_finite:
        raise NonFiniteTypeError("conjugation depth requires finite type")
    if r.root not in roots.positive_real_roots:
        raise ValidationError(f"{r.root} is not a positive real root of this quiver")
    return sum(r.root) - 1
