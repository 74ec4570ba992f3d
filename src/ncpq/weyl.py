"""Real roots, reflections, Weyl-group arithmetic, absolute order, and the
non-crossing partition interval below a Coxeter element.

Group elements are exact integer matrices acting on the root lattice in the
basis of simple roots; products compose left to right, i.e. the product
a*b applies b first. Root generation runs on any acyclic quiver and
flags a truncated root system as incomplete. Absolute length, absolute
order, the interval and conjugation depth are finite type only: they
refuse to run rather than truncate silently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import mul
from typing import Iterable

from ._linalg import IntMatrix, identity_matrix, in_span, int_echelon, int_rank, mat_mul, mat_vec
from .errors import CapExceededError, NcpqError, NonFiniteTypeError, ValidationError
from .quiver import (
    Classification,
    Quiver,
    Vector,
    cartan_matrix,
    classify_type,
    is_admissible_order,
    symmetric_form,
)

DEFAULT_HEIGHT_BOUND = 100
DEFAULT_INTERVAL_CAP = 1_000_000


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


def multiply(factors: Iterable[WeylElement], n: int) -> WeylElement:
    """Left-to-right product of the factors, so the last acts first on a
    vector. It starts at the first factor; only no factors at all give
    the identity of rank n."""
    factors = iter(factors)
    first = next(factors, None)
    return identity(n) if first is None else reduce(compose, factors, first)


class ProductMemo(dict):
    """Products a*b of Weyl elements, keyed on the pair (a, b), so on the
    operand matrices (a WeylElement compares and hashes as its matrix):
    each distinct pair is composed once. Make one per search and drop it
    with the search."""

    def __missing__(self, pair: tuple[WeylElement, WeylElement]) -> WeylElement:
        product = self[pair] = compose(*pair)
        return product


@dataclass(frozen=True)
class Reflection:
    """Reflection at a positive real root, with its matrix."""

    root: Vector
    element: WeylElement


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


class RootSystem:
    """Positive real roots of a quiver, possibly truncated by height.

    `complete` is True only when the type is finite and the reflection
    closure stabilized below the height bound; otherwise the set is an
    explicit truncation. Instances are immutable apart from internal memo
    tables (reflections, absolute lengths, reflections below an element)
    which are plain dicts and safe to fill concurrently under the GIL.
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
        self._below: dict[WeylElement, tuple[Reflection, ...]] = {}

    @property
    def n(self) -> int:
        return self.quiver.n

    def require_complete(self) -> None:
        """The one refusal of work that needs every positive root: a
        NonFiniteTypeError unless the set is `complete`, which holds only
        in finite type with no root above the height bound."""
        if not self.complete:
            raise NonFiniteTypeError(
                f"{self.classification} root system truncated at height {self.height_bound}: "
                f"this needs finite type with every positive root of height "
                f"<= {self.height_bound}")

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


def generate_roots(q: Quiver, height_bound: int = DEFAULT_HEIGHT_BOUND) -> RootSystem:
    """Close the simple roots under simple reflections, keeping positive
    vectors of coordinate sum <= height_bound.

    Every vector reached is a positive real root v, and s_i changes only
    coordinate i: s_i(v) is negative exactly when v = alpha_i (the one
    real root that is a multiple of alpha_i), and otherwise positive
    unless its coordinate i is negative, which is a mixed-sign bug.

    Truncation is never silent: it clears the `complete` flag.
    """
    if height_bound < 1:
        raise ValidationError("height bound must be positive")
    cart = cartan_matrix(q)
    classification = classify_type(cart)
    simples = [simple_root(q.n, i) for i in q.vertices]
    seen: set[Vector] = set(simples)
    frontier = deque(simples)
    truncated = False
    while frontier:
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
    return multiply((make_reflection(q, simple_root(q.n, i)).element for i in order), q.n)


def _moved_space(w: WeylElement):
    """`int_echelon` of the columns of w - I, which span the moved space
    Mov(w) = im(w - I). Its pivot count is rank(w - I)."""
    n, m = w.n, w.matrix
    return int_echelon([[m[i][j] - (i == j) for i in range(n)] for j in range(n)], n)


def absolute_length(w: WeylElement, roots: RootSystem) -> int:
    """Minimal number of real-root reflections whose product is w.

    By Carter's lemma (R. W. Carter, "Conjugacy classes in the Weyl
    group", Compositio Math. 25 (1972), Lemma 2) the absolute length of w
    equals the codimension of its fixed space, rank(w - I): the pivot
    count of the echelon of its moved space (validated against
    breadth-first search in the test suite). Memoized per element on the
    root system; only a checked element enters the memo. Requires a
    complete root system.
    """
    length = roots._abs_len.get(w)
    if length is None:
        roots.require_complete()
        if w.n != roots.n:
            raise ValidationError("element rank does not match root system")
        length = roots._abs_len[w] = len(_moved_space(w))
    return length


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


def reflections_below(w: WeylElement, roots: RootSystem,
                      _candidates: tuple[Reflection, ...] | None = None,
                      ) -> tuple[Reflection, ...]:
    """The reflections t <= w in absolute order, in root order, memoized
    per element on the root system.

    t <= w means |t w| = |w| - 1: these are the first letters of the
    minimal reflection factorizations of w. By Brady-Watt (2002, "A
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
    ValidationError otherwise; `interval_covers` refuses an orthogonal w
    outside W, as its walk cannot reach the identity. `_candidates`, for
    callers inside the package, is the set found below some u >= w with
    w = t*u: w inherits the check from u, and only those need testing, as
    t <= w <= u implies t <= u. Requires a complete root system.
    """
    roots.require_complete()
    found = roots._below.get(w)
    if found is None:
        pool = _candidates
        if pool is None:
            pool = roots.reflections()
            a = roots.cartan
            if w.n != roots.n or mat_mul(mat_mul(tuple(zip(*w.matrix)), a), w.matrix) != a:
                raise ValidationError("the given element does not preserve the symmetric "
                                      "form of this root system")
        moved = _moved_space(w)
        roots._abs_len[w] = len(moved)
        found = roots._below[w] = tuple(t for t in pool if in_span(moved, t.root))
    return found


def interval_covers(c: WeylElement,
                    roots: RootSystem) -> dict[WeylElement, tuple[WeylElement, ...]]:
    """The Hasse diagram of the interval [1, c] of absolute order: each
    element mapped to the elements it covers, which are t*w for the
    reflections t <= w. Elements appear level by level from c down, so
    every element comes before the elements it covers.

    The walk is complete. If u <= w then w u^-1 has absolute length
    k = |w| - |u|, so w = t_1 ... t_k u with reflections t_i. Put w_0 = w
    and w_i = t_i w_(i-1), so w_k = u: each step lowers the length by at
    most one and k steps lower it by k, so each lowers it by exactly one,
    t_i <= w_(i-1), and u lies on a chain of covers below w. The walk is
    sound because t <= w gives t*w <= w and the order is transitive. A
    child is tested only against the reflections below its first parent,
    which hold all reflections below it (Brady-Watt 2002: Mov(t w) lies
    in Mov(w)).

    Reaching the identity writes c as a product of reflections, which
    certifies c in W; a walk that ends without it raises ValidationError.
    Holding more than DEFAULT_INTERVAL_CAP elements (read at call time)
    raises CapExceededError.
    """
    cap = DEFAULT_INTERVAL_CAP
    covers: dict[WeylElement, tuple[WeylElement, ...]] = {}
    level: dict[WeylElement, tuple[Reflection, ...] | None] = {c: None}
    held = 1
    while level:
        next_level: dict[WeylElement, tuple[Reflection, ...]] = {}
        for w, candidates in level.items():
            below = reflections_below(w, roots, candidates)
            children = tuple(compose(t.element, w) for t in below)
            covers[w] = children
            for child in children:
                if child not in next_level:
                    held += 1
                    if held > cap:
                        raise CapExceededError(f"interval size exceeds cap {cap}")
                    next_level[child] = below
        level = next_level
    if identity(c.n) not in covers:
        raise ValidationError("the given element does not lie in this Weyl group")
    return covers


def chain_counts(covers: dict) -> dict:
    """For each key w of a Hasse diagram listing every key before those it
    covers (`interval_covers`, `exc.subcategory_covers`), the number of
    maximal chains of covers from w down, by dynamic programming upward.

    On the interval walk it is the number of minimal reflection
    factorizations of w. A factorization w = t_1 ... t_k with k = |w|
    gives the chain w > t_1 w > t_2 t_1 w > ... > 1, each step a cover
    because it lowers the length by one, and the chain gives back the
    t_i. The walk is complete below every element it holds (see
    `interval_covers`), so every such chain is in it. On the descent it
    is the number of complete exceptional sequences of a subcategory.
    """
    chains = {}
    for w in reversed(covers):
        chains[w] = sum(chains[x] for x in covers[w]) if covers[w] else 1
    return chains


def noncrossing_partitions(c: WeylElement, q: Quiver, *,
                           roots: RootSystem | None = None) -> set[WeylElement]:
    """Interval {s : s <= c} of absolute order in a finite Weyl group,
    walked down from c by `interval_covers`."""
    if roots is None:
        roots = generate_roots(q)
    roots.require_complete()
    return set(interval_covers(c, roots))


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
    suffix = multiply((simples[i].element for i in word[t_min:]), q.n)
    lhs = compose(simples[word[t_min - 1]].element, suffix)
    rhs = compose(suffix, make_reflection(q, alpha).element)
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
    breadth-first search over the roots.
    """
    if roots is None:
        roots = generate_roots(q)
    if not roots.classification.is_finite:
        raise NonFiniteTypeError("conjugation depth requires finite type")
    if r.root not in roots.positive_real_roots:
        raise ValidationError(f"{r.root} is not a positive real root of this quiver")
    return sum(r.root) - 1
