"""Acyclic quivers, the bilinear forms they induce, and type classification.

The convention fixed here and used everywhere else in the package: an arrow
(h, t) is a linear map from the vector space at h to the vector space at t,
and the nonsymmetric bilinear form on dimension vectors is

    form(v, w) = sum_i v[i] * w[i] - sum_{(h, t)} v[h] * w[t].

Its symmetrization has Gram matrix the generalized Cartan matrix of the
underlying graph, which is what the finite/affine/indefinite trichotomy is
decided on (by exact integer arithmetic, never floats).
"""

from __future__ import annotations

from math import prod
from dataclasses import dataclass
from typing import Sequence

from ._linalg import IntMatrix
from .errors import QuiverParseError, ValidationError

Vector = tuple[int, ...]
Arrow = tuple[int, int]


@dataclass(frozen=True)
class Quiver:
    """Directed multigraph with vertices 1..n and no oriented cycles.

    Parallel arrows are repeated entries; loops are rejected. Arrows are
    stored sorted, so equality is by (n, multiset of arrows).
    """

    n: int
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("vertex count must be at least 1")
        arrows = tuple(sorted((int(h), int(t)) for h, t in self.arrows))
        object.__setattr__(self, "arrows", arrows)
        for h, t in arrows:
            if not (1 <= h <= self.n and 1 <= t <= self.n):
                raise ValidationError(f"arrow ({h}, {t}) has a vertex outside 1..{self.n}")
            if h == t:
                raise ValidationError(f"loop arrow at vertex {h}")
        topological_order(self)  # raises ValidationError on an oriented cycle

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def arrow_indices_from(self, v: int) -> tuple[int, ...]:
        return tuple(k for k, (h, _) in enumerate(self.arrows) if h == v)

    def arrow_indices_into(self, v: int) -> tuple[int, ...]:
        return tuple(k for k, (_, t) in enumerate(self.arrows) if t == v)

    def is_sink(self, v: int) -> bool:
        return not any(h == v for h, _ in self.arrows)

    def is_source(self, v: int) -> bool:
        return not any(t == v for _, t in self.arrows)


def parse_quiver(text: str) -> Quiver:
    """Parse the quiver file format: `vertices <n>` then `arrow <h> <t>` lines.

    `#` starts a comment; blank lines are ignored. Errors report the
    offending line number where one exists.
    """
    n: int | None = None
    arrows: list[Arrow] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "vertices":
            if n is not None:
                raise QuiverParseError("duplicate vertices line", lineno)
            if len(tokens) != 2:
                raise QuiverParseError("expected: vertices <n>", lineno)
            try:
                n = int(tokens[1])
            except ValueError:
                raise QuiverParseError(f"invalid vertex count {tokens[1]!r}", lineno)
            if n < 1:
                raise QuiverParseError("vertex count must be at least 1", lineno)
        elif tokens[0] == "arrow":
            if n is None:
                raise QuiverParseError("arrow before vertices line", lineno)
            if len(tokens) != 3:
                raise QuiverParseError("expected: arrow <h> <t>", lineno)
            try:
                h, t = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise QuiverParseError("arrow endpoints must be integers", lineno)
            if not (1 <= h <= n and 1 <= t <= n):
                raise QuiverParseError(f"vertex index out of range 1..{n}", lineno)
            if h == t:
                raise QuiverParseError(f"loop arrow at vertex {h}", lineno)
            arrows.append((h, t))
        else:
            raise QuiverParseError(f"unknown keyword {tokens[0]!r}", lineno)
    if n is None:
        raise QuiverParseError("missing vertices line")
    try:
        return Quiver(n, tuple(arrows))
    except ValidationError as exc:
        raise QuiverParseError(str(exc)) from exc


def _check_dims(q: Quiver, *vectors: Vector) -> None:
    for v in vectors:
        if len(v) != q.n:
            raise ValidationError(f"vector of length {len(v)} for a quiver with {q.n} vertices")


def euler_form(q: Quiver, v: Vector, w: Vector) -> int:
    """Nonsymmetric bilinear form: vertex terms minus one term per arrow."""
    _check_dims(q, v, w)
    total = sum(a * b for a, b in zip(v, w))
    for h, t in q.arrows:
        total -= v[h - 1] * w[t - 1]
    return total


def symmetric_form(q: Quiver, v: Vector, w: Vector) -> int:
    return euler_form(q, v, w) + euler_form(q, w, v)


@dataclass(frozen=True)
class CartanMatrix:
    """Symmetric integer matrix with 2s on the diagonal, nonpositive elsewhere."""

    entries: IntMatrix

    def __post_init__(self):
        n = len(self.entries)
        entries = tuple(tuple(int(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        for i in range(n):
            if len(entries[i]) != n:
                raise ValidationError("Cartan matrix must be square")
            if entries[i][i] != 2:
                raise ValidationError("Cartan matrix diagonal must be 2")
            for j in range(n):
                if entries[i][j] != entries[j][i]:
                    raise ValidationError("Cartan matrix must be symmetric")
                if i != j and entries[i][j] > 0:
                    raise ValidationError("off-diagonal Cartan entries must be <= 0")

    @property
    def n(self) -> int:
        return len(self.entries)


def cartan_matrix(q: Quiver) -> CartanMatrix:
    """`symmetric_form` on the simple roots, counted from the arrows: 2 on
    the diagonal (no loops), minus the arrows between i and j off it."""
    entries = [[2 * (i == j) for j in range(q.n)] for i in range(q.n)]
    for h, t in q.arrows:
        entries[h - 1][t - 1] -= 1
        entries[t - 1][h - 1] -= 1
    return CartanMatrix(entries)


@dataclass(frozen=True)
class Classification:
    kind: str  # "finite" | "affine" | "indefinite"
    label: str | None = None

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def __str__(self) -> str:
        if self.kind == "finite":
            return f"Finite({self.label})"
        return self.kind.capitalize()


def _leading_minors(entries: IntMatrix, vertices: list[int]) -> list[int]:
    """The leading principal minors of the principal submatrix on
    `vertices`, through the first that is <= 0: the pivots of one
    fraction-free (Bareiss) elimination without row swaps, since past k
    nonzero pivots entry (i, j) is the leading k-by-k minor bordered by
    row i and column j."""
    m = [[entries[i][j] for j in vertices] for i in vertices]
    minors: list[int] = []
    for k, row in enumerate(m):
        minors.append(row[k])
        if row[k] <= 0:
            break
        prev = minors[-2] if k else 1
        for lower in m[k + 1:]:
            lower[k + 1:] = [(x * row[k] - lower[k] * y) // prev
                             for x, y in zip(lower[k + 1:], row[k + 1:])]
    return minors


def _positive_definite(entries: IntMatrix, vertices: list[int]) -> bool:
    """Whether the principal submatrix on `vertices` is positive definite:
    by Sylvester's criterion, whether every leading principal minor is
    positive (`_leading_minors`, one elimination)."""
    return all(m > 0 for m in _leading_minors(entries, vertices))


def _dynkin_component_label(comp: int, neighbours: list[int]) -> str:
    """ADE label of one positive definite component, the mask `comp`, of
    the underlying graph: A with no vertex of three neighbours, else D or
    E by the sizes of its legs, the components left without that vertex."""
    size = comp.bit_count()
    center = [v for v, m in enumerate(neighbours) if comp >> v & 1 and m.bit_count() == 3]
    if not center:
        return f"A{size}"
    rest = comp & ~(1 << center[0])
    legs = sorted(leg.bit_count() for leg in connected_components(rest, neighbours))
    if legs[:2] == [1, 1]:
        return f"D{size}"
    if legs in ([1, 2, 2], [1, 2, 3], [1, 2, 4]):
        return f"E{size}"
    raise ValidationError("positive definite graph is not of ADE shape")


def classify_type(c: CartanMatrix) -> Classification:
    """Finite / affine / indefinite trichotomy, decided exactly, per
    connected component of the underlying graph.

    A component is finite when it is positive definite (Sylvester's
    criterion). It is affine when its determinant is 0 and every deletion
    of one vertex leaves it positive definite: by Cauchy interlacing the
    eigenvalues then are 0 once and positive otherwise, and conversely a
    connected positive semidefinite matrix of corank 1 has every proper
    principal submatrix of finite type (Kac, Infinite dimensional Lie
    algebras, Lemma 4.5). The quiver is finite when every component is,
    affine when every component is finite or affine and one is affine, and
    indefinite otherwise. Every deletion positive definite puts the first
    leading minors above 0, so the determinant is the last one. All of it
    takes polynomially many eliminations.
    """
    e = c.entries
    n = len(e)
    neighbours = [sum(1 << j for j, x in enumerate(row) if x and j != i) for i, row in enumerate(e)]
    masks = connected_components((1 << n) - 1, neighbours)
    kinds = []
    for mask in masks:
        comp = [v for v in range(n) if mask >> v & 1]
        if _positive_definite(e, comp):
            kinds.append("finite")
        elif (_leading_minors(e, comp)[len(comp) - 1:] == [0]
              and all(_positive_definite(e, [v for v in comp if v != x]) for x in comp)):
            kinds.append("affine")
        else:
            return Classification("indefinite")
    if "affine" in kinds:
        return Classification("affine")
    labels = sorted(_dynkin_component_label(mask, neighbours) for mask in masks)
    return Classification("finite", "+".join(labels))


def _exponents(part: str) -> tuple[int, ...]:
    """The exponents of one connected Dynkin type, such as "D5" (Bourbaki,
    Lie VI, Planches): their sum is the number of positive roots, and the
    largest is h - 1, for the Coxeter number h."""
    exceptional = {"E6": (1, 4, 5, 7, 8, 11), "E7": (1, 5, 7, 9, 11, 13, 17),
                   "E8": (1, 7, 11, 13, 17, 19, 23, 29)}
    letter, rank_ = part[0], int(part[1:])
    if letter == "A":
        return tuple(range(1, rank_ + 1))
    if letter == "D":
        return (*range(1, 2 * rank_ - 2, 2), rank_ - 1)
    if part in exceptional:
        return exceptional[part]
    raise ValidationError(f"unknown Dynkin label {part!r}")


def positive_root_count(label: str) -> int:
    """Number of positive roots for a (possibly disconnected) Dynkin label."""
    return sum(sum(_exponents(part)) for part in label.split("+"))


def coxeter_catalan(label: str) -> int:
    """The Coxeter-Catalan number of a (possibly disconnected) Dynkin label:
    the product over its components of prod (h + e + 1) / (e + 1), over
    the exponents e and the Coxeter number h. It counts the elements of
    [1, c] below a Coxeter element (Reading 2007, "Clusters, Coxeter-
    sortable elements and noncrossing partitions"), so the thick
    exceptional subcategories too; on a product of types both posets are
    products, so the numbers multiply."""
    total = 1
    for part in label.split("+"):
        exponents = _exponents(part)
        h = max(exponents) + 1
        total *= prod(h + e + 1 for e in exponents) // prod(e + 1 for e in exponents)
    return total


def topological_sort(vertices: int, before: Sequence[int]) -> tuple[int, ...] | None:
    """Kahn's algorithm on the bits of the mask `vertices`: each step
    takes the lowest bit v left whose mask before[v], of the vertices
    that must precede v, holds none of the bits left (bits outside
    `vertices` are ignored), so among the available vertices the
    smallest comes first. Returns None when no bit left is ready, which
    is when the before masks on `vertices` contain an oriented cycle."""
    order, rest = [], vertices
    while rest:
        pending = rest
        while pending:
            low = pending & -pending
            v = low.bit_length() - 1
            if not before[v] & rest:
                break
            pending ^= low
        else:
            return None
        order.append(v)
        rest ^= low
    return tuple(order)


def connected_components(vertices: int, neighbours: Sequence[int]) -> list[int]:
    """Connected components of the undirected graph on the bits of
    `vertices` whose vertex v has the neighbour mask neighbours[v]
    (symmetric; bits outside `vertices` are ignored), each an int mask
    grown from its lowest bit, listed by that bit."""
    comps = []
    rest = vertices
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = neighbours[v] & rest & ~comp
            comp |= new
            frontier |= new
        rest &= ~comp
        comps.append(comp)
    return comps


def topological_order(q: Quiver) -> tuple[int, ...]:
    """Deterministic topological order: every arrow head precedes its tail
    vertex, smallest label first among the available vertices."""
    before = [0] * q.n
    for h, t in q.arrows:
        before[t - 1] |= 1 << h - 1
    order = topological_sort((1 << q.n) - 1, before)
    if order is None:
        raise ValidationError("quiver has an oriented cycle")
    return tuple(v + 1 for v in order)


def is_admissible_order(q: Quiver, order: tuple[int, ...]) -> bool:
    """True when `order` is a permutation putting every arrow's source
    before its target, which is exactly when the simples listed in that
    order form an exceptional sequence."""
    if sorted(order) != list(q.vertices):
        return False
    pos = {v: k for k, v in enumerate(order)}
    return all(pos[h] < pos[t] for h, t in q.arrows)
