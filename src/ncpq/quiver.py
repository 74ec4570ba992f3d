"""Acyclic quivers, the bilinear forms they induce, and type classification.

The convention fixed here and used everywhere else in the package: an arrow
(h, t) is a linear map from the vector space at h to the vector space at t,
and the nonsymmetric bilinear form on dimension vectors is

    form(v, w) = sum_i v[i] * w[i] - sum_{(h, t)} v[h] * w[t].

Its symmetrization has Gram matrix the generalized Cartan matrix of the
underlying graph, which is what the finite/affine/indefinite trichotomy is
decided on, exactly: a component is finite when its graph is an ADE tree
with simple edges, read off its shape by the package's one Dynkin reader
(`_dynkin_component_label`, which `exc` also runs on every relative
quiver), and only the determinant of a component that is not finite
takes an elimination, in integers (never floats).

The package's value classes are `Record`s, defined here: equal and
hashed by their fields, frozen (but for `bijection.BijectionReport`),
each with its own `__init__` that checks them.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import prod
from operator import attrgetter

from ._linalg import IntMatrix
from .errors import QuiverParseError, ValidationError

Vector = tuple[int, ...]
Arrow = tuple[int, int]


class Record:
    """A frozen value with the fields its class names in `_fields`: equal
    only to a record of its own class with equal fields, hashed as their
    tuple, printed as `Name(field=..., ...)`. A subclass's `__init__` sets
    them through `object.__setattr__`; any other assignment or deletion
    raises AttributeError. No `__slots__`: a `cached_property` needs the
    instance dict."""

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)  # the fields' tuple, or the one field

    def _values(self) -> tuple:
        key = self._key(self)
        return key if len(self._fields) > 1 else (key,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Quiver(Record):
    """Directed multigraph with vertices 1..n and no oriented cycles.

    Parallel arrows are repeated entries; loops are rejected. Arrows are
    stored sorted, so equality is by (n, multiset of arrows).
    """

    _fields = ("n", "arrows")

    def __init__(self, n: int, arrows: tuple[Arrow, ...]):
        if n < 1:
            raise ValidationError("vertex count must be at least 1")
        arrows = tuple(sorted((int(h), int(t)) for h, t in arrows))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arrows", arrows)
        for h, t in arrows:
            if not (1 <= h <= n and 1 <= t <= n):
                raise ValidationError(f"arrow ({h}, {t}) has a vertex outside 1..{n}")
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


class CartanMatrix(Record):
    """Symmetric integer matrix with 2s on the diagonal, nonpositive elsewhere."""

    _fields = ("entries",)

    def __init__(self, entries: IntMatrix):
        n = len(entries)
        entries = tuple(tuple(int(x) for x in row) for row in entries)
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


class Classification(Record):
    _fields = ("kind", "label")

    def __init__(self, kind: str, label: str | None = None):
        # kind is "finite", "affine" or "indefinite"
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "label", label)

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


def _dynkin_component_label(comp: int, neighbours: Sequence[int]) -> str | None:
    """The ADE label of the connected graph on the bits of the mask
    `comp`, whose vertex v has the neighbour mask neighbours[v] (symmetric;
    bits outside `comp` are ignored), or None when it is not an ADE tree:
    its edge count is not its size - 1, a vertex has 4 or more
    neighbours, two vertices have 3, or the legs at the one that has 3,
    the components left without it, are not (1, 1, k) (D) or (1, 2, 2),
    (1, 2, 3), (1, 2, 4) (E). With no such vertex it is a path, A.

    This is the package's one reader of finite type. For a connected
    graph with Cartan matrix C (2 on the diagonal, -1 at each edge) it is
    exact: C is positive definite exactly when the reader gives a label.
    The ADE graphs are positive definite (Humphreys 1990, Reflection
    Groups and Coxeter Groups, 2.4-2.7). Every graph it refuses holds an
    affine graph on some vertex set S: a cycle (A~), a vertex with four
    neighbours (D~4), a path between two vertices with 3 neighbours and
    two of their further neighbours at each end (D~), or legs of at
    least (2, 2, 2), (1, 3, 3) or (1, 2, 5) (E~6, E~7, E~8), since legs
    that are not (1, 1, k) or (1, 2, 2-4) contain one of those three. The
    affine graph's null root d on S (Kac 1990, Infinite dimensional Lie
    algebras, 4.8) extended by 0 gives d^T C d <= 0: S may carry more
    edges of the graph, and each adds -2 d_i d_j. A multigraph is not
    the reader's input: an edge of multiplicity m >= 2 gives the 2-by-2
    minor 4 - m^2 <= 0, so a caller checks every edge simple first."""
    size, ends, branch = comp.bit_count(), 0, []
    rest = comp
    while rest:
        v = (rest & -rest).bit_length() - 1
        degree = (neighbours[v] & comp).bit_count()
        ends += degree
        if degree > 3:
            return None
        if degree == 3:
            branch.append(v)
        rest &= rest - 1
    if ends != 2 * (size - 1) or len(branch) > 1:
        return None
    if not branch:
        return f"A{size}"
    legs = sorted(leg.bit_count() for leg in connected_components(comp & ~(1 << branch[0]),
                                                                  neighbours))
    if legs[:2] == [1, 1]:
        return f"D{size}"
    if legs in ([1, 2, 2], [1, 2, 3], [1, 2, 4]):
        return f"E{size}"
    return None


def classify_type(c: CartanMatrix) -> Classification:
    """Finite / affine / indefinite trichotomy, decided exactly, per
    connected component of the underlying graph.

    A component is finite when it is positive definite: exactly when
    every Cartan entry on it is 0 or -1 and `_dynkin_component_label`
    labels its graph (proof there), so a finite component takes no
    elimination. It is affine when its determinant is 0 and every
    deletion of one vertex leaves it positive definite, read off the
    shape of each component left: by Cauchy interlacing the eigenvalues
    then are 0 once and positive otherwise, and conversely a connected
    positive semidefinite matrix of corank 1 has every proper principal
    submatrix of finite type (Kac, Infinite dimensional Lie algebras,
    Lemma 4.5). Every deletion positive definite puts the first leading
    minors above 0, so the determinant is the last of them
    (`_leading_minors`, one Bareiss pass, run only on a component that is
    not finite). The quiver is finite when every component is, affine
    when every component is finite or affine and one is affine, and
    indefinite otherwise.
    """
    e = c.entries
    n = len(e)
    neighbours = [sum(1 << j for j, x in enumerate(row) if x and j != i) for i, row in enumerate(e)]
    multiple = [sum(1 << j for j, x in enumerate(row) if x < -1) for row in e]

    def labels(mask: int) -> list[str] | None:
        """The labels of the components of the graph on `mask`, or None
        when one is not finite."""
        if any(multiple[v] & mask for v in range(n) if mask >> v & 1):
            return None
        read = [_dynkin_component_label(comp, neighbours)
                for comp in connected_components(mask, neighbours)]
        return None if None in read else read

    found, affine = [], False
    for mask in connected_components((1 << n) - 1, neighbours):
        label = labels(mask)
        if label is not None:
            found += label
            continue
        comp = [v for v in range(n) if mask >> v & 1]
        if not (all(labels(mask & ~(1 << x)) is not None for x in comp)
                and _leading_minors(e, comp)[len(comp) - 1:] == [0]):
            return Classification("indefinite")
        affine = True
    if affine:
        return Classification("affine")
    return Classification("finite", "+".join(sorted(found)))


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
