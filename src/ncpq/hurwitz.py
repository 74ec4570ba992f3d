"""Braid-group moves on tuples of reflections and their orbits.

The move at position i swaps the pair (a, b) to (b, s_b(a)) and the
inverse move swaps it to (s_a(b), a); the moved root is stored by its
positive representative, so a reflection and its negated root collapse
to one entry. Under the paper's bijection braid mutation of complete
exceptional sequences is this move on the reflections at their roots, so
`exc.braid_mutate` runs on the same move table, and so does
`braid_edges`, the one braid graph of the `hurwitz` and `sequences`
commands, drawn on the minimal factorizations of c and on the complete
exceptional sequences.

A table belongs to one search. It interns each reflection once by its
root, works on tuples of the small int ids, and maps a pair of ids and a
direction to the moved pair. The reflection at a new root comes from the
table's root lookup (`make_reflection` for the `ReflectionTuple`
functions, the root system's memoized one in `exc.braid_mutate` and the
commands' `braid_edges`); no matrix is conjugated. A move changes only
the pair at i and i+1, so the product X*a*b*Y before it equals X*b'*c'*Y
after it exactly when a*b = b'*c' (cancel the invertible X and Y). That
is checked when the entry is filled, once per distinct pair, by
`weyl.reflect_right`, which multiplies by each reflection's matrix as it
is. Forward, a*b = b*c' exactly when c' = b*a*b, the reflection at b(a),
so a looked-up matrix that disagrees with its root is caught. Orbit sets
deduplicate by the tuple of ids, which is the tuple of roots.

The breadth-first search `_search` serves the library functions
`hurwitz_orbit` and `same_orbit`. The `hurwitz` command lists no orbit
by search: it certifies that the minimal factorizations of c form one
orbit by `weyl.braid_transitive` on the interval walk.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import CapExceededError, NcpqError, ValidationError
from .quiver import Quiver, Vector
from .weyl import (
    Reflection,
    WeylElement,
    make_reflection,
    multiply,
    positive_representative,
    reflect_right,
)

DEFAULT_ORBIT_CAP = 1_000_000


@dataclass(frozen=True)
class ReflectionTuple:
    """Ordered tuple of reflections of a quiver's Weyl group; equality and
    hash are by (quiver, items)."""

    quiver: Quiver
    items: tuple[Reflection, ...]

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
        """Left-to-right product of the reflections, computed on first use."""
        return multiply(self.items, self.n)

    @property
    def roots(self) -> tuple[Vector, ...]:
        return tuple(r.root for r in self.items)


def tuple_from_roots(q: Quiver, roots: tuple[Vector, ...]) -> ReflectionTuple:
    """Build a tuple of reflections at the given positive real roots."""
    return ReflectionTuple(q, tuple(make_reflection(q, r) for r in roots))


class _Braid:
    """Braid moves of one search on interned reflections.

    Each reflection gets a small int id, once, by its root, and a tuple
    becomes a tuple of ids; `reflection` gives the reflection at a root
    not yet interned. The move table maps (id_a, id_b, inverse) to the
    ids of the moved pair (b', c'); an entry is filled, and its pair
    products compared, the first time that pair is moved. After that a
    move is a table lookup and tuple slicing. Each search makes its own
    and drops it."""

    def __init__(self, reflection: Callable[[Vector], Reflection]) -> None:
        self.reflection = reflection
        self.reflections: list[Reflection] = []
        self.ids: dict[Vector, int] = {}
        self.table: dict[tuple[int, int, bool], tuple[int, int]] = {}

    def intern(self, r: Reflection) -> int:
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
        return self.intern(self.reflection(root)) if k is None else k

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
        if reflect_right(a.element, b) != reflect_right(b_new.element, c_new):
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
    """A move table that builds each moved reflection from its root."""
    return _Braid(functools.partial(make_reflection, q))


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


def braid_edges(chains: Sequence[tuple[Vector, ...]],
                reflection: Callable[[Vector], Reflection]) -> set[tuple[int, int]]:
    """The braid graph on a list of root tuples: index pairs (j, k), j < k,
    with one of chains[j], chains[k] a forward move of the other, drawn on
    one move table with `reflection` as its root lookup, so each distinct
    pair's product is checked once. Every forward move must land in the
    list, as it does for a whole orbit, and no tuple may be listed twice;
    otherwise ValidationError."""
    braid = _Braid(reflection)
    keys = [tuple(map(braid.root_id, chain)) for chain in chains]
    index = {key: k for k, key in enumerate(keys)}
    if len(index) != len(keys):
        raise ValidationError("a tuple is listed twice")
    edges = set()
    for j, key in enumerate(keys):
        for i in range(1, len(key)):
            k = index.get(braid.step(key, i, False))
            if k is None:
                raise ValidationError("a forward move left the given sequence set")
            if k != j:
                edges.add((min(j, k), max(j, k)))
    return edges


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
