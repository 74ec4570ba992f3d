"""Braid-group moves on tuples of reflections and their orbits.

The move at position i swaps the pair (r_i, r_{i+1}) to
(r_{i+1}, conjugate of r_i by r_{i+1}); the inverse move conjugates the
other way round. Both keep the left-to-right product fixed, which every
move checks exactly. A move changes only the pair at i and i+1, so the
product X*a*b*Y before it equals the product X*b'*c'*Y after it exactly
when a*b = b'*c' (cancel X on the left and Y on the right: Weyl elements
are invertible). The check therefore compares the two pair products and
never rebuilds the product of the whole tuple. New roots are stored by
their positive representative, so a reflection and its negated root
collapse to one tuple entry.

One search interns each reflection once by its root and works on tuples
of the small int ids. Its move table maps a pair of ids and a direction
to the moved pair. The check depends only on the pair, so running it when
the entry is filled covers every later move through that entry: each
distinct pair is conjugated and checked once. Orbit sets deduplicate by
the tuple of ids, which is the tuple of roots.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import CapExceededError, NcpqError, ValidationError
from .quiver import Quiver, Vector
from .weyl import (
    ProductMemo,
    Reflection,
    WeylElement,
    compose,
    make_reflection,
    multiply,
    positive_representative,
)

DEFAULT_ORBIT_CAP = 1_000_000


@dataclass(frozen=True)
class ReflectionTuple:
    """Ordered tuple of reflections; equality and hash are by (n, items)."""

    n: int
    items: tuple[Reflection, ...]

    def __post_init__(self):
        for r in self.items:
            if r.element.n != self.n:
                raise ValidationError("reflection rank does not match tuple rank")

    def __len__(self) -> int:
        return len(self.items)

    @functools.cached_property
    def product(self) -> WeylElement:
        """Left-to-right product of the reflections, computed on first use."""
        return multiply((r.element for r in self.items), self.n)

    @property
    def roots(self) -> tuple[Vector, ...]:
        return tuple(r.root for r in self.items)

    def to_json(self) -> list[list[int]]:
        return [list(root) for root in self.roots]


def tuple_from_roots(q: Quiver, roots: tuple[Vector, ...]) -> ReflectionTuple:
    """Build a tuple of reflections at the given positive real roots."""
    return ReflectionTuple(q.n, tuple(make_reflection(q, r) for r in roots))


def _conjugate(by: Reflection, r: Reflection) -> Reflection:
    root = positive_representative(by.element(r.root))
    element = compose(compose(by.element, r.element), by.element)
    return Reflection(root, element)


class _Braid:
    """Braid moves of one search on interned reflections.

    Each reflection gets a small int id, once, by its root, and a tuple
    becomes a tuple of ids. The move table maps (id_a, id_b, inverse) to
    the ids of the moved pair (b', c'); an entry is filled, and its pair
    products compared, the first time that pair is moved. After that a
    move is a table lookup and tuple slicing. Each search makes its own
    and drops it."""

    def __init__(self) -> None:
        self.reflections: list[Reflection] = []
        self.ids: dict[Vector, int] = {}
        self.table: dict[tuple[int, int, bool], tuple[int, int]] = {}
        self.pairs = ProductMemo()

    def intern(self, r: Reflection) -> int:
        k = self.ids.get(r.root)
        if k is None:
            k = self.ids[r.root] = len(self.reflections)
            self.reflections.append(r)
        elif self.reflections[k].element != r.element:
            raise NcpqError(f"two reflections at root {r.root} have different matrices")
        return k

    def ids_of(self, t: ReflectionTuple) -> tuple[int, ...]:
        return tuple(self.intern(r) for r in t.items)

    def tuple_of(self, n: int, ids: tuple[int, ...]) -> ReflectionTuple:
        return ReflectionTuple(n, tuple(self.reflections[k] for k in ids))

    def _fill(self, key: tuple[int, int, bool]) -> tuple[int, int]:
        ia, ib, inverse = key
        a, b = self.reflections[ia], self.reflections[ib]
        conj = _conjugate(a, b) if inverse else _conjugate(b, a)
        pair = (conj, a) if inverse else (b, conj)
        if self.pairs[a.element, b.element] != self.pairs[pair[0].element, pair[1].element]:
            raise NcpqError("braid move changed the tuple product; this is a bug")
        moved = self.table[key] = (self.intern(pair[0]), self.intern(pair[1]))
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


def hurwitz_move(t: ReflectionTuple, i: int, inverse: bool = False) -> ReflectionTuple:
    """Apply the braid move at position i (1-based, 1 <= i <= len-1)."""
    braid = _Braid()
    return braid.tuple_of(t.n, braid.step(braid.ids_of(t), i, inverse))


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
    braid = _Braid()
    return {braid.tuple_of(t.n, ids) for ids in _search(braid, braid.ids_of(t), cap)}


def orbit_edges(tuples: Sequence[ReflectionTuple]) -> set[tuple[int, int]]:
    """Index pairs (j, k), j < k, with one of tuples[j], tuples[k] a
    forward move of the other, read off one move table. Every forward
    move must land in the list, as it does for a whole orbit."""
    braid = _Braid()
    ids = [braid.ids_of(t) for t in tuples]
    index = {key: k for k, key in enumerate(ids)}
    edges = set()
    for j, key in enumerate(ids):
        for i in range(1, len(key)):
            k = index.get(braid.step(key, i, False))
            if k is None:
                raise ValidationError("a forward move leaves the given tuples")
            if k != j:
                edges.add((min(j, k), max(j, k)))
    return edges


def same_orbit(a: ReflectionTuple, b: ReflectionTuple,
               cap: int = DEFAULT_ORBIT_CAP) -> tuple[bool, list[int] | None]:
    """Decide whether b lies in the braid orbit of a.

    Returns (True, certificate) where the certificate is a list of signed
    move indices (+i forward, -i inverse) carrying a onto b, or
    (False, None). Unequal products answer False immediately since every
    move preserves the product.
    """
    if len(a) != len(b):
        raise ValidationError("tuples of different length are never comparable")
    if a.product != b.product:
        return False, None
    if a.roots == b.roots:
        return True, []
    braid = _Braid()
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
    braid = _Braid()
    ids = braid.ids_of(t)
    for m in moves:
        ids = braid.step(ids, abs(m), m < 0)
    return braid.tuple_of(t.n, ids)
