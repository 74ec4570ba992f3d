"""Braid-group moves on tuples of reflections and their orbits.

The move at position i swaps the pair (r_i, r_{i+1}) to
(r_{i+1}, conjugate of r_i by r_{i+1}); the inverse move conjugates the
other way round. Both keep the left-to-right product fixed, which every
move checks exactly. A move changes only the pair at i and i+1, so the
product X*a*b*Y before it equals the product X*b'*c'*Y after it exactly
when a*b = b'*c' (cancel X on the left and Y on the right: Weyl elements
are invertible). The check therefore compares the two pair products and
never rebuilds the product of the whole tuple. One orbit search shares
its conjugates and pair products, memoized on the operands' matrices, so
it composes each distinct pair of reflections once. New roots are stored
by their positive representative, so a reflection and its negated root
collapse to one tuple entry, and orbit sets deduplicate by the tuple of
roots.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

from .errors import CapExceededError, NcpqError, ValidationError
from .quiver import Quiver, Vector
from .weyl import (
    ProductMemo,
    Reflection,
    WeylElement,
    compose,
    identity,
    make_reflection,
    positive_representative,
)


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
        result = identity(self.n)
        for r in self.items:
            result = compose(result, r.element)
        return result

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
    """Braid moves of one search, sharing its memos: conjugates and pair
    products keyed on the operands' matrices (a WeylElement compares and
    hashes as its matrix). Each search makes its own and drops it."""

    def __init__(self) -> None:
        self.conjugates: dict[tuple[WeylElement, WeylElement], Reflection] = {}
        self.pairs = ProductMemo()

    def move(self, t: ReflectionTuple, i: int, inverse: bool) -> ReflectionTuple:
        if not 1 <= i <= len(t) - 1:
            raise ValidationError(f"move index {i} out of range 1..{len(t) - 1}")
        a, b = t.items[i - 1], t.items[i]
        by, r = (a, b) if inverse else (b, a)
        key = (by.element, r.element)
        conj = self.conjugates.get(key)
        if conj is None:
            conj = self.conjugates[key] = _conjugate(by, r)
        pair = (conj, a) if inverse else (b, conj)
        if self.pairs[a.element, b.element] != self.pairs[pair[0].element, pair[1].element]:
            raise NcpqError("braid move changed the tuple product; this is a bug")
        return ReflectionTuple(t.n, t.items[: i - 1] + pair + t.items[i + 1:])


def hurwitz_move(t: ReflectionTuple, i: int, inverse: bool = False) -> ReflectionTuple:
    """Apply the braid move at position i (1-based, 1 <= i <= len-1)."""
    return _Braid().move(t, i, inverse)


def hurwitz_orbit(t: ReflectionTuple, cap: int = 1_000_000) -> set[ReflectionTuple]:
    """Closure of t under all forward and inverse moves."""
    if cap < 1:
        raise ValidationError("cap must be positive")
    braid = _Braid()
    seen: dict[tuple[Vector, ...], ReflectionTuple] = {t.roots: t}
    frontier = deque([t])
    while frontier:
        cur = frontier.popleft()
        for i in range(1, len(cur)):
            for inv in (False, True):
                nxt = braid.move(cur, i, inv)
                if nxt.roots not in seen:
                    if len(seen) >= cap:
                        raise CapExceededError(f"orbit size exceeds cap {cap}")
                    seen[nxt.roots] = nxt
                    frontier.append(nxt)
    return set(seen.values())


def same_orbit(a: ReflectionTuple, b: ReflectionTuple,
               cap: int = 1_000_000) -> tuple[bool, list[int] | None]:
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
    parents: dict[tuple[Vector, ...], tuple[tuple[Vector, ...] | None, int]] = {a.roots: (None, 0)}
    frontier = deque([a])
    while frontier:
        cur = frontier.popleft()
        for i in range(1, len(cur)):
            for inv in (False, True):
                nxt = braid.move(cur, i, inv)
                if nxt.roots in parents:
                    continue
                if len(parents) >= cap:
                    raise CapExceededError(f"orbit search exceeded cap {cap}")
                parents[nxt.roots] = (cur.roots, -i if inv else i)
                if nxt.roots == b.roots:
                    moves: list[int] = []
                    key = nxt.roots
                    while parents[key][0] is not None:
                        prev, move = parents[key]
                        moves.append(move)
                        key = prev
                    moves.reverse()
                    return True, moves
                frontier.append(nxt)
    return False, None


def replay_certificate(t: ReflectionTuple, moves: list[int]) -> ReflectionTuple:
    """Apply a signed move word as produced by same_orbit."""
    cur = t
    for m in moves:
        cur = hurwitz_move(cur, abs(m), inverse=m < 0)
    return cur
