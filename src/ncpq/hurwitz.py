"""The braid graph: Hurwitz moves on tuples of reflections.

The move at position i swaps the pair (a, b) to (b, s_b(a)); the moved
root is stored by its positive representative, so a reflection and its
negated root collapse to one entry. Under the paper's bijection braid
mutation of complete exceptional sequences is this move on the
reflections at their roots, so `braid_edges`, the one braid graph of the
`hurwitz` and `sequences` commands, draws it on the minimal
factorizations of c and on the complete exceptional sequences alike.
The commands list no orbit by search: they certify that their chains
form one orbit by `weyl.braid_transitive` on the walk, and an edge drawn
here one way is the inverse move the other way, so the graph needs the
forward move only.

A move table interns each reflection once by its root and works on
small int ids. A tuple is one int key, one digit per reflection, the
first reflection in the highest digit; the digit of id k is k + 1, and
every digit has the bits of the largest digit of a listed root. The key
is injective on tuples of any length: no digit is 0, so the highest
digit fixes the number of digits from the key's bit length, and then
each digit is read off its own bits. A move at i rewrites only the pair
of digits at i and i + 1: the pair is read off the key by a shift and
a mask, and the table's XOR for that pair, shifted back, is XORed into
the key. A moved root interned after every listed one has a digit that
no listed key holds; when it needs more bits than a digit has, it would
spill into the digit above, so it is refused before any key is made
from it. Either way the move leaves the list.

The reflection at a new root comes from the table's root lookup (the
root system's memoized one in the commands); no matrix is conjugated. A
move changes only the pair at i and i+1, so the product X*a*b*Y before
it equals X*b*c'*Y after it exactly when a*b = b*c' (cancel the
invertible X and Y), that is when c' = b*a*b, the reflection at b(a).
That is checked when the entry is filled, once per distinct pair, by
`weyl.reflect_right`, which multiplies by each reflection's matrix as it
is, so a looked-up matrix that disagrees with its root is caught.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Sequence

from .errors import NcpqError, ValidationError
from .quiver import Vector
from .weyl import Reflection, positive_representative, reflect_right

DEFAULT_ORBIT_CAP = 1_000_000


def _left() -> ValidationError:
    return ValidationError("a forward move left the given sequence set")


class _Braid:
    """Forward braid moves on interned reflections, as digits.

    Each reflection gets a small int id, once, by its root; its digit is
    id + 1, `width` bits wide once `width` is set. `reflection` gives
    the reflection at a root not yet interned. The move table maps a
    pair of digits (a, b), read as the int a << width | b, to the XOR
    that turns it into the moved pair (b, c'); an entry is filled, and
    its pair products compared, the first time that pair is moved."""

    def __init__(self, reflection: Callable[[Vector], Reflection]) -> None:
        self.reflection = reflection
        self.reflections: list[Reflection] = []
        self.ids: dict[Vector, int] = {}
        self.table: dict[int, int] = {}
        self.width = 0

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

    def fill(self, pair: int) -> int:
        """The table's XOR for a pair of digits, made and checked."""
        width = self.width
        top = (1 << width) - 1
        ia, ib = (pair >> width) - 1, (pair & top) - 1
        a, b = self.reflections[ia], self.reflections[ib]
        root = positive_representative(b.element(a.root))
        try:
            k = self.root_id(root)
        except ValidationError as err:
            raise NcpqError(f"moved vector {root} is not a root; this is a bug") from err
        if reflect_right(a.element, b) != reflect_right(b.element, self.reflections[k]):
            raise NcpqError("braid move changed the reflection product; this is a bug")
        if k + 1 > top:
            raise _left()
        flip = self.table[pair] = pair ^ ((ib + 1) << width | k + 1)
        return flip


def braid_edges(chains: Sequence[tuple[Vector, ...]],
                reflection: Callable[[Vector], Reflection]) -> list[tuple[int, int]]:
    """The braid graph on a list of root tuples, as its sorted index
    pairs (j, k), j < k, with one of chains[j], chains[k] a forward move
    of the other, drawn on one move table with `reflection` as its root
    lookup, so each distinct pair's product is checked once. Every
    forward move must land in the list, as it does for a whole orbit, and
    no tuple may be listed twice; otherwise ValidationError.

    Each tuple is one int key (see the module docstring), its digits
    sized after every listed root is interned, so a listed root always
    fits and a moved one that does not is refused as a move off the
    list. Each edge is kept once, in the list of its lower end, though a
    commuting swap (a, b) -> (b, a) draws it from both ends; each end's
    list is sorted, so no caller sorts them all."""
    braid = _Braid(reflection)
    digits = dict.fromkeys(chain.from_iterable(chains))
    for root in digits:
        digits[root] = braid.root_id(root) + 1
    width = braid.width = len(braid.reflections).bit_length()
    keys = []
    for t in chains:
        key = 0
        for digit in map(digits.__getitem__, t):
            key = key << width | digit
        keys.append(key)
    index = dict(zip(keys, range(len(keys))))
    if len(index) != len(keys):
        raise ValidationError("a tuple is listed twice")
    table, fill, pairs = braid.table, braid.fill, (1 << 2 * width) - 1
    above: list[list[int]] = [[] for _ in keys]
    for j, (key, t) in enumerate(zip(keys, chains)):
        for shift in range(width * (len(t) - 2), -1, -width):
            pair = key >> shift & pairs
            flip = table.get(pair)
            if flip is None:
                flip = fill(pair)
            k = index.get(key ^ flip << shift)
            if k is None:
                raise _left()
            if k > j and k not in above[j]:
                above[j].append(k)
            elif k < j and j not in above[k]:
                above[k].append(j)
    return [(j, k) for j, ks in enumerate(above) for k in sorted(ks)]
