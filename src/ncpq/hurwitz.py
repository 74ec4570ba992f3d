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

A tuple is one int key, one digit per root, the first root in the
highest digit; the digit of a root is its position in the root
system's `sorted_roots` plus 1, and every digit has the bits of the
largest, so every root fits. The key is injective on tuples of any
length: no digit is 0, so the highest digit fixes the number of digits
from the key's bit length, and then each digit is read off its own
bits. A move at i rewrites only the pair of digits at i and i + 1: the
pair is read off the key by a shift and a mask, and the move table's
XOR for that pair, shifted back, is XORed into the key.

A move changes only the pair at i and i+1, so the product X*a*b*Y before
it equals X*b*c'*Y after it exactly when a*b = b*c' (cancel the
invertible X and Y), that is when c' = b*a*b, the reflection at b(a).
That is checked when the entry is filled, once per distinct pair, on
height vectors: phi(t_a t_b) = phi(t_b t_c') by four
`weyl._height_step`s from phi(1) = (1, ..., 1), which is exact in finite
type because phi fixes the element there (proof in
`weyl.walk_elements`). The moved root comes from the column action of
t_b and the pair products from the root system's `height_steps`, so a
step that disagrees with its root is caught. No matrix is made.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import NcpqError, ValidationError
from .quiver import Vector
from .weyl import RootSystem, _height_step, positive_representative

DEFAULT_ORBIT_CAP = 1_000_000


def braid_edges(chains: Sequence[tuple[Vector, ...]], roots: RootSystem) -> list[tuple[int, int]]:
    """The braid graph on a list of root tuples, as its sorted index
    pairs (j, k), j < k, with one of chains[j], chains[k] a forward move
    of the other, drawn on one move table over the roots of `roots`, so
    each distinct pair's product is checked once. A listed root outside
    `roots`, a forward move that leaves the list, as no move of a whole
    orbit does, and a tuple listed twice raise ValidationError.

    Each tuple is one int key (see the module docstring). The table maps
    a pair of digits (a, b), read as the int a << width | b, to the XOR
    that turns it into the moved pair (b, c'); an entry is filled, and
    its pair products compared, the first time that pair is moved. Each
    edge is kept once, in the list of its lower end, though a commuting
    swap (a, b) -> (b, a) draws it from both ends; each end's list is
    sorted, so no caller sorts them all."""
    order, steps = roots.sorted_roots(), roots.height_steps
    digit = dict(zip(order, range(1, len(order) + 1)))
    width = len(order).bit_length()
    one, top = (1,) * roots.n, (1 << width) - 1
    table: dict[int, int] = {}

    def fill(pair: int) -> int:
        ia, ib = (pair >> width) - 1, (pair & top) - 1
        moved = positive_representative(roots.reflection(order[ib])(order[ia]))
        k = digit.get(moved)
        if k is None:
            raise NcpqError(f"moved vector {moved} is not a root; this is a bug")
        if (_height_step(_height_step(one, steps[ia]), steps[ib])
                != _height_step(_height_step(one, steps[ib]), steps[k - 1])):
            raise NcpqError("braid move changed the reflection product; this is a bug")
        flip = table[pair] = pair ^ ((ib + 1) << width | k)
        return flip

    keys = []
    try:
        for t in chains:
            key = 0
            for d in map(digit.__getitem__, t):
                key = key << width | d
            keys.append(key)
    except KeyError as missing:
        raise ValidationError(f"{missing.args[0]} is not a known positive real root") from None
    index = dict(zip(keys, range(len(keys))))
    if len(index) != len(keys):
        raise ValidationError("a tuple is listed twice")
    pairs = (1 << 2 * width) - 1
    above: list[list[int]] = [[] for _ in keys]
    for j, (key, t) in enumerate(zip(keys, chains)):
        for shift in range(width * (len(t) - 2), -1, -width):
            pair = key >> shift & pairs
            flip = table.get(pair)
            if flip is None:
                flip = fill(pair)
            k = index.get(key ^ flip << shift)
            if k is None:
                raise ValidationError("a forward move left the given sequence set")
            if k > j and k not in above[j]:
                above[j].append(k)
            elif k < j and j not in above[k]:
                above[k].append(j)
    return [(j, k) for j, ks in enumerate(above) for k in sorted(ks)]
