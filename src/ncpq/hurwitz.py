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

A move table interns each reflection once by its root, works on tuples
of the small int ids, and maps a pair of ids to the moved pair. The
reflection at a new root comes from the table's root lookup (the root
system's memoized one in the commands); no matrix is conjugated. A move
changes only the pair at i and i+1, so the product X*a*b*Y before it
equals X*b*c'*Y after it exactly when a*b = b*c' (cancel the invertible
X and Y), that is when c' = b*a*b, the reflection at b(a). That is
checked when the entry is filled, once per distinct pair, by
`weyl.reflect_right`, which multiplies by each reflection's matrix as it
is, so a looked-up matrix that disagrees with its root is caught.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import NcpqError, ValidationError
from .quiver import Vector
from .weyl import Reflection, positive_representative, reflect_right

DEFAULT_ORBIT_CAP = 1_000_000


class _Braid:
    """Forward braid moves on interned reflections.

    Each reflection gets a small int id, once, by its root, and a tuple
    becomes a tuple of ids; `reflection` gives the reflection at a root
    not yet interned. The move table maps (id_a, id_b) to the ids of the
    moved pair (b, c'); an entry is filled, and its pair products
    compared, the first time that pair is moved. After that a move is a
    table lookup and tuple slicing."""

    def __init__(self, reflection: Callable[[Vector], Reflection]) -> None:
        self.reflection = reflection
        self.reflections: list[Reflection] = []
        self.ids: dict[Vector, int] = {}
        self.table: dict[tuple[int, int], tuple[int, int]] = {}

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

    def _fill(self, key: tuple[int, int]) -> tuple[int, int]:
        ia, ib = key
        a, b = self.reflections[ia], self.reflections[ib]
        root = positive_representative(b.element(a.root))
        try:
            k = self.root_id(root)
        except ValidationError as err:
            raise NcpqError(f"moved vector {root} is not a root; this is a bug") from err
        if reflect_right(a.element, b) != reflect_right(b.element, self.reflections[k]):
            raise NcpqError("braid move changed the reflection product; this is a bug")
        moved = self.table[key] = (ib, k)
        return moved

    def step(self, ids: tuple[int, ...], i: int) -> tuple[int, ...]:
        """The forward move at position i (1-based, 1 <= i < len) on a
        tuple of ids."""
        key = (ids[i - 1], ids[i])
        moved = self.table.get(key) or self._fill(key)
        return ids[: i - 1] + moved + ids[i + 1:]


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
            k = index.get(braid.step(key, i))
            if k is None:
                raise ValidationError("a forward move left the given sequence set")
            if k != j:
                edges.add((min(j, k), max(j, k)))
    return edges
