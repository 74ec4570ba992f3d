"""Exceptional sequences and antichains, perpendicular categories, thick
closures, braid mutations, and exhaustive enumeration.

Everything here works at the level of positive roots: in finite type each
root names exactly one indecomposable, and the registry answers all Hom and
Ext questions. A sequence is exceptional when nothing maps or extends
backwards; an antichain is a pairwise Hom-orthogonal set of exceptional
modules, and it generates a thick subcategory recorded by the sorted set of
its indecomposables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import CapExceededError, NcpqError, ValidationError
from .quiver import (Quiver, Vector, cartan_matrix, classify_type, positive_root_count,
                     topological_sort)
from .rep import IndecRegistry, top_simples
from .weyl import (
    ProductMemo,
    RootSystem,
    WeylElement,
    multiply,
    positive_representative,
    reflect,
    simple_root,
)

DEFAULT_SEQUENCE_CAP = 1_000_000


@dataclass(frozen=True)
class ExcSequence:
    """Ordered tuple of positive roots naming registry indecomposables."""

    roots: tuple[Vector, ...]

    def __post_init__(self):
        object.__setattr__(self, "roots", tuple(tuple(r) for r in self.roots))

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)

    @classmethod
    def validated(cls, roots: Sequence[Vector], reg: IndecRegistry) -> "ExcSequence":
        seq = cls(tuple(roots))
        if not is_exceptional_sequence(seq.roots, reg):
            raise ValidationError(f"{seq.roots} is not an exceptional sequence")
        return seq

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.roots]


@dataclass(frozen=True)
class Subcategory:
    """Thick exceptional subcategory: indecomposables plus ordered simples."""

    ind_roots: frozenset[Vector]
    simples: tuple[Vector, ...]

    @property
    def rank(self) -> int:
        return len(self.simples)

    def to_json(self) -> dict:
        return {
            "simples": [list(r) for r in self.simples],
            "indecomposables": [list(r) for r in sorted(self.ind_roots)],
        }


def is_exceptional_sequence(roots: Sequence[Vector], reg: IndecRegistry) -> bool:
    """No Hom and no Ext from any later entry to any earlier one."""
    roots = tuple(roots)
    for r in roots:
        if r not in reg:
            raise ValidationError(f"{r} is not a registered root")
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if reg.hom(roots[j], roots[i]) != 0 or reg.ext(roots[j], roots[i]) != 0:
                return False
    return True


def right_perp(roots: Iterable[Vector], reg: IndecRegistry) -> frozenset[Vector]:
    """Registry roots receiving no Hom and no Ext from any input root."""
    members = tuple(roots)
    for r in members:
        if r not in reg:
            raise ValidationError(f"{r} is not a registered root")
    return frozenset(reg.roots()).intersection(*(reg.right_orth(u) for u in members))


def left_perp(roots: Iterable[Vector], reg: IndecRegistry) -> frozenset[Vector]:
    """Registry roots with no Hom and no Ext into any input root."""
    members = tuple(roots)
    for r in members:
        if r not in reg:
            raise ValidationError(f"{r} is not a registered root")
    return frozenset(reg.roots()).intersection(*(reg.left_orth(u) for u in members))


def closure_indecomposables(members: Sequence[Vector], reg: IndecRegistry) -> frozenset[Vector]:
    """Indecomposables of the thick closure, via the double perpendicular."""
    return left_perp(right_perp(members, reg), reg)


def _subcategory_simples(ind: frozenset[Vector], reg: IndecRegistry) -> tuple[Vector, ...]:
    """The relative simples of a thick subcategory B, in root order.

    m is simple exactly when no member x != m has Hom(x, m) != 0 and
    dim x not >= dim m componentwise. B is thick, so it is an exact
    abelian subcategory: kernels, images and cokernels of maps between
    members are members.
    - If m is simple, a nonzero map from a member x to m has a nonzero
      image in B inside m, which must be m, so the map is onto and
      dim x >= dim m.
    - If m is not simple, it has a simple subobject s != m in B, and s is
      indecomposable, so a member. Then Hom(s, m) != 0 and dim s < dim m,
      so dim s is not >= dim m.
    Only integer Hom dimensions enter. The dimension test runs first; it
    also rules out x = m.
    """
    members = sorted(ind)
    return tuple(
        m for m in members
        if not any(any(xi < mi for xi, mi in zip(x, m)) and reg.hom(x, m)
                   for x in members))


def _ext_quiver_arrows(members: Sequence[Vector], reg: IndecRegistry) -> list[tuple[int, int]]:
    arrows = []
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            if i != j and reg.ext(a, b) != 0:
                arrows.append((i, j))
    return arrows


def order_antichain(antichain: Iterable[Vector], reg: IndecRegistry) -> tuple[Vector, ...]:
    """Order an exceptional antichain into an exceptional sequence:
    topological order of its Ext-quiver, smallest root first among
    incomparables."""
    members = sorted(antichain)
    order = topological_sort(len(members), _ext_quiver_arrows(members, reg))
    if order is None:
        raise ValidationError("Ext-quiver has a cycle; the antichain is not exceptional")
    return tuple(members[i] for i in order)


def _relative_root_count(simples: tuple[Vector, ...], reg: IndecRegistry) -> int:
    """Positive-root count of the quiver whose arrows are the Ext spaces
    between the subcategory's simples."""
    r = len(simples)
    arrows = []
    for i in range(r):
        for j in range(r):
            if i != j:
                arrows.extend([(i + 1, j + 1)] * reg.ext(simples[i], simples[j]))
    return _finite_root_count(Quiver(r, tuple(arrows)))


@functools.cache
def _finite_root_count(q: Quiver) -> int:
    """Positive-root count of a finite-type quiver, read off its Dynkin
    type. Many closures share one relative quiver, so this is memoized."""
    classification = classify_type(cartan_matrix(q))
    if not classification.is_finite:
        raise NcpqError("relative quiver of a subcategory is not finite type")
    return positive_root_count(classification.label)


def thick_closure(seq: ExcSequence, reg: IndecRegistry) -> Subcategory:
    """Thick closure of an exceptional sequence, with its simples.

    Checks the double-perpendicular fixpoint, that the number of simples
    equals the sequence length, and that the closure has exactly as many
    indecomposables as the root system of its Ext-quiver predicts.
    """
    members = seq.roots
    if not is_exceptional_sequence(members, reg):
        raise ValidationError("input is not an exceptional sequence")
    ind = closure_indecomposables(members, reg)
    if closure_indecomposables(tuple(sorted(ind)), reg) != ind:
        raise NcpqError("double-perpendicular fixpoint failed; this is a bug")
    if not set(members) <= ind:
        raise NcpqError("closure lost a generator; this is a bug")
    simples = _subcategory_simples(ind, reg)
    if len(simples) != len(members):
        raise NcpqError(
            f"closure of a length-{len(members)} sequence has {len(simples)} simples")
    ordered = order_antichain(simples, reg)
    if not is_exceptional_sequence(ordered, reg):
        raise NcpqError("subcategory simples do not order into an exceptional sequence")
    if members and _relative_root_count(ordered, reg) != len(ind):
        raise NcpqError("closure size disagrees with its relative root count")
    return Subcategory(ind, ordered)


def _mutated_pair(a: Vector, b: Vector, inverse: bool,
                  reg: IndecRegistry) -> tuple[Vector, Vector]:
    """The pair that a braid move puts in place of (a, b): the mutated
    slot is the unique indecomposable whose root is the (sign-normalized)
    reflection of one neighbor's root at the other."""
    q = reg.quiver
    if inverse:
        pair = (positive_representative(reflect(q, a, b)), a)
    else:
        pair = (b, positive_representative(reflect(q, b, a)))
    for r in pair:
        if r not in reg:
            raise NcpqError(f"mutated vector {r} is not a root; this is a bug")
    return pair


def braid_mutate(seq: ExcSequence, i: int, inverse: bool, reg: IndecRegistry) -> ExcSequence:
    """Braid move on a complete exceptional sequence, checked exceptional."""
    n = reg.quiver.n
    if len(seq) != n:
        raise ValidationError("braid mutation is defined on complete sequences")
    if not 1 <= i <= len(seq) - 1:
        raise ValidationError(f"mutation index {i} out of range 1..{len(seq) - 1}")
    pair = _mutated_pair(seq.roots[i - 1], seq.roots[i], inverse, reg)
    roots = seq.roots[: i - 1] + pair + seq.roots[i + 1:]
    if not is_exceptional_sequence(roots, reg):
        raise NcpqError("mutation produced a non-exceptional sequence; this is a bug")
    return ExcSequence(roots)


def extend_to_complete(seq: ExcSequence, reg: IndecRegistry) -> ExcSequence:
    """Complete a sequence by prepending, smallest usable root first.

    Candidates are the roots receiving no Hom and no Ext from the current
    members, which is exactly the condition for prepending to preserve
    exceptionality.
    """
    if not is_exceptional_sequence(seq.roots, reg):
        raise ValidationError("input is not an exceptional sequence")
    n = reg.quiver.n
    current = list(seq.roots)
    while len(current) < n:
        candidates = sorted(right_perp(current, reg))
        if not candidates:
            raise NcpqError("no completion exists; this is a bug in finite type")
        current.insert(0, candidates[0])
    result = ExcSequence(tuple(current))
    if not is_exceptional_sequence(result.roots, reg):
        raise NcpqError("completion failed validation; this is a bug")
    return result


def is_projective_sequence(roots: Sequence[Vector], reg: IndecRegistry) -> bool:
    """Support grows by one vertex per step, each entry is projective
    relative to the support so far, and its top avoids the previous
    support."""
    roots = tuple(roots)
    for r in roots:
        if r not in reg:
            raise ValidationError(f"{r} is not a registered root")
    n = reg.quiver.n
    prev_support: frozenset[int] = frozenset()
    for step, root in enumerate(roots, 1):
        support = prev_support | {v + 1 for v, x in enumerate(root) if x > 0}
        if len(support) != step:
            return False
        if any(reg.ext(root, simple_root(n, v)) != 0 for v in support):
            return False
        if top_simples(reg[root]) & prev_support:
            return False
        prev_support = support
    return True


def exceptional_sequences(pool: Sequence[Vector], length: int,
                          reg: IndecRegistry) -> Iterator[tuple[Vector, ...]]:
    """Every exceptional sequence of the given length with members in pool,
    lazily, by backtracking: an entry may follow the chosen prefix when it
    sends no Hom and no Ext to any of it."""
    chosen: list[Vector] = []
    orthogonal = [(x, reg.right_orth(x)) for x in pool]

    def backtrack():
        if len(chosen) == length:
            yield tuple(chosen)
            return
        for x, orth in orthogonal:
            if orth.issuperset(chosen):
                chosen.append(x)
                yield from backtrack()
                chosen.pop()

    return backtrack()


def enumerate_complete_sequences(q: Quiver, reg: IndecRegistry,
                                 cap: int = DEFAULT_SEQUENCE_CAP) -> set[ExcSequence]:
    """All complete exceptional sequences; raises once more than `cap` are
    found."""
    results: set[ExcSequence] = set()
    for seq in exceptional_sequences(reg.roots(), q.n, reg):
        if len(results) >= cap:
            raise CapExceededError(f"sequence count exceeds cap {cap}")
        results.add(ExcSequence(seq))
    return results


def enumerate_exceptional_antichains(q: Quiver, reg: IndecRegistry) -> set[frozenset[Vector]]:
    """All pairwise Hom-orthogonal root sets whose Ext-quiver is acyclic,
    including the empty one."""
    roots = reg.roots()
    k = len(roots)
    orthogonal = [[reg.hom(roots[i], roots[j]) == 0 and reg.hom(roots[j], roots[i]) == 0
                   for j in range(k)] for i in range(k)]
    found: set[frozenset[Vector]] = set()
    chosen: list[int] = []

    def backtrack(start: int):
        members = tuple(roots[i] for i in chosen)
        if topological_sort(len(members), _ext_quiver_arrows(members, reg)) is not None:
            found.add(frozenset(members))
        for nxt in range(start, k):
            if all(orthogonal[i][nxt] for i in chosen):
                chosen.append(nxt)
                backtrack(nxt + 1)
                chosen.pop()

    backtrack(0)
    return found


def slot_fillers(seq: ExcSequence, i: int, reg: IndecRegistry) -> frozenset[Vector]:
    """Roots that make the sequence exceptional when put in slot i (1-based)."""
    if not 1 <= i <= len(seq):
        raise ValidationError(f"slot {i} out of range 1..{len(seq)}")
    out = []
    for x in reg.roots():
        candidate = seq.roots[: i - 1] + (x,) + seq.roots[i:]
        if is_exceptional_sequence(candidate, reg):
            out.append(x)
    return frozenset(out)


def sequence_product(roots_seq: Sequence[Vector], rootsystem: RootSystem) -> WeylElement:
    """Product of the reflections at the given roots, left to right."""
    return multiply((rootsystem.reflection(r).element for r in roots_seq), rootsystem.n)


def mutation_graph(seqs: set[ExcSequence], reg: IndecRegistry):
    """Forward mutation edges between complete sequences, as index pairs
    into the sorted node list.

    Every node is checked complete and exceptional once, and every
    neighbor must be a node, so every neighbor is exceptional too.

    Asserts product invariance on every edge. A mutation at i replaces
    the pair (a, b) by (b', c') and keeps every other entry, so the
    product X*a*b*Y of the reflections equals X*b'*c'*Y exactly when
    a*b = b'*c' (cancel the invertible X and Y). The mutated pair, its
    root membership and that product check depend only on (a, b), so
    each distinct pair is mutated and checked once and every edge
    through it is covered.
    """
    nodes = sorted(seqs, key=lambda s: s.roots)
    n = reg.quiver.n
    for s in nodes:
        if len(s) != n:
            raise ValidationError("mutation graphs are defined on complete sequences")
        if not is_exceptional_sequence(s.roots, reg):
            raise ValidationError(f"{s.roots} is not an exceptional sequence")
    index = {s.roots: i for i, s in enumerate(nodes)}
    reflection = reg.rootsystem.reflection
    products = ProductMemo()
    moved: dict[tuple[Vector, Vector], tuple[Vector, Vector]] = {}

    def mutate(a: Vector, b: Vector) -> tuple[Vector, Vector]:
        pair = _mutated_pair(a, b, False, reg)
        before = products[reflection(a).element, reflection(b).element]
        if before != products[reflection(pair[0]).element, reflection(pair[1]).element]:
            raise NcpqError("mutation changed the reflection product; this is a bug")
        moved[a, b] = pair
        return pair

    edges: set[tuple[int, int]] = set()
    for k, s in enumerate(nodes):
        old = s.roots
        for i in range(1, n):
            a, b = old[i - 1], old[i]
            pair = moved.get((a, b)) or mutate(a, b)
            j = index.get(old[: i - 1] + pair + old[i + 1:])
            if j is None:
                raise ValidationError("mutation left the given sequence set")
            if j != k:
                edges.add((min(j, k), max(j, k)))
    return nodes, edges


def is_connected(node_count: int, edges: set[tuple[int, int]]) -> bool:
    if node_count <= 1:
        return True
    adj: dict[int, list[int]] = {i: [] for i in range(node_count)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == node_count
