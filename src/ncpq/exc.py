"""Exceptional sequences and antichains, perpendicular categories, thick
closures, and exhaustive enumeration.

Everything here works at the level of positive roots: in finite type each
root names exactly one indecomposable, and the registry reads every Hom
and Ext between them off the Euler form, with no rank. A sequence is
exceptional when nothing maps or extends backwards; an antichain is a
pairwise Hom-orthogonal set of exceptional modules, and it generates a
thick subcategory recorded by its indecomposables: an int mask over the
registry's roots, as on the interval side, turned into a frozenset of
roots only where the library hands one out. The closure path,
`order_antichain`, `thick_closure` and the check `_checked_subcategory`
that `verify` runs on every subcategory, works on root positions and
masks: it orders a set of roots by the one mask sort
(`quiver.topological_sort`) on the registry's Ext screen
(`IndecRegistry.ext_into_at`), reads the relative quiver off the Euler
rows of the ordered roots, and looks roots up only at its inputs and
outputs. The subcategories are walked down from the whole
category by `subcategory_covers`, the interval walk's own mask diagram
(`weyl.mask_covers`), whose maximal chains are the complete
exceptional sequences (see `weyl.braid_transitive` for their one
mutation class) and whose nodes' simples are the exceptional antichains
(`enumerate_exceptional_antichains`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapExceededError, NcpqError, ValidationError
from .quiver import (Quiver, Vector, cartan_matrix, classify_type, positive_root_count,
                     topological_sort)
from .rep import IndecRegistry, top_simples
from .weyl import (RootSystem, WeylElement, chain_counts, mask_covers, maximal_chains, multiply,
                   simple_root)

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
    """No Hom and no Ext from any later entry to any earlier one. An
    unregistered root raises ValidationError."""
    return _is_exceptional([reg.position(r) for r in roots], reg)


def _is_exceptional(positions: Iterable[int], reg: IndecRegistry) -> bool:
    """`is_exceptional_sequence` on root positions: the `RootSystem.orth`
    mask of each entry holds every earlier one."""
    orth, earlier = reg.rootsystem.orth, 0
    for k in positions:
        if earlier & ~orth[k]:
            return False
        earlier |= 1 << k
    return True


def _meet(masks: Iterable[int], reg: IndecRegistry) -> int:
    """The intersection of root masks, every root for none."""
    return functools.reduce(int.__and__, masks, (1 << len(reg)) - 1)


def _closure(positions: Iterable[int], reg: IndecRegistry) -> int:
    """The mask of the thick closure of the roots at `positions`: the
    double perpendicular, read bit by bit off the right one."""
    left, ind = reg.rootsystem.left_orth, (1 << len(reg)) - 1
    perp = _meet(map(reg.rootsystem.orth.__getitem__, positions), reg)
    while perp:
        ind &= left[(perp & -perp).bit_length() - 1]
        perp &= perp - 1
    return ind


def right_perp(roots: Iterable[Vector], reg: IndecRegistry) -> frozenset[Vector]:
    """Registry roots receiving no Hom and no Ext from any input root: the
    meet of their `RootSystem.orth` masks, every root for no input. An
    unregistered input root raises ValidationError."""
    orth = reg.rootsystem.orth
    return frozenset(reg.roots_of(_meet((orth[reg.position(r)] for r in roots), reg)))


def left_perp(roots: Iterable[Vector], reg: IndecRegistry) -> frozenset[Vector]:
    """Registry roots with no Hom and no Ext into any input root, by their
    `RootSystem.left_orth` masks as `right_perp` reads `orth`."""
    left = reg.rootsystem.left_orth
    return frozenset(reg.roots_of(_meet((left[reg.position(r)] for r in roots), reg)))


def closure_indecomposables(members: Sequence[Vector], reg: IndecRegistry) -> frozenset[Vector]:
    """Indecomposables of the thick closure, via the double perpendicular."""
    return frozenset(reg.roots_of(_closure(map(reg.position, members), reg)))


def _subcategory_simples(ind: int, reg: IndecRegistry) -> list[int]:
    """The positions of the relative simples of a thick subcategory B,
    given by its root mask `ind`, in root order.

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
    also rules out x = m. Those x, over all roots, are the mask
    `reg.maps_into_at[m]`. The bits of `ind` are read in one loop with no
    list in between, as this runs on every node of the descent.
    """
    into, simples, rest = reg.maps_into_at, [], ind
    while rest:
        m = (rest & -rest).bit_length() - 1
        if not ind & into[m]:
            simples.append(m)
        rest &= rest - 1
    return simples


def _ext_order(roots: int, reg: IndecRegistry) -> tuple[int, ...]:
    """The positions of the root mask `roots` in topological order of
    their Ext-quiver, smallest position first among incomparables: a
    root precedes every root it has Ext into (`IndecRegistry.ext_into_at`)."""
    order = topological_sort(roots, reg.ext_into_at)
    if order is None:
        raise ValidationError("Ext-quiver has a cycle; the antichain is not exceptional")
    return order


def order_antichain(antichain: Iterable[Vector], reg: IndecRegistry) -> tuple[Vector, ...]:
    """Order an exceptional antichain into an exceptional sequence:
    topological order of its Ext-quiver, smallest root first among
    incomparables. An unregistered or repeated root raises
    ValidationError."""
    members = tuple(antichain)
    mask = reg.mask_of(members)
    if mask.bit_count() != len(members):
        raise ValidationError("the antichain repeats a root")
    return tuple(map(reg.roots().__getitem__, _ext_order(mask, reg)))


def _relative_root_count(ordered: Sequence[int], euler: Sequence[Sequence[int]]) -> int:
    """Positive-root count of the relative quiver of the exceptional
    sequence of positions `ordered`, numbered from 1: an arrow k -> l per
    dimension of Ext, -<a, b> where positive, read off each Euler row
    once. Ext goes only forward along the sequence, so only the pairs
    k < l are read, in the order that lists the arrows sorted, as the
    memo key of `_finite_root_count` is."""
    arrows: list[tuple[int, int]] = []
    for k, a in enumerate(ordered, 1):
        row = euler[a]
        for l, b in enumerate(ordered[k:], k + 1):
            if (e := row[b]) < 0:
                arrows += [(k, l)] * -e
    return _finite_root_count(len(ordered), tuple(arrows))


@functools.cache
def _finite_root_count(n: int, arrows: tuple[tuple[int, int], ...]) -> int:
    """Positive-root count of the finite-type quiver on n vertices with
    these arrows, read off its Dynkin type. Many closures share one
    relative quiver, so this is memoized on (n, arrows), and the quiver
    is built and validated only on a miss."""
    classification = classify_type(cartan_matrix(Quiver(n, arrows)))
    if not classification.is_finite:
        raise NcpqError("relative quiver of a subcategory is not finite type")
    return positive_root_count(classification.label)


def _checked_subcategory(ind: int, rank: int, reg: IndecRegistry, generators: int | None = None,
                         tested: tuple[int, ...] | None = None) -> tuple[Vector, ...]:
    """The ordered simples of the subcategory on the root mask `ind`,
    checked: `rank` simples (the bits k of `ind` with no bit of
    `maps_into_at[k]` in `ind`) that order into an exceptional sequence,
    as many indecomposables (`ind.bit_count()`) as the roots of their
    relative quiver, and `ind` is the double perpendicular of the
    simples. All of it runs on root positions and masks: the simples'
    mask is ordered by the registry's Ext screen (`_ext_order`) and
    their relative quiver read off their Euler rows once.
    A caller that made `ind` as the double perpendicular of the root mask
    `generators` passes it: when the simples are exactly those roots, the
    fixpoint holds by construction and is not computed again. A caller
    that has just found the position tuple `tested` exceptional passes
    it: when the ordered simples are that tuple, they are not tested
    again."""
    simples = _subcategory_simples(ind, reg)
    if len(simples) != rank:
        raise NcpqError(f"a subcategory of rank {rank} has {len(simples)} simples")
    simples_mask = sum(1 << k for k in simples)
    ordered = _ext_order(simples_mask, reg)
    if ordered != tested and not _is_exceptional(ordered, reg):
        raise NcpqError("subcategory simples do not order into an exceptional sequence")
    if ordered and _relative_root_count(ordered, reg.rootsystem.euler) != ind.bit_count():
        raise NcpqError("subcategory size disagrees with its relative root count")
    generated = simples_mask == generators
    if not generated and _closure(ordered, reg) != ind:
        raise NcpqError("double-perpendicular fixpoint failed; this is a bug")
    return tuple(map(reg.roots().__getitem__, ordered))


def thick_closure(seq: ExcSequence, reg: IndecRegistry) -> Subcategory:
    """Thick closure of an exceptional sequence, with its simples, checked
    by `_checked_subcategory` at the sequence's length."""
    positions = tuple(map(reg.position, seq.roots))
    if not _is_exceptional(positions, reg):
        raise ValidationError("input is not an exceptional sequence")
    ind = _closure(positions, reg)
    generators = sum(1 << k for k in positions)
    if generators & ~ind:
        raise NcpqError("closure lost a generator; this is a bug")
    simples = _checked_subcategory(ind, len(positions), reg, generators, positions)
    return Subcategory(frozenset(reg.roots_of(ind)), simples)


def subcategory_covers(reg: IndecRegistry) -> dict[int, int]:
    """The Hasse diagram of the thick exceptional subcategories under
    containment, each the int mask b of its indecomposables mapped to its
    rank: the one mask diagram (`weyl.mask_covers`), in which B covers
    B ∩ x^⊥, the mask b & orth[x] (`RootSystem.orth`), through each
    member x. `_checked_subcategory` checks a mask at its rank. Holding
    more than `weyl.DEFAULT_INTERVAL_CAP` subcategories (they are in
    bijection with the interval [1, c]) raises
    CapExceededError("subcategory count exceeds cap N").

    The descent reaches every subcategory: thick(E_1, ..., E_k) =
    (E_(k+1), ..., E_n)^⊥ for a complete exceptional sequence, and every
    exceptional sequence completes (Schofield 1991; Crawley-Boevey 1993).
    The complete sequences of B are the s + (x,) with x in B and s
    complete in B ∩ x^⊥, so they are the maximal chains read from the
    bottom: `weyl.chain_counts` counts them and `weyl.maximal_chains`
    lists them.
    """
    return mask_covers(reg.rootsystem, "subcategory count")


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
    reg.mask_of(roots)  # refuses an unregistered root
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


def enumerate_complete_sequences(q: Quiver, reg: IndecRegistry,
                                 cap: int = DEFAULT_SEQUENCE_CAP) -> set[ExcSequence]:
    """All complete exceptional sequences of the registry's quiver, listed
    down `subcategory_covers`. They are counted first, as its maximal
    chains, and more than `cap` of them raise before any is listed. `q`
    must be the registry's quiver."""
    if q != reg.quiver:
        raise ValidationError("the quiver is not the registry's quiver")
    covers = subcategory_covers(reg)
    if chain_counts(covers, reg.rootsystem)[next(iter(covers))] > cap:
        raise CapExceededError(f"sequence count exceeds cap {cap}")
    return set(map(ExcSequence, maximal_chains(covers, reg.rootsystem)))


def enumerate_exceptional_antichains(q: Quiver, reg: IndecRegistry) -> set[frozenset[Vector]]:
    """All pairwise Hom-orthogonal root sets whose Ext-quiver is acyclic,
    the empty one included, read off `subcategory_covers` (and refused
    past its cap) as the simples of each node. `q` must be the
    registry's quiver.

    The simples of a thick B are pairwise Hom-orthogonal (a nonzero map
    between simples is an isomorphism) and order into an exceptional
    sequence, so their Ext-quiver is acyclic. Conversely an antichain in
    topological order is an exceptional sequence whose thick closure has
    exactly its members as simples (Ringel 1976; Ingalls–Thomas 2009).
    The descent meets every thick B, and B = thick(simples of B), so
    distinct nodes give distinct antichains; 0 gives the empty one.
    """
    if q != reg.quiver:
        raise ValidationError("the quiver is not the registry's quiver")
    return {frozenset(map(reg.roots().__getitem__, _subcategory_simples(b, reg)))
            for b in subcategory_covers(reg)}


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
    return multiply((rootsystem.reflection(r) for r in roots_seq), rootsystem.n)

