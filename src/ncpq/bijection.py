"""End-to-end verification that thick exceptional subcategories map
bijectively and order-isomorphically onto the absolute-order interval
below the Coxeter element.

The map sends a subcategory B to cox(B), the product of the reflections
at its simples, ordered as an exceptional sequence. Both posets are one
Hasse diagram on root masks, walked once (`weyl.mask_covers`), each
mask mapped to its level: a mask is the indecomposables of B, with
child B ∩ x^⊥ through each x of B, and the letter set of w(B) in
[1, c], with child w·t through the root of t (`weyl.walk_elements`
multiplies w(B) down from c). Both sides hold an element as its height
vector (`weyl.height_vector`), which fixes it, and multiply it by a
reflection in n operations (`weyl._height_step`). Each mask is checked
thick at its level, rank B, and cox(B) is multiplied up, one step per
node: cox(0) = 1, and cox(B) = cox(A)·s_x for x the last of B's ordered
simples and A = B ∩ x^⊥, whose ordered simples must be B's but x
(`_cox_vectors`). A node lost from the one diagram is lost from both
sides, so a child that the masks give and the diagram lacks is refused
as a bug (NcpqError), as is a diagram whose node count is not the
Coxeter-Catalan number of the type.

The independent check is per node: cox(B) = w(B). The report keeps its
letter-by-letter form: the walk's child of cox(B) through x, read off
the mask that holds cox(B) as its element, must be cox(B ∩ x^⊥) for
each x of B, and cox(B) must have no other letter. Once cox(B) = w(B)
on every node, that mask is B's own and its children's values are
their elements, so `surjective`, `order_iso_forward` and
`order_iso_backward` hold by construction: both sides have the same
covers on the same masks, under one map. `injective` (a mask fixes its
element: "Keys" in `weyl.walk_elements`) and the base are checked all
the same. Every failure is reported as a reproducible JSON payload. The
check certifies the rest:

- Well-definedness, by induction on rank. A complete exceptional
  sequence of B ends in some x of B; the entries before it receive no
  Hom and no Ext from x, so they are an exceptional sequence in
  A = B ∩ x^⊥ of length rank A, complete in A (Crawley-Boevey 1993). By
  induction it multiplies to cox(A), so the whole sequence multiplies
  to cox(A)·s_x, which must be cox(B). A matched cover is that step, as
  w(A) = w(B)·s_x, multiplied out where the walk first meets A and on
  every other cover fixed by A's mask ("One step" and "Keys"); only a
  mismatched cover has cox(A)·s_x multiplied out. The base is the zero
  subcategory, whose only sequence is empty.
- Order isomorphism. The pairs (A, B) above are exactly the covers of
  containment: rank grows strictly along strict containment, and if A
  is covered by B, then B ∩ ⊥A has rank one, its one indecomposable x
  gives A ⊆ B ∩ x^⊥ of the same rank, so A = B ∩ x^⊥ (Geigle-Lenzing
  1991; Schofield 1991). Each order is generated by its covers, so a
  bijection of node sets that maps labelled covers onto labelled covers
  is an order isomorphism. A cover on one side only is an order
  failure, "forward" on the descent and "backward" on the walk.
- Factorizations, by counting. A minimal reflection factorization
  c = t_1 ... t_n is the maximal chain c > c·t_n > ... > 1 of [1, c]
  (Ingalls-Thomas 2009). Once the labelled covers match, it lifts to
  subcategories B_(i-1) = B_i ∩ x_i^⊥ with t_i = s_(x_i), and
  (x_1, ..., x_n) is exceptional because x_j lies in B_(i-1), inside
  x_i^⊥, for j < i. `weyl.chain_counts` counts the chains.

The outcome, a `BijectionReport`, is the one mutable `quiver.Record`;
its `to_dict` shares no container with it and keeps tuples as tuples.
"""

from __future__ import annotations

import functools
import time

from .errors import CapExceededError, NcpqError, ValidationError
from .exc import Subcategory, _checked_subcategory, is_exceptional_sequence, sequence_product
from .quiver import Quiver, Record, Vector, topological_order
from .rep import IndecRegistry, build_registry
from .weyl import (
    RootSystem,
    WeylElement,
    _children,
    chain_counts,
    complete_roots,
    coxeter_element,
    element_of_heights,
    _height_step,
    simple_root,
    walk_elements,
)


class BijectionReport(Record):
    """Machine-readable outcome of one verification run. Unlike the other
    records it can be assigned to, so it is unhashable."""

    _fields = ("quiver", "type", "coxeter_order", "counts", "flags", "failures", "elapsed_ms")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, quiver: str, type: str, coxeter_order: tuple[int, ...], counts: dict,
                 flags: dict, failures: list, elapsed_ms: float):
        self.quiver, self.type, self.coxeter_order = quiver, type, coxeter_order
        self.counts, self.flags, self.failures = counts, flags, failures
        self.elapsed_ms = elapsed_ms

    @property
    def all_ok(self) -> bool:
        return all(self.flags.values()) and not self.failures

    def to_dict(self) -> dict:
        return {f: _copied(v) for f, v in zip(self._fields, self._values())}

    @classmethod
    def from_dict(cls, data: dict) -> "BijectionReport":
        report = cls(**{f: data[f] for f in cls._fields})
        report.coxeter_order = tuple(report.coxeter_order)
        return report


def _copied(x):
    """x with every dict, list and tuple in it copied; the leaves, numbers,
    strings, booleans and None, are kept."""
    if isinstance(x, dict):
        return {k: _copied(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(map(_copied, x))
    return x


def cox(sub: Subcategory, reg: IndecRegistry, roots: RootSystem) -> WeylElement:
    """Product of the reflections at the subcategory's ordered simples."""
    if not is_exceptional_sequence(sub.simples, reg):
        raise ValidationError("subcategory simples do not form an exceptional sequence")
    return sequence_product(sub.simples, roots)


def _cox_vectors(simples: dict[int, tuple[Vector, ...]], roots: RootSystem) -> dict[int, Vector]:
    """phi(cox(B)) (`weyl.height_vector`) for each subcategory B, given as
    its mask mapped to its checked ordered simples, in the diagram's order
    (top first), read upward with one step per node: (1, ..., 1) at the
    zero subcategory, and phi(cox(A) s_x) (`weyl._height_step`) at B, for
    x the last of B's simples and A = B ∩ x^⊥ its child through x. A's
    ordered simples must be B's but x, or NcpqError is raised: then
    cox(B) = cox(A)·s_x is the product of B's simples, left to right, by
    induction up from the zero subcategory. They are: A is the thick
    closure of B's other simples (Crawley-Boevey 1993), which are its
    simples, and x, last in the topological order of B's Ext-quiver
    (`exc.order_antichain`), has no successor there, so removing it
    leaves the order of the rest as it was.
    """
    position = {r: k for k, r in enumerate(roots.sorted_roots())}
    orth, steps = roots.orth, roots.height_steps
    values = dict.fromkeys(simples)
    for ind, ordered in reversed(simples.items()):
        if not ordered:
            values[ind] = (1,) * roots.n
            continue
        k = position[ordered[-1]]
        child = ind & orth[k]
        if simples[child] != ordered[:-1]:
            raise NcpqError(f"the subcategory {ind:#b} loses its last simple to a child with "
                            "other simples; this is a bug")
        values[ind] = _height_step(values[child], steps[k])
    return values


def verify_bijection(q: Quiver, coxeter_order: tuple[int, ...] | None = None, *,
                     quiver_id: str | None = None) -> BijectionReport:
    """Run the whole verification pipeline on a finite-type quiver.

    Returns a report rather than raising on mathematical failure; every
    failed assertion carries a JSON payload with both sides. Cap overruns
    are recorded as failures of kind "cap_exceeded" with partial counts.
    A child missing from the walk's diagram, a node count other than the
    Coxeter-Catalan number and a child whose simples are not its parent's
    but the last are bugs, and raise NcpqError.

    The checks are the certificate of the module docstring. Counts: the
    nodes, as subcategories and as elements of [1, c], the covers (one
    induction step each) and the maximal chains, the minimal reflection
    factorizations of c. The images decide `injective` and `surjective`;
    the one check decides `well_defined` (a failed step or base, or an
    image outside [1, c]) and the order flags (a cover on one side
    only). Each subcategory is held as its mask and its ordered simples,
    and each element and value as its height vector; a set of roots or a
    matrix is built only for a failure.
    """
    t0 = time.perf_counter()
    roots = complete_roots(q)
    order = tuple(coxeter_order) if coxeter_order is not None else topological_order(q)
    c = coxeter_element(q, order)
    reg = build_registry(q, roots)
    simple_seq = tuple(simple_root(q.n, i) for i in order)
    if not is_exceptional_sequence(simple_seq, reg):
        raise NcpqError("admissible ordering disagrees with the Hom/Ext check")

    failures: list[dict] = []
    flags = dict.fromkeys(("well_defined", "injective", "surjective", "order_iso_forward",
                           "order_iso_backward", "order_iso"), False)
    counts = dict.fromkeys(("subcategories", "nc", "well_defined_witnesses", "covers", "chains"))

    try:
        ranks, elements = walk_elements(c, roots)
        mask_of = {w: mask for mask, w in elements.items()}  # the walk's side
        counts["nc"] = len(mask_of)
        counts["covers"] = counts["well_defined_witnesses"] = sum(b.bit_count() for b in ranks)
        counts["chains"] = chain_counts(ranks, roots)[next(iter(ranks))]
        simples = {ind: _checked_subcategory(ind, rank, reg) for ind, rank in ranks.items()}
        counts["subcategories"] = len(simples)
        # `_checked_subcategory` has checked the simples exceptional.
        values = _cox_vectors(simples, roots)

        @functools.cache
        def element(v: Vector) -> WeylElement:
            return element_of_heights(v, roots)

        def sub_json(ind: int) -> dict:
            return Subcategory(frozenset(reg.roots_of(ind)), simples[ind]).to_json()

        # When every cox(B) is its mask's element and the elements are
        # distinct, the values' preimage is the walk's `mask_of` itself.
        differs = values != elements
        preimage: dict[Vector, int] = mask_of
        if differs or len(mask_of) != len(values):
            preimage = {}
            for ind, value in values.items():
                if value in preimage:
                    failures.append({
                        "kind": "injectivity",
                        "subcategory_a": sub_json(preimage[value]),
                        "subcategory_b": sub_json(ind),
                        "image": element(value).to_json(),
                    })
                preimage[value] = ind
        flags["injective"] = len(preimage) == len(simples)

        flags["surjective"] = preimage.keys() == mask_of.keys()
        if not flags["surjective"]:
            failures.append({
                "kind": "surjectivity",
                "missing": sorted(element(w).to_json() for w in mask_of.keys() - preimage.keys()),
                "extra": sorted(element(w).to_json() for w in preimage.keys() - mask_of.keys()),
            })

        def induction_failure(ind, x, expected: Vector, got: Vector) -> None:
            failures.append({
                "kind": "well_defined",
                "subcategory": sub_json(ind),
                "last": None if x is None else list(x),
                "expected": element(expected).to_json(),
                "got": element(got).to_json(),
            })

        def order_failure(direction: str, a, b, val_a, val_b) -> dict:
            return {
                "kind": "order_preservation",
                "direction": direction,
                "subcategory_a": None if a is None else sub_json(a),
                "subcategory_b": None if b is None else sub_json(b),
                "cox_a": element(val_a).to_json(),
                "cox_b": element(val_b).to_json(),
            }

        # The one check: the covers of each B against those of cox(B) in
        # the walk, letter by letter, read off the mask holding cox(B).
        # `walk_elements` found each child b & orth[k] in the diagram. Once
        # cox(B) = w(B) on every node, no step of it can fail (module
        # docstring), so it runs only when some node differs.
        letters, orth, steps, one = roots.sorted_roots(), roots.orth, roots.height_steps, (1,) * q.n
        forward, backward = [], []
        for ind, value in values.items() if differs else ():
            node = mask_of.get(value)
            if not ind and value != one:
                induction_failure(ind, None, value, one)
            for k, below in _children(ind, orth):
                if node is None or not node >> k & 1 or elements[node & orth[k]] != values[below]:
                    forward.append(order_failure("forward", below, ind, values[below], value))
                    got = _height_step(values[below], steps[k])
                    if got != value:
                        induction_failure(ind, letters[k], value, got)
            if node is not None and preimage[value] == ind:
                backward += [order_failure("backward", preimage.get(elements[child]), ind,
                                           elements[child], value)
                             for k, child in _children(node, orth)
                             if not ind >> k & 1 or values[ind & orth[k]] != elements[child]]
            if node is None:
                failures.append({
                    "kind": "image_outside_interval",
                    "subcategory": sub_json(ind),
                    "image": element(value).to_json(),
                })
        backward += [order_failure("backward", preimage.get(elements[child]), None,
                                   elements[child], w)
                     for w, node in mask_of.items() if w not in preimage
                     for _, child in _children(node, orth)]
        failures += forward + backward
        flags["well_defined"] = not any(f["kind"] in ("well_defined", "image_outside_interval")
                                        for f in failures)
        flags["order_iso_forward"] = not forward
        flags["order_iso_backward"] = not backward
        flags["order_iso"] = not forward and not backward
    except CapExceededError as exc:
        failures.append({"kind": "cap_exceeded", "detail": str(exc)})

    return BijectionReport(
        quiver=quiver_id or f"vertices={q.n} arrows={list(q.arrows)}",
        type=str(roots.classification),
        coxeter_order=order,
        counts=counts,
        flags=flags,
        failures=failures,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )
