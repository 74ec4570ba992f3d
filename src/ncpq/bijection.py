"""End-to-end verification that thick exceptional subcategories map
bijectively and order-isomorphically onto the absolute-order interval
below the Coxeter element.

The map sends a subcategory B to cox(B), the product of the reflections
at its simples, ordered as an exceptional sequence. Both posets are
walked down into labelled Hasse diagrams, independently: the
subcategories from the whole category by B -> B ∩ x^⊥ through each x of
B (`exc.subcategory_covers`, each B then checked thick and of its
level's rank), the interval from c by w -> w·t through the root of each
t <= w (`weyl.interval_covers`). Injectivity and surjectivity compare
the node sets, and one check matches the diagrams letter by letter: the
walk's child of cox(B) through x must be cox(B ∩ x^⊥) for each x of B,
and cox(B) must have no other letter. Every failure is reported as a
reproducible JSON payload. The check certifies the rest:

- Well-definedness, by induction on rank. A complete exceptional
  sequence of B ends in some x of B; the entries before it receive no
  Hom and no Ext from x, so they are an exceptional sequence in
  A = B ∩ x^⊥ of length rank A, complete in A (Crawley-Boevey 1993). By
  induction it multiplies to cox(A), so the whole sequence multiplies
  to cox(A)·s_x, which must be cox(B). A matched cover is that step, as
  cox(A) = cox(B)·s_x; only a mismatched one has cox(A)·s_x multiplied
  out. The base is the zero subcategory, whose only sequence is empty.
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
  x_i^⊥, for j < i. `weyl.chain_counts` counts the chains over the
  walk's covers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import CapExceededError, NcpqError, ValidationError
from .exc import (Subcategory, _checked_subcategory, is_exceptional_sequence, sequence_product,
                  subcategory_covers)
from .quiver import Quiver, topological_order
from .rep import IndecRegistry, build_registry
from .weyl import (
    RootSystem,
    WeylElement,
    chain_counts,
    complete_roots,
    coxeter_element,
    identity,
    interval_covers,
    reflect_right,
    simple_root,
)


@dataclass
class BijectionReport:
    """Machine-readable outcome of one verification run."""

    quiver: str
    type: str
    coxeter_order: tuple[int, ...]
    counts: dict
    flags: dict
    failures: list
    elapsed_ms: float

    @property
    def all_ok(self) -> bool:
        return all(self.flags.values()) and not self.failures

    def to_dict(self) -> dict:
        return {
            "quiver": self.quiver,
            "type": self.type,
            "coxeter_order": list(self.coxeter_order),
            "counts": dict(self.counts),
            "flags": dict(self.flags),
            "failures": list(self.failures),
            "elapsed_ms": self.elapsed_ms,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BijectionReport":
        return cls(
            quiver=data["quiver"],
            type=data["type"],
            coxeter_order=tuple(data["coxeter_order"]),
            counts=dict(data["counts"]),
            flags=dict(data["flags"]),
            failures=list(data["failures"]),
            elapsed_ms=data["elapsed_ms"],
        )


def cox(sub: Subcategory, reg: IndecRegistry, roots: RootSystem) -> WeylElement:
    """Product of the reflections at the subcategory's ordered simples."""
    if not is_exceptional_sequence(sub.simples, reg):
        raise ValidationError("subcategory simples do not form an exceptional sequence")
    return sequence_product(sub.simples, roots)


def verify_bijection(q: Quiver, coxeter_order: tuple[int, ...] | None = None, *,
                     quiver_id: str | None = None) -> BijectionReport:
    """Run the whole verification pipeline on a finite-type quiver.

    Returns a report rather than raising on mathematical failure; every
    failed assertion carries a JSON payload with both sides. Cap overruns
    are recorded as failures of kind "cap_exceeded" with partial counts.

    The checks are the certificate of the module docstring. Counts: the
    two node counts, `well_defined_witnesses` the covers of the descent
    (one induction step each), `covers` those of [1, c] and `chains` its
    maximal chains, the minimal reflection factorizations of c. The node
    sets decide `injective` and `surjective`; the one check decides
    `well_defined` (a failed step or base, or an image outside [1, c])
    and `order_iso_forward` and `order_iso_backward` (a cover of the
    descent, or of the walk, on its side only). Each subcategory is held
    as its root mask and its ordered simples, read off the mask and not
    the descent's letters; a set of roots is built only for a failure.
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
    flags = {
        "well_defined": False,
        "injective": False,
        "surjective": False,
        "order_iso_forward": False,
        "order_iso_backward": False,
        "order_iso": False,
    }
    counts: dict = {"subcategories": None, "nc": None, "well_defined_witnesses": None,
                    "covers": None, "chains": None}

    def finish() -> BijectionReport:
        elapsed = (time.perf_counter() - t0) * 1000.0
        return BijectionReport(
            quiver=quiver_id or f"vertices={q.n} arrows={list(q.arrows)}",
            type=str(roots.classification),
            coxeter_order=order,
            counts=counts,
            flags=flags,
            failures=failures,
            elapsed_ms=elapsed,
        )

    try:
        covers = interval_covers(c, roots)
        counts["nc"] = len(covers)
        counts["covers"] = sum(map(len, covers.values()))
        counts["chains"] = chain_counts(covers)[c]

        # The whole category has rank n, and each step down lowers it by one.
        descent = subcategory_covers(reg)
        rank = {next(iter(descent)): q.n}
        for ind, children in descent.items():
            rank.update(dict.fromkeys(children.values(), rank[ind] - 1))
        simples = {ind: _checked_subcategory(ind, rank[ind], reg) for ind in descent}
        counts["subcategories"] = len(simples)
        counts["well_defined_witnesses"] = sum(map(len, descent.values()))
        # `_checked_subcategory` has checked the simples exceptional.
        values = {ind: sequence_product(s, roots) for ind, s in simples.items()}

        def sub_json(ind: int) -> dict:
            return Subcategory(frozenset(reg.roots_of(ind)), simples[ind]).to_json()

        preimage: dict[WeylElement, int] = {}
        for ind, value in values.items():
            if value in preimage:
                failures.append({
                    "kind": "injectivity",
                    "subcategory_a": sub_json(preimage[value]),
                    "subcategory_b": sub_json(ind),
                    "image": value.to_json(),
                })
            preimage[value] = ind
        flags["injective"] = len(preimage) == len(simples)

        flags["surjective"] = preimage.keys() == covers.keys()
        if not flags["surjective"]:
            failures.append({
                "kind": "surjectivity",
                "missing": sorted(w.to_json() for w in covers.keys() - preimage.keys()),
                "extra": sorted(w.to_json() for w in preimage.keys() - covers.keys()),
            })

        def induction_failure(ind, x, expected: WeylElement, got: WeylElement) -> None:
            failures.append({
                "kind": "well_defined",
                "subcategory": sub_json(ind),
                "last": None if x is None else list(x),
                "expected": expected.to_json(),
                "got": got.to_json(),
            })

        def order_failure(direction: str, a, b, val_a, val_b) -> dict:
            return {
                "kind": "order_preservation",
                "direction": direction,
                "subcategory_a": None if a is None else sub_json(a),
                "subcategory_b": None if b is None else sub_json(b),
                "cox_a": val_a.to_json(),
                "cox_b": val_b.to_json(),
            }

        # The one check: the covers of each B against those of cox(B) in
        # the walk, letter by letter.
        forward, backward = [], []
        for ind, value in values.items():
            down, walk = descent[ind], covers.get(value, {})
            if not ind and value != identity(q.n):
                induction_failure(ind, None, value, identity(q.n))
            for x, below in down.items():
                if walk.get(x) != values[below]:
                    forward.append(order_failure("forward", below, ind, values[below], value))
                    got = reflect_right(values[below], roots.reflection(x))
                    if got != value:
                        induction_failure(ind, x, value, got)
            if preimage[value] == ind:
                backward += [order_failure("backward", preimage.get(child), ind, child, value)
                             for x, child in walk.items()
                             if x not in down or values[down[x]] != child]
            if value not in covers:
                failures.append({
                    "kind": "image_outside_interval",
                    "subcategory": sub_json(ind),
                    "image": value.to_json(),
                })
        backward += [order_failure("backward", preimage.get(child), None, child, w)
                     for w, children in covers.items() if w not in preimage
                     for child in children.values()]
        failures += forward + backward
        flags["well_defined"] = not any(f["kind"] in ("well_defined", "image_outside_interval")
                                        for f in failures)
        flags["order_iso_forward"] = not forward
        flags["order_iso_backward"] = not backward
        flags["order_iso"] = not forward and not backward
    except CapExceededError as exc:
        failures.append({"kind": "cap_exceeded", "detail": str(exc)})

    return finish()
