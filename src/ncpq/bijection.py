"""End-to-end verification that thick exceptional subcategories map
bijectively and order-isomorphically onto the absolute-order interval
below the Coxeter element.

The map sends a subcategory B to cox(B), the product of the reflections
at its simples, ordered as an exceptional sequence. Both posets are
walked down by their covers, independently: the subcategories from the
whole category by B -> B ∩ x^⊥ (`exc.subcategory_covers`, each B then
checked thick and of its level's rank), the interval from c by w -> t·w
(`weyl.interval_covers`). Injectivity and surjectivity compare the two
sets, and one certificate on covers checks the rest, with every failure
reported as a reproducible JSON payload:

- Well-definedness, by induction on rank. For every listed B and every
  indecomposable x of B, the descent lists A = B ∩ x^⊥, of rank one
  less, and cox(A)·s_x = cox(B) must hold. A complete exceptional
  sequence of B ends in some x of B; the entries before it receive no
  Hom and no Ext from x, so they are an exceptional sequence in A of
  length rank A, which is complete in A (Crawley-Boevey 1993). By
  induction it multiplies to cox(A), so the whole sequence multiplies
  to cox(A)·s_x = cox(B). The base is the zero subcategory, whose only
  sequence is empty.
- Order isomorphism, by Hasse diagrams. The pairs (A, B) above are
  exactly the covers of containment: rank grows strictly along strict
  containment, and if A is covered by B, then B ∩ ⊥A has rank one, its
  one indecomposable x gives A ⊆ B ∩ x^⊥ of the same rank, so
  A = B ∩ x^⊥ (Geigle-Lenzing 1991; Schofield 1991). A bijection of
  finite posets is an isomorphism iff it maps covers onto covers, since
  each order is generated by its covers. So the pairs (cox A, cox B) must
  be exactly the walk's covers (t·w, w) with t <= w.
- Factorizations, by counting. A minimal reflection factorization
  c = t_1 ... t_n is the same as the maximal chain of its prefixes in
  [1, c] (Ingalls-Thomas 2009). Once the covers match, that chain lifts
  to subcategories B_(i-1) = B_i ∩ x_i^⊥ with cox(B_(i-1))·s_(x_i) =
  cox(B_i), so t_i = s_(x_i), and (x_1, ..., x_n) is exceptional because
  x_j lies in B_(i-1), inside x_i^⊥, for j < i. The maximal chains are
  counted over the walk's covers by `weyl.chain_counts`.
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
    compose,
    coxeter_element,
    generate_roots,
    identity,
    interval_covers,
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

    The checks are the certificate of the module docstring. Counts:
    `well_defined_witnesses` is the number of induction products
    cox(A)·s_x checked, one per cover of the descent, `covers` the number
    of covers of [1, c] and `chains` the number of its maximal chains,
    which is the number of minimal reflection factorizations of c.
    """
    t0 = time.perf_counter()
    roots = generate_roots(q)
    roots.require_complete()
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
        walk_covers = {(x, w) for w, children in covers.items() for x in children}
        counts["covers"] = len(walk_covers)
        counts["chains"] = chain_counts(covers)[c]

        # The whole category has rank n, and each step down lowers it by one.
        descent = subcategory_covers(reg)
        rank = {next(iter(descent)): q.n}
        for ind, children in descent.items():
            rank.update(dict.fromkeys(children, rank[ind] - 1))
        subs = {ind: _checked_subcategory(ind, rank[ind], reg) for ind in descent}
        counts["subcategories"] = len(subs)
        values = {sub: cox(sub, reg, roots) for sub in subs.values()}

        # Induction on rank over the descent's covers (A, B), A = B ∩ x^⊥.
        sub_covers = [(subs[a], subs[b]) for b, children in descent.items() for a in children]
        well_defined = True

        def induction_failure(sub: Subcategory, x, expected: WeylElement, got) -> None:
            nonlocal well_defined
            well_defined = False
            failures.append({
                "kind": "well_defined",
                "subcategory": sub.to_json(),
                "last": None if x is None else list(x),
                "expected": expected.to_json(),
                "got": got.to_json(),
            })

        for sub, value in values.items():
            if not sub.ind_roots and value != identity(q.n):
                induction_failure(sub, None, value, identity(q.n))
            for x, below in zip(sorted(sub.ind_roots), descent[sub.ind_roots]):
                got = compose(values[subs[below]], roots.reflection(x).element)
                if got != value:
                    induction_failure(sub, x, value, got)
            if value not in covers:
                well_defined = False
                failures.append({
                    "kind": "image_outside_interval",
                    "subcategory": sub.to_json(),
                    "image": value.to_json(),
                })
        counts["well_defined_witnesses"] = len(sub_covers)
        flags["well_defined"] = well_defined

        preimage: dict[WeylElement, Subcategory] = {}
        for sub, value in values.items():
            if value in preimage:
                failures.append({
                    "kind": "injectivity",
                    "subcategory_a": preimage[value].to_json(),
                    "subcategory_b": sub.to_json(),
                    "image": value.to_json(),
                })
            preimage[value] = sub
        flags["injective"] = len(preimage) == len(subs)

        distinct = set(values.values())
        flags["surjective"] = distinct == covers.keys()
        if not flags["surjective"]:
            failures.append({
                "kind": "surjectivity",
                "missing": sorted(w.to_json() for w in covers.keys() - distinct),
                "extra": sorted(w.to_json() for w in distinct - covers.keys()),
            })

        def order_failure(direction: str, a, b, val_a, val_b) -> dict:
            return {
                "kind": "order_preservation",
                "direction": direction,
                "subcategory_a": None if a is None else a.to_json(),
                "subcategory_b": None if b is None else b.to_json(),
                "cox_a": val_a.to_json(),
                "cox_b": val_b.to_json(),
            }

        image_covers = {(values[a], values[b]) for a, b in sub_covers}
        forward = [order_failure("forward", a, b, values[a], values[b])
                   for a, b in sub_covers if (values[a], values[b]) not in walk_covers]
        backward = [order_failure("backward", preimage.get(x), preimage.get(w), x, w)
                    for w, children in covers.items() for x in children
                    if (x, w) not in image_covers]
        failures += forward + backward
        flags["order_iso_forward"] = not forward
        flags["order_iso_backward"] = not backward
        flags["order_iso"] = not forward and not backward
    except CapExceededError as exc:
        failures.append({"kind": "cap_exceeded", "detail": str(exc)})

    return finish()
