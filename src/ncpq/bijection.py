"""End-to-end verification that thick exceptional subcategories map
bijectively and order-isomorphically onto the absolute-order interval
below the Coxeter element.

The map sends a subcategory to the product of the reflections at its
simples, ordered as an exceptional sequence. Verification is exhaustive:
both posets are enumerated independently (antichain scan versus a walk
down the interval's covers from c) and well-definedness, injectivity,
surjectivity, and two-sided order preservation are checked pair by pair,
with every failure reported as a reproducible JSON payload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import CapExceededError, NcpqError, NonFiniteTypeError, ValidationError
from .exc import (
    ExcSequence,
    Subcategory,
    closure_indecomposables,
    enumerate_exceptional_antichains,
    exceptional_sequences,
    is_exceptional_sequence,
    order_antichain,
    sequence_product,
    thick_closure,
)
from .hurwitz import ReflectionTuple
from .quiver import Quiver, Vector, topological_order
from .rep import IndecRegistry, build_registry
from .weyl import (
    ProductMemo,
    RootSystem,
    WeylElement,
    absolute_length,
    compose,
    coxeter_element,
    generate_roots,
    identity,
    interval_covers,
    reflections_below,
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


def _sequences_within(sub: Subcategory, reg: IndecRegistry) -> list[tuple[Vector, ...]]:
    """All complete exceptional sequences of the subcategory: length equal
    to its rank, members among its indecomposables, thick closure equal to
    the subcategory. The closure depends only on the member set, so it is
    computed once per set."""
    generates: dict[frozenset[Vector], bool] = {}
    out = []
    for s in exceptional_sequences(sorted(sub.ind_roots), sub.rank, reg):
        members = frozenset(s)
        ok = generates.get(members)
        if ok is None:
            ok = generates[members] = closure_indecomposables(s, reg) == sub.ind_roots
        if ok:
            out.append(s)
    return out


def verify_well_defined(sub: Subcategory, reg: IndecRegistry, roots: RootSystem) -> bool:
    """True when every complete exceptional sequence of the subcategory
    yields the same reflection product."""
    expected = cox(sub, reg, roots)
    return all(
        sequence_product(s, roots) == expected for s in _sequences_within(sub, reg))


def factor_in_reflections(w: WeylElement, roots: RootSystem,
                          reg: IndecRegistry) -> ReflectionTuple:
    """The lexicographically smallest minimal reflection factorization of
    w, by greedy descent: the first reflection t in root order with
    t <= w starts a minimal factorization (as in
    `minimal_reflection_factorizations`), then w becomes t*w."""
    if not roots.complete:
        raise NonFiniteTypeError("factorization search requires a complete root system")
    if frozenset(reg.roots()) != roots.positive_real_roots:
        raise ValidationError("registry and root system disagree")
    target_len = absolute_length(w, roots)
    ident = identity(w.n)
    picks = []
    remaining = w
    below = None
    while remaining != ident:
        below = reflections_below(remaining, roots, below)
        if not below:
            raise NcpqError("element not reachable by reflections; this is a bug")
        picks.append(below[0])
        remaining = compose(below[0].element, remaining)
    if len(picks) != target_len:
        raise NcpqError("factorization length disagrees with absolute length")
    return ReflectionTuple(w.n, tuple(picks))


def minimal_reflection_factorizations(w: WeylElement,
                                      roots: RootSystem) -> set[tuple[Vector, ...]]:
    """All factorizations of w into absolute_length(w) reflections, as
    ordered tuples of positive roots.

    A reflection t can start a minimal factorization of the remaining
    element r exactly when t <= r in absolute order (|t| = 1 and t^-1 = t,
    so that is |t r| = |r| - 1): these are `reflections_below(r)`, and
    only those branches are composed. Since t*r <= r, the reflections
    below t*r are among those below r, which are passed down as the
    candidates. The factorizations of each element below w are built once
    and shared by every prefix that reaches it.
    """
    if not roots.complete:
        raise NonFiniteTypeError("factorization enumeration requires a complete root system")
    ident = identity(w.n).matrix
    memo: dict = {}

    def factorizations(remaining: WeylElement, candidates) -> list[tuple[Vector, ...]]:
        if remaining.matrix == ident:
            return [()]
        found = memo.get(remaining.matrix)
        if found is None:
            below = reflections_below(remaining, roots, candidates)
            found = [(refl.root,) + rest
                     for refl in below
                     for rest in factorizations(compose(refl.element, remaining), below)]
            memo[remaining.matrix] = found
        return found

    return set(factorizations(w, None))


def _down_sets(covers: dict[WeylElement, tuple[WeylElement, ...]]
               ) -> dict[WeylElement, frozenset[WeylElement]]:
    """down(w) = {w} together with down(x) for every x covered by w, so
    the set of all u <= w. `covers` lists every element before the
    elements it covers (as `interval_covers` does), so walking it
    backwards builds each down-set after those of its children."""
    down: dict[WeylElement, frozenset[WeylElement]] = {}
    for w in reversed(covers):
        down[w] = frozenset({w}).union(*(down[x] for x in covers[w]))
    return down


def verify_bijection(q: Quiver, coxeter_order: tuple[int, ...] | None = None, *,
                     quiver_id: str | None = None) -> BijectionReport:
    """Run the whole verification pipeline on a finite-type quiver.

    Returns a report rather than raising on mathematical failure; every
    failed assertion carries a JSON payload with both sides. Cap overruns
    are recorded as failures of kind "cap_exceeded" with partial counts.

    The interval comes from `interval_covers`, and u <= w is membership of
    u in the down-set of w built from those covers, which is exactly
    absolute order on [1, c]; an image outside the interval (only on
    failure) gets a walk of its own. Every complete exceptional sequence
    of every subcategory is multiplied out through one prefix memo.
    """
    t0 = time.perf_counter()
    roots = generate_roots(q)
    if not roots.classification.is_finite:
        raise NonFiniteTypeError("bijection verification requires finite type")
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
    counts: dict = {"subcategories": None, "nc": None, "well_defined_witnesses": None}

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

        antichains = sorted(enumerate_exceptional_antichains(q, reg),
                            key=lambda a: tuple(sorted(a)))
        subs: list[Subcategory] = []
        for antichain in antichains:
            sub = thick_closure(ExcSequence(order_antichain(antichain, reg)), reg)
            if frozenset(sub.simples) != antichain:
                failures.append({
                    "kind": "antichain_recovery",
                    "antichain": [list(r) for r in sorted(antichain)],
                    "recovered_simples": [list(r) for r in sub.simples],
                })
            subs.append(sub)
        counts["subcategories"] = len({s.ind_roots for s in subs})
        if counts["subcategories"] != len(subs):
            failures.append({"kind": "duplicate_subcategory",
                             "detail": "distinct antichains produced equal closures"})

        values = [cox(sub, reg, roots) for sub in subs]

        products = ProductMemo()
        ident = identity(q.n)

        def product(seq: tuple[Vector, ...]) -> WeylElement:
            result = ident
            for r in seq:
                result = products[result, roots.reflection(r).element]
            return result

        well_defined = True
        witnesses = 0
        for sub, value in zip(subs, values):
            for s in _sequences_within(sub, reg):
                witnesses += 1
                got = product(s)
                if got != value:
                    well_defined = False
                    failures.append({
                        "kind": "well_defined",
                        "subcategory": sub.to_json(),
                        "sequence": [list(r) for r in s],
                        "expected": value.to_json(),
                        "got": got.to_json(),
                    })
            if value not in covers:
                well_defined = False
                failures.append({
                    "kind": "image_outside_interval",
                    "subcategory": sub.to_json(),
                    "image": value.to_json(),
                })
        counts["well_defined_witnesses"] = witnesses
        flags["well_defined"] = well_defined

        distinct = {v.matrix for v in values}
        flags["injective"] = len(distinct) == len(subs)
        if not flags["injective"]:
            seen: dict = {}
            for sub, value in zip(subs, values):
                if value.matrix in seen:
                    failures.append({
                        "kind": "injectivity",
                        "subcategory_a": seen[value.matrix].to_json(),
                        "subcategory_b": sub.to_json(),
                        "image": value.to_json(),
                    })
                seen[value.matrix] = sub

        nc_matrices = {w.matrix for w in covers}
        flags["surjective"] = distinct == nc_matrices
        if not flags["surjective"]:
            failures.append({
                "kind": "surjectivity",
                "missing": [list(map(list, m)) for m in sorted(nc_matrices - distinct)],
                "extra": [list(map(list, m)) for m in sorted(distinct - nc_matrices)],
            })

        down = _down_sets(covers)
        for value in values:
            if value not in down:
                down.update(_down_sets(interval_covers(value, roots)))
        forward = True
        backward = True
        for sub_a, val_a in zip(subs, values):
            for sub_b, val_b in zip(subs, values):
                contained = sub_a.ind_roots <= sub_b.ind_roots
                below = val_a in down[val_b]
                if contained and not below:
                    forward = False
                elif below and not contained:
                    backward = False
                else:
                    continue
                failures.append({
                    "kind": "order_preservation",
                    "direction": "forward" if contained else "backward",
                    "subcategory_a": sub_a.to_json(),
                    "subcategory_b": sub_b.to_json(),
                    "cox_a": val_a.to_json(),
                    "cox_b": val_b.to_json(),
                })
        flags["order_iso_forward"] = forward
        flags["order_iso_backward"] = backward
        flags["order_iso"] = forward and backward

        for roots_tuple in sorted(minimal_reflection_factorizations(c, roots)):
            if not is_exceptional_sequence(roots_tuple, reg):
                failures.append({
                    "kind": "factorization_not_exceptional",
                    "factorization": [list(r) for r in roots_tuple],
                })
    except CapExceededError as exc:
        failures.append({"kind": "cap_exceeded", "detail": str(exc)})

    return finish()
