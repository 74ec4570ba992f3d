"""End-to-end verification that thick exceptional subcategories map
bijectively and order-isomorphically onto the absolute-order interval
below the Coxeter element.

The map sends a subcategory to the product of the reflections at its
simples, ordered as an exceptional sequence. Verification is exhaustive:
both posets are enumerated independently (antichain scan versus group
filter) and well-definedness, injectivity, surjectivity, and two-sided
order preservation are checked pair by pair, with every failure reported
as a reproducible JSON payload.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass

from .errors import CapExceededError, NcpqError, NonFiniteTypeError, ValidationError
from .exc import (
    ExcSequence,
    Subcategory,
    closure_indecomposables,
    enumerate_exceptional_antichains,
    is_exceptional_sequence,
    order_antichain,
    sequence_product,
    thick_closure,
)
from .hurwitz import ReflectionTuple
from .quiver import Quiver, Vector, topological_order
from .rep import IndecRegistry, build_registry
from .weyl import (
    DEFAULT_GROUP_CAP,
    Reflection,
    RootSystem,
    WeylElement,
    absolute_leq,
    absolute_length,
    compose,
    coxeter_element,
    enumerate_group,
    generate_roots,
    identity,
    noncrossing_partitions,
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
    the subcategory."""
    members = sorted(sub.ind_roots)
    out: list[tuple[Vector, ...]] = []
    chosen: list[Vector] = []

    def backtrack():
        if len(chosen) == sub.rank:
            candidate = tuple(chosen)
            if closure_indecomposables(candidate, reg) == sub.ind_roots:
                out.append(candidate)
            return
        for x in members:
            if reg.right_orth(x).issuperset(chosen):
                chosen.append(x)
                backtrack()
                chosen.pop()

    backtrack()
    return out


def verify_well_defined(sub: Subcategory, reg: IndecRegistry, roots: RootSystem) -> bool:
    """True when every complete exceptional sequence of the subcategory
    yields the same reflection product."""
    expected = cox(sub, reg, roots)
    return all(
        sequence_product(s, roots) == expected for s in _sequences_within(sub, reg))


def reflection_to_root_module(r: Reflection, reg: IndecRegistry) -> Vector:
    """The registry root of a reflection (each names one indecomposable)."""
    if r.root not in reg:
        raise ValidationError(f"{r.root} does not name a registered indecomposable")
    return r.root


def factor_in_reflections(w: WeylElement, roots: RootSystem,
                          reg: IndecRegistry) -> ReflectionTuple:
    """A minimal-length reflection factorization of w, deterministic by
    expanding reflections in lexicographic root order."""
    if not roots.complete:
        raise NonFiniteTypeError("factorization search requires a complete root system")
    if frozenset(reg.roots()) != roots.positive_real_roots:
        raise ValidationError("registry and root system disagree")
    target_len = absolute_length(w, roots)
    if target_len == 0:
        return ReflectionTuple(w.n, ())
    refls = roots.reflections()
    start = identity(w.n)
    parents: dict = {start.matrix: None}
    frontier = deque([start])
    while frontier:
        cur = frontier.popleft()
        for idx, refl in enumerate(refls):
            nxt = compose(cur, refl.element)
            if nxt.matrix in parents:
                continue
            parents[nxt.matrix] = (cur.matrix, idx)
            if nxt.matrix == w.matrix:
                picks: list[Reflection] = []
                key = nxt.matrix
                while parents[key] is not None:
                    prev, i = parents[key]
                    picks.append(refls[i])
                    key = prev
                picks.reverse()
                if len(picks) != target_len:
                    raise NcpqError("factorization length disagrees with absolute length")
                return ReflectionTuple(w.n, tuple(picks))
            frontier.append(nxt)
    raise NcpqError("element not reachable by reflections; this is a bug")


def minimal_reflection_factorizations(w: WeylElement,
                                      roots: RootSystem) -> set[tuple[Vector, ...]]:
    """All factorizations of w into absolute_length(w) reflections, as
    ordered tuples of positive roots.

    A reflection t can start a minimal factorization of the remaining
    element r exactly when t <= r in absolute order (|t| = 1 and t^-1 = t,
    so that is |t r| = |r| - 1); only those branches are composed. The
    factorizations of each element below w are built once and shared by
    every prefix that reaches it.
    """
    if not roots.complete:
        raise NonFiniteTypeError("factorization enumeration requires a complete root system")
    refls = roots.reflections()
    ident = identity(w.n).matrix
    memo: dict = {}

    def factorizations(remaining: WeylElement) -> list[tuple[Vector, ...]]:
        if remaining.matrix == ident:
            return [()]
        found = memo.get(remaining.matrix)
        if found is None:
            found = [(refl.root,) + rest
                     for refl in refls if absolute_leq(refl.element, remaining, roots)
                     for rest in factorizations(compose(refl.element, remaining))]
            memo[remaining.matrix] = found
        return found

    return set(factorizations(w))


def verify_bijection(q: Quiver, coxeter_order: tuple[int, ...] | None = None, *,
                     cap_group: int = DEFAULT_GROUP_CAP,
                     factorization_sample: int | None = None,
                     seed: int = 0,
                     quiver_id: str | None = None) -> BijectionReport:
    """Run the whole verification pipeline on a finite-type quiver.

    Returns a report rather than raising on mathematical failure; every
    failed assertion carries a JSON payload with both sides. Cap overruns
    are recorded as failures of kind "cap_exceeded" with partial counts.
    """
    t0 = time.perf_counter()
    roots = generate_roots(q)
    if not roots.classification.is_finite:
        raise NonFiniteTypeError("bijection verification requires finite type")
    order = tuple(coxeter_order) if coxeter_order is not None else topological_order(q)
    c = coxeter_element(q, order)
    reg = build_registry(q, roots)
    simple_seq = tuple(tuple(1 if k == i - 1 else 0 for k in range(q.n)) for i in order)
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
        group = enumerate_group(q, cap_group)
        nc = noncrossing_partitions(c, q, roots=roots, group=group)
        counts["nc"] = len(nc)

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

        well_defined = True
        witnesses = 0
        for sub, value in zip(subs, values):
            for s in _sequences_within(sub, reg):
                witnesses += 1
                if sequence_product(s, roots) != value:
                    well_defined = False
                    failures.append({
                        "kind": "well_defined",
                        "subcategory": sub.to_json(),
                        "sequence": [list(r) for r in s],
                        "expected": value.to_json(),
                        "got": sequence_product(s, roots).to_json(),
                    })
            if value not in nc:
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

        nc_matrices = {w.matrix for w in nc}
        flags["surjective"] = distinct == nc_matrices
        if not flags["surjective"]:
            failures.append({
                "kind": "surjectivity",
                "missing": [list(map(list, m)) for m in sorted(nc_matrices - distinct)],
                "extra": [list(map(list, m)) for m in sorted(distinct - nc_matrices)],
            })

        forward = True
        backward = True
        for sub_a, val_a in zip(subs, values):
            for sub_b, val_b in zip(subs, values):
                contained = sub_a.ind_roots <= sub_b.ind_roots
                below = absolute_leq(val_a, val_b, roots)
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

        factorizations = sorted(minimal_reflection_factorizations(c, roots))
        if factorization_sample is not None and factorization_sample < len(factorizations):
            rng = random.Random(seed)
            factorizations = rng.sample(factorizations, factorization_sample)
        for roots_tuple in factorizations:
            if not is_exceptional_sequence(roots_tuple, reg):
                failures.append({
                    "kind": "factorization_not_exceptional",
                    "factorization": [list(r) for r in roots_tuple],
                })
    except CapExceededError as exc:
        failures.append({"kind": "cap_exceeded", "detail": str(exc)})

    return finish()
