"""Seeded Dynkin quivers and the closed-form counts the output gate checks.

The counts come from the exponents of each type, not from ncpq:
|W| = prod(e + 1), h = max(e) + 1, the Coxeter-Catalan number
prod(h + e + 1) / prod(e + 1), and the number of minimal reflection
factorizations of a Coxeter element n! h^n / |W|. None depends on the
orientation, so the gate holds for every seed.
"""

from __future__ import annotations

import math
import random

# Underlying Dynkin graphs on vertices 1..n (E7: branch at vertex 3).
EDGES = {
    "A4": ((1, 2), (2, 3), (3, 4)),
    "A5": ((1, 2), (2, 3), (3, 4), (4, 5)),
    "D4": ((1, 2), (2, 3), (2, 4)),
    "D5": ((1, 2), (2, 3), (3, 4), (3, 5)),
    "E7": ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)),
}

EXPONENTS = {
    "A4": (1, 2, 3, 4),
    "A5": (1, 2, 3, 4, 5),
    "D4": (1, 3, 3, 5),
    "D5": (1, 3, 4, 5, 7),
    "E7": (1, 5, 7, 9, 11, 13, 17),
}


def dynkin_type(label: str) -> str:
    """The type of an input label; "E7#2" is the second E7 drawn."""
    return label.split("#")[0]


def coxeter_catalan(label: str) -> int:
    exps = EXPONENTS[dynkin_type(label)]
    h = max(exps) + 1
    return math.prod(h + e + 1 for e in exps) // math.prod(e + 1 for e in exps)


def factorization_count(label: str) -> int:
    exps = EXPONENTS[dynkin_type(label)]
    n, h = len(exps), max(exps) + 1
    return math.factorial(n) * h ** n // math.prod(e + 1 for e in exps)


def draw_quiver(label: str, rng: random.Random) -> dict:
    """A uniformly random orientation of the type's graph and a uniformly
    random admissible order (every arrow's source before its target)."""
    n = len(EXPONENTS[dynkin_type(label)])
    arrows = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in EDGES[dynkin_type(label)]]
    indeg = {v: 0 for v in range(1, n + 1)}
    for _, t in arrows:
        indeg[t] += 1
    order: list[int] = []
    ready = [v for v in range(1, n + 1) if indeg[v] == 0]
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        order.append(v)
        for h, t in arrows:
            if h == v:
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
    text = f"# {label}\nvertices {n}\n" + "".join(f"arrow {h} {t}\n" for h, t in arrows)
    return {"label": label, "text": text, "coxeter_order": order}


def draw_inputs(labels, seed: int) -> dict:
    """One quiver per label, drawn in the given order from one stream."""
    rng = random.Random(seed)
    return {label: draw_quiver(label, rng) for label in labels}
