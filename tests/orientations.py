"""Every orientation of the connected Dynkin diagrams through rank 8,
verified against pins that the package does not compute.

For each named type it builds every orientation of the diagram's edges
(2^(n-1) quivers on n vertices) and runs `verify_bijection` on each, at
the quiver's topological order. Every flag must hold, with no failure.
The counts must equal two literals per type: the Coxeter-Catalan number,
as subcategories and as elements of [1, c], and n! h^n / |W| maximal
chains. On E6, E7 and E8 the sizes of the levels of the mask diagram
(`weyl.mask_covers`) must also be the W-Narayana numbers (Armstrong,
Mem. AMS 949, 2009). A1-A8, D4-D8 and E6-E8 make 255 + 248 + 224 = 727
quivers. Run it from anywhere, with the standard library:

    python tests/orientations.py            # every type
    python tests/orientations.py E6 E7 E8   # the named types only

It prints one line per type with its time, and exits 0 when every
quiver passes and 1 at the first that does not. Pytest does not collect
it (its name has no `test_`).
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ncpq import Quiver, verify_bijection  # noqa: E402
from ncpq.weyl import complete_roots, mask_covers  # noqa: E402

# Type: (Coxeter-Catalan number, n! h^n / |W| maximal chains).
PINS = {
    "A1": (2, 1), "A2": (5, 3), "A3": (14, 16), "A4": (42, 125), "A5": (132, 1296),
    "A6": (429, 16807), "A7": (1430, 262144), "A8": (4862, 4782969),
    "D4": (50, 162), "D5": (182, 2048), "D6": (672, 31250), "D7": (2508, 559872),
    "D8": (9438, 11529602),
    "E6": (833, 41472), "E7": (4160, 1062882), "E8": (25080, 37968750),
}

# Level sizes of the diagram, from rank 0 up.
NARAYANA = {
    "E6": (1, 36, 204, 351, 204, 36, 1),
    "E7": (1, 63, 546, 1470, 1470, 546, 63, 1),
    "E8": (1, 120, 1540, 6120, 9518, 6120, 1540, 120, 1),
}


def edges(label: str) -> list[tuple[int, int]]:
    """The diagram's edges: the path 1 - ... - n for A, the path to n - 1
    with n joined to n - 2 for D and to 3 for E."""
    n = int(label[1:])
    if label[0] == "A":
        return [(i, i + 1) for i in range(1, n)]
    return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2 if label[0] == "D" else 3, n)]


def orientations(label: str):
    """Every orientation of the diagram, one bit of `flips` per edge."""
    n, pairs = int(label[1:]), edges(label)
    for flips in range(2 ** len(pairs)):
        yield Quiver(n, tuple((t, h) if flips >> k & 1 else (h, t)
                              for k, (h, t) in enumerate(pairs)))


def check(label: str, q: Quiver) -> str | None:
    """What fails on the quiver q of type `label`, or None."""
    catalan, chains = PINS[label]
    report = verify_bijection(q)
    counts = report.counts
    if not report.all_ok or report.failures:
        return f"flags {report.flags}, {len(report.failures)} failures"
    if not counts["subcategories"] == counts["nc"] == catalan:
        return f"counts {counts}, expected {catalan} subcategories and elements"
    if counts["chains"] != chains:
        return f"{counts['chains']} chains, expected {chains}"
    if label in NARAYANA:
        levels = Counter(mask_covers(complete_roots(q)).values())
        sizes = tuple(levels[k] for k in range(q.n + 1))
        if sizes != NARAYANA[label]:
            return f"level sizes {sizes}, expected {NARAYANA[label]}"
    return None


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - PINS.keys())
    if unknown:
        raise SystemExit(f"unknown types {unknown}; the types are {list(PINS)}")
    start = time.monotonic()
    total = 0
    for label in names or PINS:
        began = time.monotonic()
        for q in orientations(label):
            failed = check(label, q)
            if failed:
                print(f"FAILED {label} {q.arrows}: {failed}")
                return 1
            total += 1
        print(f"{label}: {2 ** len(edges(label))} orientations in "
              f"{time.monotonic() - began:.1f} s", flush=True)
    print(f"{total} quivers verified in {time.monotonic() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
