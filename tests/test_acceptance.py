"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a PASS line once its assertions hold (run with -s or -rA
to see them); a failing criterion shows up as a failed test carrying the
criterion number in its name. Expected values are either exact
combinatorial counts recomputed here by independent brute force or
hand-frozen instances.
"""

from __future__ import annotations

import itertools
import random
import time

from ncpq import (
    build_registry,
    coxeter_element,
    enumerate_complete_sequences,
    exchange_index,
    generate_roots,
    is_exceptional,
    is_exceptional_sequence,
    is_projective_sequence,
    parse_quiver,
    simple_root,
    thick_closure,
    verify_bijection,
)
from ncpq.exc import ExcSequence, order_antichain
from ncpq.hurwitz import braid_edges
from ncpq.rep import ext_dim, hom_dim
from ncpq.quiver import euler_form
from ncpq.weyl import WeylElement, absolute_length

from conftest import QUIVER_TEXTS
from oracles import (
    apply_word,
    bfs_absolute_lengths,
    brute_force_factorizations,
    complete_sequences_within,
    ext_dim_via_resolution,
    hurwitz_orbit,
    is_connected,
    random_positive_root,
    tuple_from_roots,
)

_REPORTS: dict = {}
_ELAPSED: dict = {}


def _report_for(name: str):
    if name not in _REPORTS:
        q = parse_quiver(QUIVER_TEXTS[name])
        t0 = time.perf_counter()
        _REPORTS[name] = verify_bijection(q, quiver_id=name)
        _ELAPSED[name] = time.perf_counter() - t0
    return _REPORTS[name]


def _passed(num: int, message: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS - {message}")


def test_criterion_01_bijection_counts():
    expected = {"a2": 5, "a3": 14, "a4": 42, "d4": 50}
    t0 = time.perf_counter()
    for name, count in expected.items():
        report = _report_for(name)
        assert report.counts["subcategories"] == count, name
        assert report.counts["nc"] == count, name
    total = time.perf_counter() - t0
    assert total < 60.0
    _passed(1, f"|subcategories| = |interval| = 5/14/42/50, dual paths, "
               f"{total:.1f}s total")


def test_criterion_02_poset_isomorphism():
    for name in ("a2", "a3", "d4"):
        report = _report_for(name)
        assert report.flags["order_iso_forward"], name
        assert report.flags["order_iso_backward"], name
        assert report.flags["order_iso"], name
        assert report.flags["injective"] and report.flags["surjective"], name
        assert not report.failures, name
    _passed(2, "containment matches absolute order both ways on A2/A3/D4")


def test_criterion_03_well_definedness():
    for name, expected in (("a2", 3), ("a3", 16)):
        q = parse_quiver(QUIVER_TEXTS[name])
        roots = generate_roots(q)
        reg = build_registry(q, roots)
        full_antichain = frozenset(simple_root(q.n, i) for i in q.vertices)
        sub = thick_closure(ExcSequence(order_antichain(full_antichain, reg)), reg)
        sequences = complete_sequences_within(sub, reg)
        assert len(sequences) == expected
        from ncpq.exc import sequence_product

        products = {sequence_product(s, roots).matrix for s in sequences}
        assert len(products) == 1
    _passed(3, "every complete sequence gives one product (3 on A2, 16 on A3)")


def test_criterion_04_mutation_graph_connected():
    expected = {"a2": 3, "a3": 16, "a4": 125}
    for name, count in expected.items():
        q = parse_quiver(QUIVER_TEXTS[name])
        roots = generate_roots(q)
        reg = build_registry(q, roots)
        seqs = enumerate_complete_sequences(q, reg)
        assert len(seqs) == count, name
        n = q.n
        assert count == (n + 1) ** (n - 1), name
        c = coxeter_element(q, tuple(range(1, q.n + 1)))
        oracle = brute_force_factorizations(roots, c.matrix, q.n)
        assert len(oracle) == count, name
        nodes = sorted(s.roots for s in seqs)
        edges = braid_edges(nodes, reg.rootsystem.reflection)
        assert is_connected(len(nodes), edges), name
    _passed(4, "mutation graphs connected; 3/16/125 sequences match the "
               "brute-force factorization count")


def test_criterion_05_single_hurwitz_orbit():
    orders = {"a2": (1, 2), "a3": (1, 2, 3), "a4": (1, 2, 3, 4), "d4": (1, 3, 4, 2)}
    sizes = {}
    for name, order in orders.items():
        q = parse_quiver(QUIVER_TEXTS[name])
        roots = generate_roots(q)
        c = coxeter_element(q, order)
        start = tuple_from_roots(q, tuple(simple_root(q.n, i) for i in order))
        orbit = hurwitz_orbit(start)
        oracle = brute_force_factorizations(roots, c.matrix, q.n)
        assert {t.roots for t in orbit} == oracle, name
        sizes[name] = len(orbit)
    assert sizes == {"a2": 3, "a3": 16, "a4": 125, "d4": 162}
    _passed(5, f"all minimal factorizations form one orbit; sizes {sizes}")


def test_criterion_06_absolute_length():
    for name, order in (("a2", (1, 2)), ("a3", (1, 2, 3)),
                        ("a4", (1, 2, 3, 4)), ("d4", (1, 3, 4, 2))):
        q = parse_quiver(QUIVER_TEXTS[name])
        roots = generate_roots(q)
        c = coxeter_element(q, order)
        assert absolute_length(c, roots) == q.n, name
    checked = 0
    for name in ("a2", "a3", "d4"):
        q = parse_quiver(QUIVER_TEXTS[name])
        roots = generate_roots(q)
        table = bfs_absolute_lengths(roots)
        for matrix, expected in table.items():
            assert absolute_length(WeylElement(matrix), roots) == expected
            checked += 1
    assert checked == 6 + 24 + 192
    _passed(6, f"Coxeter length = rank everywhere; fast path = BFS on all "
               f"{checked} group elements")


def test_criterion_07_exchange_property():
    for name, seed in (("a3", 101), ("d4", 202)):
        q = parse_quiver(QUIVER_TEXTS[name])
        roots = generate_roots(q)
        rng = random.Random(seed)
        verified = 0
        attempts = 0
        while verified < 1000:
            attempts += 1
            assert attempts < 100_000
            word = tuple(rng.randint(1, q.n) for _ in range(rng.randint(1, 10)))
            alpha = random_positive_root(rng, roots)
            image = apply_word(roots, word, alpha)
            if not (all(x <= 0 for x in image) and any(x < 0 for x in image)):
                continue
            witness = exchange_index(word, alpha, roots)
            assert witness.lhs == witness.rhs
            verified += 1
    _passed(7, "1000 seeded exchange instances verified exactly on A3 and D4")


def test_criterion_08_projective_sequences_exceptional():
    for name in ("a2", "a3"):
        q = parse_quiver(QUIVER_TEXTS[name])
        reg = build_registry(q)
        found = 0
        for candidate in itertools.product(reg.roots(), repeat=q.n):
            if is_projective_sequence(candidate, reg):
                found += 1
                assert is_exceptional_sequence(candidate, reg), candidate
        assert found > 0, name
    _passed(8, "every projective sequence from the exhaustive scan is exceptional")


def test_criterion_09_complete_sequences_generate_everything():
    for name in ("a2", "a3"):
        q = parse_quiver(QUIVER_TEXTS[name])
        reg = build_registry(q)
        everything = frozenset(reg.roots())
        for seq in enumerate_complete_sequences(q, reg):
            assert thick_closure(seq, reg).ind_roots == everything
    _passed(9, "thick closure of every complete sequence is the whole category")


def test_criterion_10_rep_layer_soundness():
    sizes = {"a2": 3, "a3": 6, "a4": 10, "d4": 12}
    for name, expected in sizes.items():
        q = parse_quiver(QUIVER_TEXTS[name])
        reg = build_registry(q)
        assert len(reg) == expected, name
        for root in reg.roots():
            assert is_exceptional(reg[root])
    for name in ("a2", "a3"):
        q = parse_quiver(QUIVER_TEXTS[name])
        reg = build_registry(q)
        for a in reg.roots():
            for b in reg.roots():
                M, N = reg[a], reg[b]
                assert hom_dim(M, N) - ext_dim(M, N) == euler_form(q, a, b)
                assert ext_dim(M, N) == ext_dim_via_resolution(M, N)
    _passed(10, "registry sizes 3/6/10/12, all entries exceptional, Euler "
                "identity matches the resolution oracle")


def test_criterion_11_stretch_extension_witnesses():
    q = parse_quiver(QUIVER_TEXTS["a3"])
    reg = build_registry(q)
    non_simple = [r for r in reg.roots() if sum(r) > 1]
    assert len(non_simple) == 3
    witnesses = {}
    for m in non_simple:
        witnesses[m] = _extension_witness(m, reg)
        assert witnesses[m] is not None, m
    _passed(11, "exact-sequence witnesses found for every non-simple "
                f"exceptional on A3: {sorted(witnesses)}")


def _extension_witness(m, reg):
    """Search for (X, Y, a, b) with hom(X,Y) = hom(Y,X) = ext(Y,X) = 0,
    dim M = a dim X + b dim Y, and an injective map from b copies of Y."""
    M = reg[m]
    for x in reg.roots():
        for y in reg.roots():
            if x == y or x == m or y == m:
                continue
            if reg.hom(x, y) or reg.hom(y, x) or reg.ext(y, x):
                continue
            for a in range(1, 4):
                for b in range(1, 4):
                    if tuple(a * xi + b * yi for xi, yi in zip(x, y)) != m:
                        continue
                    if _injective_power_map(y, b, M, reg):
                        return (x, y, a, b)
    return None


def _injective_power_map(y, b, M, reg):
    """Is there an injective map from b copies of the module at y into M?"""
    from fractions import Fraction

    from ncpq.rep import hom_basis
    from ncpq._linalg import rank

    Y = reg[y]
    basis = hom_basis(Y, M)
    d = len(basis)
    if d == 0 or b * d > 4:
        return False
    for coeffs in itertools.product(range(-2, 3), repeat=b * d):
        blocks = [coeffs[j * d:(j + 1) * d] for j in range(b)]
        if any(not any(c) for c in blocks):
            continue
        ok = True
        for i in range(reg.quiver.n):
            yd = Y.dims[i]
            if yd == 0:
                continue
            md = M.dims[i]
            stacked = [
                [sum(Fraction(blocks[j][s]) * basis[s][i][r][c] for s in range(d))
                 for j in range(b) for c in range(yd)]
                for r in range(md)
            ]
            if rank(stacked, b * yd) != b * yd:
                ok = False
                break
        if ok:
            return True
    return False
