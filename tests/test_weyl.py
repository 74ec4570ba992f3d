"""Tests for roots, reflections, group arithmetic, absolute order, the
non-crossing interval, the exchange property, and conjugation depth."""

from __future__ import annotations

import itertools
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpq import (
    absolute_length,
    build_registry,
    chain_counts,
    compose,
    conjugation_depth,
    coxeter_element,
    exchange_index,
    generate_roots,
    identity,
    indecomposable_for_root,
    make_reflection,
    multiply,
    noncrossing_partitions,
    reflect,
    reflect_right,
    simple_root,
    symmetric_form,
    topological_order,
)
from ncpq.errors import (
    CapExceededError,
    NcpqError,
    NonFiniteTypeError,
    ValidationError,
)
from ncpq import weyl
from ncpq.exc import subcategory_covers
from ncpq.quiver import Quiver, euler_form, parse_quiver
from ncpq.quiver import connected_components
from ncpq.weyl import (Reflection, WeylElement, braid_transitive, complete_roots,
                       element_matrices, element_of_heights, height_vector, is_positive,
                       mask_covers, maximal_chains, walk_elements)

from oracles import (
    COXETER_CATALAN,
    DYNKIN_QUIVERS,
    FACTORIZATION_COUNTS,
    FAMILY_PINS,
    absolute_leq,
    apply_word,
    bfs_absolute_lengths,
    conjugation_depths_by_bfs,
    down_sets,
    interval_covers,
    interval_covers_by_moved_spaces,
    labelled_covers,
    linear_dynkin,
    maximal_chains_by_nested_generators,
    minimal_reflection_factorizations,
    nc_by_group_filter,
    oriented_dynkin,
    random_positive_root,
    reflections_below,
    walk_down,
    weyl_group,
)

E1, E2 = (1, 0), (0, 1)


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------


def test_reflect_a2(a2):
    assert reflect(a2, E1, E1) == (-1, 0)
    assert reflect(a2, E1, E2) == (1, 1)


def test_reflect_is_involution(a2):
    rng = random.Random(3)
    for _ in range(20):
        w = tuple(rng.randint(-3, 3) for _ in range(2))
        assert reflect(a2, E1, reflect(a2, E1, w)) == w


def test_make_reflection_validates(a2):
    with pytest.raises(ValidationError):
        make_reflection(a2, (-1, 0))
    with pytest.raises(ValidationError):
        make_reflection(a2, (1, 2))  # (a, a) = 2 fails


def test_reflection_matrix_is_involution(a3):
    for root in sorted(generate_roots(a3).positive_real_roots):
        m = make_reflection(a3, root).element
        assert compose(m, m) == identity(3)


# ---------------------------------------------------------------------------
# root generation
# ---------------------------------------------------------------------------


def test_roots_a2(a2_roots):
    assert a2_roots.positive_real_roots == {(1, 0), (0, 1), (1, 1)}
    assert a2_roots.complete


def test_roots_a3_count(a3_roots):
    assert len(a3_roots.positive_real_roots) == 6
    assert a3_roots.complete


def test_roots_kronecker_bounded(kronecker):
    roots = generate_roots(kronecker, 5)
    assert roots.positive_real_roots == {
        (1, 0), (0, 1), (2, 1), (1, 2), (3, 2), (2, 3)}
    assert not roots.complete


def test_roots_truncated_finite_flagged(a3):
    roots = generate_roots(a3, 1)
    assert not roots.complete
    assert roots.positive_real_roots == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_roots_norm_and_sign(d4_roots):
    q = d4_roots.quiver
    for root in d4_roots.positive_real_roots:
        assert symmetric_form(q, root, root) == 2
        assert is_positive(root)


# ---------------------------------------------------------------------------
# group arithmetic
# ---------------------------------------------------------------------------


def test_group_axioms(a3, a3_roots):
    rng = random.Random(5)
    elements = sorted(weyl_group(a3), key=lambda w: w.matrix)
    for _ in range(20):
        a = rng.choice(elements)
        assert compose(identity(3), a) == a
        assert compose(a, identity(3)) == a
    s = make_reflection(a3, (0, 1, 0)).element
    assert compose(s, s) == identity(3)


def test_weyl_elements_compare_and_hash_as_their_matrix(a3):
    s = make_reflection(a3, (0, 1, 0)).element
    t = make_reflection(a3, (1, 1, 0)).element
    products = [compose(s, t), compose(s, t)]
    assert products[0] is not products[1]
    memo = {products[0]: "st"}
    assert hash(products[1]) == hash(products[0]) == hash(products[0].matrix)
    assert memo[products[1]] == "st"
    assert hash(products[0]) == hash(WeylElement(products[0].matrix))
    assert compose(t, s) not in memo and compose(t, s) != products[0]
    assert {identity(3), WeylElement(identity(3).matrix)} == {identity(3)}


def test_form_preservation(a3, a3_roots):
    rng = random.Random(9)
    for w in weyl_group(a3):
        v1 = tuple(rng.randint(-3, 3) for _ in range(3))
        v2 = tuple(rng.randint(-3, 3) for _ in range(3))
        assert symmetric_form(a3, w(v1), w(v2)) == symmetric_form(a3, v1, v2)


def test_simple_reflection_preserves_other_positive_roots(a3_roots, d4_roots):
    for roots in (a3_roots, d4_roots):
        q = roots.quiver
        for i in q.vertices:
            s = make_reflection(q, simple_root(q.n, i)).element
            for alpha in roots.positive_real_roots:
                if alpha == simple_root(q.n, i):
                    continue
                assert s(alpha) in roots.positive_real_roots


# ---------------------------------------------------------------------------
# reflection products
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["A3", "A4", "D4", "A5", "D5"]),
       st.lists(st.integers(min_value=0), max_size=12))
def test_reflection_products_equal_compose(name, picks):
    # A random element, folded by full products from 0-12 reflections, and
    # every reflection of the type on its right.
    roots = complete_roots(DYNKIN_QUIVERS[name])
    reflections = roots.reflections()
    w = reduce(compose, (reflections[k % len(reflections)].element for k in picks),
               identity(roots.n))
    for t in reflections:
        assert reflect_right(w, t) == compose(w, t.element)


def test_reflection_products_read_the_matrix_not_the_root(d4, d4_roots):
    # A reflection whose matrix belongs to another root multiplies as that
    # matrix does, so a pair-product check sees the matrix it holds.
    reflections = d4_roots.reflections()
    rng = random.Random(19)
    elements = rng.sample(sorted(weyl_group(d4), key=lambda w: w.matrix), 12)
    for t, u in itertools.permutations(reflections, 2):
        mixed = Reflection(t.root, u.element)
        for w in elements:
            assert reflect_right(w, mixed) == compose(w, u.element)


def test_reflection_products_are_exact_for_any_matrix():
    # I - t with several groups: rows that are multiples of one primitive
    # row with either sign, other rows, zero rows. Every group of w*t reads
    # the original row of w.
    rng = random.Random(23)
    for n in (1, 2, 3, 4, 5):
        for _ in range(40):
            m = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
            p = tuple(rng.randint(-2, 2) for _ in range(n))
            rows = [tuple(int(i == j) - c * x for j, x in enumerate(p)) if c else m[i]
                    for i, c in enumerate(rng.choice((-2, -1, 0, 1, 3)) for _ in range(n))]
            for matrix in (m, tuple(rows)):
                t = Reflection(simple_root(n, 1), WeylElement(matrix))
                w = WeylElement(tuple(tuple(rng.randint(-4, 4) for _ in range(n))
                                      for _ in range(n)))
                assert reflect_right(w, t) == compose(w, t.element)


def test_reflection_products_refuse_another_rank(a3):
    t = make_reflection(a3, (1, 0, 0))
    with pytest.raises(ValidationError):
        reflect_right(identity(4), t)


# ---------------------------------------------------------------------------
# Coxeter elements
# ---------------------------------------------------------------------------


def test_coxeter_a2_matrix(a2):
    s1 = make_reflection(a2, E1).element
    s2 = make_reflection(a2, E2).element
    assert coxeter_element(a2, (1, 2)) == compose(s1, s2)


def test_coxeter_rank_one():
    from ncpq import Quiver

    q = Quiver(1, ())
    assert coxeter_element(q, (1,)) == make_reflection(q, (1,)).element


def test_multiply_starts_at_the_first_factor(a4, monkeypatch):
    # Four simple reflections take three reflection products, with no
    # identity first and no full matrix product; one factor gives back its
    # element, and only an empty product is the identity.
    calls = []

    def counted(w, t):
        calls.append(t.root)
        return reflect_right(w, t)

    def full_product(a, b):
        raise AssertionError("multiply made a full matrix product")

    monkeypatch.setattr("ncpq.weyl.reflect_right", counted)
    monkeypatch.setattr("ncpq.weyl.compose", full_product)
    c = coxeter_element(a4, (1, 2, 3, 4))
    assert calls == [simple_root(4, i) for i in (2, 3, 4)]
    simples = [make_reflection(a4, simple_root(4, i)).element for i in (1, 2, 3, 4)]
    assert c == compose(compose(compose(simples[0], simples[1]), simples[2]), simples[3])
    s1 = make_reflection(a4, simple_root(4, 1))
    assert multiply([s1], 4) is s1.element
    assert multiply((), 4) == identity(4)


def test_coxeter_rejects_inadmissible(a2, d4):
    with pytest.raises(ValidationError):
        coxeter_element(a2, (2, 1))
    with pytest.raises(ValidationError):
        coxeter_element(d4, (2, 1, 3, 4))
    with pytest.raises(ValidationError):
        coxeter_element(a2, (1, 1))


# ---------------------------------------------------------------------------
# absolute length and order
# ---------------------------------------------------------------------------


def test_absolute_length_basics(a2, a2_roots):
    assert absolute_length(identity(2), a2_roots) == 0
    for root in a2_roots.positive_real_roots:
        assert absolute_length(make_reflection(a2, root).element, a2_roots) == 1
    c = coxeter_element(a2, (1, 2))
    assert absolute_length(c, a2_roots) == 2


def test_absolute_length_matches_bfs_a2(a2_roots):
    table = bfs_absolute_lengths(a2_roots)
    for matrix, expected in table.items():
        assert absolute_length(WeylElement(matrix), a2_roots) == expected


def test_absolute_leq_basics(a2, a2_roots):
    c = coxeter_element(a2, (1, 2))
    group = weyl_group(a2)
    for w in group:
        assert absolute_leq(identity(2), w, a2_roots)
        assert absolute_leq(w, w, a2_roots)
    for root in a2_roots.positive_real_roots:
        assert absolute_leq(make_reflection(a2, root).element, c, a2_roots)


@pytest.mark.parametrize("fixture_name", ["a2", "a3"])
def test_absolute_leq_is_partial_order(fixture_name, request):
    q = request.getfixturevalue(fixture_name)
    roots = request.getfixturevalue(f"{fixture_name}_roots")
    group = sorted(weyl_group(q), key=lambda w: w.matrix)
    leq = {(a.matrix, b.matrix) for a in group for b in group
           if absolute_leq(a, b, roots)}
    for a in group:
        assert (a.matrix, a.matrix) in leq
    for a, b in leq:
        if a != b:
            assert (b, a) not in leq
    for a in group:
        for b in group:
            for c in group:
                if (a.matrix, b.matrix) in leq and (b.matrix, c.matrix) in leq:
                    assert (a.matrix, c.matrix) in leq


def test_absolute_leq_matches_bfs_on_all_pairs_a3(a3_roots):
    # The oracle recovers u^-1 w as the group element x with u x = w, by
    # search over products, and reads all three lengths off the BFS table.
    assert a3_roots.complete
    table = bfs_absolute_lengths(a3_roots)
    n = a3_roots.n
    elements = sorted(table)
    assert len(elements) == 24

    def product(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                     for i in range(n))

    for u in elements:
        quotient = {product(u, x): x for x in elements}
        for w in elements:
            expected = table[u] + table[quotient[w]] == table[w]
            assert absolute_leq(WeylElement(u), WeylElement(w), a3_roots) == expected


# ---------------------------------------------------------------------------
# group and interval enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["a2", "a3", "d4"])
def test_weyl_group_oracles_agree(name, request):
    q = request.getfixturevalue(name)
    by_reflections = bfs_absolute_lengths(request.getfixturevalue(f"{name}_roots"))
    assert weyl_group(q) == {WeylElement(m) for m in by_reflections}


def test_group_sizes(a2, a3, d4):
    assert len(weyl_group(a2)) == 6
    assert len(weyl_group(a3)) == 24
    assert len(weyl_group(d4)) == 192


def test_nc_counts(a2, a3, a2_roots, a3_roots):
    c2 = coxeter_element(a2, (1, 2))
    assert len(noncrossing_partitions(c2, a2, roots=a2_roots)) == 5
    c3 = coxeter_element(a3, (1, 2, 3))
    assert len(noncrossing_partitions(c3, a3, roots=a3_roots)) == 14


@pytest.mark.parametrize("name", ["a3", "d4", "e6"])
def test_reflections_below_is_the_filter_by_absolute_leq(name):
    # Every element of W for A3 and D4; of the interval [1, c] for E6.
    q, roots, c = _nc(name.upper())
    elements = interval_covers(c, roots) if name == "e6" else weyl_group(q)
    rng = random.Random(11)
    plain, seeded = generate_roots(q), generate_roots(q)  # fresh memos
    everything = roots.reflections()
    for w in sorted(elements, key=lambda w: w.matrix):
        expected = tuple(t for t in everything if absolute_leq(t.element, w, roots))
        assert reflections_below(w, plain) == expected
        superset = tuple(t for t in everything if t in expected or rng.random() < 0.5)
        assert reflections_below(w, seeded, superset) == expected


def test_reflections_below_refuses_a_map_that_moves_the_form(a2):
    # The unipotent map is not orthogonal, so its moved space says nothing
    # about absolute order; -I is orthogonal but outside W(A2), and the
    # walk below it never reaches the identity.
    with pytest.raises(ValidationError):
        reflections_below(WeylElement(((1, 1), (0, 1))), generate_roots(a2))
    assert len(reflections_below(WeylElement(((-1, 0), (0, -1))), generate_roots(a2))) == 3


def _nc(name):
    q = DYNKIN_QUIVERS[name]
    roots = generate_roots(q)
    return q, roots, coxeter_element(q, topological_order(q))


@pytest.mark.parametrize("name", ["A3", "A4", "D4"])
def test_walk_equals_group_filter(name):
    q, roots, c = _nc(name)
    assert noncrossing_partitions(c, q, roots=roots) == nc_by_group_filter(
        c, q, generate_roots(q))


@pytest.mark.parametrize("name", ["A3", "A4", "D4"])
def test_chain_counts_are_factorization_counts(name):
    _, roots, c = _nc(name)
    diagram, elements = element_matrices(c, roots)
    counts = {elements[b]: count for b, count in chain_counts(diagram, roots).items()}
    fresh = generate_roots(roots.quiver)
    assert counts == {w: len(minimal_reflection_factorizations(w, fresh)) for w in counts}
    assert counts[c] == FACTORIZATION_COUNTS[name]


@settings(max_examples=30, deadline=None)
@given(oriented_dynkin(["A4", "D4", "A5"]))
def test_walk_equals_group_filter_on_random_orientations(drawn):
    name, q, order = drawn
    roots = generate_roots(q)
    c = coxeter_element(q, order)
    walked = noncrossing_partitions(c, q, roots=roots)
    assert walked == nc_by_group_filter(c, q, generate_roots(q))
    assert len(walked) == COXETER_CATALAN[name]


@pytest.mark.parametrize("name", sorted(COXETER_CATALAN))
def test_nc_size_is_coxeter_catalan(name):
    q, roots, c = _nc(name)
    assert len(noncrossing_partitions(c, q, roots=roots)) == COXETER_CATALAN[name]


@pytest.mark.parametrize("name", ["A4", "D4"])
def test_down_sets_are_absolute_order(name):
    _, roots, c = _nc(name)
    covers = interval_covers(c, roots)
    down = down_sets(covers)
    fresh = generate_roots(roots.quiver)
    for u in covers:
        for w in covers:
            assert (u in down[w]) == absolute_leq(u, w, fresh)


def test_walk_covers_are_length_one_steps(d4, d4_roots):
    c = coxeter_element(d4, topological_order(d4))
    for w, children in interval_covers(c, d4_roots).items():
        assert list(children) == [t.root for t in reflections_below(w, d4_roots)]
        for x in children.values():
            assert absolute_length(x, d4_roots) == absolute_length(w, d4_roots) - 1
            assert absolute_leq(x, w, d4_roots)


@pytest.mark.parametrize("matrix", [((1, 1), (0, 1)), ((-1, 0), (0, -1))])
def test_walk_refuses_elements_outside_the_group(a2, matrix):
    with pytest.raises(ValidationError):
        noncrossing_partitions(WeylElement(matrix), a2, roots=generate_roots(a2))
    with pytest.raises(ValidationError):
        interval_covers_by_moved_spaces(WeylElement(matrix), generate_roots(a2))


def test_walk_refuses_the_coxeter_element_of_another_orientation(a3, a3_roots, monkeypatch):
    # A3's opposite orientation has the same roots, and its Coxeter
    # element s3 s2 s1 lies in W, so the Brady-Watt walk takes it on A3's
    # roots; the Euler form's letter rule holds only for A3's own c. The
    # library refuses it before walking [1, c].
    opposite = Quiver(3, ((2, 1), (3, 2)))
    c = coxeter_element(opposite, topological_order(opposite))
    assert c != coxeter_element(a3, topological_order(a3))
    assert len(interval_covers_by_moved_spaces(c, generate_roots(a3))) == 14

    def walked(*args, **kwargs):
        raise AssertionError("walked [1, c] for a foreign c")

    monkeypatch.setattr(weyl, "mask_covers", walked)
    with pytest.raises(ValidationError, match="not the Coxeter element of the quiver"):
        interval_covers(c, a3_roots)
    with pytest.raises(ValidationError, match="not the Coxeter element of the quiver"):
        noncrossing_partitions(c, a3, roots=a3_roots)
    with pytest.raises(ValidationError, match="not the Coxeter element of the quiver"):
        walk_elements(c, a3_roots)


def test_the_coxeter_check_runs_once_per_walk(a3, a3_roots, monkeypatch):
    # The check E c = -E^T is the one matrix product of the walk: each
    # step is a `reflect_right` or a `_height_step`, so one walk of [1, c]
    # through either entry makes exactly one `mat_mul`.
    c = coxeter_element(a3, topological_order(a3))
    calls = []
    real = weyl.mat_mul
    monkeypatch.setattr(weyl, "mat_mul", lambda a, b: calls.append(1) or real(a, b))
    assert len(noncrossing_partitions(c, a3, roots=a3_roots)) == 14
    assert len(calls) == 1
    calls.clear()
    assert len(walk_elements(c, a3_roots)[1]) == 14
    assert len(calls) == 1


def _listed(covers) -> list:
    return [(w, list(children.items())) for w, children in covers.items()]


@pytest.mark.parametrize("name", sorted(DYNKIN_QUIVERS))
def test_walk_equals_the_brady_watt_walk(name):
    # Letter sets under the Euler form give the labelled diagram that
    # echelons and span reductions give, in the same key and letter order.
    q, roots, c = _nc(name)
    assert _listed(interval_covers(c, roots)) == _listed(
        interval_covers_by_moved_spaces(c, generate_roots(q)))


@settings(max_examples=30, deadline=None)
@given(oriented_dynkin(["A3", "A4", "D4", "A5", "D5", "E6"]))
def test_walk_equals_the_brady_watt_walk_on_random_orientations(drawn):
    _, q, order = drawn
    c = coxeter_element(q, order)
    assert _listed(interval_covers(c, generate_roots(q))) == _listed(
        interval_covers_by_moved_spaces(c, generate_roots(q)))


@pytest.mark.parametrize("name", sorted(FAMILY_PINS))
def test_interval_and_chain_counts_of_the_families(name):
    q = linear_dynkin(name)
    roots = generate_roots(q)
    assert roots.classification.label == name
    c = coxeter_element(q, topological_order(q))
    covers = walk_elements(c, roots)[0]
    assert (len(covers), chain_counts(covers, roots)[next(iter(covers))]) == FAMILY_PINS[name]


def test_walk_cap_is_read_at_call_time(a3, monkeypatch):
    c = coxeter_element(a3, (1, 2, 3))
    monkeypatch.setattr("ncpq.weyl.DEFAULT_INTERVAL_CAP", 13)
    with pytest.raises(CapExceededError):
        noncrossing_partitions(c, a3, roots=generate_roots(a3))
    monkeypatch.setattr("ncpq.weyl.DEFAULT_INTERVAL_CAP", 14)
    assert len(noncrossing_partitions(c, a3, roots=generate_roots(a3))) == 14


@pytest.mark.parametrize("name", ["A3", "D4"])
def test_height_vector_fixes_the_element(name):
    # phi(w) = 1^T w is injective on the whole group, and the descent along
    # negative entries reads each element back from its vector; a vector
    # of no element is refused as a bug.
    q = DYNKIN_QUIVERS[name]
    group = weyl_group(q)
    vectors = {height_vector(w): w for w in group}
    assert len(vectors) == len(group)
    assert all(element_of_heights(v, generate_roots(q)) == w for v, w in vectors.items())
    with pytest.raises(NcpqError, match="is not the height vector of a Weyl group element"):
        element_of_heights((2,) + (1,) * (q.n - 1), generate_roots(q))


def test_walk_holds_each_element_once(d4, d4_roots):
    # A child met again is the object met first, so the diagram holds one
    # object per element.
    covers = interval_covers(coxeter_element(d4, topological_order(d4)), d4_roots)
    held = {id(w) for w in covers}
    assert all(id(x) in held for children in covers.values() for x in children.values())


def _subsets(top: frozenset, child) -> dict:
    """A hand-built Hasse diagram on subsets of `top`, walked down from
    it: the letters of a node are its sorted members, and child(node, x)
    is the child reached through x."""
    return walk_down(top, lambda node: {x: child(node, x) for x in sorted(node)}, "node count")


def _without(node, x):
    return node - {x}


def test_walk_down_of_the_boolean_lattice(monkeypatch):
    # The subsets of {1, 2, 3}: 8 nodes, and the 3! orders of removal are
    # its maximal chains, all in one orbit of transpositions. It is the
    # mask diagram of A1+A1+A1, whose Euler form is the identity: each
    # mask at its level, with the covers the walk of the subsets gives.
    top = frozenset({1, 2, 3})
    covers = _subsets(top, _without)
    assert list(map(len, covers)) == [3, 2, 2, 2, 1, 1, 1, 0]
    roots = generate_roots(Quiver(3, ()))
    masks = mask_covers(roots)
    assert [b.bit_count() for b in masks] == list(masks.values()) == [3, 2, 2, 2, 1, 1, 1, 0]
    vertex = {x: x.index(1) + 1 for x in roots.sorted_roots()}
    labelled = labelled_covers(masks, roots)
    members = {b: frozenset(map(vertex.__getitem__, children)) for b, children in labelled.items()}
    assert {members[b]: {vertex[x]: members[a] for x, a in children.items()}
            for b, children in labelled.items()} == covers
    chains = {tuple(map(vertex.__getitem__, chain)) for chain in maximal_chains(masks, roots)}
    assert chains == set(itertools.permutations((1, 2, 3)))
    assert chain_counts(masks, roots)[0b111] == 6
    assert braid_transitive(masks, roots)
    monkeypatch.setattr("ncpq.weyl.DEFAULT_INTERVAL_CAP", 7)
    with pytest.raises(CapExceededError, match="^node count exceeds cap 7$"):
        mask_covers(roots, "node count")


def test_chains_come_sorted():
    # Both listers read each chain upward from the one bottom, taking each
    # node's parents in letter order: on the interval [1, c] of E6 and on
    # the subcategory descent of D5 the chains come in sorted order.
    e6 = DYNKIN_QUIVERS["E6"]
    e6_roots = complete_roots(e6)
    interval = walk_elements(coxeter_element(e6, topological_order(e6)), e6_roots)[0]
    reg = build_registry(DYNKIN_QUIVERS["D5"])
    for covers, roots in ((interval, e6_roots), (subcategory_covers(reg), reg.rootsystem)):
        chains = list(maximal_chains(covers, roots))
        assert len(chains) == chain_counts(covers, roots)[next(iter(covers))]
        assert chains == sorted(chains)


# Every chain of A2-E6 (E6 has 41,472 on each walk), and the first of
# E7's 1,062,882 and E8's 37,968,750: all of E7 would take 5 s more.
ORACLE_CHAINS = 300_000


@pytest.mark.parametrize("name", sorted(DYNKIN_QUIVERS))
def test_maximal_chains_match_the_nested_oracle(name):
    # The one stack lists the chains that one nested generator per level
    # lists, in the same order, on the interval walk and on the descent;
    # the two are read in lockstep, so neither list is held.
    q = DYNKIN_QUIVERS[name]
    roots = complete_roots(q)
    reg = build_registry(q, roots)
    interval = walk_elements(coxeter_element(q, topological_order(q)), roots)[0]
    for covers in (interval, subcategory_covers(reg)):
        pairs = itertools.zip_longest(
            itertools.islice(maximal_chains(covers, roots), ORACLE_CHAINS),
            itertools.islice(maximal_chains_by_nested_generators(covers, roots), ORACLE_CHAINS))
        listed = 0
        for chain, expected in pairs:
            assert chain == expected, listed
            listed += 1
        assert listed == min(ORACLE_CHAINS, chain_counts(covers, roots)[next(iter(covers))])


def test_maximal_chains_build_each_chain_once_when_it_is_asked_for(monkeypatch):
    # Linear A9 has 10^8 maximal chains of [1, c]. The first comes back
    # once the lister has built one tuple, that chain, and the next one
    # more; the nested generators built n tuples per chain.
    q = linear_dynkin("A9")
    roots = complete_roots(q)
    covers = walk_elements(coxeter_element(q, topological_order(q)), roots)[0]
    assert chain_counts(covers, roots)[next(iter(covers))] == 10**8
    chains = maximal_chains(covers, roots)
    built = []

    def counted(*args):
        built.append(tuple(*args))
        return built[-1]

    monkeypatch.setattr(weyl, "tuple", counted, raising=False)
    first = next(chains)
    assert built == [first] and len(first) == 9
    second = next(chains)
    assert built == [first, second]
    monkeypatch.undo()
    assert [first, second] == list(
        itertools.islice(maximal_chains_by_nested_generators(covers, roots), 2))


# Euler-form masks on three letters, each cutting the letter graph at one
# node of its diagram: from the top, 0 and 1 lead to each other and 2 to
# the bottom; or the third letter leads from the top to the other two,
# which lead to the bottom.
CUT = {0b111: (0b010, 0b001, 0b000), 0b011: (0b000, 0b000, 0b011),
       0b101: (0b000, 0b101, 0b000), 0b110: (0b110, 0b000, 0b000)}


def _mask_diagram(orth) -> dict:
    """The masks below the top under `orth`, each mapped to its bit count,
    with no level check."""
    covers, stack = {}, [0b111]
    while stack:
        b = stack.pop()
        if b not in covers:
            covers[b] = b.bit_count()
            stack += [b & orth[k] for k in range(3) if b >> k & 1]
    return covers


@pytest.mark.parametrize("node", sorted(CUT.items()))
def test_certificate_checks_every_node(node, monkeypatch):
    # Every other node is connected, so a certificate that skips a node,
    # or takes a node's own letters in place of its children's, passes
    # this diagram.
    cut, orth = node
    roots = generate_roots(Quiver(3, ()))
    monkeypatch.setattr(roots, "orth", orth)
    covers = _mask_diagram(orth)
    undirected = [m | sum(1 << s for s, o in enumerate(orth) if o >> a & 1)
                  for a, m in enumerate(orth)]
    assert [b for b in covers if len(connected_components(b, undirected)) > 1] == [cut]
    assert not braid_transitive(covers, roots)


def test_certificate_refuses_letters_that_disagree_with_the_diagram():
    # The diagram stores masks alone, so a letter and its child are fixed
    # by the mask: a child letter its parent lacks, a child that is not the
    # mask's own or a dropped cover cannot be stored. What can be is a
    # dropped node, and the count that every command reads before the
    # certificate refuses it as a bug, as does the lister.
    roots = generate_roots(Quiver(3, ()))
    assert braid_transitive(mask_covers(roots), roots)
    for dropped in (0b011, 0b101, 0b110, 0b001, 0b010, 0b100):
        covers = mask_covers(roots)
        del covers[dropped]
        for reader in (chain_counts, maximal_chains):
            with pytest.raises(NcpqError, match=f"^the mask {dropped:#b} is not in the diagram; "):
                reader(covers, roots)


@pytest.mark.parametrize("name", [*sorted(DYNKIN_QUIVERS), "A2+D4"])
def test_complete_roots_refuses_from_the_highest_root(name, monkeypatch):
    # The bound at the highest root's height passes; one below it is
    # refused from the classification, before any root is generated.
    q = DYNKIN_QUIVERS.get(name) or Quiver(6, ((1, 2), (3, 4), (5, 4), (6, 4)))
    roots = generate_roots(q)
    top = max(map(sum, roots.positive_real_roots))
    monkeypatch.setattr("ncpq.weyl.DEFAULT_HEIGHT_BOUND", top)
    assert complete_roots(q).positive_real_roots == roots.positive_real_roots

    def generated(*args):
        raise AssertionError("roots generated before the refusal")

    monkeypatch.setattr("ncpq.weyl.DEFAULT_HEIGHT_BOUND", top - 1)
    monkeypatch.setattr("ncpq.weyl.generate_roots", generated)
    with pytest.raises(NonFiniteTypeError, match=f"truncated at height {top - 1}: "):
        complete_roots(q)


D52 = Quiver(52, tuple((i, i + 1) for i in range(1, 51)) + ((50, 52),))


@pytest.mark.parametrize("q, root", [(D52, (1,) + (2,) * 49 + (1, 1)),
                                     (Quiver(2, ((1, 2), (1, 2))), (2, 1))],
                         ids=["D52", "kronecker"])
def test_library_refuses_before_generating_roots(q, root, monkeypatch):
    # Without roots, the interval, the registry, conjugation depth and the
    # indecomposable of a root take them from `complete_roots`, which
    # refuses D52 (whose highest root, given here, has height 101) and the
    # affine Kronecker quiver from the classification.
    def generated(*args, **kwargs):
        raise AssertionError("roots generated before the refusal")

    monkeypatch.setattr("ncpq.weyl.generate_roots", generated)
    c = coxeter_element(q, topological_order(q))
    refusals = [lambda: noncrossing_partitions(c, q), lambda: build_registry(q),
                lambda: conjugation_depth(make_reflection(q, root), q),
                lambda: indecomposable_for_root(q, root)]
    for refused in refusals:
        with pytest.raises(NonFiniteTypeError, match="truncated at height 100: "):
            refused()


# Each operation of absolute order refuses a root system that is not
# complete: an affine one cut at height 5, and a finite one cut at height 1.
ON_TRUNCATED_ROOTS = {
    "reflections_below": reflections_below,
    "absolute_length": absolute_length,
    "absolute_leq": lambda w, roots: absolute_leq(w, w, roots),
}


@pytest.mark.parametrize("name, height", [("kronecker", 5), ("a3", 1)])
@pytest.mark.parametrize("operation", sorted(ON_TRUNCATED_ROOTS))
def test_reflections_below_refuses_truncated_roots(operation, name, height, request):
    q = request.getfixturevalue(name)
    roots = generate_roots(q, height)
    assert not roots.complete
    with pytest.raises(NonFiniteTypeError):
        ON_TRUNCATED_ROOTS[operation](identity(q.n), roots)


def test_nc_refuses_nonfinite(kronecker):
    roots = generate_roots(kronecker, 5)
    c = compose(make_reflection(kronecker, (1, 0)).element,
                make_reflection(kronecker, (0, 1)).element)
    with pytest.raises(NonFiniteTypeError):
        noncrossing_partitions(c, kronecker, roots=roots)


# ---------------------------------------------------------------------------
# exchange property
# ---------------------------------------------------------------------------


def test_exchange_single_letter(a2, a2_roots):
    witness = exchange_index((1,), E1, a2_roots)
    assert witness.t == 1
    assert witness.verified
    assert witness.lhs == make_reflection(a2, E1).element


def test_exchange_a2_word(a2_roots):
    witness = exchange_index((1, 2), E2, a2_roots)
    assert witness.t == 2
    assert witness.verified


def test_exchange_precondition(a2_roots):
    with pytest.raises(ValidationError):
        exchange_index((2,), E1, a2_roots)  # image stays positive


def test_exchange_random_instances(a3_roots):
    rng = random.Random(23)
    checked = 0
    while checked < 100:
        word = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 8)))
        alpha = random_positive_root(rng, a3_roots)
        if not all(x <= 0 for x in apply_word(a3_roots, word, alpha)):
            continue
        witness = exchange_index(word, alpha, a3_roots)
        assert witness.verified and witness.lhs == witness.rhs
        checked += 1


# ---------------------------------------------------------------------------
# conjugation depth
# ---------------------------------------------------------------------------


def test_conjugation_depth_simple(a2):
    assert conjugation_depth(make_reflection(a2, E1), a2) == 0


def test_conjugation_depth_a2_highest(a2):
    assert conjugation_depth(make_reflection(a2, (1, 1)), a2) == 1


def test_conjugation_depth_a3_highest(a3):
    assert conjugation_depth(make_reflection(a3, (1, 1, 1)), a3) == 2


@pytest.mark.parametrize("name", sorted(DYNKIN_QUIVERS))
def test_conjugation_depth_is_the_bfs_distance(name):
    q = DYNKIN_QUIVERS[name]
    roots = generate_roots(q)
    expected = conjugation_depths_by_bfs(roots)
    assert expected.keys() == roots.positive_real_roots
    for root, depth in expected.items():
        assert conjugation_depth(roots.reflection(root), q, roots=roots) == depth


@settings(max_examples=30, deadline=None)
@given(oriented_dynkin(["A3", "A4", "A5", "D4", "D5"]))
def test_conjugation_depth_is_the_bfs_distance_on_random_orientations(drawn):
    _, q, _ = drawn
    roots = generate_roots(q)
    for root, depth in conjugation_depths_by_bfs(roots).items():
        assert conjugation_depth(roots.reflection(root), q, roots=roots) == depth


def test_conjugation_depth_refuses_nonfinite(kronecker):
    refl = make_reflection(kronecker, (1, 0))
    with pytest.raises(NonFiniteTypeError):
        conjugation_depth(refl, kronecker)


def test_positive_representative_rejects_mixed():
    from ncpq.errors import NcpqError
    from ncpq.weyl import positive_representative

    assert positive_representative((-1, -1)) == (1, 1)
    assert positive_representative((1, 0)) == (1, 0)
    with pytest.raises(NcpqError):
        positive_representative((1, -1))


@pytest.mark.parametrize("label", sorted(DYNKIN_QUIVERS))
def test_euler_table_is_the_euler_form_on_the_sorted_roots(label):
    q = DYNKIN_QUIVERS[label]
    roots = generate_roots(q)
    ordered = roots.sorted_roots()
    assert roots.euler == tuple(tuple(euler_form(q, a, b) for b in ordered) for a in ordered)
    # The zero screens: bit s of orth[a] is <a, s> = 0, of left_orth[a] <s, a> = 0.
    euler, at = roots.euler, range(len(ordered))
    assert all(bool(roots.orth[a] >> s & 1) == (euler[a][s] == 0) for a in at for s in at)
    assert all(bool(roots.left_orth[a] >> s & 1) == (euler[s][a] == 0) for a in at for s in at)


def test_root_cap_counts_every_root_once(monkeypatch):
    # A wild quiver with 348 real roots of height <= 100, the simple
    # roots among them: the cap holds them all at 348 and refuses at 347,
    # also down to a cap below the vertex count.
    q = parse_quiver("vertices 3\narrow 1 2\narrow 1 2\narrow 2 3\n")
    monkeypatch.setattr("ncpq.weyl.DEFAULT_ROOT_CAP", 348)
    assert len(generate_roots(q).positive_real_roots) == 348
    for cap in (347, 2):
        monkeypatch.setattr("ncpq.weyl.DEFAULT_ROOT_CAP", cap)
        with pytest.raises(CapExceededError, match=f"^root count exceeds cap {cap}$"):
            generate_roots(q)
