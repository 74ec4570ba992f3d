"""Tests for roots, reflections, group arithmetic, absolute order, the
non-crossing interval, the exchange property, and conjugation depth."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from ncpq import (
    absolute_length,
    absolute_leq,
    chain_counts,
    compose,
    conjugation_depth,
    coxeter_element,
    exchange_index,
    generate_roots,
    identity,
    interval_covers,
    make_reflection,
    multiply,
    noncrossing_partitions,
    reflect,
    reflections_below,
    simple_root,
    symmetric_form,
    topological_order,
)
from ncpq.errors import (
    CapExceededError,
    NonFiniteTypeError,
    ValidationError,
)
from ncpq.weyl import WeylElement, is_positive

from oracles import (
    COXETER_CATALAN,
    DYNKIN_QUIVERS,
    FACTORIZATION_COUNTS,
    apply_word,
    bfs_absolute_lengths,
    conjugation_depths_by_bfs,
    down_sets,
    minimal_reflection_factorizations,
    nc_by_group_filter,
    oriented_dynkin,
    random_positive_root,
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
    # Four simple reflections take three products, with no identity first;
    # only an empty product is the identity.
    calls = []
    monkeypatch.setattr("ncpq.weyl.compose", lambda a, b: calls.append(1) or compose(a, b))
    c = coxeter_element(a4, (1, 2, 3, 4))
    assert len(calls) == 3
    assert multiply([c], 4) is c
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
    counts = chain_counts(interval_covers(c, roots))
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
        assert len(children) == len(reflections_below(w, d4_roots))
        for x in children:
            assert absolute_length(x, d4_roots) == absolute_length(w, d4_roots) - 1
            assert absolute_leq(x, w, d4_roots)


@pytest.mark.parametrize("matrix", [((1, 1), (0, 1)), ((-1, 0), (0, -1))])
def test_walk_refuses_elements_outside_the_group(a2, matrix):
    with pytest.raises(ValidationError):
        noncrossing_partitions(WeylElement(matrix), a2, roots=generate_roots(a2))


def test_walk_cap_is_read_at_call_time(a3, monkeypatch):
    c = coxeter_element(a3, (1, 2, 3))
    monkeypatch.setattr("ncpq.weyl.DEFAULT_INTERVAL_CAP", 13)
    with pytest.raises(CapExceededError):
        noncrossing_partitions(c, a3, roots=generate_roots(a3))
    monkeypatch.setattr("ncpq.weyl.DEFAULT_INTERVAL_CAP", 14)
    assert len(noncrossing_partitions(c, a3, roots=generate_roots(a3))) == 14


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
