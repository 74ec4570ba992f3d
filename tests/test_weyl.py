"""Tests for roots, reflections, group arithmetic, absolute order, the
non-crossing interval, the exchange property, and conjugation depth."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpq import (
    Quiver,
    absolute_length,
    absolute_leq,
    compose,
    conjugation_depth,
    coxeter_element,
    enumerate_group,
    exchange_index,
    generate_roots,
    identity,
    interval_covers,
    inverse,
    make_reflection,
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
    SearchExhaustedError,
    ValidationError,
)
from ncpq.weyl import WeylElement, is_positive

from oracles import (
    COXETER_CATALAN,
    DYNKIN_QUIVERS,
    apply_word,
    bfs_absolute_lengths,
    down_sets,
    nc_by_group_filter,
    random_positive_root,
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
    elements = sorted(enumerate_group(a3, 100), key=lambda w: w.matrix)
    for _ in range(20):
        a, b = rng.choice(elements), rng.choice(elements)
        assert compose(identity(3), a) == a
        assert compose(a, identity(3)) == a
        assert inverse(compose(a, b)) == compose(inverse(b), inverse(a))
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
    for w in enumerate_group(a3, 100):
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


def test_absolute_length_noncomplete_certified(kronecker):
    roots = generate_roots(kronecker, 5)
    assert absolute_length(identity(2), roots) == 0
    for root in roots.positive_real_roots:
        assert absolute_length(make_reflection(kronecker, root).element, roots) == 1


def test_absolute_length_refuses_uncertifiable(kronecker):
    # Affine translations fix the null direction, so the codimension lower
    # bound cannot certify their length; the search must refuse, not guess.
    roots = generate_roots(kronecker, 5)
    c = compose(make_reflection(kronecker, (1, 0)).element,
                make_reflection(kronecker, (0, 1)).element)
    with pytest.raises(SearchExhaustedError):
        absolute_length(c, roots)


def test_absolute_length_search_exhausted(kronecker):
    roots = generate_roots(kronecker, 5)
    c = compose(make_reflection(kronecker, (1, 0)).element,
                make_reflection(kronecker, (0, 1)).element)
    with pytest.raises(SearchExhaustedError):
        absolute_length(c, roots, max_states=1)


def test_absolute_leq_basics(a2, a2_roots):
    c = coxeter_element(a2, (1, 2))
    group = enumerate_group(a2, 100)
    for w in group:
        assert absolute_leq(identity(2), w, a2_roots)
        assert absolute_leq(w, w, a2_roots)
    for root in a2_roots.positive_real_roots:
        assert absolute_leq(make_reflection(a2, root).element, c, a2_roots)


@pytest.mark.parametrize("fixture_name", ["a2", "a3"])
def test_absolute_leq_is_partial_order(fixture_name, request):
    q = request.getfixturevalue(fixture_name)
    roots = request.getfixturevalue(f"{fixture_name}_roots")
    group = sorted(enumerate_group(q, 100), key=lambda w: w.matrix)
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


def test_absolute_leq_noncomplete_takes_certified_path(kronecker):
    roots = generate_roots(kronecker, 5)
    assert not roots.complete
    one = identity(2)
    assert absolute_leq(one, one, roots)
    reflections = [make_reflection(kronecker, r).element
                   for r in sorted(roots.positive_real_roots)]
    for t in reflections:
        assert absolute_leq(one, t, roots)
        assert absolute_leq(t, t, roots)
        assert not absolute_leq(t, one, roots)
    # The product of the two simple reflections is an affine Coxeter
    # element, whose length no search over the truncated reflections can
    # certify: the order must refuse, not fall back to a rank formula that
    # only holds in finite type.
    with pytest.raises(SearchExhaustedError):
        absolute_leq(reflections[0], reflections[1], roots)


# ---------------------------------------------------------------------------
# group and interval enumeration
# ---------------------------------------------------------------------------


def test_group_sizes(a2, a3, d4):
    assert len(enumerate_group(a2, 100)) == 6
    assert len(enumerate_group(a3, 100)) == 24
    assert len(enumerate_group(d4, 1000)) == 192


def test_group_cap_exceeded(a2):
    with pytest.raises(CapExceededError):
        enumerate_group(a2, 3)


def test_group_refuses_nonfinite(kronecker):
    with pytest.raises(NonFiniteTypeError):
        enumerate_group(kronecker, 100)


def test_group_truncated_optin(kronecker):
    partial = enumerate_group(kronecker, 10, allow_truncated=True)
    assert len(partial) == 10


def test_nc_counts(a2, a3, a2_roots, a3_roots):
    c2 = coxeter_element(a2, (1, 2))
    assert len(noncrossing_partitions(c2, a2, roots=a2_roots)) == 5
    c3 = coxeter_element(a3, (1, 2, 3))
    assert len(noncrossing_partitions(c3, a3, roots=a3_roots)) == 14


@pytest.mark.parametrize("name", ["a3", "d4"])
def test_reflections_below_is_the_filter_by_absolute_leq(name, request):
    q = request.getfixturevalue(name)
    roots = request.getfixturevalue(f"{name}_roots")
    rng = random.Random(11)
    plain, seeded = generate_roots(q), generate_roots(q)  # fresh memos
    everything = roots.reflections()
    for w in sorted(enumerate_group(q), key=lambda w: w.matrix):
        expected = tuple(t for t in everything if absolute_leq(t.element, w, roots))
        assert reflections_below(w, plain) == expected
        superset = tuple(t for t in everything if t in expected or rng.random() < 0.5)
        assert reflections_below(w, seeded, superset) == expected


def _nc(name):
    q = DYNKIN_QUIVERS[name]
    roots = generate_roots(q)
    return q, roots, coxeter_element(q, topological_order(q))


@pytest.mark.parametrize("name", ["A3", "A4", "D4"])
def test_walk_equals_group_filter(name):
    q, roots, c = _nc(name)
    assert noncrossing_partitions(c, q, roots=roots) == nc_by_group_filter(
        c, q, generate_roots(q))


@st.composite
def oriented_dynkin(draw):
    """A random orientation of A4, D4 or A5 with a random admissible order."""
    name = draw(st.sampled_from(["A4", "D4", "A5"]))
    base = DYNKIN_QUIVERS[name]
    arrows = tuple((t, h) if draw(st.booleans()) else (h, t) for h, t in base.arrows)
    order: list[int] = []
    while len(order) < base.n:
        ready = [v for v in base.vertices if v not in order
                 and all(h in order for h, t in arrows if t == v)]
        order.append(draw(st.sampled_from(ready)))
    return name, Quiver(base.n, arrows), tuple(order)


@settings(max_examples=30, deadline=None)
@given(oriented_dynkin())
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
    monkeypatch.setattr("ncpq.weyl.DEFAULT_GROUP_CAP", 13)
    with pytest.raises(CapExceededError):
        noncrossing_partitions(c, a3, roots=generate_roots(a3))
    monkeypatch.setattr("ncpq.weyl.DEFAULT_GROUP_CAP", 14)
    assert len(noncrossing_partitions(c, a3, roots=generate_roots(a3))) == 14


def test_reflections_below_refuses_truncated_roots(kronecker):
    roots = generate_roots(kronecker, 5)
    with pytest.raises(NonFiniteTypeError):
        reflections_below(identity(2), roots)


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
