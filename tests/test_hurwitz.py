"""Tests for the braid graph `braid_edges`, and for the braid moves,
orbits and certificates of the oracles that it is checked against."""

from __future__ import annotations

import random

import pytest

from ncpq import (
    coxeter_element,
    generate_roots,
    identity,
    parse_quiver,
    simple_root,
    topological_order,
)
from ncpq.errors import CapExceededError, NcpqError, ValidationError
from ncpq.hurwitz import braid_edges
from ncpq.weyl import RootSystem

import oracles
from conftest import A3_TEXT, A4_TEXT, D4_TEXT, height_steps_with
from oracles import (
    DYNKIN_QUIVERS,
    FACTORIZATION_COUNTS,
    ReflectionTuple,
    braid_graph_by_two_way_moves,
    braid_orbit_by_full_products,
    hurwitz_move,
    hurwitz_orbit,
    minimal_reflection_factorizations,
    random_reflection_tuple_roots,
    replay_certificate,
    same_orbit,
    tuple_from_roots,
)


def test_move_a2_example(a2):
    t = tuple_from_roots(a2, ((1, 0), (0, 1)))
    moved = hurwitz_move(t, 1)
    assert moved.roots == ((0, 1), (1, 1))


def test_move_inverse_roundtrip(a3, a3_roots):
    rng = random.Random(31)
    for _ in range(20):
        roots = random_reflection_tuple_roots(rng, a3_roots, 3)
        t = tuple_from_roots(a3, roots)
        i = rng.randint(1, 2)
        assert hurwitz_move(hurwitz_move(t, i, inverse=True), i).roots == t.roots
        assert hurwitz_move(hurwitz_move(t, i), i, inverse=True).roots == t.roots


def test_move_index_out_of_range(a2):
    t = tuple_from_roots(a2, ((1, 0), (0, 1)))
    with pytest.raises(ValidationError):
        hurwitz_move(t, 2)
    with pytest.raises(ValidationError):
        hurwitz_move(t, 0)


def test_move_preserves_product(a3, a3_roots):
    rng = random.Random(37)
    for _ in range(30):
        roots = random_reflection_tuple_roots(rng, a3_roots, 4)
        t = tuple_from_roots(a3, roots)
        i = rng.randint(1, 3)
        inv = rng.random() < 0.5
        assert hurwitz_move(t, i, inv).product == t.product


def test_product_basics(a2):
    assert ReflectionTuple(a2, ()).product == identity(2)
    single = tuple_from_roots(a2, ((1, 1),))
    assert single.product == single.items[0].element
    pair = tuple_from_roots(a2, ((1, 0), (0, 1)))
    assert pair.product == coxeter_element(a2, (1, 2))


def test_braid_relation(a3, a3_roots):
    rng = random.Random(41)
    for _ in range(15):
        roots = random_reflection_tuple_roots(rng, a3_roots, 3)
        t = tuple_from_roots(a3, roots)
        lhs = hurwitz_move(hurwitz_move(hurwitz_move(t, 1), 2), 1)
        rhs = hurwitz_move(hurwitz_move(hurwitz_move(t, 2), 1), 2)
        assert lhs.roots == rhs.roots


def test_commuting_relation(d4, d4_roots):
    rng = random.Random(43)
    for _ in range(15):
        roots = random_reflection_tuple_roots(rng, d4_roots, 4)
        t = tuple_from_roots(d4, roots)
        assert hurwitz_move(hurwitz_move(t, 1), 3).roots == \
            hurwitz_move(hurwitz_move(t, 3), 1).roots


def test_orbit_a2(a2):
    t = tuple_from_roots(a2, ((1, 0), (0, 1)))
    orbit = hurwitz_orbit(t)
    assert len(orbit) == 3
    assert {u.roots for u in orbit} == {
        ((1, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 0))}


def test_orbit_singleton(a2):
    t = tuple_from_roots(a2, ((1, 1),))
    assert hurwitz_orbit(t) == {t}


def test_orbit_a3(a3):
    t = tuple_from_roots(a3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert len(hurwitz_orbit(t)) == 16


def test_orbit_cap(a3):
    t = tuple_from_roots(a3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(CapExceededError):
        hurwitz_orbit(t, cap=5)


def test_orbit_cap_boundary(a3):
    t = tuple_from_roots(a3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    orbit = hurwitz_orbit(t)
    assert hurwitz_orbit(t, cap=len(orbit)) == orbit
    with pytest.raises(CapExceededError):
        hurwitz_orbit(t, cap=len(orbit) - 1)


def test_orbit_edges_reject_an_open_set(a3):
    t = tuple_from_roots(a3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValidationError):
        braid_edges([t.roots], generate_roots(a3))


# `braid_edges` refuses a corrupted root system as a bug. On the simple
# roots of A3 its first move takes (a1, a2) to (a2, a1 + a2), so it finds
# a1 + a2 among the roots and steps by the reflections at a2 and a1 + a2.
A3_SIMPLES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_braid_edges_refuse_a_matrix_that_disagrees_with_its_root(a3_roots, monkeypatch):
    # s1's step at a1 + a2 makes the pair product a2·s1, not s1·s2.
    monkeypatch.setattr(RootSystem, "height_steps", height_steps_with((1, 1, 0), (1, 0, 0)))
    with pytest.raises(NcpqError, match="product"):
        braid_edges([A3_SIMPLES], a3_roots)


def test_braid_edges_refuse_a_moved_vector_that_is_not_a_root(a3, a3_roots):
    # A root system without a1 + a2 has no position for the first moved root.
    withheld = RootSystem(a3, a3_roots.positive_real_roots - {(1, 1, 0)}, False,
                          a3_roots.height_bound, a3_roots.classification)
    with pytest.raises(NcpqError, match="is not a root"):
        braid_edges([A3_SIMPLES], withheld)


def test_braid_edges_keys_tell_unequal_lengths_apart(a3_roots):
    # a3 is the first of the sorted roots, so it has the first digit, and
    # it commutes with a1: (a3, a1) and (a1, a3) are each other's forward
    # move. A digit of 0 for the first root would read one of them as
    # (a1,), whichever end of the key holds the first root, and () as (a3,).
    x, a = (1, 0, 0), (0, 0, 1)
    chains = [(x,), (a,), (a, x), (x, a), ()]
    assert braid_edges(chains, a3_roots) == [(2, 3)]


def test_braid_edges_refuse_a_moved_root_past_the_digits(a3_roots):
    # The six roots of A3 have the digits 1..6 in three bits: a3 1, a2 2,
    # a2 + a3 3, a1 4 and a1 + a2 5. The first move takes (a1, a2) to
    # (a2, a1 + a2), which is not listed. Every tuple (a2, r, a3) with r a
    # simple root is listed, so a digit that spilled into its neighbour or
    # was cut to a listed one would find one of them instead of leaving
    # the list. So is (a2 + a3, a1, a3): in two-bit digits the 4 of a1
    # spills onto the digit above, where 2 | 1 = 3 | 1, so digits a bit
    # short would read it and (a2, a1, a3) as one tuple listed twice.
    a1, a2, a3 = A3_SIMPLES
    chains = [(a1, a2, a3), ((0, 1, 1), a1, a3)] + [(a2, r, a3) for r in A3_SIMPLES]
    with pytest.raises(ValidationError, match="left the given sequence set"):
        braid_edges(chains, a3_roots)


def test_braid_edges_refuse_a_listed_root_outside_the_root_system(a3_roots):
    with pytest.raises(ValidationError, match="is not a known positive real root"):
        braid_edges([((1, 0, 1),)], a3_roots)


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "A5", "D4", "D5", "E6"])
def test_braid_edges_are_the_two_way_move_graph(name):
    # The package moves forward only; the oracle's table moves both ways,
    # and every inverse move undoes a forward one, so the graphs agree.
    q = DYNKIN_QUIVERS[name]
    start = tuple(simple_root(q.n, i) for i in topological_order(q))
    orbit, expected = braid_graph_by_two_way_moves(q, start)
    assert len(orbit) == FACTORIZATION_COUNTS[name]
    assert braid_edges(orbit, generate_roots(q)) == sorted(expected)


def test_replay_certificate_rejects_move_zero(a2):
    t = tuple_from_roots(a2, ((1, 0), (0, 1)))
    with pytest.raises(ValidationError):
        replay_certificate(t, [1, 0])


def test_same_orbit_reflexive(a2):
    t = tuple_from_roots(a2, ((1, 0), (0, 1)))
    ok, cert = same_orbit(t, t)
    assert ok and cert == []


def test_same_orbit_product_mismatch(a2):
    a = tuple_from_roots(a2, ((1, 0), (0, 1)))
    b = tuple_from_roots(a2, ((0, 1), (1, 0)))
    ok, cert = same_orbit(a, b)
    assert not ok and cert is None


def test_same_orbit_certificate_replays(a2):
    a = tuple_from_roots(a2, ((1, 0), (0, 1)))
    b = tuple_from_roots(a2, ((1, 1), (1, 0)))
    ok, cert = same_orbit(a, b)
    assert ok
    assert replay_certificate(a, cert).roots == b.roots


def test_same_orbit_length_mismatch(a2):
    a = tuple_from_roots(a2, ((1, 0), (0, 1)))
    b = tuple_from_roots(a2, ((1, 0),))
    with pytest.raises(ValidationError):
        same_orbit(a, b)


def test_same_orbit_refuses_tuples_over_two_quivers():
    # Both products are the identity, but s_1 acts differently on the two
    # orientations of A3, so equal roots do not make equal tuples.
    roots = ((1, 0, 0), (1, 0, 0))
    a = tuple_from_roots(parse_quiver(A3_TEXT), roots)
    b = tuple_from_roots(parse_quiver("vertices 3\narrow 1 3\narrow 3 2\n"), roots)
    assert a.product == b.product and a.items[0] != b.items[0]
    with pytest.raises(ValidationError):
        same_orbit(a, b)


def test_all_a2_coxeter_factorizations_one_orbit(a2):
    tuples = [tuple_from_roots(a2, r) for r in
              (((1, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (1, 0)))]
    for other in tuples[1:]:
        ok, cert = same_orbit(tuples[0], other)
        assert ok
        assert replay_certificate(tuples[0], cert).roots == other.roots


def test_same_orbit_certificates_reach_the_whole_d4_orbit(d4):
    start = tuple_from_roots(d4, tuple(simple_root(4, i) for i in topological_order(d4)))
    orbit = hurwitz_orbit(start)
    assert len(orbit) == 162
    for other in orbit:
        ok, cert = same_orbit(start, other)
        assert ok
        assert replay_certificate(start, cert).roots == other.roots


# From (s1, s2) on A2 the search meets the forward move at 1 first, then
# the inverse one: the regions searched hold the start and 1 or 2 more.
@pytest.mark.parametrize("goal, k", [(((0, 1), (1, 1)), 2), (((1, 1), (1, 0)), 3)])
def test_same_orbit_cap_boundary(a2, goal, k):
    a = tuple_from_roots(a2, ((1, 0), (0, 1)))
    b = tuple_from_roots(a2, goal)
    ok, cert = same_orbit(a, b, cap=k)
    assert ok and replay_certificate(a, cert).roots == goal
    with pytest.raises(CapExceededError):
        same_orbit(a, b, cap=k - 1)


def test_same_orbit_cap_boundary_off_the_orbit(a2):
    # (s1, s1, s2) and (s2, s2, s2) have the same product s2, but braid
    # moves keep the generated subgroup, so the search covers the whole
    # orbit of the first without reaching the second.
    a = tuple_from_roots(a2, ((1, 0), (1, 0), (0, 1)))
    b = tuple_from_roots(a2, ((0, 1), (0, 1), (0, 1)))
    k = len(hurwitz_orbit(a))
    assert k > 1
    assert same_orbit(a, b, cap=k) == (False, None)
    with pytest.raises(CapExceededError):
        same_orbit(a, b, cap=k - 1)


def test_corrupted_conjugate_is_caught(a3, monkeypatch):
    # A moved reflection comes from the table's root lookup, never from
    # conjugation, so a lookup whose matrix disagrees with the moved root
    # must fail the pair-product check. The goal holds s_3(a2) but not the
    # first new root s_2(a1), so the search has to look that one up.
    start = tuple_from_roots(a3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    other = hurwitz_move(start, 2)
    assert (1, 1, 0) not in other.roots
    honest = oracles.reflection_matrix

    def corrupted(q, root):
        return honest(q, (1, 0, 0))

    monkeypatch.setattr(oracles, "reflection_matrix", corrupted)
    with pytest.raises(NcpqError, match="product"):
        hurwitz_move(start, 1)
    with pytest.raises(NcpqError, match="product"):
        hurwitz_orbit(start)
    with pytest.raises(NcpqError, match="product"):
        same_orbit(start, other)


# The fixture orientations and one more of each type (a source or sink in
# the middle, an alternating path), then one A5 and one D5 orientation.
ORBIT_QUIVERS = {
    "a3": A3_TEXT,
    "a3_middle_source": "vertices 3\narrow 2 1\narrow 2 3\n",
    "a4": A4_TEXT,
    "a4_alternating": "vertices 4\narrow 1 2\narrow 3 2\narrow 3 4\n",
    "d4": D4_TEXT,
    "d4_central_source": "vertices 4\narrow 2 1\narrow 2 3\narrow 2 4\n",
    "a5_alternating": "vertices 5\narrow 2 1\narrow 2 3\narrow 4 3\narrow 4 5\n",
    "d5": "vertices 5\narrow 1 2\narrow 2 3\narrow 3 4\narrow 3 5\n",
}


@pytest.mark.parametrize("name", sorted(ORBIT_QUIVERS))
def test_orbit_matches_full_product_oracle(name):
    q = parse_quiver(ORBIT_QUIVERS[name])
    order = topological_order(q)
    start_roots = tuple(simple_root(q.n, i) for i in order)
    orbit = {t.roots for t in hurwitz_orbit(tuple_from_roots(q, start_roots))}
    assert braid_orbit_by_full_products(q, start_roots) == orbit
    assert orbit == minimal_reflection_factorizations(coxeter_element(q, order),
                                                      generate_roots(q))


@pytest.mark.parametrize("name", sorted(ORBIT_QUIVERS))
def test_orbit_edges_match_single_moves(name):
    # The package's table moves forward only. Every inverse move of the
    # oracle's two-way table reverses an edge it drew, so dropping the
    # inverse direction loses no edge.
    q = parse_quiver(ORBIT_QUIVERS[name])
    start = tuple(simple_root(q.n, i) for i in topological_order(q))
    ordered = sorted(hurwitz_orbit(tuple_from_roots(q, start)), key=lambda t: t.roots)
    ids = {t.roots: k for k, t in enumerate(ordered)}
    expected = set()
    for k, t in enumerate(ordered):
        for i in range(1, q.n):
            j = ids[hurwitz_move(t, i).roots]
            if j != k:
                expected.add((min(j, k), max(j, k)))
    edges = braid_edges([t.roots for t in ordered], generate_roots(q))
    assert edges == sorted(expected)
    for k, t in enumerate(ordered):
        for i in range(1, q.n):
            j = ids[hurwitz_move(t, i, inverse=True).roots]
            assert j == k or (min(j, k), max(j, k)) in edges
