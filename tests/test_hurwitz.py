"""Tests for braid moves on reflection tuples, orbits, and certificates."""

from __future__ import annotations

import random

import pytest

import ncpq.hurwitz
from ncpq import (
    Reflection,
    ReflectionTuple,
    coxeter_element,
    generate_roots,
    hurwitz_move,
    hurwitz_orbit,
    identity,
    parse_quiver,
    same_orbit,
    simple_root,
    topological_order,
    tuple_from_roots,
)
from ncpq.errors import CapExceededError, NcpqError, ValidationError
from ncpq.hurwitz import orbit_edges, replay_certificate
from ncpq.weyl import positive_representative

from conftest import A3_TEXT, A4_TEXT, D4_TEXT
from oracles import (
    braid_orbit_by_full_products,
    minimal_reflection_factorizations,
    random_reflection_tuple_roots,
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
    assert ReflectionTuple(2, ()).product == identity(2)
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


def test_orbit_edges_match_single_moves(a3):
    ordered = sorted(hurwitz_orbit(tuple_from_roots(a3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))),
                     key=lambda t: t.roots)
    ids = {t.roots: k for k, t in enumerate(ordered)}
    expected = set()
    for k, t in enumerate(ordered):
        for i in (1, 2):
            j = ids[hurwitz_move(t, i).roots]
            if j != k:
                expected.add((min(j, k), max(j, k)))
    assert orbit_edges(ordered) == expected


def test_orbit_edges_reject_an_open_set(a3):
    t = tuple_from_roots(a3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValidationError):
        orbit_edges([t])


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
    start = tuple_from_roots(a3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    other = hurwitz_move(start, 1)

    def unconjugated(by, r):
        return Reflection(positive_representative(by.element(r.root)), r.element)

    monkeypatch.setattr(ncpq.hurwitz, "_conjugate", unconjugated)
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
