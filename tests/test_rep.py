"""Tests for explicit representations: construction by reflection
transport, Hom/Ext solving, tops, and the registry certificates."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from ncpq import (
    IndecRegistry,
    Representation,
    build_registry,
    ext_dim,
    euler_form,
    generate_roots,
    hom_dim,
    indecomposable_for_root,
    is_exceptional,
    parse_quiver,
    top_simples,
)
from ncpq import rep
from ncpq.errors import NonFiniteTypeError, ValidationError
from ncpq.quiver import Quiver
from ncpq.rep import _intertwiner_rows, hom_basis, simple_representation, zero_representation
from ncpq.weyl import complete_roots

from conftest import D4_TEXT
from oracles import (DYNKIN_QUIVERS, ext_dim_via_resolution, indecomposable_by_own_walk,
                     oriented_dynkin, rref_nullspace)

ONE = ((Fraction(1),),)


def test_simple_reps(a2):
    s1 = simple_representation(a2, 1)
    assert s1.dims == (1, 0)
    assert s1.maps == ((),)  # 0x1 matrix
    s2 = simple_representation(a2, 2)
    assert s2.dims == (0, 1)
    assert s2.maps == (((),),)  # 1x0 matrix


def test_indecomposable_simple_root(a3, a3_roots):
    rep = indecomposable_for_root(a3, (0, 1, 0), a3_roots)
    assert rep == simple_representation(a3, 2)


def test_indecomposable_a2(a2, a2_roots):
    rep = indecomposable_for_root(a2, (1, 1), a2_roots)
    assert rep.dims == (1, 1)
    assert rep.maps == (ONE,)
    assert hom_dim(rep, rep) == 1


def test_indecomposable_a3_highest(a3, a3_roots):
    rep = indecomposable_for_root(a3, (1, 1, 1), a3_roots)
    assert rep.dims == (1, 1, 1)
    assert rep.maps == (ONE, ONE)
    assert hom_dim(rep, rep) == 1


def test_indecomposable_rejects_non_root(a2, a2_roots):
    with pytest.raises(ValidationError):
        indecomposable_for_root(a2, (2, 1), a2_roots)


def test_indecomposable_rejects_nonfinite(kronecker):
    with pytest.raises(NonFiniteTypeError):
        indecomposable_for_root(kronecker, (1, 1))


def test_hom_dim_simples(a2, a2_reg):
    s1, s2 = simple_representation(a2, 1), simple_representation(a2, 2)
    assert hom_dim(s1, s1) == 1
    assert hom_dim(s1, s2) == 0
    assert hom_dim(s2, s1) == 0
    p1 = a2_reg[(1, 1)]
    assert hom_dim(p1, s1) == 1


def test_hom_dim_quiver_mismatch(a2, a3):
    with pytest.raises(ValidationError):
        hom_dim(simple_representation(a2, 1), simple_representation(a3, 1))


def test_ext_dims_a2(a2, a2_reg):
    s1, s2 = a2_reg[(1, 0)], a2_reg[(0, 1)]
    # the arrow runs 1 -> 2, so the only extension glues S1 on top of S2
    assert euler_form(a2, (1, 0), (0, 1)) == -1
    assert ext_dim(s1, s2) == 1
    assert ext_dim(s2, s1) == 0
    assert ext_dim(s1, s1) == 0


def test_registry_self_certificates(a2_reg, a3_reg, a4_reg, d4_reg):
    for reg in (a2_reg, a3_reg, a4_reg, d4_reg):
        for root in reg.roots():
            assert reg.hom(root, root) == 1
            assert reg.ext(root, root) == 0


def test_registry_sizes(a2_reg, a3_reg, a4_reg, d4_reg):
    assert len(a2_reg) == 3
    assert len(a3_reg) == 6
    assert len(a4_reg) == 10
    assert len(d4_reg) == 12


def test_is_exceptional(a2, a2_reg):
    for root in a2_reg.roots():
        assert is_exceptional(a2_reg[root])
    assert not is_exceptional(zero_representation(a2))
    double = Representation(a2, (2, 0), (_zero(0, 2),))
    assert hom_dim(double, double) == 4
    assert not is_exceptional(double)


def _zero(rows, cols):
    return tuple(tuple(Fraction(0) for _ in range(cols)) for _ in range(rows))


def test_top_simples(a2, a2_reg, a3_reg, d4_reg):
    assert top_simples(simple_representation(a2, 1)) == {1}
    assert top_simples(a2_reg[(1, 1)]) == {1}
    # projectives have simple top at their own vertex
    for reg, projectives in (
        (a3_reg, {1: (1, 1, 1), 2: (0, 1, 1), 3: (0, 0, 1)}),
        (d4_reg, {1: (1, 1, 0, 0), 2: (0, 1, 0, 0), 3: (0, 1, 1, 0), 4: (0, 1, 0, 1)}),
    ):
        for vertex, root in projectives.items():
            assert top_simples(reg[root]) == {vertex}
    assert top_simples(zero_representation(a2)) == frozenset()


def test_euler_identity_all_pairs(a2, a3, a2_reg, a3_reg):
    for q, reg in ((a2, a2_reg), (a3, a3_reg)):
        for a in reg.roots():
            for b in reg.roots():
                M, N = reg[a], reg[b]
                assert hom_dim(M, N) - ext_dim(M, N) == euler_form(q, a, b)
                assert ext_dim(M, N) == ext_dim_via_resolution(M, N)


def test_registry_build_deterministic(a3, a3_roots):
    first = build_registry(a3, a3_roots)
    second = build_registry(a3, a3_roots)
    for root in first.roots():
        assert first[root] == second[root]


def test_registry_rejects_nonfinite(kronecker):
    with pytest.raises(NonFiniteTypeError):
        build_registry(kronecker)


def test_registry_refuses_truncated_finite_roots(a3):
    with pytest.raises(NonFiniteTypeError, match="height <= 2"):
        build_registry(a3, generate_roots(a3, 2))


def test_registry_unknown_root(a2_reg):
    with pytest.raises(ValidationError):
        a2_reg[(5, 5)]


def test_injective_hom_scan(a2_reg):
    assert a2_reg.has_injective_hom((0, 1), (1, 1))  # S2 embeds into P1
    assert not a2_reg.has_injective_hom((1, 0), (1, 1))  # hom(S1, P1) = 0
    assert not a2_reg.has_injective_hom((1, 1), (1, 0))  # dims forbid it


def _assert_hom_and_ext_are_the_parts_of_the_euler_form(q):
    # Dynkin path algebras are representation-directed (Ringel 1984). Between
    # indecomposables X and Y, Hom(X, Y) != 0 and Ext(X, Y) = D Hom(Y, tau X)
    # != 0 would close a cycle X -> Y -> tau X -> X, so one of them is 0.
    # The registry reads both off the form; `hom_dim` and `ext_dim` rank.
    reg = build_registry(q)
    for a in reg.roots():
        for b in reg.roots():
            form = euler_form(q, a, b)
            M, N = reg[a], reg[b]
            assert reg.hom(a, b) == hom_dim(M, N) == max(form, 0)
            assert reg.ext(a, b) == ext_dim(M, N) == max(-form, 0)


@pytest.mark.parametrize("label", list(DYNKIN_QUIVERS))
def test_hom_and_ext_are_the_parts_of_the_euler_form(label):
    _assert_hom_and_ext_are_the_parts_of_the_euler_form(DYNKIN_QUIVERS[label])


@settings(max_examples=20, deadline=None)
@given(oriented_dynkin(["A3", "A4", "A5", "D4", "D5", "E6"]))
def test_hom_and_ext_are_the_parts_of_the_euler_form_on_random_orientations(drawn):
    _, q, _ = drawn
    _assert_hom_and_ext_are_the_parts_of_the_euler_form(q)


def test_e7_registry_maps_have_integer_unit_entries():
    reg = build_registry(DYNKIN_QUIVERS["E7"])
    entries = [x for a in reg.roots() for m in reg[a].maps for row in m for x in row]
    assert set(entries) == {-1, 0, 1}
    assert all(type(x) is int for x in entries)


# sha256 of every registry module's `to_debug_json`, keyed by its root,
# as sorted-key JSON. Pinned from the registry built with rational
# Gauss-Jordan left kernels, so the integer kernels keep every basis.
REGISTRY_DIGESTS = {
    "A4": "c30a043f17fe7614dfd9fb8a0d488be15178d92b7f8a832c3d00a0194c7df305",
    "A5": "f17aba32bcf71bb34ae468cc77a46a3f5f20c9beb80f4e690b04161f28add413",
    "D4": "6b86273a97d579aa4ed24ea737ef18ad9e109c31bbe807f8d9f6639ba2e3a5ef",
    "D5": "0f90af6316a33fce40fd009ac7cbb8537bbd52e97404cd06fb71fbab2a3fe8c4",
    "E6": "a69ecbced5f723fbae1c4bef86863237be58fa5cb3402d885118dbecb656814e",
    "E7": "8ee7e4e8b9ff6a71273d45e6e4b71b3903621d85923774d32b4370dae00bd9bb",
    "E8": "6ca93350be4b51b16cbf9a87841fb4013b378197ddedd77c3b628174e5e4943f",
}


@pytest.mark.parametrize("label", sorted(REGISTRY_DIGESTS))
def test_registry_debug_json_is_pinned(label):
    reg = build_registry(DYNKIN_QUIVERS[label])
    payload = {str(list(a)): reg[a].to_debug_json() for a in reg.roots()}
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REGISTRY_DIGESTS[label]


def _assert_registry_is_the_own_walk(q):
    reg = build_registry(q)
    for alpha in reg.roots():
        own = indecomposable_by_own_walk(q, alpha, reg.rootsystem)
        assert reg[alpha].quiver == own.quiver == q
        assert reg[alpha].maps == own.maps


@pytest.mark.parametrize("label", sorted(DYNKIN_QUIVERS))
def test_registry_is_each_roots_own_walk(label):
    _assert_registry_is_the_own_walk(DYNKIN_QUIVERS[label])


@settings(max_examples=20, deadline=None)
@given(oriented_dynkin(["A3", "A4", "A5", "D4", "D5", "E6"]))
def test_registry_is_each_roots_own_walk_on_random_orientations(drawn):
    _, q, _ = drawn
    _assert_registry_is_the_own_walk(q)


def test_indecomposable_for_root_is_the_registry_entry(d4_reg):
    for alpha in d4_reg.roots():
        assert indecomposable_for_root(d4_reg.quiver, alpha, d4_reg.rootsystem) == d4_reg[alpha]


# Cokernel steps of one registry build on E7 and E8. Walking every root on
# its own, as `indecomposable_by_own_walk` does, takes 1,622 and 6,375.
TRANSPORT_STEPS = {"E7": 369, "E8": 866}


@pytest.mark.parametrize("label", sorted(DYNKIN_QUIVERS))
def test_registry_makes_one_cokernel_step_per_level_and_root_at_most(label, monkeypatch):
    q = DYNKIN_QUIVERS[label]
    steps = []
    real = rep._source_cokernel_step

    def counted(r, level):
        steps.append(level)
        return real(r, level)

    monkeypatch.setattr(rep, "_source_cokernel_step", counted)
    reg = build_registry(q)
    assert len(steps) <= q.n * len(reg)
    if label in TRANSPORT_STEPS:
        assert len(steps) == TRANSPORT_STEPS[label]


@pytest.mark.parametrize("label", ["E7", "E8"])
def test_registry_builds_one_quiver_per_level_at_most(label, monkeypatch):
    # The transport reflects q once per level and builds every module on
    # those n quivers. A cokernel step that made its own quiver would make
    # one per step, as many as TRANSPORT_STEPS counts.
    q = DYNKIN_QUIVERS[label]
    roots = complete_roots(q)
    made = 0
    real = Quiver.__post_init__

    def counted(self):
        nonlocal made
        made += 1
        real(self)

    monkeypatch.setattr(Quiver, "__post_init__", counted)
    reg = build_registry(q, roots)
    assert len(reg) == len(roots.positive_real_roots)
    assert 0 < made <= q.n + 1


def test_hom_basis_is_the_integer_kernel_of_the_intertwiners(d4_reg):
    # Integral modules and their rational rescalings: each basis is integral,
    # of size dim Hom, and vector by vector a positive multiple of the
    # rational reduced-echelon nullspace of the intertwiner equations.
    modules = [d4_reg[a] for a in d4_reg.roots()]
    modules += [_rescaled(M) for M in modules[::3]]
    for M in modules:
        for N in modules:
            basis = hom_basis(M, N)
            assert len(basis) == hom_dim(M, N)
            rows, total, offsets = _intertwiner_rows(M, N)
            oracle = rref_nullspace(rows, total) if total else []
            for maps, w in zip(basis, oracle):
                v = [x for block in maps for row in block for x in row]
                assert all(type(x) is int for x in v)
                scale = next(x / y for x, y in zip(v, w) if y)
                assert scale > 0 and all(x == scale * y for x, y in zip(v, w))


def test_representation_keeps_integral_entries_as_ints(a2):
    integral = Representation(a2, (1, 1), (((Fraction(4, 2),),),))
    assert integral.maps == (((2,),),) and type(integral.maps[0][0][0]) is int
    rational = Representation(a2, (1, 1), (((Fraction(1, 2),),),))
    assert rational.maps[0][0][0] == Fraction(1, 2)
    assert rational.to_debug_json() == {"dims": [1, 1], "denominator": 2, "maps": [[[1]]]}
    assert hom_dim(integral, rational) == hom_dim(rational, integral) == 1


def test_zero_representation_homs(a2):
    z = zero_representation(a2)
    s1 = simple_representation(a2, 1)
    assert hom_dim(z, z) == 0
    assert hom_dim(z, s1) == 0
    assert ext_dim(z, s1) == 0


def test_debug_json(a2_reg):
    payload = a2_reg[(1, 1)].to_debug_json()
    assert payload == {"dims": [1, 1], "denominator": 1, "maps": [[[1]]]}


def _rescaled(M: Representation) -> Representation:
    """M in a rational basis: vertex i scaled by 1/(i+1), so the map of
    arrow h -> t gets the factor (h+1)/(t+1). Isomorphic to M."""
    q = M.quiver
    maps = tuple(
        tuple(tuple(x * Fraction(h + 1, t + 1) for x in row) for row in m)
        for (h, t), m in zip(q.arrows, M.maps))
    return Representation(q, M.dims, maps)


def test_hom_ext_invariant_under_rational_change_of_basis(d4_reg):
    rescaled = {a: _rescaled(d4_reg[a]) for a in d4_reg.roots()}
    assert any(x.denominator > 1 for M in rescaled.values()
               for m in M.maps for row in m for x in row)
    for a in d4_reg.roots():
        payload = rescaled[a].to_debug_json()
        for m, ints in zip(rescaled[a].maps, payload["maps"]):
            assert [[Fraction(x, payload["denominator"]) for x in row] for row in ints] \
                == [list(row) for row in m]
        for b in d4_reg.roots():
            M, N = rescaled[a], rescaled[b]
            assert hom_dim(M, N) == hom_dim(M, d4_reg[b]) == d4_reg.hom(a, b)
            assert ext_dim(M, N) == d4_reg.ext(a, b) == ext_dim_via_resolution(M, N)


def test_build_registry_fills_only_the_diagonal(monkeypatch):
    # Building ranks each entry against itself, its certificate End = k,
    # once per root, and makes no per-root mask and no Euler table.
    real = rep.hom_dim
    calls = []
    monkeypatch.setattr(rep, "hom_dim", lambda m, n: calls.append((m.dims, n.dims)) or real(m, n))
    reg = build_registry(parse_quiver(D4_TEXT))
    assert calls == [(r, r) for r in reg.roots()]
    assert "maps_into_at" not in vars(reg)
    assert "euler" not in vars(reg.rootsystem)


@pytest.mark.parametrize("label", [k for k in DYNKIN_QUIVERS if k != "E8"])
def test_per_root_sets_match_their_rank_every_pair_definitions(label):
    # The screen against the definitions, every pair ranked by `hom_dim`
    # and `ext_dim` themselves, not through the registry.
    reg = build_registry(DYNKIN_QUIVERS[label])
    roots = reg.roots()
    hom = {(a, m): hom_dim(reg[a], reg[m]) for a in roots for m in roots}
    ext = {(a, m): ext_dim(reg[a], reg[m]) for a in roots for m in roots}

    def as_set(mask):
        return frozenset(reg.roots_of(mask))

    orth, left_orth = reg.rootsystem.orth, reg.rootsystem.left_orth
    for k, a in enumerate(roots):
        assert as_set(orth[k]) == {m for m in roots if hom[a, m] == ext[a, m] == 0}
        assert as_set(left_orth[k]) == {m for m in roots if hom[m, a] == ext[m, a] == 0}
        assert as_set(reg.maps_into_at[k]) == {x for x in roots if hom[x, a] != 0
                                               and not all(xi >= ai for xi, ai in zip(x, a))}


def test_right_orth_ranks_only_where_the_euler_form_is_zero(monkeypatch):
    # The 1323 pairs where the form is 0 are the ones the registry's
    # `right_orth` ranked before it read Hom off the form; its successor,
    # the root system's `orth`, ranks none of them.
    q = DYNKIN_QUIVERS["E7"]
    reg = build_registry(q)
    zero = sum(euler_form(q, a, m) == 0 for a in reg.roots() for m in reg.roots())
    assert zero == 1323
    calls = []
    real = rep.hom_dim

    def counted(M, N):
        calls.append((M.dims, N.dims))
        return real(M, N)

    monkeypatch.setattr(rep, "hom_dim", counted)
    assert sum(reg.rootsystem.orth[reg.position(a)].bit_count() for a in reg.roots()) == zero
    assert calls == []


def test_root_masks_number_the_roots_as_the_reflections(d4_reg):
    # Bit k names the k-th root on both sides of the bijection: the
    # registry's and the root system's reflections.
    roots = d4_reg.roots()
    assert roots == tuple(t.root for t in d4_reg.rootsystem.reflections())
    assert [d4_reg.mask_of([r]) for r in roots] == [1 << k for k in range(len(roots))]
    assert d4_reg.roots_of(d4_reg.mask_of(reversed(roots))) == roots
    assert d4_reg.mask_of([roots[3], roots[3]]) == 8 and d4_reg.roots_of(0) == ()
    with pytest.raises(ValidationError):
        d4_reg.mask_of([roots[0], (1, 0, 0, 1)])


def test_registry_refuses_modules_that_miss_a_root(d4_reg):
    reps = {r: d4_reg[r] for r in d4_reg.roots()[1:]}
    with pytest.raises(ValidationError):
        IndecRegistry(d4_reg.quiver, d4_reg.rootsystem, reps)


PER_ROOT_TABLES = {
    "right_orth": lambda reg: reg.rootsystem.orth,
    "left_orth": lambda reg: reg.rootsystem.left_orth,
    "maps_into": lambda reg: reg.maps_into_at,
}


@pytest.mark.parametrize("method", sorted(PER_ROOT_TABLES))
def test_per_root_sets_refuse_a_non_root(method, d4_reg):
    # Vertices 1 and 4 both hang off the centre 2, so (1, 0, 0, 1) is no
    # root: each table holds one row per root, and the position that
    # indexes it has none for (1, 0, 0, 1).
    table = PER_ROOT_TABLES[method](d4_reg)
    assert len(table) == len(d4_reg)
    with pytest.raises(ValidationError):
        table[d4_reg.position((1, 0, 0, 1))]


def test_registry_refuses_the_roots_of_another_orientation():
    # 1 -> 2 and 2 -> 1 have the same roots and Cartan matrix, so the
    # transport and the End = k certificate pass on either; but Hom and
    # Ext are read off the root system's Euler form. On the roots of
    # 2 -> 1 the registry of 1 -> 2 would read Hom(S2, P1) = 0, where
    # hom_dim reads 1, and Ext(S2, S1) = 1, where ext_dim reads 0.
    q, other = Quiver(2, ((1, 2),)), Quiver(2, ((2, 1),))
    roots = generate_roots(other)
    assert roots.positive_real_roots == generate_roots(q).positive_real_roots
    own = build_registry(q)
    assert own.hom((0, 1), (1, 1)) == hom_dim(own[(0, 1)], own[(1, 1)]) == 1
    assert own.ext((0, 1), (1, 0)) == ext_dim(own[(0, 1)], own[(1, 0)]) == 0
    with pytest.raises(ValidationError, match="another quiver"):
        build_registry(q, roots)
    with pytest.raises(ValidationError, match="another quiver"):
        IndecRegistry(q, roots, {r: own[r] for r in own.roots()})


def test_registry_refuses_the_roots_of_another_orientation_before_the_transport(monkeypatch):
    def transport(*args):
        pytest.fail("the transport ran on the roots of another orientation")

    monkeypatch.setattr(rep, "_transport", transport)
    with pytest.raises(ValidationError, match="another quiver"):
        build_registry(Quiver(2, ((1, 2),)), generate_roots(Quiver(2, ((2, 1),))))


@pytest.mark.parametrize("method", ["hom", "ext"])
def test_hom_and_ext_refuse_a_non_root(method, d4_reg):
    root = d4_reg.roots()[0]
    for a, b in (((1, 0, 0, 1), root), (root, (1, 0, 0, 1))):
        with pytest.raises(ValidationError, match=r"^\(1, 0, 0, 1\) is not a registered root$"):
            getattr(d4_reg, method)(a, b)
