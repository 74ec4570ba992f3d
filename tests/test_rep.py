"""Tests for explicit representations: construction by reflection
transport, Hom/Ext solving, tops, and the registry certificates."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from ncpq import (
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
from ncpq.errors import NonFiniteTypeError, ValidationError
from ncpq.rep import _intertwiner_rows, hom_basis, simple_representation, zero_representation

from conftest import D4_TEXT
from oracles import DYNKIN_QUIVERS, ext_dim_via_resolution, rref_nullspace

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


@pytest.mark.parametrize("label", ["A4", "D5", "E6"])
def test_hom_and_ext_are_the_parts_of_the_euler_form(label):
    # Dynkin path algebras are representation-directed (Ringel 1984). Between
    # indecomposables X and Y, Hom(X, Y) != 0 and Ext(X, Y) = D Hom(Y, tau X)
    # != 0 would close a cycle X -> Y -> tau X -> X, so one of them is 0.
    q = DYNKIN_QUIVERS[label]
    reg = build_registry(q)
    for a in reg.roots():
        for b in reg.roots():
            form = euler_form(q, a, b)
            assert reg.hom(a, b) == max(form, 0)
            assert reg.ext(a, b) == max(-form, 0)


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
}


@pytest.mark.parametrize("label", sorted(REGISTRY_DIGESTS))
def test_registry_debug_json_is_pinned(label):
    reg = build_registry(DYNKIN_QUIVERS[label])
    payload = {str(list(a)): reg[a].to_debug_json() for a in reg.roots()}
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REGISTRY_DIGESTS[label]


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


def test_build_registry_fills_only_the_diagonal():
    # The Hom table stays lazy: building certifies each entry against itself.
    reg = build_registry(parse_quiver(D4_TEXT))
    diagonal = {(r, r) for r in reg.roots()}
    assert set(reg._hom) == diagonal
    assert set(reg._ext) == diagonal
    assert not reg._right_orth and not reg._left_orth
