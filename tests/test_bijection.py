"""Tests for the subcategory-to-group-element map and its verification."""

from __future__ import annotations

import json

import pytest

import ncpq.bijection
from ncpq import (
    absolute_leq,
    BijectionReport,
    ExcSequence,
    cox,
    coxeter_element,
    enumerate_complete_sequences,
    enumerate_exceptional_antichains,
    enumerate_group,
    factor_in_reflections,
    identity,
    is_exceptional_sequence,
    make_reflection,
    minimal_reflection_factorizations,
    noncrossing_partitions,
    thick_closure,
    topological_order,
    tuple_from_roots,
    verify_bijection,
    verify_well_defined,
)
from ncpq.bijection import _sequences_within
from ncpq.errors import NonFiniteTypeError, ValidationError
from ncpq.exc import order_antichain
from ncpq.hurwitz import hurwitz_orbit

from oracles import bfs_absolute_lengths, brute_force_factorizations

S1, S2, P1 = (1, 0), (0, 1), (1, 1)


def _full_subcategory(reg):
    antichain = frozenset(
        (tuple(1 if k == i else 0 for k in range(reg.quiver.n)))
        for i in range(reg.quiver.n))
    return thick_closure(ExcSequence(order_antichain(antichain, reg)), reg)


@pytest.mark.parametrize("name", ["a2", "a3", "d4"])
def test_cox_zero_subcategory(name, request):
    reg = request.getfixturevalue(f"{name}_reg")
    roots = request.getfixturevalue(f"{name}_roots")
    sub = thick_closure(ExcSequence(()), reg)
    assert cox(sub, reg, roots) == identity(reg.quiver.n)


@pytest.mark.parametrize("name,order", [("a2", (1, 2)), ("a3", (1, 2, 3)),
                                        ("d4", (1, 3, 4, 2))])
def test_cox_full_category_is_coxeter(name, order, request):
    q = request.getfixturevalue(name)
    reg = request.getfixturevalue(f"{name}_reg")
    roots = request.getfixturevalue(f"{name}_roots")
    sub = _full_subcategory(reg)
    assert cox(sub, reg, roots) == coxeter_element(q, order)


def test_cox_singleton(a2, a2_reg, a2_roots):
    sub = thick_closure(ExcSequence((S1,)), a2_reg)
    assert cox(sub, a2_reg, a2_roots) == make_reflection(a2, S1).element


def test_well_defined_full_a2(a2_reg, a2_roots):
    sub = _full_subcategory(a2_reg)
    assert len(_sequences_within(sub, a2_reg)) == 3
    assert verify_well_defined(sub, a2_reg, a2_roots)


def test_well_defined_rank_one(a2_reg, a2_roots):
    sub = thick_closure(ExcSequence((P1,)), a2_reg)
    assert len(_sequences_within(sub, a2_reg)) == 1
    assert verify_well_defined(sub, a2_reg, a2_roots)


def test_well_defined_full_a3(a3_reg, a3_roots):
    sub = _full_subcategory(a3_reg)
    assert len(_sequences_within(sub, a3_reg)) == 16
    assert verify_well_defined(sub, a3_reg, a3_roots)


def test_factor_identity(a2_reg, a2_roots):
    assert factor_in_reflections(identity(2), a2_roots, a2_reg).roots == ()


def test_factor_reflection(a2, a2_reg, a2_roots):
    refl = make_reflection(a2, P1)
    assert factor_in_reflections(refl.element, a2_roots, a2_reg).roots == (P1,)


def test_factor_coxeter(a2, a2_reg, a2_roots):
    c = coxeter_element(a2, (1, 2))
    result = factor_in_reflections(c, a2_roots, a2_reg)
    assert len(result) == 2
    assert result.product == c
    # deterministic first find under lexicographic expansion
    assert result.roots == ((0, 1), (1, 1))


@pytest.mark.parametrize("name", ["a3", "d4"])
def test_factor_is_smallest_minimal_factorization(name, request):
    q = request.getfixturevalue(name)
    roots = request.getfixturevalue(f"{name}_roots")
    reg = request.getfixturevalue(f"{name}_reg")
    lengths = bfs_absolute_lengths(roots)
    c = coxeter_element(q, topological_order(q))
    for w in noncrossing_partitions(c, q, roots=roots):
        brute = brute_force_factorizations(roots, w.matrix, lengths[w.matrix])
        assert factor_in_reflections(w, roots, reg).roots == min(brute)


def test_minimal_factorizations_match_brute_force(a2, a2_roots):
    c = coxeter_element(a2, (1, 2))
    ours = minimal_reflection_factorizations(c, a2_roots)
    brute = brute_force_factorizations(a2_roots, c.matrix, 2)
    assert ours == brute
    assert len(ours) == 3


def test_factorizations_give_exceptional_sequences(a3, a3_reg, a3_roots):
    c = coxeter_element(a3, (1, 2, 3))
    for roots_tuple in minimal_reflection_factorizations(c, a3_roots):
        assert is_exceptional_sequence(roots_tuple, a3_reg)


def test_verify_bijection_a2(a2):
    report = verify_bijection(a2, quiver_id="a2")
    assert report.counts["subcategories"] == 5
    assert report.counts["nc"] == 5
    assert report.all_ok
    assert report.failures == []


def test_verify_bijection_a3(a3):
    report = verify_bijection(a3)
    assert report.counts["subcategories"] == 14
    assert report.counts["nc"] == 14
    assert report.all_ok


def test_verify_bijection_custom_order(a3):
    report = verify_bijection(a3, (1, 2, 3))
    assert report.all_ok
    with pytest.raises(ValidationError):
        verify_bijection(a3, (3, 2, 1))


def test_verify_bijection_rejects_nonfinite(kronecker):
    with pytest.raises(NonFiniteTypeError):
        verify_bijection(kronecker)


def test_report_round_trips(a2):
    report = verify_bijection(a2, quiver_id="a2")
    data = json.loads(json.dumps(report.to_dict()))
    assert BijectionReport.from_dict(data) == report


def test_cap_exceeded_partial_report(a3, monkeypatch):
    monkeypatch.setattr("ncpq.weyl.DEFAULT_GROUP_CAP", 5)
    report = verify_bijection(a3)
    assert any(f["kind"] == "cap_exceeded" for f in report.failures)
    assert not report.all_ok


def test_order_check_is_exact_for_an_image_outside_the_interval(a3, a3_reg, a3_roots,
                                                               monkeypatch):
    # A corrupted cox sends the zero subcategory to an element outside
    # [1, c]. Its down-set comes from a walk of its own, so every pair of
    # the order check must still get the truth value of absolute_leq.
    c = coxeter_element(a3, (1, 2, 3))
    interval = noncrossing_partitions(c, a3, roots=a3_roots)
    outside = min((w for w in enumerate_group(a3) if w not in interval),
                  key=lambda w: w.matrix)
    real_cox = ncpq.bijection.cox

    def corrupted(sub, reg, roots):
        value = real_cox(sub, reg, roots)
        return outside if value == identity(3) else value

    monkeypatch.setattr("ncpq.bijection.cox", corrupted)
    report = verify_bijection(a3, (1, 2, 3))
    assert {"image_outside_interval", "surjectivity"} <= {f["kind"] for f in report.failures}
    antichains = sorted(enumerate_exceptional_antichains(a3, a3_reg),
                        key=lambda a: tuple(sorted(a)))
    subs = [thick_closure(ExcSequence(order_antichain(a, a3_reg)), a3_reg) for a in antichains]
    values = [corrupted(sub, a3_reg, a3_roots) for sub in subs]
    expected = []
    for sub_a, val_a in zip(subs, values):
        for sub_b, val_b in zip(subs, values):
            contained = sub_a.ind_roots <= sub_b.ind_roots
            if contained != absolute_leq(val_a, val_b, a3_roots):
                expected.append((sub_a.to_json(), sub_b.to_json(),
                                 "forward" if contained else "backward"))
    got = [(f["subcategory_a"], f["subcategory_b"], f["direction"])
           for f in report.failures if f["kind"] == "order_preservation"]
    assert expected and got == expected


def test_image_lands_in_interval(a3, a3_reg, a3_roots):
    c = coxeter_element(a3, (1, 2, 3))
    interval = noncrossing_partitions(c, a3, roots=a3_roots)
    matrices = {w.matrix for w in interval}
    for antichain in enumerate_exceptional_antichains(a3, a3_reg):
        sub = thick_closure(ExcSequence(order_antichain(antichain, a3_reg)), a3_reg)
        assert cox(sub, a3_reg, a3_roots).matrix in matrices


def test_interval_factorizations_single_orbit_per_element(a3, a3_reg, a3_roots):
    # every element below the Coxeter element has all of its minimal
    # factorizations in one braid orbit
    c = coxeter_element(a3, (1, 2, 3))
    for w in noncrossing_partitions(c, a3, roots=a3_roots):
        factorizations = sorted(minimal_reflection_factorizations(w, a3_roots))
        if not factorizations:
            continue
        orbit = {t.roots for t in
                 hurwitz_orbit(tuple_from_roots(a3, factorizations[0]))}
        assert set(factorizations) == orbit


def test_complete_sequence_count_equals_factorization_count(a3, a3_reg, a3_roots):
    c = coxeter_element(a3, (1, 2, 3))
    seqs = enumerate_complete_sequences(a3, a3_reg)
    facts = minimal_reflection_factorizations(c, a3_roots)
    assert len(seqs) == len(facts) == 16
