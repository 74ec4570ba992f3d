"""Tests for the subcategory-to-group-element map and its verification."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

import ncpq.bijection
import ncpq.cli
import ncpq.rep
from ncpq import (
    BijectionReport,
    ExcSequence,
    compose,
    cox,
    coxeter_element,
    enumerate_complete_sequences,
    identity,
    is_exceptional_sequence,
    make_reflection,
    noncrossing_partitions,
    reflect_right,
    thick_closure,
    topological_order,
    verify_bijection,
)
from ncpq.errors import NcpqError, NonFiniteTypeError, ValidationError
from ncpq.exc import order_antichain, sequence_product

from conftest import A3_TEXT
from oracles import (
    CLOSED_FORM_PINS,
    COXETER_CATALAN,
    DYNKIN_QUIVERS,
    FACTORIZATION_COUNTS,
    bfs_absolute_lengths,
    bijection_flags_by_brute_force,
    brute_force_factorizations,
    complete_sequences_within,
    exceptional_antichains_by_backtracking,
    factor_in_reflections,
    hurwitz_orbit,
    interval_covers,
    minimal_reflection_factorizations,
    order_failures_by_all_pairs,
    oriented_dynkin,
    subcategories,
    tuple_from_roots,
    weyl_group,
)

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


def _all_multiply_to_cox(sequences, sub, reg, roots) -> bool:
    expected = cox(sub, reg, roots)
    return all(sequence_product(s, roots) == expected for s in sequences)


def test_well_defined_full_a2(a2_reg, a2_roots):
    sub = _full_subcategory(a2_reg)
    sequences = complete_sequences_within(sub, a2_reg)
    assert len(sequences) == 3
    assert _all_multiply_to_cox(sequences, sub, a2_reg, a2_roots)


def test_well_defined_rank_one(a2_reg, a2_roots):
    sub = thick_closure(ExcSequence((P1,)), a2_reg)
    sequences = complete_sequences_within(sub, a2_reg)
    assert len(sequences) == 1
    assert _all_multiply_to_cox(sequences, sub, a2_reg, a2_roots)


def test_well_defined_full_a3(a3_reg, a3_roots):
    sub = _full_subcategory(a3_reg)
    sequences = complete_sequences_within(sub, a3_reg)
    assert len(sequences) == 16
    assert _all_multiply_to_cox(sequences, sub, a3_reg, a3_roots)


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
    monkeypatch.setattr("ncpq.weyl.DEFAULT_INTERVAL_CAP", 5)
    report = verify_bijection(a3)
    assert any(f["kind"] == "cap_exceeded" for f in report.failures)
    assert not report.all_ok


def test_order_check_is_exact_for_an_image_outside_the_interval(a3, a3_reg, a3_roots,
                                                               monkeypatch):
    # A corrupted product sends the zero subcategory to an element outside
    # [1, c]. The order failures must be exactly the covers present on one
    # side only: containment covers (rank one apart) whose values are not
    # a cover of the walk, and walk covers that are not the values of one.
    c = coxeter_element(a3, (1, 2, 3))
    covers = interval_covers(c, a3_roots)
    outside = min((w for w in weyl_group(a3) if w not in covers),
                  key=lambda w: w.matrix)
    real_product = ncpq.bijection.sequence_product

    def corrupted(simples, roots):
        value = real_product(simples, roots)
        return outside if value == identity(3) else value

    monkeypatch.setattr("ncpq.bijection.sequence_product", corrupted)
    report = verify_bijection(a3, (1, 2, 3))
    assert {"image_outside_interval", "surjectivity"} <= {f["kind"] for f in report.failures}
    subs = subcategories(a3, a3_reg)
    values = [corrupted(sub.simples, a3_roots) for sub in subs]
    preimage = {value: sub.to_json() for sub, value in zip(subs, values)}
    walk_covers = {(x, w) for w, children in covers.items() for x in children.values()}
    sub_covers = [(a, b) for a in range(len(subs)) for b in range(len(subs))
                  if subs[a].ind_roots < subs[b].ind_roots
                  and subs[a].rank == subs[b].rank - 1]
    image_covers = {(values[a], values[b]) for a, b in sub_covers}
    expected = [("forward", subs[a].to_json(), subs[b].to_json())
                for a, b in sub_covers if (values[a], values[b]) not in walk_covers]
    expected += [("backward", preimage.get(x), preimage.get(w))
                 for x, w in walk_covers if (x, w) not in image_covers]
    got = [(f["direction"], f["subcategory_a"], f["subcategory_b"])
           for f in report.failures if f["kind"] == "order_preservation"]
    assert {d for d, _, _ in expected} == {"forward", "backward"}
    assert sorted(got, key=json.dumps) == sorted(expected, key=json.dumps)
    assert not report.flags["order_iso_forward"] and not report.flags["order_iso_backward"]
    assert order_failures_by_all_pairs(subs, values, c, a3_roots)


def test_corrupted_cox_on_a_rank_two_subcategory_breaks_the_induction(a3, a3_reg, a3_roots,
                                                                     monkeypatch):
    # The mutant multiplies the simples of one rank-2 subcategory in the
    # wrong order. Every induction step into it must report the true
    # product cox(A)·s_x against the corrupted value.
    target = next(sub for sub in subcategories(a3, a3_reg) if sub.rank == 2)
    real_product = ncpq.bijection.sequence_product
    wrong = sequence_product(target.simples[::-1], a3_roots)
    assert wrong != cox(target, a3_reg, a3_roots)

    def corrupted(simples, roots):
        return wrong if simples == target.simples else real_product(simples, roots)

    monkeypatch.setattr("ncpq.bijection.sequence_product", corrupted)
    report = verify_bijection(a3, (1, 2, 3))
    assert not report.flags["well_defined"]
    mine = [f for f in report.failures
            if f["kind"] == "well_defined" and f["subcategory"] == target.to_json()]
    assert sorted(tuple(f["last"]) for f in mine) == sorted(target.ind_roots)
    true_value = real_product(target.simples, a3_roots).to_json()
    assert all(f["expected"] == wrong.to_json() and f["got"] == true_value for f in mine)


def test_base_case_of_the_induction_is_checked(a3, a3_reg, a3_roots, monkeypatch):
    # Multiplying every value on the left by one reflection u keeps every
    # step cox(A)·s_x = cox(B); only the base, the empty sequence of the
    # zero subcategory, catches it.
    u = make_reflection(a3, (0, 1, 0)).element
    real_product = ncpq.bijection.sequence_product

    def shifted(simples, roots):
        return compose(u, real_product(simples, roots))

    monkeypatch.setattr("ncpq.bijection.sequence_product", shifted)
    report = verify_bijection(a3, (1, 2, 3))
    steps = [f for f in report.failures if f["kind"] == "well_defined"]
    zero = thick_closure(ExcSequence(()), a3_reg).to_json()
    assert steps == [{"kind": "well_defined", "subcategory": zero, "last": None,
                      "expected": u.to_json(), "got": identity(3).to_json()}]
    assert not report.flags["well_defined"]


def test_missing_subcategory_breaks_the_induction(a3_reg, a3_roots, tmp_path, capsys,
                                                 monkeypatch):
    # The diagram holds masks alone, and each mask fixes its covers, so a
    # node missing from the one diagram of both sides is met as a child of
    # a node it holds: for every one of the 12 nodes between the top and
    # the bottom of A3, add P12 and add S1 among them, `ncpq verify` and
    # `ncpq nc` exit 5, an internal error, and print nothing on stdout:
    # both sides lose the node together, so no flag could show it.
    path = tmp_path / "a3.quiver"
    path.write_text(A3_TEXT)
    real = ncpq.weyl.mask_covers
    between = list(real(a3_roots))[1:-1]
    assert len(between) == 12
    assert {a3_reg.mask_of({(1, 1, 0)}), a3_reg.mask_of({(1, 0, 0)})} <= set(between)
    for dropped in between:
        monkeypatch.setattr("ncpq.weyl.mask_covers", lambda roots, what="interval size": {
            b: level for b, level in real(roots, what).items() if b != dropped})
        for command in ("verify", "nc"):
            assert ncpq.cli.main([command, str(path), "--format", "json"]) == 5
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"internal error: the mask {dropped:#b} is not in the "
                                    "diagram; this is a bug\n")


def test_verify_checks_the_letters_of_the_walk(a3, monkeypatch):
    # The letters of a node are its bits and its children are fixed by
    # them, so letters swapped between two children cannot be stored. The
    # walk still ends at the identity or is refused: a reflection read
    # with another root's matrix sends it off the identity, a bug.
    honest = ncpq.weyl.RootSystem.reflection

    def corrupted(self, root):
        return honest(self, (0, 1, 0) if root == (1, 0, 0) else root)

    monkeypatch.setattr(ncpq.weyl.RootSystem, "reflection", corrupted)
    with pytest.raises(NcpqError, match="off the identity"):
        verify_bijection(a3, (1, 2, 3))


@pytest.mark.parametrize("name", sorted(FACTORIZATION_COUNTS))
def test_certificate_matches_brute_force_oracles(name):
    # Witness enumeration and the all-pairs order check agree with the
    # certificate on flags, and the chain count is n!·h^n/|W|.
    q = DYNKIN_QUIVERS[name]
    report = verify_bijection(q)
    assert report.all_ok and report.failures == []
    assert report.flags == bijection_flags_by_brute_force(q, report.coxeter_order)
    assert report.counts["chains"] == FACTORIZATION_COUNTS[name]
    assert report.counts["covers"] == report.counts["well_defined_witnesses"]


def test_verify_checks_each_subcategory_exceptional_once(d4, monkeypatch):
    # `_checked_subcategory` checks the ordered simples of each
    # subcategory, and `verify` checks the admissible order; the images
    # are multiplied out from the checked simples with no second check.
    # Both checks run on root positions, `is_exceptional_sequence` after
    # looking the roots up.
    calls = []
    real = ncpq.exc._is_exceptional

    def counted(positions, reg):
        calls.append(tuple(positions))
        return real(positions, reg)

    monkeypatch.setattr("ncpq.exc._is_exceptional", counted)
    report = verify_bijection(d4)
    assert report.all_ok
    assert len(calls) == report.counts["subcategories"] + 1 == COXETER_CATALAN["D4"] + 1


def test_verify_ranks_hom_for_as_many_pairs_as_the_frozenset_registry(monkeypatch):
    # E7 `verify` ranks Hom only for the registry's certificate, End = k
    # on each of the 63 roots: every other Hom and Ext is read off the
    # Euler form. The frozenset registry ranked 2248 pairs, and the masks
    # with a rank where the form is 0 as many.
    real = ncpq.rep.hom_dim
    calls = []
    monkeypatch.setattr(ncpq.rep, "hom_dim", lambda m, n: calls.append((m, n)) or real(m, n))
    report = verify_bijection(DYNKIN_QUIVERS["E7"])
    assert report.all_ok
    assert len(calls) == 63
    assert [m.dims for m, n in calls] == [n.dims for m, n in calls] \
        == sorted({m.dims for m, n in calls})


# Elements, maximal chains and covers of [1, c] in E6 and E7; each cover
# is one induction step.
INTERVAL_PINS = {"E6": (COXETER_CATALAN["E6"], FACTORIZATION_COUNTS["E6"], 4284),
                 "E7": (*CLOSED_FORM_PINS["E7"], 26208)}


@settings(max_examples=9, deadline=None, derandomize=True)
@given(oriented_dynkin(["E6", "E7"]))
def test_verify_on_random_orientations_and_orders_of_e6(drawn):
    # Any orientation of E6 or E7 (six and three draws) and any admissible
    # order give a Coxeter element whose interval has the Coxeter-Catalan
    # number of elements and n!·h^n/|W| maximal chains, matched cover for
    # cover and letter for letter.
    name, q, order = drawn
    catalan, chains, covers = INTERVAL_PINS[name]
    report = verify_bijection(q, order)
    assert report.counts == {"subcategories": catalan, "nc": catalan,
                             "well_defined_witnesses": covers, "covers": covers,
                             "chains": chains}
    assert all(report.flags.values()) and report.failures == []


def test_e7_counts_match_the_closed_forms():
    catalan, chains = CLOSED_FORM_PINS["E7"]
    report = verify_bijection(DYNKIN_QUIVERS["E7"])
    assert report.all_ok
    assert report.counts["subcategories"] == report.counts["nc"] == catalan
    assert report.counts["chains"] == chains


def test_every_reflection_product_of_e6_verify_equals_compose(monkeypatch):
    # Each child w*t of the walk and each fold behind c and cox equals the
    # full product. The walk makes one product per element other than c,
    # when it first meets its letter set, and the folds are all the rest:
    # c takes n - 1 products and each cox one fewer than its rank, so a
    # walk that matches the descent costs no induction product.
    calls = {"walk": 0, "fold": 0}
    folds = []
    in_walk = False
    real_walk = ncpq.bijection.walk_elements
    real_product = ncpq.bijection.sequence_product

    def walk(c, roots):
        nonlocal in_walk
        in_walk = True
        try:
            return real_walk(c, roots)
        finally:
            in_walk = False

    def product(simples, roots):
        folds.append(max(len(simples) - 1, 0))
        return real_product(simples, roots)

    def checked(w, t):
        got = reflect_right(w, t)
        assert got == compose(w, t.element)
        calls["walk" if in_walk else "fold"] += 1
        return got

    monkeypatch.setattr("ncpq.weyl.reflect_right", checked)
    monkeypatch.setattr("ncpq.bijection.reflect_right", checked)
    monkeypatch.setattr("ncpq.bijection.walk_elements", walk)
    monkeypatch.setattr("ncpq.bijection.sequence_product", product)
    report = verify_bijection(DYNKIN_QUIVERS["E6"])
    assert report.all_ok
    assert report.counts["nc"] == len(folds) == COXETER_CATALAN["E6"]
    assert calls["walk"] == report.counts["nc"] - 1 == 832
    assert calls["fold"] == 6 - 1 + sum(folds)


def test_image_lands_in_interval(a3, a3_reg, a3_roots):
    c = coxeter_element(a3, (1, 2, 3))
    interval = noncrossing_partitions(c, a3, roots=a3_roots)
    matrices = {w.matrix for w in interval}
    for antichain in exceptional_antichains_by_backtracking(a3, a3_reg):
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
