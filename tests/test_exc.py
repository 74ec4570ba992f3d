"""Tests for exceptional sequences, perpendicular categories, thick
closures, braid mutation, completion, projective sequences, and the
exhaustive enumerations."""

from __future__ import annotations

import itertools
import random
from functools import cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpq import (
    ExcSequence,
    Reflection,
    Subcategory,
    build_registry,
    enumerate_complete_sequences,
    enumerate_exceptional_antichains,
    extend_to_complete,
    generate_roots,
    is_exceptional_sequence,
    is_projective_sequence,
    left_perp,
    parse_quiver,
    right_perp,
    sequence_product,
    thick_closure,
    topological_order,
)
from ncpq import exc, rep
from ncpq.errors import CapExceededError, NcpqError, ValidationError
from ncpq.exc import (
    _subcategory_simples,
    closure_indecomposables,
    order_antichain,
    slot_fillers,
    subcategory_covers,
)
from ncpq.hurwitz import braid_edges
from ncpq.quiver import Quiver
from ncpq.weyl import (braid_transitive, chain_counts, coxeter_element, make_reflection,
                       mask_covers, maximal_chains, simple_root, walk_elements)
from oracles import (
    CLOSED_FORM_PINS,
    DYNKIN_QUIVERS,
    FACTORIZATION_COUNTS,
    _ext_quiver,
    braid_mutate,
    braid_orbit_by_full_products,
    exceptional_antichains_by_backtracking,
    exceptional_sequences,
    hurwitz_orbit,
    is_connected,
    is_nonneg_combination,
    labelled_covers,
    mutation_edges_by_braid_mutate,
    oriented_dynkin,
    simples_by_injective_maps,
    subcategories,
    subcategory_covers_by_frozensets,
    topological_sort_by_heap,
    tuple_from_roots,
)

S1, S2, P1 = (1, 0), (0, 1), (1, 1)


# ---------------------------------------------------------------------------
# sequence checks
# ---------------------------------------------------------------------------


def test_singleton_is_exceptional(a2_reg):
    assert is_exceptional_sequence([P1], a2_reg)


def test_a2_simple_orders(a2_reg):
    # the arrow 1 -> 2 extends S1 by S2, so only (S1, S2) is exceptional
    assert is_exceptional_sequence([S1, S2], a2_reg)
    assert not is_exceptional_sequence([S2, S1], a2_reg)


def test_repeated_entry_rejected(a2_reg):
    assert not is_exceptional_sequence([P1, P1], a2_reg)


def test_unknown_root(a2_reg):
    with pytest.raises(ValidationError):
        is_exceptional_sequence([(3, 3)], a2_reg)


# ---------------------------------------------------------------------------
# perpendicular categories
# ---------------------------------------------------------------------------


def test_right_perp_empty_is_everything(a2_reg):
    assert right_perp([], a2_reg) == frozenset(a2_reg.roots())


def test_right_perp_everything_is_empty(a2_reg):
    assert right_perp(a2_reg.roots(), a2_reg) == frozenset()


def test_perps_a2(a2_reg):
    assert right_perp([S1], a2_reg) == {P1}
    assert right_perp([P1], a2_reg) == {S2}
    assert left_perp([S2], a2_reg) == {P1}
    assert left_perp([P1], a2_reg) == {S1}


D5_TEXT = "vertices 5\narrow 1 2\narrow 2 3\narrow 3 4\narrow 3 5\n"


@pytest.fixture(scope="module")
def d5_reg():
    return build_registry(parse_quiver(D5_TEXT))


@cache
def _orthogonal(reg, a, b):
    # Ranked on the modules, not read off the registry's Euler form.
    M, N = reg[a], reg[b]
    return rep.hom_dim(M, N) == 0 and rep.ext_dim(M, N) == 0


def _pairwise_right_perp(members, reg):
    return {m for m in reg.roots() if all(_orthogonal(reg, u, m) for u in members)}


def _pairwise_left_perp(members, reg):
    return {m for m in reg.roots() if all(_orthogonal(reg, m, u) for u in members)}


def _pairwise_exceptional(seq, reg):
    return all(_orthogonal(reg, seq[j], seq[i])
               for i in range(len(seq)) for j in range(i + 1, len(seq)))


def test_perps_match_pairwise_definition_d5(d5_reg):
    roots = d5_reg.roots()
    assert len(roots) == 20
    orth, left_orth = d5_reg.rootsystem.orth, d5_reg.rootsystem.left_orth
    for r in roots:
        k = d5_reg.position(r)
        assert right_perp([r], d5_reg) == frozenset(d5_reg.roots_of(orth[k])) \
            == _pairwise_right_perp([r], d5_reg)
        assert left_perp([r], d5_reg) == frozenset(d5_reg.roots_of(left_orth[k])) \
            == _pairwise_left_perp([r], d5_reg)
    rng = random.Random(20161)
    for _ in range(200):
        members = rng.sample(roots, rng.randint(0, 5))
        assert right_perp(members, d5_reg) == _pairwise_right_perp(members, d5_reg)
        assert left_perp(members, d5_reg) == _pairwise_left_perp(members, d5_reg)


def test_is_exceptional_sequence_matches_pairwise_definition_d5(d5_reg):
    roots = d5_reg.roots()
    rng = random.Random(20162)
    exceptional = 0
    for trial in range(400):
        length = rng.randint(1, 5)
        if trial % 2:
            seq = tuple(rng.sample(roots, length))
        else:
            # grow by the pairwise definition, so that positives occur too
            seq = ()
            for x in rng.sample(roots, len(roots)):
                if len(seq) < length and _pairwise_exceptional(seq + (x,), d5_reg):
                    seq += (x,)
        expected = _pairwise_exceptional(seq, d5_reg)
        assert is_exceptional_sequence(seq, d5_reg) == expected
        exceptional += expected
    assert 100 < exceptional < 400


# ---------------------------------------------------------------------------
# thick closure
# ---------------------------------------------------------------------------


def test_closure_of_complete_sequence_is_everything(a2_reg, a3_reg):
    for reg in (a2_reg, a3_reg):
        for seq in enumerate_complete_sequences(reg.quiver, reg):
            sub = thick_closure(seq, reg)
            assert sub.ind_roots == frozenset(reg.roots())


def test_closure_of_empty_sequence(a2_reg):
    sub = thick_closure(ExcSequence(()), a2_reg)
    assert sub.ind_roots == frozenset()
    assert sub.simples == ()


def test_closure_of_p1_is_itself(a2_reg):
    sub = thick_closure(ExcSequence((P1,)), a2_reg)
    assert sub.ind_roots == {P1}
    assert sub.simples == (P1,)


def test_closure_idempotent_and_monotone(a3_reg):
    rng = random.Random(47)
    sequences = sorted(enumerate_complete_sequences(a3_reg.quiver, a3_reg),
                       key=lambda s: s.roots)
    for _ in range(15):
        seq = rng.choice(sequences)
        keep = sorted(rng.sample(range(3), rng.randint(1, 3)))
        sub_roots = tuple(seq.roots[i] for i in keep)
        ind = closure_indecomposables(sub_roots, a3_reg)
        assert closure_indecomposables(tuple(sorted(ind)), a3_reg) == ind
        smaller = sub_roots[:-1]
        assert closure_indecomposables(smaller, a3_reg) <= ind


def test_antichain_recovery(a2_reg, a3_reg):
    for reg in (a2_reg, a3_reg):
        for antichain in exceptional_antichains_by_backtracking(reg.quiver, reg):
            seq = ExcSequence(order_antichain(antichain, reg))
            sub = thick_closure(seq, reg)
            assert frozenset(sub.simples) == antichain


@pytest.mark.parametrize("label", ["A3", "D4", "D5", "E6"])
def test_simples_match_the_injective_map_definition(label):
    # Every closure of the orientation: the Hom-dimension criterion against
    # embeddings found in explicit Hom bases, and against the antichain.
    q = DYNKIN_QUIVERS[label]
    reg = build_registry(q)
    for antichain in exceptional_antichains_by_backtracking(q, reg):
        ind = closure_indecomposables(order_antichain(antichain, reg), reg)
        simples = tuple(reg.roots()[k] for k in _subcategory_simples(reg.mask_of(ind), reg))
        assert simples == simples_by_injective_maps(ind, reg)
        assert frozenset(simples) == antichain


def test_relative_root_count_matches_generated_roots(monkeypatch):
    # Every relative Ext-quiver met while closing all D5 antichains: the
    # count read off its Dynkin type against its generated roots.
    q = DYNKIN_QUIVERS["D5"]
    reg = build_registry(q)
    real = exc._finite_root_count
    met = set()

    def recording(n, arrows):
        met.add(Quiver(n, arrows))
        return real(n, arrows)

    monkeypatch.setattr(exc, "_finite_root_count", recording)
    for antichain in exceptional_antichains_by_backtracking(q, reg):
        thick_closure(ExcSequence(order_antichain(antichain, reg)), reg)
    assert len(met) > 5
    for relative in met:
        count = len(generate_roots(relative).positive_real_roots)
        assert real(relative.n, relative.arrows) == count


def test_relative_root_count_refuses_a_non_finite_quiver(kronecker):
    with pytest.raises(NcpqError):
        exc._finite_root_count(kronecker.n, kronecker.arrows)
    # Ext of dimension 2 between two simples (an Euler row reading -2) is
    # two arrows, Kronecker again; one arrow per pair would read A2.
    with pytest.raises(NcpqError, match="not finite type"):
        exc._relative_root_count((0, 1), ((1, -2), (0, 1)))
    assert exc._relative_root_count((1, 0), ((1, 0), (-1, 1))) == 3


def test_checked_subcategory_reads_each_ext_of_its_simples_once(monkeypatch):
    # Each check orders exactly its simples' mask by one mask sort on the
    # registry's Ext screen, and the closure path asks the root-keyed `ext`
    # nothing: each check, and each closure of an antichain, whose order
    # sorts the antichain's mask first.
    reg = build_registry(DYNKIN_QUIVERS["D5"])
    ranks = {b: len(_subcategory_simples(b, reg)) for b in subcategory_covers(reg)}
    antichains = enumerate_exceptional_antichains(reg.quiver, reg)
    exts, sorts = [], []
    real_ext, real_sort = type(reg).ext, exc.topological_sort
    monkeypatch.setattr(type(reg), "ext",
                        lambda self, a, b: exts.append((a, b)) or real_ext(self, a, b))
    monkeypatch.setattr(exc, "topological_sort", lambda roots, before: sorts.append(
        (roots, before is reg.ext_into_at)) or real_sort(roots, before))
    for ind, rank in ranks.items():
        sorts.clear()
        simples = exc._checked_subcategory(ind, rank, reg)
        assert sorts == [(reg.mask_of(simples), True)]
    for antichain in antichains:
        sorts.clear()
        thick_closure(ExcSequence(order_antichain(antichain, reg)), reg)
        assert sorts == [(reg.mask_of(antichain), True)] * 2
    assert exts == []


def test_order_antichain_refuses_a_repeated_root(a3_reg):
    # A mask would hold a repeated root once, so the order refuses it, as it
    # refuses an unregistered root, before any closure sees it.
    s1 = (1, 0, 0)
    with pytest.raises(ValidationError, match="repeats a root"):
        order_antichain([s1, s1], a3_reg)
    with pytest.raises(ValidationError, match="not a registered root"):
        order_antichain([s1, (1, 0, 1)], a3_reg)
    assert order_antichain([s1], a3_reg) == (s1,)


def test_e8_closure_of_the_simple_roots():
    reg = build_registry(DYNKIN_QUIVERS["E8"])
    simples = [simple_root(8, i) for i in range(1, 9)]
    sub = thick_closure(ExcSequence(order_antichain(simples, reg)), reg)
    assert len(sub.ind_roots) == 120
    assert sorted(sub.simples) == sorted(simples)


# ---------------------------------------------------------------------------
# braid mutation
# ---------------------------------------------------------------------------


def test_mutate_a2_forward(a2_reg):
    seq = ExcSequence((S1, S2))
    moved = braid_mutate(seq, 1, False, a2_reg)
    assert moved.roots == (S2, P1)


def test_mutate_roundtrip(a3_reg):
    for seq in enumerate_complete_sequences(a3_reg.quiver, a3_reg):
        for i in (1, 2):
            forward = braid_mutate(seq, i, False, a3_reg)
            assert braid_mutate(forward, i, True, a3_reg).roots == seq.roots


def test_mutate_braid_relation_a3(a3_reg):
    for seq in enumerate_complete_sequences(a3_reg.quiver, a3_reg):
        lhs = braid_mutate(braid_mutate(braid_mutate(seq, 1, False, a3_reg),
                                        2, False, a3_reg), 1, False, a3_reg)
        rhs = braid_mutate(braid_mutate(braid_mutate(seq, 2, False, a3_reg),
                                        1, False, a3_reg), 2, False, a3_reg)
        assert lhs.roots == rhs.roots


def test_mutate_commuting_relation_d4(d4_reg):
    rng = random.Random(53)
    sequences = sorted(enumerate_complete_sequences(d4_reg.quiver, d4_reg),
                       key=lambda s: s.roots)
    for seq in rng.sample(sequences, 20):
        lhs = braid_mutate(braid_mutate(seq, 1, False, d4_reg), 3, False, d4_reg)
        rhs = braid_mutate(braid_mutate(seq, 3, False, d4_reg), 1, False, d4_reg)
        assert lhs.roots == rhs.roots


def test_mutate_requires_complete(a2_reg):
    with pytest.raises(ValidationError):
        braid_mutate(ExcSequence((P1,)), 1, False, a2_reg)


def test_mutate_index_range(a2_reg):
    with pytest.raises(ValidationError):
        braid_mutate(ExcSequence((S1, S2)), 2, False, a2_reg)


def test_product_invariant_on_all_mutation_edges(a3_reg):
    # braid_edges raises internally if any edge changes the product
    seqs = enumerate_complete_sequences(a3_reg.quiver, a3_reg)
    nodes = sorted(seqs, key=lambda s: s.roots)
    edges = braid_edges([s.roots for s in nodes], a3_reg.rootsystem.reflection)
    assert len(nodes) == 16
    assert is_connected(len(nodes), edges)


def test_mutation_graph_catches_a_corrupted_reflection(a3, monkeypatch):
    reg = build_registry(a3)
    seqs = enumerate_complete_sequences(a3, reg)
    honest = reg.rootsystem.reflection
    wrong = honest((1, 0, 0)).element

    def corrupted(root):
        return Reflection(root, wrong) if root == (0, 1, 0) else honest(root)

    monkeypatch.setattr(reg.rootsystem, "reflection", corrupted)
    with pytest.raises(NcpqError, match="reflection product"):
        braid_edges(sorted(s.roots for s in seqs), reg.rootsystem.reflection)


@pytest.mark.parametrize("label", ["A3", "A4", "D4", "D5"])
def test_mutation_graph_matches_per_edge_braid_mutate(label):
    q = DYNKIN_QUIVERS[label]
    reg = build_registry(q)
    seqs = enumerate_complete_sequences(q, reg)
    # The nodes as `ncpq sequences` lists them: the descent's chains, sorted.
    nodes = list(maximal_chains(subcategory_covers(reg), reg.rootsystem))
    edges = braid_edges(nodes, reg.rootsystem.reflection)
    assert nodes == [s.roots for s in sorted(seqs, key=lambda s: s.roots)]
    assert edges == sorted(mutation_edges_by_braid_mutate(seqs, reg))


def _assert_sequences_are_the_orbit(q, order):
    # Sequences map to the reflections at their roots, and mutation is the
    # Hurwitz move: the complete sequences are the braid orbit of the
    # simples in an admissible order, with the same forward-move edges.
    # Every admissible order gives the one Coxeter element c, and the
    # maximal chains of [1, c] list that orbit too. Both certificates hold,
    # as the listed move graph is connected.
    roots = generate_roots(q)
    reg = build_registry(q, roots)
    nodes = sorted(enumerate_complete_sequences(q, reg), key=lambda s: s.roots)
    edges = braid_edges([s.roots for s in nodes], reg.rootsystem.reflection)
    start = tuple(simple_root(q.n, i) for i in order)
    orbit = sorted(hurwitz_orbit(tuple_from_roots(q, start)), key=lambda t: t.roots)
    assert [s.roots for s in nodes] == [t.roots for t in orbit]
    assert set(nodes) == _backtracked(q, reg)
    assert edges == braid_edges([t.roots for t in orbit], partial(make_reflection, q))
    if q.n <= 4:  # A5 and D5: test_orbit_matches_full_product_oracle
        assert {t.roots for t in orbit} == braid_orbit_by_full_products(q, start)
    covers = walk_elements(coxeter_element(q, order), roots)[0]
    assert sorted(maximal_chains(covers, roots)) == [t.roots for t in orbit]
    assert is_connected(len(nodes), edges)
    assert braid_transitive(mask_covers(roots), roots) is True
    assert braid_transitive(subcategory_covers(reg), roots) is True


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "A5", "D4", "D5", "E6"])
def test_sequences_are_the_hurwitz_orbit(label):
    q = DYNKIN_QUIVERS[label]
    _assert_sequences_are_the_orbit(q, topological_order(q))


@settings(max_examples=20, deadline=None)
@given(oriented_dynkin(["A3", "A4", "A5", "D4", "D5"]))
def test_sequences_are_the_hurwitz_orbit_on_random_orientations(drawn):
    _, q, order = drawn
    _assert_sequences_are_the_orbit(q, order)


def test_mutation_graph_rejects_a_set_missing_a_neighbor(a3_reg):
    seqs = sorted(enumerate_complete_sequences(a3_reg.quiver, a3_reg), key=lambda s: s.roots)
    with pytest.raises(ValidationError, match="left the given sequence set"):
        braid_edges([s.roots for s in seqs[1:]], a3_reg.rootsystem.reflection)


def test_braid_edges_refuse_a_repeated_tuple(a3_reg):
    # A listed tuple is a node of the graph, so it may appear only once.
    seqs = sorted(s.roots for s in enumerate_complete_sequences(a3_reg.quiver, a3_reg))
    with pytest.raises(ValidationError, match="listed twice"):
        braid_edges(seqs + seqs[:1], a3_reg.rootsystem.reflection)


# ---------------------------------------------------------------------------
# completion
# ---------------------------------------------------------------------------


def test_extend_complete_input_unchanged(a3_reg):
    for seq in enumerate_complete_sequences(a3_reg.quiver, a3_reg):
        assert extend_to_complete(seq, a3_reg).roots == seq.roots


def test_extend_empty_gives_admissible_simples(a2_reg):
    seq = extend_to_complete(ExcSequence(()), a2_reg)
    assert seq.roots == (S1, S2)


def test_extend_p1(a2_reg):
    seq = extend_to_complete(ExcSequence((P1,)), a2_reg)
    assert seq.roots == (S2, P1)
    assert is_exceptional_sequence(seq.roots, a2_reg)


def test_extend_preserves_tail(a3_reg, d4_reg):
    rng = random.Random(59)
    for reg in (a3_reg, d4_reg):
        sequences = sorted(enumerate_complete_sequences(reg.quiver, reg),
                           key=lambda s: s.roots)
        for _ in range(10):
            seq = rng.choice(sequences)
            r = rng.randint(1, len(seq) - 1)
            partial = ExcSequence(seq.roots[-r:])
            completed = extend_to_complete(partial, reg)
            assert completed.roots[-r:] == partial.roots
            assert len(completed) == reg.quiver.n
            assert is_exceptional_sequence(completed.roots, reg)


# ---------------------------------------------------------------------------
# projective sequences
# ---------------------------------------------------------------------------


def test_projective_sequence_a2(a2_reg):
    assert is_projective_sequence([S2, P1], a2_reg)
    assert not is_projective_sequence([P1, S2], a2_reg)  # support stalls


def test_projective_sequences_are_exceptional_a2(a2_reg):
    import itertools

    roots = a2_reg.roots()
    for candidate in itertools.product(roots, repeat=2):
        if is_projective_sequence(candidate, a2_reg):
            assert is_exceptional_sequence(candidate, a2_reg)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_sequence_counts(a2_reg, a3_reg):
    assert len(enumerate_complete_sequences(a2_reg.quiver, a2_reg)) == 3
    assert len(enumerate_complete_sequences(a3_reg.quiver, a3_reg)) == 16


def test_sequence_cap(a3_reg):
    with pytest.raises(CapExceededError):
        enumerate_complete_sequences(a3_reg.quiver, a3_reg, cap=5)


def _backtracked(q, reg) -> set:
    return {ExcSequence(s) for s in exceptional_sequences(reg.roots(), q.n, reg)}


@pytest.mark.parametrize("label", ["A3", "D4"])
def test_sequence_cap_boundary(label, monkeypatch):
    # The count comes first: at cap = count every sequence is listed, one
    # below it the cap is refused before the lister runs at all.
    q = DYNKIN_QUIVERS[label]
    reg = build_registry(q)
    count = len(_backtracked(q, reg))
    assert len(enumerate_complete_sequences(q, reg, cap=count)) == count

    def unlisted(*args):
        raise AssertionError("sequences listed past the cap")

    monkeypatch.setattr(exc, "maximal_chains", unlisted)
    with pytest.raises(CapExceededError, match=f"sequence count exceeds cap {count - 1}$"):
        enumerate_complete_sequences(q, reg, cap=count - 1)


def test_descent_cap_boundary(a3_reg, monkeypatch):
    # A3 has 14 subcategories; the descent is held to the interval cap.
    monkeypatch.setattr("ncpq.weyl.DEFAULT_INTERVAL_CAP", 13)
    with pytest.raises(CapExceededError, match="subcategory count exceeds cap 13$"):
        enumerate_complete_sequences(a3_reg.quiver, a3_reg)
    monkeypatch.setattr("ncpq.weyl.DEFAULT_INTERVAL_CAP", 14)
    assert len(subcategory_covers(a3_reg)) == 14
    assert len(enumerate_complete_sequences(a3_reg.quiver, a3_reg)) == 16


def test_enumerations_refuse_another_quiver(a3_reg):
    other = parse_quiver("vertices 3\narrow 2 1\narrow 2 3\n")
    with pytest.raises(ValidationError, match="registry's quiver"):
        enumerate_complete_sequences(other, a3_reg)
    with pytest.raises(ValidationError, match="registry's quiver"):
        enumerate_exceptional_antichains(other, a3_reg)


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "A5", "D4", "D5"])
def test_complete_sequences_match_the_backtracker(label):
    q = DYNKIN_QUIVERS[label]
    reg = build_registry(q)
    assert enumerate_complete_sequences(q, reg) == _backtracked(q, reg)


@settings(max_examples=20, deadline=None)
@given(oriented_dynkin(["A3", "A4", "A5", "D4", "D5"]))
def test_complete_sequences_match_the_backtracker_on_random_orientations(drawn):
    _, q, _ = drawn
    reg = build_registry(q)
    assert enumerate_complete_sequences(q, reg) == _backtracked(q, reg)


@pytest.mark.parametrize("label", sorted(set(DYNKIN_QUIVERS) - {"E8"}))
def test_descent_lists_the_antichain_closures(label):
    # Indecomposables and checked ordered simples of every subcategory,
    # against the thick closures of all exceptional antichains; every
    # cover of the descent lowers the rank by one.
    q = DYNKIN_QUIVERS[label]
    reg = build_registry(q)
    expected = {reg.mask_of(sub.ind_roots): sub for sub in subcategories(q, reg)}
    descent = subcategory_covers(reg)
    assert descent.keys() == expected.keys()
    for ind, children in labelled_covers(descent, reg.rootsystem).items():
        assert descent[ind] == expected[ind].rank
        simples = exc._checked_subcategory(ind, expected[ind].rank, reg)
        assert Subcategory(frozenset(reg.roots_of(ind)), simples) == expected[ind]
        assert all(expected[a].rank == expected[ind].rank - 1 for a in children.values())


@pytest.mark.parametrize("label", sorted(set(DYNKIN_QUIVERS) - {"E8"}))
def test_order_antichain_matches_the_root_keyed_ext_quiver(label):
    # Every antichain: the mask sort on the registry's Ext screen against
    # the heap sort of its Ext-quiver read root by root through `reg.ext`.
    q = DYNKIN_QUIVERS[label]
    reg = build_registry(q)
    for antichain in enumerate_exceptional_antichains(q, reg):
        members = sorted(antichain)
        order = topological_sort_by_heap(len(members), _ext_quiver(members, reg))
        assert order_antichain(antichain, reg) == tuple(members[i] for i in order)


@pytest.mark.parametrize("label", ["D5", "E6"])
def test_checked_subcategory_matches_the_frozenset_oracles(label):
    # Every node of the frozenset descent, at its rank: the simples by
    # injective maps, in the heap sort's order of their root-keyed
    # Ext-quiver, against the check on the node's mask.
    q = DYNKIN_QUIVERS[label]
    reg = build_registry(q)
    descent = subcategory_covers_by_frozensets(reg)
    rank = {next(iter(descent)): q.n}
    for b, children in descent.items():
        rank.update(dict.fromkeys(children.values(), rank[b] - 1))
    for b in descent:
        simples = simples_by_injective_maps(b, reg)
        order = topological_sort_by_heap(len(simples), _ext_quiver(simples, reg))
        assert exc._checked_subcategory(reg.mask_of(b), rank[b], reg) == tuple(
            simples[i] for i in order)


def _flipped(q, every):
    """q with every `every`-th arrow reversed, counting from the first."""
    return Quiver(q.n, tuple((t, h) if k % every == 0 else (h, t)
                             for k, (h, t) in enumerate(q.arrows)))


@pytest.mark.parametrize("label, every", [("E6", 1), ("E6", 2), ("E7", 1), ("E7", 2)])
def test_both_walks_match_the_closed_forms_on_more_orientations(label, every):
    # All arrows reversed, and every other arrow reversed: both walks count
    # n!·h^n/|W| maximal chains, and both certificates hold.
    q = _flipped(DYNKIN_QUIVERS[label], every)
    chains = {"E6": FACTORIZATION_COUNTS["E6"], "E7": CLOSED_FORM_PINS["E7"][1]}[label]
    roots = generate_roots(q)
    c = coxeter_element(q, topological_order(q))
    covers, descent = walk_elements(c, roots)[0], subcategory_covers(build_registry(q, roots))
    assert (chain_counts(covers, roots)[next(iter(covers))]
            == chain_counts(descent, roots)[next(iter(descent))] == chains)
    assert braid_transitive(mask_covers(roots), roots)
    assert braid_transitive(descent, roots)


@pytest.mark.parametrize("label", sorted(CLOSED_FORM_PINS))
def test_descent_matches_the_closed_forms(label):
    catalan, sequences = CLOSED_FORM_PINS[label]
    reg = build_registry(DYNKIN_QUIVERS[label])
    covers = subcategory_covers(reg)
    assert len(covers) == catalan
    assert chain_counts(covers, reg.rootsystem)[next(iter(covers))] == sequences


def test_subcategory_check_runs_the_fixpoint(a3_reg):
    # {S2, S3, P12} has the two simples S2, S3, which order into an
    # exceptional sequence whose relative quiver A2 has 3 roots, but it is
    # not their thick closure {S2, S3, P23}: only the fixpoint catches it.
    fake = frozenset({(0, 1, 0), (0, 0, 1), (1, 1, 0)})
    with pytest.raises(NcpqError, match="fixpoint"):
        exc._checked_subcategory(a3_reg.mask_of(fake), 2, a3_reg)


def test_subcategory_check_skips_the_fixpoint_only_for_its_generators(a3_reg, monkeypatch):
    # `thick_closure` hands over the mask of the roots whose double
    # perpendicular `ind` is. The fixpoint is skipped only when the simples
    # are those roots, so the wrong `ind` of the test above is still refused
    # under any other generators.
    fake = a3_reg.mask_of({(0, 1, 0), (0, 0, 1), (1, 1, 0)})
    for generators in (None, 0, a3_reg.mask_of([(0, 1, 0)]), fake,
                       a3_reg.mask_of([(0, 1, 1), (0, 0, 1)])):
        with pytest.raises(NcpqError, match="fixpoint"):
            exc._checked_subcategory(fake, 2, a3_reg, generators)
    closures = []
    real = exc._closure
    monkeypatch.setattr(exc, "_closure", lambda m, reg: closures.append(m) or real(m, reg))
    # Generated by its simples: one closure, for `ind`.
    sub = thick_closure(ExcSequence(((0, 1, 0), (0, 0, 1))), a3_reg)
    assert sub.ind_roots == {(0, 1, 0), (0, 0, 1), (0, 1, 1)} and len(closures) == 1
    # Generated by P23 and S3, whose simples are S2 and S3: the fixpoint
    # runs on the simples.
    closures.clear()
    sub = thick_closure(ExcSequence(((0, 0, 1), (0, 1, 1))), a3_reg)
    assert sorted(sub.simples) == [(0, 0, 1), (0, 1, 0)] and len(closures) == 2


def test_subcategory_check_skips_the_exceptional_test_only_for_the_tested_tuple(a3_reg):
    # {S2, P23} is not thick (it misses S3), and both members read as
    # simples, ordered (S2, P23), which is not exceptional: P23 maps onto
    # S2. The exceptional test refuses it, and is skipped only for the very
    # tuple a caller has just tested; the fixpoint then refuses it.
    s2, p23 = a3_reg.position((0, 1, 0)), a3_reg.position((0, 1, 1))
    fake = 1 << s2 | 1 << p23
    for tested in (None, (), (s2,), (p23, s2), [s2, p23]):
        with pytest.raises(NcpqError, match="do not order into an exceptional sequence"):
            exc._checked_subcategory(fake, 2, a3_reg, None, tested)
    with pytest.raises(NcpqError, match="fixpoint"):
        exc._checked_subcategory(fake, 2, a3_reg, None, (s2, p23))


def test_subcategory_check_refuses_the_wrong_rank(a3_reg):
    everything = a3_reg.mask_of(a3_reg.roots())
    assert len(exc._checked_subcategory(everything, 3, a3_reg)) == 3
    for rank in (2, 4):
        with pytest.raises(NcpqError, match=f"rank {rank} has 3 simples"):
            exc._checked_subcategory(everything, rank, a3_reg)


def test_descent_refuses_a_set_met_at_two_levels(a3, monkeypatch):
    # An Euler-form table whose row at P123 holds S1 alone makes add S1 a
    # child of the whole category, one level down with the rank-2
    # subcategories, while the descent also meets it with the rank-1 ones.
    # Every child is still smaller than its parent, so a descent without
    # the check ends.
    reg = build_registry(a3)
    orth = list(reg.rootsystem.orth)
    orth[reg.position((1, 1, 1))] = reg.mask_of([(1, 0, 0)])
    monkeypatch.setattr(reg.rootsystem, "orth", tuple(orth))
    assert reg.rootsystem.orth[reg.position((1, 1, 1))] == reg.mask_of([(1, 0, 0)])
    with pytest.raises(NcpqError, match="two levels"):
        subcategory_covers(reg)


def _assert_same_descent(reg):
    # The mask descent against the frozenset descent it replaced: the same
    # nodes through the mask-to-roots conversion, in the same key order,
    # each with the same letters, in the same order, reaching the same nodes.
    descent = labelled_covers(subcategory_covers(reg), reg.rootsystem)
    reference = subcategory_covers_by_frozensets(reg)
    as_sets = [(frozenset(reg.roots_of(b)),
                [(x, frozenset(reg.roots_of(a))) for x, a in children.items()])
               for b, children in descent.items()]
    assert as_sets == [(b, list(children.items())) for b, children in reference.items()]


@pytest.mark.parametrize("label", sorted(set(DYNKIN_QUIVERS) - {"E8"}))
def test_descent_equals_the_frozenset_descent(label):
    _assert_same_descent(build_registry(DYNKIN_QUIVERS[label]))


@settings(max_examples=20, deadline=None)
@given(oriented_dynkin(["A3", "A4", "A5", "D4", "D5", "E6"]))
def test_descent_equals_the_frozenset_descent_on_random_orientations(drawn):
    _, q, _ = drawn
    _assert_same_descent(build_registry(q))


def test_antichains_a2(a2_reg):
    antichains = enumerate_exceptional_antichains(a2_reg.quiver, a2_reg)
    assert antichains == {
        frozenset(), frozenset({S1}), frozenset({S2}), frozenset({P1}),
        frozenset({S1, S2})}


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "A5", "D4", "D5", "E6", "E7"])
def test_antichains_match_the_backtracker(label):
    q = DYNKIN_QUIVERS[label]
    reg = build_registry(q)
    assert enumerate_exceptional_antichains(q, reg) == exceptional_antichains_by_backtracking(q, reg)


@settings(max_examples=20, deadline=None)
@given(oriented_dynkin(["A3", "A4", "A5", "D4", "D5", "E6"]))
def test_antichains_match_the_backtracker_on_random_orientations(drawn):
    _, q, _ = drawn
    reg = build_registry(q)
    assert enumerate_exceptional_antichains(q, reg) == exceptional_antichains_by_backtracking(q, reg)


def test_antichains_rank_hom_only_for_the_descent_and_the_simples(monkeypatch):
    # On E7 the descent's orthogonal sets and the simples' `maps_into_at` read
    # Hom off the Euler form and rank nothing (they ranked 2152 pairs while
    # they ranked where the form is 0); the backtracker ranks every ordered
    # pair of distinct roots among the 63.
    q = DYNKIN_QUIVERS["E7"]
    real = rep.hom_dim
    calls = []
    monkeypatch.setattr(rep, "hom_dim", lambda m, n: calls.append((m, n)) or real(m, n))
    for enumerate_antichains, ranks in ((enumerate_exceptional_antichains, 0),
                                        (exceptional_antichains_by_backtracking, 3906)):
        reg = build_registry(q)
        calls.clear()
        assert len(enumerate_antichains(q, reg)) == CLOSED_FORM_PINS["E7"][0]
        assert len(calls) == ranks


def test_antichains_refuse_past_the_subcategory_cap(monkeypatch):
    # D5 has 182 subcategories, so the descent refuses below that cap.
    q = DYNKIN_QUIVERS["D5"]
    reg = build_registry(q)
    monkeypatch.setattr("ncpq.weyl.DEFAULT_INTERVAL_CAP", 181)
    with pytest.raises(CapExceededError, match="subcategory count exceeds cap 181$"):
        enumerate_exceptional_antichains(q, reg)
    monkeypatch.setattr("ncpq.weyl.DEFAULT_INTERVAL_CAP", 182)
    assert len(enumerate_exceptional_antichains(q, reg)) == 182


def test_slot_filler_uniqueness(a3_reg):
    for seq in enumerate_complete_sequences(a3_reg.quiver, a3_reg):
        for i in (1, 2, 3):
            assert slot_fillers(seq, i, a3_reg) == {seq.roots[i - 1]}


def test_sequence_product_matches_coxeter(a2, a2_roots, a2_reg):
    from ncpq import coxeter_element

    assert sequence_product((S1, S2), a2_roots) == coxeter_element(a2, (1, 2))


def test_validated_constructor(a2_reg):
    assert ExcSequence.validated([S1, S2], a2_reg).roots == (S1, S2)
    with pytest.raises(ValidationError):
        ExcSequence.validated([S2, S1], a2_reg)


# ---------------------------------------------------------------------------
# nonnegative spans
# ---------------------------------------------------------------------------


@st.composite
def span_problems(draw):
    dim = draw(st.integers(1, 3))
    entry = st.integers(0, 3)
    gens = draw(st.lists(st.tuples(*[entry] * dim).filter(any), min_size=1, max_size=3))
    targets = draw(st.lists(st.tuples(*[st.integers(-1, 4)] * dim), min_size=1, max_size=6))
    return gens, targets


@settings(max_examples=200, deadline=None)
@given(span_problems())
def test_nonneg_combination_with_shared_memo_matches_brute_force(problem):
    gens, targets = problem
    memo: dict = {}
    for target in targets:
        # each generator has a coordinate >= 1, so no coefficient exceeds max(target)
        bound = max(max(target), 0) + 1
        expected = any(
            all(sum(c * g[d] for c, g in zip(coeffs, gens)) == target[d]
                for d in range(len(target)))
            for coeffs in itertools.product(range(bound), repeat=len(gens)))
        assert is_nonneg_combination(target, gens, memo) == expected
