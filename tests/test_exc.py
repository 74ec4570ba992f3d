"""Tests for exceptional sequences, perpendicular categories, thick
closures, braid mutation, completion, projective sequences, and the
exhaustive enumerations."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpq import (
    ExcSequence,
    Reflection,
    braid_mutate,
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
)
from ncpq import exc
from ncpq.errors import CapExceededError, NcpqError, ValidationError
from ncpq.exc import (
    _subcategory_simples,
    closure_indecomposables,
    is_connected,
    mutation_graph,
    order_antichain,
    slot_fillers,
    subcategory_covers,
)
from ncpq.weyl import chain_counts, simple_root
from oracles import (
    CLOSED_FORM_PINS,
    DYNKIN_QUIVERS,
    exceptional_sequences,
    is_nonneg_combination,
    mutation_edges_by_braid_mutate,
    oriented_dynkin,
    simples_by_injective_maps,
    subcategories,
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


def _orthogonal(reg, a, b):
    return reg.hom(a, b) == 0 and reg.ext(a, b) == 0


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
    for r in roots:
        assert right_perp([r], d5_reg) == d5_reg.right_orth(r) == _pairwise_right_perp([r], d5_reg)
        assert left_perp([r], d5_reg) == d5_reg.left_orth(r) == _pairwise_left_perp([r], d5_reg)
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
        for antichain in enumerate_exceptional_antichains(reg.quiver, reg):
            seq = ExcSequence(order_antichain(antichain, reg))
            sub = thick_closure(seq, reg)
            assert frozenset(sub.simples) == antichain


@pytest.mark.parametrize("label", ["A3", "D4", "D5", "E6"])
def test_simples_match_the_injective_map_definition(label):
    # Every closure of the orientation: the Hom-dimension criterion against
    # embeddings found in explicit Hom bases, and against the antichain.
    q = DYNKIN_QUIVERS[label]
    reg = build_registry(q)
    for antichain in enumerate_exceptional_antichains(q, reg):
        ind = closure_indecomposables(order_antichain(antichain, reg), reg)
        simples = _subcategory_simples(ind, reg)
        assert simples == simples_by_injective_maps(ind, reg)
        assert frozenset(simples) == antichain


def test_relative_root_count_matches_generated_roots(monkeypatch):
    # Every relative Ext-quiver met while closing all D5 antichains: the
    # count read off its Dynkin type against its generated roots.
    q = DYNKIN_QUIVERS["D5"]
    reg = build_registry(q)
    real = exc._finite_root_count
    met = set()

    def recording(relative):
        met.add(relative)
        return real(relative)

    monkeypatch.setattr(exc, "_finite_root_count", recording)
    for antichain in enumerate_exceptional_antichains(q, reg):
        thick_closure(ExcSequence(order_antichain(antichain, reg)), reg)
    assert len(met) > 5
    for relative in met:
        assert real(relative) == len(generate_roots(relative).positive_real_roots)


def test_relative_root_count_refuses_a_non_finite_quiver(kronecker):
    with pytest.raises(NcpqError):
        exc._finite_root_count(kronecker)


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
    # mutation_graph raises internally if any edge changes the product
    seqs = enumerate_complete_sequences(a3_reg.quiver, a3_reg)
    nodes, edges = mutation_graph(seqs, a3_reg)
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
        mutation_graph(seqs, reg)


@pytest.mark.parametrize("label", ["A3", "A4", "D4", "D5"])
def test_mutation_graph_matches_per_edge_braid_mutate(label):
    q = DYNKIN_QUIVERS[label]
    reg = build_registry(q)
    seqs = enumerate_complete_sequences(q, reg)
    nodes, edges = mutation_graph(seqs, reg)
    assert nodes == sorted(seqs, key=lambda s: s.roots)
    assert edges == mutation_edges_by_braid_mutate(seqs, reg)


def test_mutation_graph_rejects_a_non_exceptional_sequence(a3_reg):
    seqs = enumerate_complete_sequences(a3_reg.quiver, a3_reg)
    bad = next(ExcSequence(p) for p in itertools.permutations(
        simple_root(3, i) for i in (1, 2, 3)) if not is_exceptional_sequence(p, a3_reg))
    with pytest.raises(ValidationError, match="not an exceptional sequence"):
        mutation_graph(seqs | {bad}, a3_reg)


def test_mutation_graph_rejects_an_incomplete_sequence(a3_reg):
    seqs = enumerate_complete_sequences(a3_reg.quiver, a3_reg)
    with pytest.raises(ValidationError, match="complete"):
        mutation_graph(seqs | {ExcSequence(((1, 0, 0),))}, a3_reg)


def test_mutation_graph_rejects_a_set_missing_a_neighbor(a3_reg):
    seqs = sorted(enumerate_complete_sequences(a3_reg.quiver, a3_reg), key=lambda s: s.roots)
    with pytest.raises(ValidationError, match="left the given sequence set"):
        mutation_graph(set(seqs[1:]), a3_reg)


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

    monkeypatch.setattr(exc, "_complete_sequences", unlisted)
    with pytest.raises(CapExceededError, match=f"sequence count exceeds cap {count - 1}$"):
        enumerate_complete_sequences(q, reg, cap=count - 1)


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
    expected = {sub.ind_roots: sub for sub in subcategories(q, reg)}
    descent = subcategory_covers(reg)
    assert descent.keys() == expected.keys()
    for ind, children in descent.items():
        assert exc._checked_subcategory(ind, expected[ind].rank, reg) == expected[ind]
        assert all(expected[a].rank == expected[ind].rank - 1 for a in children)


@pytest.mark.parametrize("label", sorted(CLOSED_FORM_PINS))
def test_descent_matches_the_closed_forms(label):
    catalan, sequences = CLOSED_FORM_PINS[label]
    covers = subcategory_covers(build_registry(DYNKIN_QUIVERS[label]))
    assert len(covers) == catalan
    assert chain_counts(covers)[next(iter(covers))] == sequences


def test_subcategory_check_runs_the_fixpoint(a3_reg):
    # {S2, S3, P12} has the two simples S2, S3, which order into an
    # exceptional sequence whose relative quiver A2 has 3 roots, but it is
    # not their thick closure {S2, S3, P23}: only the fixpoint catches it.
    fake = frozenset({(0, 1, 0), (0, 0, 1), (1, 1, 0)})
    with pytest.raises(NcpqError, match="fixpoint"):
        exc._checked_subcategory(fake, 2, a3_reg)


def test_subcategory_check_refuses_the_wrong_rank(a3_reg):
    everything = frozenset(a3_reg.roots())
    assert exc._checked_subcategory(everything, 3, a3_reg).rank == 3
    for rank in (2, 4):
        with pytest.raises(NcpqError, match=f"rank {rank} has 3 simples"):
            exc._checked_subcategory(everything, rank, a3_reg)


def test_descent_refuses_a_set_met_at_two_levels(a3, monkeypatch):
    # A registry whose P123^⊥ holds everything the first time it is asked
    # hands the whole category back as its own child, once, so a descent
    # without the check still ends.
    reg = build_registry(a3)
    real = reg.right_orth
    corrupted = [(1, 1, 1)]

    def right_orth(x):
        if x in corrupted:
            corrupted.remove(x)
            return frozenset(reg.roots())
        return real(x)

    monkeypatch.setattr(reg, "right_orth", right_orth)
    with pytest.raises(NcpqError, match="two levels"):
        subcategory_covers(reg)


def test_antichains_a2(a2_reg):
    antichains = enumerate_exceptional_antichains(a2_reg.quiver, a2_reg)
    assert antichains == {
        frozenset(), frozenset({S1}), frozenset({S2}), frozenset({P1}),
        frozenset({S1, S2})}


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
