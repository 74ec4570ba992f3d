"""Tests for quiver parsing, the bilinear forms, and type classification."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncpq import (
    CartanMatrix,
    Classification,
    Quiver,
    build_registry,
    cartan_matrix,
    classify_type,
    euler_form,
    generate_roots,
    parse_quiver,
    positive_root_count,
    symmetric_form,
    topological_order,
)
from ncpq import quiver
from ncpq.errors import QuiverParseError, ValidationError
from ncpq.quiver import (connected_components, coxeter_catalan, is_admissible_order,
                         topological_sort)

from oracles import (CLOSED_FORM_PINS, COXETER_CATALAN, DYNKIN_QUIVERS, FAMILY_PINS, _ext_quiver,
                     kind_by_principal_minor_sums, leading_principal_minors, neighbour_masks,
                     random_acyclic_quiver, topological_sort_by_heap)

E1, E2 = (1, 0), (0, 1)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_basic():
    q = parse_quiver("vertices 2\narrow 1 2")
    assert q == Quiver(2, ((1, 2),))


def test_parse_single_vertex():
    assert parse_quiver("vertices 1") == Quiver(1, ())


def test_parse_two_cycle_rejected():
    with pytest.raises(QuiverParseError, match="cycle"):
        parse_quiver("vertices 2\narrow 1 2\narrow 2 1")


def test_parse_comments_and_whitespace():
    text = "# a quiver\n  vertices   3 # three\n\narrow 1 2\n   arrow 2 3  # last\n"
    assert parse_quiver(text) == Quiver(3, ((1, 2), (2, 3)))


def test_parse_loop_reports_line():
    with pytest.raises(QuiverParseError, match="line 2") as exc:
        parse_quiver("vertices 2\narrow 1 1")
    assert exc.value.line == 2


def test_parse_out_of_range_reports_line():
    with pytest.raises(QuiverParseError, match="line 3"):
        parse_quiver("vertices 2\narrow 1 2\narrow 1 5")


def test_parse_unknown_keyword():
    with pytest.raises(QuiverParseError, match="unknown keyword"):
        parse_quiver("vertices 2\nedge 1 2")


def test_parse_arrow_before_vertices():
    with pytest.raises(QuiverParseError, match="before vertices"):
        parse_quiver("arrow 1 2\nvertices 2")


def test_parse_missing_vertices():
    with pytest.raises(QuiverParseError, match="missing vertices"):
        parse_quiver("# nothing here\n")


def test_parse_duplicate_vertices_line():
    with pytest.raises(QuiverParseError, match="duplicate"):
        parse_quiver("vertices 2\nvertices 2")


def test_quiver_equality_is_by_arrow_multiset():
    assert Quiver(3, ((2, 3), (1, 2))) == Quiver(3, ((1, 2), (2, 3)))
    assert Quiver(2, ((1, 2), (1, 2))) != Quiver(2, ((1, 2),))


def test_quiver_rejects_bad_vertex_count():
    with pytest.raises(ValidationError):
        Quiver(0, ())


# ---------------------------------------------------------------------------
# Euler and symmetric forms
# ---------------------------------------------------------------------------


def test_euler_form_a2(a2):
    assert euler_form(a2, E1, E2) == -1
    assert euler_form(a2, E2, E1) == 0
    assert euler_form(a2, E1, E1) == 1
    assert euler_form(a2, E2, E2) == 1


def test_euler_form_dimension_mismatch(a2):
    with pytest.raises(ValidationError):
        euler_form(a2, (1, 0, 0), E2)


def test_symmetric_form_a2(a2):
    assert symmetric_form(a2, E1, E2) == -1
    assert symmetric_form(a2, E1, E1) == 2


def test_symmetric_form_disconnected_pair():
    q = Quiver(3, ((1, 2),))
    assert symmetric_form(q, (1, 0, 0), (0, 0, 1)) == 0


def test_symmetric_form_is_symmetric_random():
    rng = random.Random(7)
    for _ in range(50):
        q = random_acyclic_quiver(rng)
        v = tuple(rng.randint(-4, 4) for _ in range(q.n))
        w = tuple(rng.randint(-4, 4) for _ in range(q.n))
        assert symmetric_form(q, v, w) == symmetric_form(q, w, v)


def test_euler_form_bilinear_random():
    rng = random.Random(11)
    for _ in range(50):
        q = random_acyclic_quiver(rng)
        v, v2, w = (tuple(rng.randint(-4, 4) for _ in range(q.n)) for _ in range(3))
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        combo = tuple(a * x + b * y for x, y in zip(v, v2))
        assert euler_form(q, combo, w) == a * euler_form(q, v, w) + b * euler_form(q, v2, w)


# ---------------------------------------------------------------------------
# Cartan matrix and classification
# ---------------------------------------------------------------------------


def test_cartan_a2(a2):
    assert cartan_matrix(a2).entries == ((2, -1), (-1, 2))


def test_cartan_single_vertex():
    assert cartan_matrix(Quiver(1, ())).entries == ((2,),)


def test_cartan_kronecker(kronecker):
    assert cartan_matrix(kronecker).entries == ((2, -2), (-2, 2))


def test_cartan_invariants_random():
    rng = random.Random(13)
    for _ in range(40):
        q = random_acyclic_quiver(rng)
        c = cartan_matrix(q).entries
        for i in range(q.n):
            assert c[i][i] == 2
            for j in range(q.n):
                assert c[i][j] == c[j][i]
                if i != j:
                    assert c[i][j] <= 0


def test_cartan_matrix_is_the_symmetric_form_on_the_simple_roots(kronecker):
    # `cartan_matrix` counts the arrows; its definition evaluates the form
    # on unit vectors. 40 random acyclic quivers, many with parallel
    # arrows, Kronecker and every Dynkin orientation of the tests.
    rng = random.Random(29)
    drawn = [random_acyclic_quiver(rng, max_arrows=10) for _ in range(40)]
    assert sum(len(set(q.arrows)) < len(q.arrows) for q in drawn) >= 10
    for q in drawn + [kronecker, *DYNKIN_QUIVERS.values()]:
        units = [tuple(int(k == i) for k in range(q.n)) for i in range(q.n)]
        assert cartan_matrix(q).entries == tuple(
            tuple(symmetric_form(q, u, v) for v in units) for u in units)


def test_cartan_matrix_type_rejects_asymmetric():
    with pytest.raises(ValidationError):
        CartanMatrix(((2, -1), (0, 2)))


def test_classify_a2_with_minor_oracle(a2):
    c = cartan_matrix(a2)
    assert [int(m) for m in leading_principal_minors(c.entries)] == [2, 3]
    result = classify_type(c)
    assert result.kind == "finite" and result.label == "A2"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n),
    st.permutations(range(n)))))
def test_positive_definite_is_every_leading_minor_positive(drawn):
    # One Bareiss pass against the cofactor minors of the symmetrized
    # matrix, on its vertices in a drawn order: the same minors, through
    # the first that is <= 0, so every one positive exactly when the
    # submatrix is positive definite (Sylvester).
    entries, vertices = drawn
    n = len(vertices)
    matrix = [[entries[i * n + j] + entries[j * n + i] for j in range(n)] for i in range(n)]
    sub = [[matrix[i][j] for j in vertices] for i in vertices]
    oracle = leading_principal_minors(sub)
    through = next((k + 1 for k, m in enumerate(oracle) if m <= 0), n)
    assert quiver._leading_minors(matrix, vertices) == oracle[:through]


def test_classify_kronecker_affine(kronecker):
    c = cartan_matrix(kronecker)
    assert leading_principal_minors(c.entries)[-1] == 0
    assert classify_type(c).kind == "affine"


def test_classify_indefinite():
    q = Quiver(3, ((1, 2), (1, 2), (1, 3), (1, 3), (2, 3), (2, 3)))
    c = cartan_matrix(q)
    assert leading_principal_minors(c.entries)[-1] < 0
    assert classify_type(c).kind == "indefinite"


def test_classify_labels(a3, a4, d4):
    assert classify_type(cartan_matrix(a3)).label == "A3"
    assert classify_type(cartan_matrix(a4)).label == "A4"
    assert classify_type(cartan_matrix(d4)).label == "D4"


def test_classify_disconnected_label():
    q = Quiver(3, ((1, 2),))
    assert classify_type(cartan_matrix(q)).label == "A1+A2"


def test_classify_orientation_independent():
    rng = random.Random(17)
    for _ in range(25):
        q = random_acyclic_quiver(rng)
        base = classify_type(cartan_matrix(q))
        for k, (h, t) in enumerate(q.arrows):
            flipped = q.arrows[:k] + ((t, h),) + q.arrows[k + 1:]
            try:
                q2 = Quiver(q.n, flipped)
            except ValidationError:
                continue  # the flip created a cycle; not a comparable quiver
            assert classify_type(cartan_matrix(q2)) == base


def test_classify_matches_the_minor_sum_oracle_on_small_multigraphs():
    # Every multigraph on at most 4 vertices with edge multiplicities 0..2,
    # and every simple graph on 5 vertices (1,024), each edge oriented
    # from the smaller vertex. A finite label counts the generated roots.
    graphs = []
    for n, top in ((1, 3), (2, 3), (3, 3), (4, 3), (5, 2)):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        graphs += [(n, tuple(p for p, m in zip(pairs, mults) for _ in range(m)))
                   for mults in itertools.product(range(top), repeat=len(pairs))]
    assert sum(n == 5 for n, _ in graphs) == 1024
    kinds = set()
    for n, arrows in graphs:
        q = Quiver(n, arrows)
        c = cartan_matrix(q)
        got = classify_type(c)
        assert got.kind == kind_by_principal_minor_sums(c.entries), arrows
        assert (got.label is not None) == got.is_finite
        if got.is_finite:
            assert positive_root_count(got.label) == len(generate_roots(q).positive_real_roots)
        kinds.add((n, got.kind))
    assert {(5, "finite"), (5, "affine"), (5, "indefinite")} <= kinds


def _relabelled(entries, perm) -> CartanMatrix:
    """The Cartan matrix with vertex i renamed perm[i]."""
    n = len(entries)
    inverse = sorted(range(n), key=perm.__getitem__)
    return CartanMatrix(tuple(tuple(entries[inverse[i]][inverse[j]] for j in range(n))
                              for i in range(n)))


def _star(*legs: int) -> Quiver:
    """Tree with centre 1 and one path of each given length hanging off it,
    arrows pointing away from the centre: T(p, q, r) is _star(p-1, q-1, r-1)."""
    arrows, n = [], 1
    for length in legs:
        prev = 1
        for _ in range(length):
            n += 1
            arrows.append((prev, n))
            prev = n
    return Quiver(n, tuple(arrows))


@pytest.mark.parametrize("quiver, kind", [
    (Quiver(2, ((1, 2), (1, 2))), "affine"),  # Kronecker
    (Quiver(4, ((1, 2), (2, 3), (3, 4), (1, 4))), "affine"),  # acyclic A~3
    (_star(1, 1, 1, 1), "affine"),  # D~4
    (_star(2, 2, 2), "affine"),  # E~6
    (_star(1, 3, 3), "affine"),  # E~7
    (_star(1, 2, 5), "affine"),  # E~8
    (Quiver(2, ((1, 2),) * 3), "indefinite"),  # 3-Kronecker
    (_star(1, 2, 6), "indefinite"),  # T(2, 3, 7)
    (Quiver(4, ((1, 2),) + ((3, 4),) * 2), "affine"),  # A2 + Kronecker
    (Quiver(4, ((1, 2),) + ((3, 4),) * 3), "indefinite"),  # A2 + 3-Kronecker
    # two 3-Kroneckers joined by an edge: two negative eigenvalues, so the
    # determinant is positive (21) and only the smaller minors show it
    (Quiver(4, ((1, 2),) * 3 + ((1, 3),) + ((3, 4),) * 3), "indefinite"),
])
def test_classify_affine_and_indefinite_table(quiver, kind):
    assert classify_type(cartan_matrix(quiver)).kind == kind


@pytest.mark.parametrize("quiver, kind, label", [
    (DYNKIN_QUIVERS["D5"], "finite", "D5"),
    (DYNKIN_QUIVERS["E6"], "finite", "E6"),
    (_star(2, 2, 2), "affine", None),  # E~6
])
def test_classify_reads_every_relabelling_alike(quiver, kind, label):
    # Every renaming of the vertices: the reader reads degrees and legs
    # off bit masks, so none may depend on which bit a vertex has.
    entries = cartan_matrix(quiver).entries
    for perm in itertools.permutations(range(quiver.n)):
        assert classify_type(_relabelled(entries, perm)) == Classification(kind, label), perm


@pytest.mark.parametrize("legs", [(1, 3, 3), (1, 2, 5)])  # E~7, E~8
def test_reader_refuses_every_relabelling_of_an_affine_star(legs):
    # Every renaming of the 8 or 9 vertices through the shape reader, and
    # 500 drawn ones through the whole classification.
    star = _star(*legs)
    n, full = star.n, (1 << star.n) - 1
    for perm in itertools.permutations(range(n)):
        neighbours = [0] * n
        for h, t in star.arrows:
            neighbours[perm[h - 1]] |= 1 << perm[t - 1]
            neighbours[perm[t - 1]] |= 1 << perm[h - 1]
        assert quiver._dynkin_component_label(full, neighbours) is None, perm
    rng = random.Random(42)
    entries = cartan_matrix(star).entries
    for _ in range(500):
        perm = rng.sample(range(n), n)
        assert classify_type(_relabelled(entries, perm)).kind == "affine", perm


def test_a_finite_quiver_takes_no_elimination(monkeypatch):
    # A finite component is read off its shape; the Bareiss pass runs
    # only for the determinant of a component that is not finite.
    calls = []
    real = quiver._leading_minors
    monkeypatch.setattr(quiver, "_leading_minors", lambda *a: calls.append(a) or real(*a))
    for name, q in DYNKIN_QUIVERS.items():
        assert classify_type(cartan_matrix(q)) == Classification("finite", name)
    assert calls == []
    assert classify_type(cartan_matrix(_star(1, 2, 5))).kind == "affine"
    assert len(calls) == 1


def test_classify_is_polynomial_on_a20():
    # Linear A20: the sum over all principal minors would take 2^20 of them.
    q = Quiver(20, tuple((i, i + 1) for i in range(1, 20)))
    assert str(classify_type(cartan_matrix(q))) == "Finite(A20)"


def test_positive_root_counts():
    assert positive_root_count("A2") == 3
    assert positive_root_count("A3") == 6
    assert positive_root_count("A4") == 10
    assert positive_root_count("D4") == 12
    assert positive_root_count("E8") == 120
    assert positive_root_count("A1+A2") == 4


def test_coxeter_catalan_numbers_are_the_pins():
    # The walk's node count, read off the label, against the closed-form
    # pins the tests hold; a product of types multiplies them.
    pins = {**COXETER_CATALAN, **{name: size for name, (size, _) in CLOSED_FORM_PINS.items()},
            **{name: size for name, (size, _) in FAMILY_PINS.items()}}
    assert {name: coxeter_catalan(name) for name in pins} == pins
    assert coxeter_catalan("A1+A1+A1") == 8
    assert coxeter_catalan("A2+D4") == 5 * 50
    with pytest.raises(ValidationError, match="unknown Dynkin label 'B3'"):
        coxeter_catalan("B3")


# ---------------------------------------------------------------------------
# vertex orders
# ---------------------------------------------------------------------------


def test_topological_order(a3, d4):
    assert topological_order(a3) == (1, 2, 3)
    assert topological_order(d4) == (1, 3, 4, 2)


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(0, 6))
    if n == 0:
        return 0, []
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=10))


def _before(n, arrows):
    """The predecessor masks of the arrows on vertices 0..n-1."""
    before = [0] * n
    for h, t in arrows:
        before[t] |= 1 << h
    return before


@settings(max_examples=300, deadline=None)
@given(small_digraphs())
def test_topological_sort_is_smallest_admissible_permutation(graph):
    n, arrows = graph
    admissible = [p for p in itertools.permutations(range(n))
                  if all(p.index(h) < p.index(t) for h, t in arrows)]
    expected = min(admissible) if admissible else None
    assert topological_sort((1 << n) - 1, _before(n, arrows)) == expected
    assert topological_sort_by_heap(n, arrows) == expected


def test_topological_sort_refuses_a_cycle_on_its_vertices_only():
    # 0 -> 1 -> 2 -> 0, and a loop at 3: no order on any set holding the
    # cycle or the loop, and the smallest order on a set that breaks both,
    # whose masks still name the vertices left out.
    before = [0b0100, 0b0001, 0b0010, 0b1000]
    assert topological_sort(0b0111, before) is None
    assert topological_sort(0b1000, before) is None
    assert topological_sort(0b0011, before) == (0, 1)
    assert topological_sort(0b0110, before) == (1, 2)
    assert topological_sort(0, before) == ()


@pytest.mark.parametrize("label", sorted(DYNKIN_QUIVERS))
def test_topological_sort_matches_the_heap_oracle(label):
    # The quiver's own arrows, and the Ext-quiver of all its roots read root
    # by root through `reg.ext`, against the registry's Ext screen.
    q = DYNKIN_QUIVERS[label]
    arrows = [(h - 1, t - 1) for h, t in q.arrows]
    assert topological_order(q) == tuple(v + 1 for v in topological_sort_by_heap(q.n, arrows))
    reg = build_registry(q)
    expected = topological_sort_by_heap(len(reg), _ext_quiver(reg.roots(), reg))
    assert expected is not None
    assert topological_sort((1 << len(reg)) - 1, reg.ext_into_at) == expected


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 8))
    if n == 0:
        return 0, []
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=14))


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_connected_components_match_union_find(graph):
    n, edges = graph
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in edges:
        parent[find(a)] = find(b)
    blocks = {}
    for v in range(n):
        blocks.setdefault(find(v), []).append(v)
    expected = sorted(blocks.values())
    comps = connected_components((1 << n) - 1, neighbour_masks(n, edges))
    assert [[v for v in range(n) if comp >> v & 1] for comp in comps] == expected


def test_admissible_order(d4):
    assert is_admissible_order(d4, (1, 3, 4, 2))
    assert is_admissible_order(d4, (4, 3, 1, 2))
    assert not is_admissible_order(d4, (2, 1, 3, 4))
    assert not is_admissible_order(d4, (1, 1, 3, 4))
