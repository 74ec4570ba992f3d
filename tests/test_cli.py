"""End-to-end tests of the command-line interface: exit codes, output
formats, round-trips, and DOT well-formedness."""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings

import ncpq.weyl
from ncpq import (
    cartan_matrix,
    cli,
    coxeter_element,
    enumerate_complete_sequences,
    parse_quiver,
    simple_root,
    topological_order,
)
from ncpq.bijection import BijectionReport
from ncpq.cli import main
from ncpq.errors import (
    CapExceededError,
    NcpqError,
    NonFiniteTypeError,
    QuiverParseError,
    ValidationError,
)
from ncpq.hurwitz import braid_edges
from ncpq.weyl import WeylElement, generate_roots

from conftest import A2_TEXT, A3_TEXT, D4_TEXT, KRONECKER_TEXT, height_steps_with
from oracles import (FACTORIZATION_COUNTS, absolute_leq, hurwitz_orbit, is_connected,
                     minimal_reflection_factorizations, oriented_dynkin, tuple_from_roots)

THREE_KRONECKER_TEXT = "vertices 2\narrow 1 2\narrow 1 2\narrow 1 2\n"


@pytest.fixture
def quiver_file(tmp_path):
    def write(text, name="q.quiver"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def check_dot(text: str) -> None:
    """Minimal structural check of DOT output: one graph block, balanced
    braces, and every statement an identifier, edge, or attribute line."""
    text = text.strip()
    match = re.match(r"^(digraph|graph)\s+\w+\s*\{(.*)\}$", text, re.DOTALL)
    assert match, f"not a graph block: {text[:60]!r}"
    directed = match.group(1) == "digraph"
    edge_op = "->" if directed else "--"
    for statement in match.group(2).split(";"):
        statement = statement.strip()
        if not statement:
            continue
        assert re.match(
            rf"^\w+(\s*\[label=\"[^\"]*\"\])?$|^\w+\s*{re.escape(edge_op)}\s*\w+$",
            statement), f"bad statement {statement!r}"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_a2_text(quiver_file, capsys):
    assert main(["analyze", quiver_file(A2_TEXT)]) == 0
    out = capsys.readouterr().out
    assert "Finite(A2), 3 positive roots" in out


def test_analyze_kronecker_text(quiver_file, capsys):
    assert main(["analyze", quiver_file(KRONECKER_TEXT)]) == 0
    out = capsys.readouterr().out
    assert "Affine" in out and "truncated" in out


def test_analyze_json(quiver_file, capsys):
    assert main(["analyze", quiver_file(A3_TEXT), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dynkin_label"] == "A3"
    assert payload["positive_roots"] == 6
    assert payload["cartan"] == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


def test_analyze_json_on_an_indefinite_quiver(quiver_file, capsys):
    assert main(["analyze", quiver_file(THREE_KRONECKER_TEXT), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "indefinite"
    assert payload["complete"] is False


# A wild quiver on three vertices with 348 real roots of height <= 100.
WILD_TEXT = "vertices 3\narrow 1 2\narrow 1 2\narrow 2 3\n"


def test_analyze_refuses_past_the_root_cap(quiver_file, capsys, monkeypatch):
    # The root cap holds every root at exactly the root count and refuses
    # one root below it, with exit 4.
    path = quiver_file(WILD_TEXT)
    monkeypatch.setattr("ncpq.weyl.DEFAULT_ROOT_CAP", 348)
    assert main(["analyze", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["positive_roots"] == 348
    monkeypatch.setattr("ncpq.weyl.DEFAULT_ROOT_CAP", 347)
    assert main(["analyze", path, "--format", "json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: root count exceeds cap 347\n"


def test_analyze_malformed_exit_2(quiver_file, capsys):
    path = quiver_file("vertices 2\narrow 1 2\narrow 2 9\n")
    assert main(["analyze", path]) == 2
    assert "line 3" in capsys.readouterr().err


def test_missing_file_exit_2(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.quiver")]) == 2


def test_analyze_rejects_dot(quiver_file, capsys):
    assert main(["analyze", quiver_file(A2_TEXT), "--format", "dot"]) == 2


# ---------------------------------------------------------------------------
# nc
# ---------------------------------------------------------------------------


def test_nc_a2_json(quiver_file, capsys):
    assert main(["nc", quiver_file(A2_TEXT), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 5
    lengths = sorted(e["length"] for e in payload["elements"])
    assert lengths == [0, 1, 1, 1, 2]
    # diamond: bottom under the three reflections, reflections under top
    assert sorted(payload["hasse_edges"]) == [
        [0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]


NON_FINITE = {
    "kronecker": KRONECKER_TEXT,  # affine
    "3-kronecker": THREE_KRONECKER_TEXT,  # indefinite
}


@pytest.mark.parametrize("quiver", sorted(NON_FINITE))
@pytest.mark.parametrize("command", ["nc", "verify", "hurwitz", "sequences"])
def test_nc_nonfinite_exit_3(command, quiver, quiver_file, capsys):
    assert main([command, quiver_file(NON_FINITE[quiver])]) == 3


def test_truncated_finite_type_is_refused_once(quiver_file, capsys, monkeypatch):
    # A3 has roots of height 3; below a height bound of 2 its root system
    # is finite but truncated, as D52's is below the default bound.
    monkeypatch.setattr(generate_roots, "__defaults__", (2,))
    path = quiver_file(A3_TEXT)
    assert main(["analyze", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "Finite(A3)" and payload["complete"] is False
    messages = set()
    for command in ("nc", "verify", "hurwitz", "sequences"):
        assert main([command, path]) == 3, command
        captured = capsys.readouterr()
        assert captured.out == ""
        messages.add(captured.err)
    assert messages == {"error: Finite(A3) root system truncated at height 2: this needs "
                        "finite type with every positive root of height <= 2\n"}


D52_TEXT = ("vertices 52\n" + "".join(f"arrow {i} {i + 1}\n" for i in range(1, 51))
            + "arrow 50 52\n")


@pytest.mark.parametrize("quiver, kind", [("d52", "Finite(D52)"), ("kronecker", "Affine")])
@pytest.mark.parametrize("command", ["nc", "verify", "hurwitz", "sequences"])
def test_refused_before_any_root_is_generated(command, quiver, kind, quiver_file, capsys,
                                              monkeypatch):
    # D52's highest root has height 2 * 52 - 3 = 101, above the bound of
    # 100: the classification alone refuses it, as it refuses the affine
    # Kronecker quiver, with the message of RootSystem.require_complete.
    def generated(*args):
        raise AssertionError("roots generated before the refusal")

    path = quiver_file(D52_TEXT if quiver == "d52" else KRONECKER_TEXT)
    monkeypatch.setattr("ncpq.weyl.generate_roots", generated)
    assert main([command, path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {kind} root system truncated at height 100: this needs "
                            "finite type with every positive root of height <= 100\n")


@pytest.mark.parametrize("command", ["verify", "nc", "hurwitz", "sequences"])
def test_the_input_quiver_is_classified_once(command, quiver_file, capsys, monkeypatch):
    # complete_roots classifies the quiver to refuse it early and hands the
    # classification on to generate_roots, which does not classify again.
    classified = []
    real = ncpq.weyl.classify_type

    def counted(cartan):
        classified.append(cartan)
        return real(cartan)

    monkeypatch.setattr("ncpq.weyl.classify_type", counted)
    assert main([command, quiver_file(D4_TEXT)]) == 0
    capsys.readouterr()
    assert classified == [cartan_matrix(parse_quiver(D4_TEXT))]


def test_analyze_keeps_the_truncated_count_of_d52(quiver_file, capsys):
    assert main(["analyze", quiver_file(D52_TEXT), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "Finite(D52)" and payload["complete"] is False
    assert payload["positive_roots"] == 52 * 51 - 1  # all but the highest root


def test_nc_dot(quiver_file, capsys):
    assert main(["nc", quiver_file(A2_TEXT), "--format", "dot"]) == 0
    check_dot(capsys.readouterr().out)


def test_nc_d4_count(quiver_file, capsys):
    assert main(["nc", quiver_file(D4_TEXT), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 50


def test_nc_hasse_edges_are_length_one_order_pairs_d4(quiver_file, capsys, d4_roots):
    assert main(["nc", quiver_file(D4_TEXT), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    w = {e["id"]: WeylElement(tuple(map(tuple, e["matrix"]))) for e in payload["elements"]}
    length = {e["id"]: e["length"] for e in payload["elements"]}
    expected = sorted([a, b] for a in w for b in w
                      if length[b] == length[a] + 1 and absolute_leq(w[a], w[b], d4_roots))
    assert payload["hasse_edges"] == expected


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_a2_json_round_trip(quiver_file, capsys):
    assert main(["verify", quiver_file(A2_TEXT), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    payload = json.loads(out)
    report = BijectionReport.from_dict(payload)
    assert report.all_ok
    assert payload["counts"] == {"subcategories": 5, "nc": 5,
                                 "well_defined_witnesses": 6, "covers": 6, "chains": 3}
    assert json.loads(json.dumps(report.to_dict())) == payload


def test_verify_cap_exceeded_exit_4(quiver_file, capsys, monkeypatch):
    monkeypatch.setattr("ncpq.weyl.DEFAULT_INTERVAL_CAP", 5)
    assert main(["verify", quiver_file(A3_TEXT), "--format", "json"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert any(f["kind"] == "cap_exceeded" for f in payload["failures"])


def test_past_the_cap_every_walking_command_exits_4_before_walking(quiver_file, capsys,
                                                                  monkeypatch):
    # Linear A13 has C(28, 14) / 15 = 2674440 elements of [1, c] and as
    # many subcategories, past the cap of 1000000: each command that walks
    # the diagram refuses with its message, read off the type, before its
    # first cover.
    def walked(*args):
        raise AssertionError("walked past the cap")

    monkeypatch.setattr(ncpq.weyl, "_children", walked)
    path = quiver_file("vertices 13\n" + "".join(f"arrow {i} {i + 1}\n" for i in range(1, 13)))
    for command, what in (("nc", "interval size"), ("hurwitz", "interval size"),
                          ("sequences", "subcategory count")):
        assert main([command, path, "--format", "json"]) == 4
        assert capsys.readouterr() == ("", f"error: {what} exceeds cap 1000000\n")
    assert main(["verify", path, "--format", "json"]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == [{"kind": "cap_exceeded",
                                    "detail": "interval size exceeds cap 1000000"}]
    assert set(payload["counts"].values()) == {None}


def test_verify_inadmissible_order_exit_2(quiver_file, capsys):
    assert main(["verify", quiver_file(A2_TEXT), "--coxeter-order", "2,1"]) == 2


def test_verify_custom_order(quiver_file, capsys):
    path = quiver_file(D4_TEXT)
    assert main(["verify", path, "--coxeter-order", "4,3,1,2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coxeter_order"] == [4, 3, 1, 2]
    assert payload["flags"]["order_iso"]


def test_cap_group_flag_rejected_exit_2(quiver_file, capsys, monkeypatch):
    assert main(["verify", quiver_file(A2_TEXT), "--cap-group", "5"]) == 2
    monkeypatch.setenv("NCPQ_CAP_GROUP", "5")
    assert main(["verify", quiver_file(A2_TEXT)]) == 0


def test_verify_rejects_dot(quiver_file):
    assert main(["verify", quiver_file(A2_TEXT), "--format", "dot"]) == 2


# ---------------------------------------------------------------------------
# hurwitz and sequences
# ---------------------------------------------------------------------------


def test_hurwitz_a3_json(quiver_file, capsys):
    assert main(["hurwitz", quiver_file(A3_TEXT), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["orbit_size"] == 16
    assert payload["factorization_count"] == 16
    assert payload["single_orbit"] is True
    assert len(payload["orbit"]) == 16


def test_hurwitz_cap_exit_4(quiver_file, capsys):
    # Only DOT needs the listing; JSON and text report past the cap.
    assert main(["hurwitz", quiver_file(A3_TEXT), "--cap-orbit", "3", "--format", "dot"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: orbit size exceeds cap 3\n"


def test_hurwitz_dot(quiver_file, capsys):
    assert main(["hurwitz", quiver_file(A2_TEXT), "--format", "dot"]) == 0
    check_dot(capsys.readouterr().out)


@settings(max_examples=40, deadline=None)
@given(oriented_dynkin(["A3", "A4", "A5", "D4", "D5"]))
def test_hurwitz_on_random_orientations(tmp_path_factory, drawn):
    name, q, order = drawn
    work = tmp_path_factory.mktemp("hurwitz")
    path, out = work / "q.quiver", work / "out.json"
    path.write_text(f"vertices {q.n}\n" + "".join(f"arrow {h} {t}\n" for h, t in q.arrows))
    assert main(["hurwitz", str(path), "--coxeter-order", ",".join(map(str, order)),
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["orbit_size"] == payload["factorization_count"] == FACTORIZATION_COUNTS[name]
    assert payload["single_orbit"] is True


def test_sequences_a2_text(quiver_file, capsys):
    assert main(["sequences", quiver_file(A2_TEXT)]) == 0
    assert "3 complete exceptional sequences" in capsys.readouterr().out


def test_sequences_a3_json(quiver_file, capsys):
    assert main(["sequences", quiver_file(A3_TEXT), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 16
    assert payload["connected"] is True
    assert len(payload["mutation_edges"]) > 0


def test_sequences_dot(quiver_file, capsys):
    assert main(["sequences", quiver_file(A3_TEXT), "--format", "dot"]) == 0
    check_dot(capsys.readouterr().out)


def test_sequences_cap_exit_4(quiver_file, capsys):
    # Only DOT needs the listing; JSON and text report past the cap.
    assert main(["sequences", quiver_file(A3_TEXT), "--cap-sequences", "2", "--format", "dot"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: sequence count exceeds cap 2\n"


@pytest.mark.parametrize("command", ["hurwitz", "sequences"])
def test_json_is_one_line_with_the_library_payload(command, quiver_file, capsys, a3, a3_reg):
    path = quiver_file(A3_TEXT)
    assert main([command, path, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    if command == "hurwitz":
        order = topological_order(a3)
        orbit = sorted(hurwitz_orbit(tuple_from_roots(a3, tuple(simple_root(3, i) for i in order))),
                       key=lambda t: t.roots)
        count = len(minimal_reflection_factorizations(coxeter_element(a3, order), a3_reg.rootsystem))
        expected = {"quiver": path, "coxeter_order": list(order), "orbit_size": len(orbit),
                    "factorization_count": count, "single_orbit": len(orbit) == count,
                    "orbit": [list(map(list, t.roots)) for t in orbit]}
    else:
        nodes = sorted(enumerate_complete_sequences(a3, a3_reg), key=lambda s: s.roots)
        edges = braid_edges([s.roots for s in nodes], a3_reg.rootsystem)
        expected = {"quiver": path, "count": len(nodes),
                    "connected": is_connected(len(nodes), edges),
                    "sequences": [list(map(list, s.roots)) for s in nodes],
                    "mutation_edges": [list(e) for e in sorted(edges)]}
    assert json.loads(out) == expected


CAP_FLAGS = {"hurwitz": "--cap-orbit", "sequences": "--cap-sequences"}


@pytest.mark.parametrize("command", sorted(CAP_FLAGS))
def test_past_the_cap_the_count_and_certificate_are_reported(command, quiver_file, capsys,
                                                             monkeypatch):
    # A3 has 16 factorizations and 16 sequences: cap 16 lists them, cap 15
    # reports the count and the certificate without ever listing.
    path = quiver_file(A3_TEXT)
    listed = "orbit" if command == "hurwitz" else "sequences"
    assert main([command, path, CAP_FLAGS[command], "16", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)[listed]) == 16

    def unlisted(*args):
        raise AssertionError("chains listed past the cap")

    monkeypatch.setattr(cli, "maximal_chains", unlisted)
    assert main([command, path, CAP_FLAGS[command], "15", "--format", "json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    # The streamed JSON writes the unlisted chains as null, in one compact dump.
    assert out == _compact(out) and f'"{listed}":null' in out
    assert main([command, path, CAP_FLAGS[command], "15"]) == 0
    text = capsys.readouterr().out
    if command == "hurwitz":
        assert payload == {"quiver": path, "coxeter_order": [1, 2, 3], "orbit_size": 16,
                           "factorization_count": 16, "single_orbit": True, "orbit": None}
        assert text == "orbit size 16, factorizations 16, single orbit: True\n"
    else:
        assert payload == {"quiver": path, "count": 16, "connected": True,
                           "sequences": None, "mutation_edges": None}
        assert text == "16 complete exceptional sequences, mutation graph connected: True\n"


@pytest.mark.parametrize("command, output_format, listed, drawn", [
    ("hurwitz", "text", 0, 0), ("hurwitz", "json", 1, 0), ("hurwitz", "dot", 1, 1),
    ("sequences", "text", 0, 0), ("sequences", "json", 1, 1), ("sequences", "dot", 1, 1)])
def test_only_the_outputs_that_show_them_list_chains_and_draw_the_graph(
        command, output_format, listed, drawn, quiver_file, capsys, monkeypatch):
    # Text prints the count and the certificate alone; hurwitz JSON lists
    # the orbit but holds no graph.
    calls = {"maximal_chains": 0, "braid_edges": 0}

    def counting(name):
        real = getattr(cli, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    assert main([command, quiver_file(A3_TEXT), "--format", output_format]) == 0
    assert calls == {"maximal_chains": listed, "braid_edges": drawn}


@pytest.mark.parametrize("command, output_format", [("sequences", "json"), ("hurwitz", "dot")])
def test_a_corrupted_reflection_fails_the_braid_graph(command, output_format, quiver_file,
                                                      capsys, monkeypatch):
    # Both commands draw their braid graph on the root system's steps, and
    # the pair-product check refuses a2 given the step of s1 as a bug. The
    # steps are corrupted only once the walk is made, so it is the graph
    # that meets them.
    def corrupting(walk):
        def walked(*args):
            covers = walk(*args)
            monkeypatch.setattr(ncpq.weyl.RootSystem, "height_steps",
                                height_steps_with((0, 1, 0), (1, 0, 0)))
            return covers
        return walked

    for walk in ("walk_elements", "subcategory_covers"):
        monkeypatch.setattr(cli, walk, corrupting(getattr(cli, walk)))
    assert main([command, quiver_file(A3_TEXT), "--format", output_format]) == 5
    captured = capsys.readouterr()
    assert captured.out == "" and "reflection product" in captured.err


@pytest.mark.parametrize("command", ["nc", "verify", "hurwitz", "sequences"])
def test_each_command_walks_the_one_diagram_once(command, quiver_file, capsys, monkeypatch):
    # nc, verify, hurwitz and sequences all read the one mask diagram of
    # both posets, made by a single walk, whichever module calls it.
    calls = []
    real = ncpq.weyl.mask_covers
    for name, module in list(sys.modules.items()):
        if name.startswith("ncpq.") and getattr(module, "mask_covers", None) is real:
            monkeypatch.setattr(module, "mask_covers",
                                lambda *args: calls.append(args) or real(*args))
    assert main([command, quiver_file(D4_TEXT), "--format", "json"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("output_format", ["json", "text", "dot"])
def test_hurwitz_runs_no_braid_search(output_format, quiver_file, capsys):
    # The count, the certificate and the listing all come from the one
    # interval walk; the package holds no braid search to run.
    assert main(["hurwitz", quiver_file(D4_TEXT), "--format", output_format]) == 0
    out = capsys.readouterr().out
    if output_format == "json":
        payload = json.loads(out)
        assert payload["orbit_size"] == len(payload["orbit"]) == 162
    elif output_format == "dot":
        check_dot(out)


def _split_at_the_top(monkeypatch) -> None:
    """Make the certificate's component search read the letter graph of
    the whole category (every root) as two components, so it fails."""
    real = ncpq.weyl.connected_components

    def split(vertices, neighbours):
        comps = real(vertices, neighbours)
        if vertices.bit_count() == len(neighbours):
            low = vertices & -vertices
            return [low, vertices ^ low]
        return comps

    monkeypatch.setattr(ncpq.weyl, "connected_components", split)


def test_a_dropped_cover_fails_the_hurwitz_certificate(quiver_file, capsys, monkeypatch):
    # The diagram holds masks alone, so a cover cannot be dropped; a node
    # can, the first one below the top, and it is an internal error in
    # every format. A certificate that fails on the whole diagram exits 1:
    # JSON reports no orbit size, and DOT draws no graph and says so on
    # one line of stderr.
    real = ncpq.weyl.mask_covers

    def dropped(roots):
        covers = real(roots)
        del covers[list(covers)[1]]
        return covers

    path = quiver_file(A3_TEXT)
    with monkeypatch.context() as patched:
        patched.setattr(ncpq.weyl, "mask_covers", dropped)
        for output_format in ("json", "text", "dot"):
            assert main(["hurwitz", path, "--format", output_format]) == 5
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.endswith("; this is a bug\n")
    _split_at_the_top(monkeypatch)
    assert main(["hurwitz", path, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["single_orbit"] is False and payload["orbit_size"] is None
    assert payload["factorization_count"] == len(payload["orbit"]) == 16
    # DOT draws no graph on a failed certificate: one line on stderr, exit 1.
    assert main(["hurwitz", path, "--format", "dot"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verification failed: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("output_format", ["json", "dot"])
def test_a_dropped_cover_fails_the_sequences_certificate(output_format, quiver_file, capsys,
                                                         monkeypatch):
    # The descent twin: a subcategory of rank 2 below the whole category
    # is dropped from the diagram, an internal error. A certificate that
    # fails on the whole diagram means the chains are not one mutation
    # class: no braid graph is drawn on them, and the command exits 1, not 2.
    real = cli.subcategory_covers

    def dropped(reg):
        covers = real(reg)
        del covers[list(covers)[1]]
        return covers

    path = quiver_file(A3_TEXT)
    with monkeypatch.context() as patched:
        patched.setattr(cli, "subcategory_covers", dropped)
        assert main(["sequences", path, "--format", output_format]) == 5
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith("; this is a bug\n")
    _split_at_the_top(monkeypatch)
    assert main(["sequences", path, "--format", output_format]) == 1
    captured = capsys.readouterr()
    if output_format == "json":
        payload = json.loads(captured.out)
        assert payload["connected"] is False and payload["mutation_edges"] is None
        assert payload["count"] == len(payload["sequences"]) == 16
    else:
        assert captured.out == ""
        assert captured.err.startswith("verification failed: ")
        assert captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# shared options
# ---------------------------------------------------------------------------


def test_out_file(quiver_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", quiver_file(A2_TEXT), "--format", "json",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert BijectionReport.from_dict(json.loads(out.read_text())).all_ok


@pytest.mark.parametrize("command, output_format", [
    pytest.param("analyze", "json", id="analyze"), pytest.param("verify", "json", id="verify"),
    ("hurwitz", "json"), ("hurwitz", "dot"), ("sequences", "json"), ("sequences", "dot")])
def test_unwritable_out_exit_2(command, output_format, quiver_file, tmp_path, capsys):
    # Streamed JSON and one-piece DOT go through the one writer, which
    # opens the file inside its guard.
    target = tmp_path / "missing" / "report.json"
    assert main([command, quiver_file(A2_TEXT), "--format", output_format,
                 "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1


def _compact(out: str) -> str:
    return json.dumps(json.loads(out), separators=(",", ":")) + "\n"


@pytest.mark.parametrize("text", [A3_TEXT, D4_TEXT], ids=["A3", "D4"])
@pytest.mark.parametrize("command", ["analyze", "nc", "verify", "hurwitz", "sequences"])
def test_json_is_one_compact_dump_on_stdout_and_through_out(command, text, quiver_file,
                                                            tmp_path, capsys):
    # JSON is written one top-level key at a time, a listing's chains in
    # batches, and its bytes are still those of one compact dump of the
    # payload; --out writes the bytes that stdout gets.
    path, target = quiver_file(text), tmp_path / "out.json"
    assert main([command, path, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == _compact(out)
    assert main([command, path, "--format", "json", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert _mask_elapsed(target.read_bytes().decode()) == _mask_elapsed(out)


E6_TEXT = "vertices 6\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 3 6\n"


def test_json_listing_crosses_a_batch_boundary(quiver_file, capsys):
    # E6 has 41,472 minimal factorizations of c: ten full batches of
    # chains and part of an eleventh, joined by one comma each.
    assert main(["hurwitz", quiver_file(E6_TEXT), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == _compact(out)
    assert len(json.loads(out)["orbit"]) == 41472 > 10 * cli._BATCH


def test_unwritable_out_prints_no_traceback(quiver_file, tmp_path):
    target = tmp_path / "missing" / "report.json"
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "ncpq.cli", "analyze", quiver_file(A2_TEXT),
                           "--out", str(target)], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 2
    assert done.stdout == "" and "Traceback" not in done.stderr
    assert done.stderr.startswith(f"error: cannot write {target}: ")


def test_jobs_flag_rejected_exit_2(quiver_file):
    assert main(["sequences", quiver_file(A2_TEXT), "--jobs", "4"]) == 2


def test_seed_flag_rejected_exit_2(quiver_file):
    assert main(["verify", quiver_file(A2_TEXT), "--seed", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--cap-orbit", "5"],
    ["analyze", "--coxeter-order", "1,2"],
    ["sequences", "--coxeter-order", "1,2"],
    ["nc", "--cap-sequences", "5"],
    ["hurwitz", "--cap-sequences", "5"],
    ["sequences", "--cap-orbit", "5"],
    ["hurwitz", "--cap-orbit", "0"],
    ["sequences", "--cap-sequences", "-1"],
    ["hurwitz", "--cap-orbit", "x"],
])
def test_flags_a_command_does_not_read_exit_2(argv, quiver_file, capsys):
    command, *flags = argv
    assert main([command, quiver_file(A2_TEXT), *flags]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_order_string_exit_2(quiver_file, capsys):
    assert main(["verify", quiver_file(A2_TEXT), "--coxeter-order", "x,y"]) == 2


# ---------------------------------------------------------------------------
# the command-line contract: spellings, usage errors and help
# ---------------------------------------------------------------------------


def _mask_elapsed(text: str) -> str:
    return re.sub(r'"elapsed_ms":[0-9.e+-]+', '"elapsed_ms":0', text)


# Each accepted spelling of an option ("Q" stands for the quiver file)
# prints what its plain spelling prints.
@pytest.mark.parametrize("argv, plain", [
    (["verify", "Q", "--format=json"], ["verify", "Q", "--format", "json"]),
    (["verify", "--format", "json", "Q"], ["verify", "Q", "--format", "json"]),
    (["verify", "Q", "--form", "json"], ["verify", "Q", "--format", "json"]),
    (["hurwitz", "Q", "--cap", "5", "--format", "json"],
     ["hurwitz", "Q", "--cap-orbit", "5", "--format", "json"]),
])
def test_accepted_spellings_print_what_the_plain_one_prints(argv, plain, quiver_file, capsys):
    path = quiver_file(A3_TEXT)
    outputs = []
    for words in (argv, plain):
        assert main([path if w == "Q" else w for w in words]) == 0
        outputs.append(_mask_elapsed(capsys.readouterr().out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate", "Q"],
    ["verify"],
    ["verify", "Q", "Q"],
    ["verify", "Q", "--format"],
    ["verify", "Q", "--cap-orbit", "5"],
    ["sequences", "Q", "--coxeter-order", "1,2,3"],
    ["verify", "Q", "--format", "dot"],
    ["analyze", "Q", "--format", "dot"],
    ["verify", "Q", "--coxeter-order", "1,x"],
    ["hurwitz", "Q", "--cap-orbit", "0"],
    ["hurwitz", "Q", "--cap-orbit", "-1"],
    ["verify", "Q", "--", "--x"],
], ids=lambda argv: " ".join(argv) or "no words")
def test_usage_errors_exit_2(argv, quiver_file, capsys):
    path = quiver_file(A3_TEXT)
    assert main([path if w == "Q" else w for w in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"^ncpq( [a-z]+)?: error: ", captured.err, re.M), captured.err


@pytest.mark.parametrize("argv, commands", [
    (["-h"], ["analyze", "nc", "verify", "hurwitz", "sequences"]),
    (["verify", "-h"], ["verify"]),
])
def test_help_prints_usage_and_exits_0(argv, commands, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert all(command in out for command in commands), out


def test_help_usage_is_the_readme_usage(capsys):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0].splitlines()
    assert main(["-h"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(line in block for line in lines), lines


def test_a_call_loads_no_argument_parser(quiver_file, tmp_path):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    script = ("import sys\nfrom ncpq.cli import main\n"
              f"assert main(['verify', {quiver_file(A3_TEXT)!r}, '--format', 'json', "
              f"'--out', {str(tmp_path / 'a3.json')!r}]) == 0\n"
              "print(sorted({'argparse', 'gettext', 'locale'} & sys.modules.keys()))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# ---------------------------------------------------------------------------
# exit-code mapping of the error hierarchy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("error, code, prefix", [
    (QuiverParseError("bad line", 3), 2, "error:"),
    (ValidationError("bad argument"), 2, "error:"),
    (NonFiniteTypeError("affine"), 3, "error:"),
    (CapExceededError("too many"), 4, "error:"),
    (NcpqError("broken invariant"), 5, "internal error:"),
])
def test_error_exit_codes(error, code, prefix, quiver_file, monkeypatch, capsys):
    def raising(cfg):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "analyze", (raising, *cli._COMMANDS["analyze"][1:]))
    assert main(["analyze", quiver_file(A2_TEXT)]) == code
    assert capsys.readouterr().err.startswith(f"{prefix} {error}")


@pytest.mark.parametrize("code", [0, 1])
def test_command_exit_code_passes_through(code, quiver_file, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, "analyze", (lambda cfg: code, *cli._COMMANDS["analyze"][1:]))
    assert main(["analyze", quiver_file(A2_TEXT)]) == code

