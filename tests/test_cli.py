"""End-to-end tests of the command-line interface: exit codes, output
formats, round-trips, and DOT well-formedness."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings

from ncpq import (
    absolute_leq,
    cli,
    coxeter_element,
    enumerate_complete_sequences,
    hurwitz_orbit,
    simple_root,
    topological_order,
    tuple_from_roots,
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
from ncpq.exc import is_connected, mutation_graph
from ncpq.weyl import WeylElement, generate_roots

from conftest import A2_TEXT, A3_TEXT, D4_TEXT, KRONECKER_TEXT
from oracles import FACTORIZATION_COUNTS, minimal_reflection_factorizations, oriented_dynkin

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


def test_hurwitz_cap_exit_4(quiver_file):
    assert main(["hurwitz", quiver_file(A3_TEXT), "--cap-orbit", "3"]) == 4


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


def test_sequences_cap_exit_4(quiver_file):
    assert main(["sequences", quiver_file(A3_TEXT), "--cap-sequences", "2"]) == 4


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
                    "orbit": [t.to_json() for t in orbit]}
    else:
        nodes, edges = mutation_graph(enumerate_complete_sequences(a3, a3_reg), a3_reg)
        expected = {"quiver": path, "count": len(nodes),
                    "connected": is_connected(len(nodes), edges),
                    "sequences": [s.to_json() for s in nodes],
                    "mutation_edges": [list(e) for e in sorted(edges)]}
    assert json.loads(out) == expected


# ---------------------------------------------------------------------------
# shared options
# ---------------------------------------------------------------------------


def test_out_file(quiver_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", quiver_file(A2_TEXT), "--format", "json",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert BijectionReport.from_dict(json.loads(out.read_text())).all_ok


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

    monkeypatch.setitem(cli._COMMANDS, "analyze", raising)
    assert main(["analyze", quiver_file(A2_TEXT)]) == code
    assert capsys.readouterr().err.startswith(f"{prefix} {error}")


@pytest.mark.parametrize("code", [0, 1])
def test_command_exit_code_passes_through(code, quiver_file, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, "analyze", lambda cfg: code)
    assert main(["analyze", quiver_file(A2_TEXT)]) == code

