"""End-to-end tests of the command-line interface: exit codes, output
formats, round-trips, and DOT well-formedness."""

from __future__ import annotations

import json
import re

import pytest

from ncpq import cli
from ncpq.bijection import BijectionReport
from ncpq.cli import main
from ncpq.errors import (
    CapExceededError,
    NcpqError,
    NonFiniteTypeError,
    QuiverParseError,
    SearchExhaustedError,
    ValidationError,
)

from conftest import A2_TEXT, A3_TEXT, D4_TEXT, KRONECKER_TEXT


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


def test_nc_nonfinite_exit_3(quiver_file, capsys):
    assert main(["nc", quiver_file(KRONECKER_TEXT)]) == 3


def test_nc_dot(quiver_file, capsys):
    assert main(["nc", quiver_file(A2_TEXT), "--format", "dot"]) == 0
    check_dot(capsys.readouterr().out)


def test_nc_d4_count(quiver_file, capsys):
    assert main(["nc", quiver_file(D4_TEXT), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 50


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_a2_json_round_trip(quiver_file, capsys):
    assert main(["verify", quiver_file(A2_TEXT), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    report = BijectionReport.from_dict(payload)
    assert report.all_ok
    assert payload["counts"] == {"subcategories": 5, "nc": 5,
                                 "well_defined_witnesses": 7}
    assert json.loads(json.dumps(report.to_dict())) == payload


def test_verify_cap_exceeded_exit_4(quiver_file, capsys):
    assert main(["verify", quiver_file(A3_TEXT), "--cap-group", "5",
                 "--format", "json"]) == 4
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


def test_verify_env_cap(quiver_file, capsys, monkeypatch):
    monkeypatch.setenv("NCPQ_CAP_GROUP", "5")
    assert main(["verify", quiver_file(A2_TEXT)]) == 4
    monkeypatch.setenv("NCPQ_CAP_GROUP", "1000")
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
    (SearchExhaustedError("no certificate"), 4, "error:"),
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

