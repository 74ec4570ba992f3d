"""Command-line front end.

Subcommands: analyze, nc, verify, hurwitz, sequences. Text output is
human-oriented and unstable; JSON is the stable machine interface; DOT is
available for the graph-shaped outputs (the interval's Hasse diagram, the
mutation graph, the braid orbit graph).

Exit codes: 0 success/verified, 1 verification failed, 2 input error,
3 unsupported type, 4 cap exceeded or bounded search exhausted,
5 internal error (a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .bijection import minimal_reflection_factorizations, verify_bijection
from .errors import (
    CapExceededError,
    NcpqError,
    NonFiniteTypeError,
    QuiverParseError,
    SearchExhaustedError,
    ValidationError,
)
from .exc import enumerate_complete_sequences, is_connected, mutation_graph
from .hurwitz import hurwitz_orbit, orbit_edges, tuple_from_roots
from .quiver import Quiver, cartan_matrix, classify_type, parse_quiver, topological_order
from .rep import build_registry
from .weyl import (
    absolute_length,
    coxeter_element,
    generate_roots,
    interval_covers,
    simple_root,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_UNSUPPORTED_TYPE = 3
EXIT_CAP_EXCEEDED = 4
EXIT_INTERNAL_ERROR = 5

DEFAULT_ORBIT_CAP = 1_000_000
DEFAULT_SEQUENCE_CAP = 1_000_000


@dataclass
class RunConfig:
    command: str
    input_path: str
    coxeter_order: tuple[int, ...] | None
    output_format: str
    output_path: str | None
    cap_orbit: int
    cap_sequences: int

    def __post_init__(self):
        if self.output_format not in ("json", "dot", "text"):
            raise ValidationError(f"unknown format {self.output_format!r}")
        for name in ("cap_orbit", "cap_sequences"):
            if getattr(self, name) < 1:
                raise ValidationError(f"--{name.replace('_', '-')} must be positive")


def _parse_order(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad coxeter order {text!r}; expected e.g. 1,3,2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncpq",
        description="Root systems, non-crossing partitions, exceptional sequences, "
                    "and braid orbits of an acyclic quiver.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analyze", "type classification, Cartan matrix, positive-root count"),
        ("nc", "the absolute-order interval below the Coxeter element"),
        ("verify", "verify the subcategory/partition poset isomorphism"),
        ("hurwitz", "braid orbit of the Coxeter reflection factorization"),
        ("sequences", "complete exceptional sequences and their mutation graph"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("quiver_file")
        p.add_argument("--coxeter-order", type=_parse_order, default=None,
                       help="comma-separated admissible vertex order, e.g. 1,3,2")
        p.add_argument("--format", dest="output_format",
                       choices=("json", "dot", "text"), default="text")
        p.add_argument("--out", dest="output_path", default=None)
        p.add_argument("--cap-orbit", type=int, default=DEFAULT_ORBIT_CAP)
        p.add_argument("--cap-sequences", type=int, default=DEFAULT_SEQUENCE_CAP)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        input_path=args.quiver_file,
        coxeter_order=args.coxeter_order,
        output_format=args.output_format,
        output_path=args.output_path,
        cap_orbit=args.cap_orbit,
        cap_sequences=args.cap_sequences,
    )


def _load_quiver(cfg: RunConfig) -> Quiver:
    try:
        with open(cfg.input_path, "r", encoding="utf-8") as fh:
            return parse_quiver(fh.read())
    except OSError as exc:
        raise QuiverParseError(f"cannot read {cfg.input_path}: {exc}") from exc


def _resolve_order(q: Quiver, cfg: RunConfig) -> tuple[int, ...]:
    if cfg.coxeter_order is not None:
        return cfg.coxeter_order
    return topological_order(q)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_json(cfg: RunConfig, payload: dict) -> None:
    """One line of compact JSON; the separators let json use its C encoder."""
    _emit(cfg, json.dumps(payload, separators=(",", ":")))


def _dot(name: str, nodes: list[str], edges: list[str], directed: bool) -> str:
    kind = "digraph" if directed else "graph"
    lines = [f"{kind} {name} {{"]
    lines.extend(f"  {n};" for n in nodes)
    lines.extend(f"  {e};" for e in edges)
    lines.append("}")
    return "\n".join(lines)


def cmd_analyze(cfg: RunConfig) -> int:
    q = _load_quiver(cfg)
    classification = classify_type(cartan_matrix(q))
    roots = generate_roots(q)
    count = len(roots.positive_real_roots)
    payload = {
        "quiver": cfg.input_path,
        "type": str(classification),
        "kind": classification.kind,
        "dynkin_label": classification.label,
        "cartan": [list(row) for row in cartan_matrix(q).entries],
        "positive_roots": count,
        "complete": roots.complete,
        "height_bound": roots.height_bound,
    }
    if cfg.output_format == "json":
        _emit_json(cfg, payload)
    elif cfg.output_format == "text":
        if roots.complete:
            _emit(cfg, f"{classification}, {count} positive roots")
        else:
            _emit(cfg, f"{classification}, truncated roots "
                       f"({count} of height <= {roots.height_bound})")
    else:
        raise ValidationError("analyze has no dot output")
    return EXIT_OK


def cmd_nc(cfg: RunConfig) -> int:
    q = _load_quiver(cfg)
    roots = generate_roots(q)
    if not roots.classification.is_finite:
        raise NonFiniteTypeError("the nc command requires finite type")
    order = _resolve_order(q, cfg)
    c = coxeter_element(q, order)
    covers = interval_covers(c, roots)
    refl_by_matrix = {roots.reflection(r).element.matrix: r for r in roots.sorted_roots()}
    elements = sorted(covers, key=lambda w: (absolute_length(w, roots), w.matrix))
    ids = {w.matrix: k for k, w in enumerate(elements)}
    lengths = {w.matrix: absolute_length(w, roots) for w in elements}
    # In a graded poset a is covered by b exactly when a = t*b for a
    # reflection t <= b, so the Hasse edges are the walk's covers.
    edges = [(ids[a.matrix], ids[b.matrix]) for b in elements for a in covers[b]]
    payload = {
        "quiver": cfg.input_path,
        "coxeter_order": list(order),
        "count": len(elements),
        "elements": [
            {
                "id": ids[w.matrix],
                "length": lengths[w.matrix],
                "matrix": w.to_json(),
                "root": list(refl_by_matrix[w.matrix]) if w.matrix in refl_by_matrix else None,
            }
            for w in elements
        ],
        "hasse_edges": [list(e) for e in sorted(edges)],
    }
    if cfg.output_format == "json":
        _emit_json(cfg, payload)
    elif cfg.output_format == "text":
        lines = [f"{len(elements)} elements below the Coxeter element (order {order})"]
        for item in payload["elements"]:
            root = f" root={tuple(item['root'])}" if item["root"] else ""
            lines.append(f"  w{item['id']:03d} length={item['length']}{root}")
        _emit(cfg, "\n".join(lines))
    else:
        nodes = [f"w{item['id']} [label=\"{item['id']}:{item['length']}\"]"
                 for item in payload["elements"]]
        dot_edges = [f"w{a} -> w{b}" for a, b in sorted(edges)]
        _emit(cfg, _dot("nc_interval", nodes, dot_edges, directed=True))
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    q = _load_quiver(cfg)
    order = cfg.coxeter_order
    report = verify_bijection(q, order, quiver_id=cfg.input_path)
    if cfg.output_format == "json":
        _emit_json(cfg, report.to_dict())
    elif cfg.output_format == "text":
        lines = [
            f"quiver: {report.quiver}",
            f"type: {report.type}",
            f"coxeter order: {report.coxeter_order}",
            f"subcategories: {report.counts['subcategories']}  "
            f"interval size: {report.counts['nc']}",
            f"flags: {report.flags}",
            f"failures: {len(report.failures)}",
            f"elapsed: {report.elapsed_ms:.1f} ms",
        ]
        _emit(cfg, "\n".join(lines))
    else:
        raise ValidationError("verify has no dot output")
    if any(f.get("kind") == "cap_exceeded" for f in report.failures):
        return EXIT_CAP_EXCEEDED
    return EXIT_OK if report.all_ok else EXIT_VERIFICATION_FAILED


def cmd_hurwitz(cfg: RunConfig) -> int:
    q = _load_quiver(cfg)
    roots = generate_roots(q)
    if not roots.classification.is_finite:
        raise NonFiniteTypeError("the hurwitz command requires finite type")
    order = _resolve_order(q, cfg)
    c = coxeter_element(q, order)
    start = tuple_from_roots(q, tuple(simple_root(q.n, i) for i in order))
    orbit = hurwitz_orbit(start, cfg.cap_orbit)
    factorizations = minimal_reflection_factorizations(c, roots)
    single = len(orbit) == len(factorizations)
    ordered = sorted(orbit, key=lambda t: t.roots)
    payload = {
        "quiver": cfg.input_path,
        "coxeter_order": list(order),
        "orbit_size": len(orbit),
        "factorization_count": len(factorizations),
        "single_orbit": single,
        "orbit": [t.to_json() for t in ordered],
    }
    if cfg.output_format == "json":
        _emit_json(cfg, payload)
    elif cfg.output_format == "text":
        _emit(cfg, f"orbit size {len(orbit)}, factorizations {len(factorizations)}, "
                   f"single orbit: {single}")
    else:
        edges = orbit_edges(ordered)
        nodes = [f"t{k}" for k in range(len(ordered))]
        dot_edges = [f"t{a} -- t{b}" for a, b in sorted(edges)]
        _emit(cfg, _dot("hurwitz_orbit", nodes, dot_edges, directed=False))
    return EXIT_OK if single else EXIT_VERIFICATION_FAILED


def cmd_sequences(cfg: RunConfig) -> int:
    q = _load_quiver(cfg)
    roots = generate_roots(q)
    if not roots.classification.is_finite:
        raise NonFiniteTypeError("the sequences command requires finite type")
    reg = build_registry(q, roots)
    seqs = enumerate_complete_sequences(q, reg, cfg.cap_sequences)
    nodes, edges = mutation_graph(seqs, reg)
    connected = is_connected(len(nodes), edges)
    payload = {
        "quiver": cfg.input_path,
        "count": len(nodes),
        "connected": connected,
        "sequences": [s.to_json() for s in nodes],
        "mutation_edges": [list(e) for e in sorted(edges)],
    }
    if cfg.output_format == "json":
        _emit_json(cfg, payload)
    elif cfg.output_format == "text":
        _emit(cfg, f"{len(nodes)} complete exceptional sequences, "
                   f"mutation graph connected: {connected}")
    else:
        dot_nodes = [f"s{k}" for k in range(len(nodes))]
        dot_edges = [f"s{a} -- s{b}" for a, b in sorted(edges)]
        _emit(cfg, _dot("mutation_graph", dot_nodes, dot_edges, directed=False))
    return EXIT_OK if connected else EXIT_VERIFICATION_FAILED


_COMMANDS = {
    "analyze": cmd_analyze,
    "nc": cmd_nc,
    "verify": cmd_verify,
    "hurwitz": cmd_hurwitz,
    "sequences": cmd_sequences,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[cfg.command](cfg)
    except (QuiverParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NonFiniteTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_TYPE
    except (CapExceededError, SearchExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except NcpqError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
