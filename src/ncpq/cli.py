"""Command-line front end.

Subcommands: analyze, nc, verify, hurwitz, sequences. Text output is
human-oriented and unstable; JSON is the stable machine interface; DOT is
available for the graph-shaped outputs (the interval's Hasse diagram, the
mutation graph, the braid orbit graph). Each subcommand accepts only the
options it reads, and `--format dot` only where there is a DOT output;
argparse refuses anything else with exit 2.

Exit codes: 0 success/verified, 1 verification failed, 2 input error,
3 unsupported type, 4 cap exceeded, 5 internal error (a bug).
"""

from __future__ import annotations

import argparse
import json
import sys

from .bijection import verify_bijection
from .errors import (
    CapExceededError,
    NcpqError,
    NonFiniteTypeError,
    QuiverParseError,
    ValidationError,
)
from .exc import DEFAULT_SEQUENCE_CAP, enumerate_complete_sequences, is_connected, mutation_graph
from .hurwitz import DEFAULT_ORBIT_CAP, hurwitz_orbit, orbit_edges, tuple_from_roots
from .quiver import Quiver, parse_quiver, topological_order
from .rep import build_registry
from .weyl import (
    absolute_length,
    chain_counts,
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


def _parse_order(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad coxeter order {text!r}; expected e.g. 1,3,2")


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the options it reads."""
    parser = argparse.ArgumentParser(
        prog="ncpq",
        description="Root systems, non-crossing partitions, exceptional sequences, "
                    "and braid orbits of an acyclic quiver.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text, formats in (
        ("analyze", "type classification, Cartan matrix, positive-root count",
         ("json", "text")),
        ("nc", "the absolute-order interval below the Coxeter element",
         ("json", "dot", "text")),
        ("verify", "verify the subcategory/partition poset isomorphism",
         ("json", "text")),
        ("hurwitz", "braid orbit of the Coxeter reflection factorization",
         ("json", "dot", "text")),
        ("sequences", "complete exceptional sequences and their mutation graph",
         ("json", "dot", "text")),
    ):
        p = commands[name] = sub.add_parser(name, help=help_text)
        p.add_argument("quiver_file")
        p.add_argument("--format", dest="output_format", choices=formats, default="text")
        p.add_argument("--out", dest="output_path", default=None)
    for name in ("nc", "verify", "hurwitz"):
        commands[name].add_argument(
            "--coxeter-order", type=_parse_order, default=None,
            help="comma-separated admissible vertex order, e.g. 1,3,2")
    commands["hurwitz"].add_argument("--cap-orbit", type=_positive_int,
                                     default=DEFAULT_ORBIT_CAP)
    commands["sequences"].add_argument("--cap-sequences", type=_positive_int,
                                       default=DEFAULT_SEQUENCE_CAP)
    return parser


def _load_quiver(args: argparse.Namespace) -> Quiver:
    try:
        with open(args.quiver_file, "r", encoding="utf-8") as fh:
            return parse_quiver(fh.read())
    except OSError as exc:
        raise QuiverParseError(f"cannot read {args.quiver_file}: {exc}") from exc


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_json(args: argparse.Namespace, payload: dict) -> None:
    """One line of compact JSON; the separators let json use its C encoder."""
    _emit(args, json.dumps(payload, separators=(",", ":")))


def _dot(name: str, nodes: list[str], edges: list[str], directed: bool) -> str:
    kind = "digraph" if directed else "graph"
    lines = [f"{kind} {name} {{"]
    lines.extend(f"  {n};" for n in nodes)
    lines.extend(f"  {e};" for e in edges)
    lines.append("}")
    return "\n".join(lines)


def cmd_analyze(args: argparse.Namespace) -> int:
    roots = generate_roots(_load_quiver(args))
    classification = roots.classification
    count = len(roots.positive_real_roots)
    payload = {
        "quiver": args.quiver_file,
        "type": str(classification),
        "kind": classification.kind,
        "dynkin_label": classification.label,
        "cartan": [list(row) for row in roots.cartan],
        "positive_roots": count,
        "complete": roots.complete,
        "height_bound": roots.height_bound,
    }
    if args.output_format == "json":
        _emit_json(args, payload)
    elif roots.complete:
        _emit(args, f"{classification}, {count} positive roots")
    else:
        _emit(args, f"{classification}, truncated roots "
                    f"({count} of height <= {roots.height_bound})")
    return EXIT_OK


def cmd_nc(args: argparse.Namespace) -> int:
    q = _load_quiver(args)
    roots = generate_roots(q)
    roots.require_complete()
    order = args.coxeter_order or topological_order(q)
    c = coxeter_element(q, order)
    covers = interval_covers(c, roots)
    root_of = {roots.reflection(r).element: r for r in roots.sorted_roots()}
    lengths = {w: absolute_length(w, roots) for w in covers}
    elements = sorted(covers, key=lambda w: (lengths[w], w.matrix))
    ids = {w: k for k, w in enumerate(elements)}
    # In a graded poset a is covered by b exactly when a = t*b for a
    # reflection t <= b, so the Hasse edges are the walk's covers.
    edges = [(ids[a], ids[b]) for b in elements for a in covers[b]]
    payload = {
        "quiver": args.quiver_file,
        "coxeter_order": list(order),
        "count": len(elements),
        "elements": [
            {
                "id": ids[w],
                "length": lengths[w],
                "matrix": w.to_json(),
                "root": list(root_of[w]) if w in root_of else None,
            }
            for w in elements
        ],
        "hasse_edges": [list(e) for e in sorted(edges)],
    }
    if args.output_format == "json":
        _emit_json(args, payload)
    elif args.output_format == "text":
        lines = [f"{len(elements)} elements below the Coxeter element (order {order})"]
        for item in payload["elements"]:
            root = f" root={tuple(item['root'])}" if item["root"] else ""
            lines.append(f"  w{item['id']:03d} length={item['length']}{root}")
        _emit(args, "\n".join(lines))
    else:
        nodes = [f"w{item['id']} [label=\"{item['id']}:{item['length']}\"]"
                 for item in payload["elements"]]
        dot_edges = [f"w{a} -> w{b}" for a, b in sorted(edges)]
        _emit(args, _dot("nc_interval", nodes, dot_edges, directed=True))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    q = _load_quiver(args)
    order = args.coxeter_order
    report = verify_bijection(q, order, quiver_id=args.quiver_file)
    if args.output_format == "json":
        _emit_json(args, report.to_dict())
    else:
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
        _emit(args, "\n".join(lines))
    if any(f.get("kind") == "cap_exceeded" for f in report.failures):
        return EXIT_CAP_EXCEEDED
    return EXIT_OK if report.all_ok else EXIT_VERIFICATION_FAILED


def cmd_hurwitz(args: argparse.Namespace) -> int:
    q = _load_quiver(args)
    roots = generate_roots(q)
    roots.require_complete()
    order = args.coxeter_order or topological_order(q)
    c = coxeter_element(q, order)
    start = tuple_from_roots(q, tuple(simple_root(q.n, i) for i in order))
    orbit = hurwitz_orbit(start, args.cap_orbit)
    count = chain_counts(interval_covers(c, roots))[c]
    # Orbit tuples are n = |c| reflections with product c (moves check it), so orbit ⊆ Red_T(c).
    single = len(orbit) == count
    ordered = sorted(orbit, key=lambda t: t.roots)
    payload = {
        "quiver": args.quiver_file,
        "coxeter_order": list(order),
        "orbit_size": len(orbit),
        "factorization_count": count,
        "single_orbit": single,
        "orbit": [t.to_json() for t in ordered],
    }
    if args.output_format == "json":
        _emit_json(args, payload)
    elif args.output_format == "text":
        _emit(args, f"orbit size {len(orbit)}, factorizations {count}, "
                    f"single orbit: {single}")
    else:
        edges = orbit_edges(ordered)
        nodes = [f"t{k}" for k in range(len(ordered))]
        dot_edges = [f"t{a} -- t{b}" for a, b in sorted(edges)]
        _emit(args, _dot("hurwitz_orbit", nodes, dot_edges, directed=False))
    return EXIT_OK if single else EXIT_VERIFICATION_FAILED


def cmd_sequences(args: argparse.Namespace) -> int:
    q = _load_quiver(args)
    roots = generate_roots(q)
    roots.require_complete()
    reg = build_registry(q, roots)
    seqs = enumerate_complete_sequences(q, reg, args.cap_sequences)
    nodes, edges = mutation_graph(seqs, reg)
    connected = is_connected(len(nodes), edges)
    payload = {
        "quiver": args.quiver_file,
        "count": len(nodes),
        "connected": connected,
        "sequences": [s.to_json() for s in nodes],
        "mutation_edges": [list(e) for e in sorted(edges)],
    }
    if args.output_format == "json":
        _emit_json(args, payload)
    elif args.output_format == "text":
        _emit(args, f"{len(nodes)} complete exceptional sequences, "
                    f"mutation graph connected: {connected}")
    else:
        dot_nodes = [f"s{k}" for k in range(len(nodes))]
        dot_edges = [f"s{a} -- s{b}" for a, b in sorted(edges)]
        _emit(args, _dot("mutation_graph", dot_nodes, dot_edges, directed=False))
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
        return _COMMANDS[args.command](args)
    except (QuiverParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NonFiniteTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_TYPE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except NcpqError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
