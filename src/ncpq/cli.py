"""Command-line front end.

Subcommands: analyze, nc, verify, hurwitz, sequences. Text output is
human-oriented and unstable; JSON is the stable machine interface; DOT is
available for the graph-shaped outputs (the interval's Hasse diagram, the
mutation graph, the braid orbit graph). Each subcommand accepts only the
options it reads, and `--format dot` only where there is a DOT output;
argparse refuses anything else with exit 2.

`hurwitz` and `sequences` each walk the one mask diagram of both posets
(`weyl.mask_covers`; `hurwitz` through `weyl.walk_elements`, which also
checks c and the identity at the bottom), count its maximal chains and
certify one braid orbit on them (`weyl.braid_transitive`), so they list
the same tuples. Their caps bound only the listing. Within a cap,
JSON and DOT list the chains, sorted; when the certificate holds,
`sequences` JSON and both DOTs draw one braid graph on them
(`hurwitz.braid_edges`, with the root system's reflections). Text prints
only the count and the certificate. Past a cap, JSON reports them with
the lists null, and DOT, which draws the listed graph, exits 4. A failed
certificate exits 1 in every format: JSON gets no graph
(`mutation_edges` null), and DOT draws none and says so on stderr.

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
from .exc import DEFAULT_SEQUENCE_CAP, subcategory_covers
from .hurwitz import DEFAULT_ORBIT_CAP, braid_edges
from .quiver import Quiver, parse_quiver, topological_order
from .rep import build_registry
from .weyl import (
    RootSystem,
    braid_transitive,
    chain_counts,
    complete_roots,
    coxeter_element,
    generate_roots,
    maximal_chains,
    walk_elements,
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
        try:
            with open(args.output_path, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise ValidationError(f"cannot write {args.output_path}: {exc}") from exc
    else:
        print(text)


def _emit_json(args: argparse.Namespace, payload: dict) -> None:
    """One line of compact JSON; the separators let json use its C encoder."""
    _emit(args, json.dumps(payload, separators=(",", ":")))


def _chains(covers: dict, roots: RootSystem, cap: int,
            args: argparse.Namespace) -> tuple[int, bool, list | None]:
    """The maximal-chain count of the mask diagram, its braid-transitivity
    certificate, and its chains, which `maximal_chains` lists in sorted
    order, only when the count is at most the cap and the format is not
    text, which prints the count and the certificate alone."""
    count = chain_counts(covers)[next(iter(covers))]
    shown = args.output_format != "text" and count <= cap
    return count, braid_transitive(covers, roots), list(maximal_chains(covers)) if shown else None


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
    roots = complete_roots(q)
    order = args.coxeter_order or topological_order(q)
    c = coxeter_element(q, order)
    covers, elements = walk_elements(c, roots)
    # Each cover lowers |w| by one, and the walk lists every mask before
    # those it covers, so |w| is read upward from the identity.
    lengths = {}
    for m in reversed(covers):
        children = covers[m]
        lengths[m] = lengths[next(iter(children.values()))] + 1 if children else 0
    masks = sorted(covers, key=lambda m: (lengths[m], elements[m].matrix))
    ids = {m: k for k, m in enumerate(masks)}
    # In a graded poset a is covered by b exactly when a = b*t for a
    # reflection t <= b, so the Hasse edges are the walk's covers; text
    # prints none, and JSON and DOT each read them once.
    edges = ((ids[a], ids[b]) for b in masks for a in covers[b].values())
    # A reflection covers only the identity, through its root.
    reflection_roots = {m: next(iter(covers[m])) for m in masks if lengths[m] == 1}
    # Only JSON prints the matrices, so only JSON builds them.
    if args.output_format == "json":
        _emit_json(args, {
            "quiver": args.quiver_file,
            "coxeter_order": list(order),
            "count": len(masks),
            "elements": [
                {
                    "id": ids[m],
                    "length": lengths[m],
                    "matrix": elements[m].to_json(),
                    "root": list(reflection_roots[m]) if m in reflection_roots else None,
                }
                for m in masks
            ],
            "hasse_edges": sorted(map(list, edges)),
        })
    elif args.output_format == "text":
        lines = [f"{len(masks)} elements below the Coxeter element (order {order})"]
        for m in masks:
            root = f" root={reflection_roots[m]}" if m in reflection_roots else ""
            lines.append(f"  w{ids[m]:03d} length={lengths[m]}{root}")
        _emit(args, "\n".join(lines))
    else:
        nodes = [f"w{ids[m]} [label=\"{ids[m]}:{lengths[m]}\"]" for m in masks]
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
    roots = complete_roots(q)
    order = args.coxeter_order or topological_order(q)
    c = coxeter_element(q, order)
    # The chains of [1, c] are the minimal reflection factorizations of c,
    # the simple one in `order` among them; the certificate makes them one
    # braid orbit. The elements are made only for their checks.
    covers = walk_elements(c, roots)[0]
    count, single, ordered = _chains(covers, roots, args.cap_orbit, args)
    payload = {
        "quiver": args.quiver_file,
        "coxeter_order": list(order),
        "orbit_size": count if single else None,
        "factorization_count": count,
        "single_orbit": single,
        "orbit": None if ordered is None else [[list(r) for r in t] for t in ordered],
    }
    if args.output_format == "json":
        _emit_json(args, payload)
    elif args.output_format == "text":
        _emit(args, f"orbit size {payload['orbit_size']}, factorizations {count}, "
                    f"single orbit: {single}")
    else:
        if not single:
            print("verification failed: the factorizations are not one braid orbit, "
                  "so no graph is drawn", file=sys.stderr)
            return EXIT_VERIFICATION_FAILED
        if ordered is None:
            raise CapExceededError(f"orbit size exceeds cap {args.cap_orbit}")
        edges = braid_edges(ordered, roots.reflection)
        nodes = [f"t{k}" for k in range(len(ordered))]
        dot_edges = [f"t{a} -- t{b}" for a, b in sorted(edges)]
        _emit(args, _dot("hurwitz_orbit", nodes, dot_edges, directed=False))
    return EXIT_OK if single else EXIT_VERIFICATION_FAILED


def cmd_sequences(args: argparse.Namespace) -> int:
    q = _load_quiver(args)
    reg = build_registry(q, complete_roots(q))
    # The descent's chains are the complete exceptional sequences; the
    # certificate makes them one mutation class. They need no second
    # check: in a chain x_i lies in the root system's orth[x_j] for
    # i < j, which is the very mask `is_exceptional_sequence` reads, and
    # each cover B > B ∩ x^⊥ lowers the rank by one. The braid graph is
    # drawn only on a certified class: without the certificate a move may
    # leave the list, which is a failed verification, not an input error.
    count, connected, chains = _chains(subcategory_covers(reg), reg.rootsystem,
                                       args.cap_sequences, args)
    edges = (braid_edges(chains, reg.rootsystem.reflection)
             if connected and chains is not None else None)
    payload = {
        "quiver": args.quiver_file,
        "count": count,
        "connected": connected,
        "sequences": None if chains is None else [[list(r) for r in s] for s in chains],
        "mutation_edges": None if edges is None else [list(e) for e in sorted(edges)],
    }
    if args.output_format == "json":
        _emit_json(args, payload)
    elif args.output_format == "text":
        _emit(args, f"{count} complete exceptional sequences, "
                    f"mutation graph connected: {connected}")
    else:
        if not connected:
            print("verification failed: the sequences are not one mutation class, "
                  "so no graph is drawn", file=sys.stderr)
            return EXIT_VERIFICATION_FAILED
        if chains is None:
            raise CapExceededError(f"sequence count exceeds cap {args.cap_sequences}")
        dot_nodes = [f"s{k}" for k in range(len(chains))]
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
