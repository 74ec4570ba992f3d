"""Command-line front end.

Subcommands: analyze, nc, verify, hurwitz, sequences. Text output is
human-oriented and unstable; JSON is the stable machine interface; DOT is
available for the graph-shaped outputs (the interval's Hasse diagram, the
mutation graph, the braid orbit graph). Each subcommand accepts only the
options it reads, and `--format dot` only where there is a DOT output;
any other option or format is a usage error, exit 2.

`hurwitz` and `sequences` each walk the one mask diagram of both posets
(`weyl.mask_covers`; `hurwitz` through `weyl.walk_elements`, which also
checks c and the identity at the bottom), count its maximal chains and
certify one braid orbit on them (`weyl.braid_transitive`), so they list
the same tuples. Their caps bound only the listing. Within a cap,
JSON and DOT list the chains, sorted; when the certificate holds,
`sequences` JSON and both DOTs draw one braid graph on them
(`hurwitz.braid_edges` on the root system). Text prints
only the count and the certificate. Past a cap, JSON reports them with
the lists null, and DOT, which draws the listed graph, exits 4. A failed
certificate exits 1 in every format: JSON gets no graph
(`mutation_edges` null), and DOT draws none and says so on stderr.

One writer, `_emit`, writes every output as pieces of text, to `--out`
or to stdout, and ends it with one newline. JSON is one compact line,
byte for byte `json.dumps(payload, separators=(",", ":"))`, made one
top-level key at a time (`_emit_json`); a listing of chains, the
`orbit` or the `sequences`, goes out in batches of chains, each root's
text made once, so the whole text is never held.

Exit codes: 0 success/verified, 1 verification failed, 2 input error,
3 unsupported type, 4 cap exceeded, 5 internal error (a bug).
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable, Iterator
from types import SimpleNamespace

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
    _children,
    braid_transitive,
    chain_counts,
    complete_roots,
    coxeter_element,
    element_matrices,
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
        raise ValueError(f"bad coxeter order {text!r}; expected e.g. 1,3,2") from None


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return int(text)


def _load_quiver(args: SimpleNamespace) -> Quiver:
    try:
        with open(args.quiver_file, "r", encoding="utf-8") as fh:
            return parse_quiver(fh.read())
    except OSError as exc:
        raise QuiverParseError(f"cannot read {args.quiver_file}: {exc}") from exc


def _emit(args: SimpleNamespace, pieces: Iterable[str]) -> None:
    """Write the pieces and one newline to `--out`, or to stdout."""
    if args.output_path:
        try:
            with open(args.output_path, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
                fh.write("\n")
        except OSError as exc:
            raise ValidationError(f"cannot write {args.output_path}: {exc}") from exc
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.write("\n")


_COMPACT = (",", ":")
_BATCH = 4096  # chains per piece of a listing


def _emit_json(args: SimpleNamespace, payload: dict, listing: str | None = None) -> None:
    """One line of compact JSON, byte for byte `json.dumps(payload,
    separators=(",", ":"))`, written one top-level key at a time. Each
    value but the one under `listing` is one `json.dumps` call, which
    json's C encoder writes (it does whenever there is no indent). The
    listing, a list of chains of roots or None, repeats a few roots many
    times: each distinct root's text is made once, on its first use, and
    the chains are joined _BATCH to a piece, so the whole text is never
    held; None is written `null`."""
    _emit(args, _json_pieces(payload, listing))


def _json_pieces(payload: dict, listing: str | None) -> Iterator[str]:
    yield "{"
    for i, (key, value) in enumerate(payload.items()):
        yield f"{',' if i else ''}{json.dumps(key)}:"
        if key == listing and value is not None:
            yield from _listing_pieces(value)
        else:
            yield json.dumps(value, separators=_COMPACT)
    yield "}"


class _RootTexts(dict):
    """Each root's compact JSON text, made on its first lookup."""

    def __missing__(self, root: tuple[int, ...]) -> str:
        text = self[root] = json.dumps(root, separators=_COMPACT)
        return text


def _listing_pieces(chains: list) -> Iterator[str]:
    text = _RootTexts().__getitem__
    yield "["
    for start in range(0, len(chains), _BATCH):
        yield ("," if start else "") + ",".join(
            f"[{','.join(map(text, chain))}]" for chain in chains[start:start + _BATCH])
    yield "]"


def _chains(covers: dict, roots: RootSystem, cap: int,
            args: SimpleNamespace) -> tuple[int, bool, list | None]:
    """The maximal-chain count of the mask diagram, its braid-transitivity
    certificate, and its chains, which `maximal_chains` lists in sorted
    order, only when the count is at most the cap and the format is not
    text, which prints the count and the certificate alone."""
    count = chain_counts(covers, roots)[next(iter(covers))]
    shown = args.output_format != "text" and count <= cap
    return (count, braid_transitive(covers, roots),
            list(maximal_chains(covers, roots)) if shown else None)


def _dot(name: str, nodes: list[str], edges: list[str], directed: bool) -> str:
    kind = "digraph" if directed else "graph"
    lines = [f"{kind} {name} {{"]
    lines.extend(f"  {n};" for n in nodes)
    lines.extend(f"  {e};" for e in edges)
    lines.append("}")
    return "\n".join(lines)


def cmd_analyze(args: SimpleNamespace) -> int:
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
        _emit(args, (f"{classification}, {count} positive roots",))
    else:
        _emit(args, (f"{classification}, truncated roots "
                     f"({count} of height <= {roots.height_bound})",))
    return EXIT_OK


def cmd_nc(args: SimpleNamespace) -> int:
    q = _load_quiver(args)
    roots = complete_roots(q)
    order = args.coxeter_order or topological_order(q)
    c = coxeter_element(q, order)
    lengths, elements = element_matrices(c, roots)
    masks = sorted(lengths, key=lambda m: (lengths[m], elements[m].matrix))
    ids = {m: k for k, m in enumerate(masks)}
    # In a graded poset a is covered by b exactly when a = b*t for a
    # reflection t <= b, so the Hasse edges are the walk's covers (each in
    # the diagram); text prints none, and JSON and DOT each read them once.
    edges = ((ids[a], ids[b]) for b in masks for _, a in _children(b, roots.orth))
    # A reflection covers only the identity, through its root, its one bit.
    letters = roots.sorted_roots()
    reflection_roots = {m: letters[m.bit_length() - 1] for m in masks if lengths[m] == 1}
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
            "hasse_edges": sorted(edges),
        })
    elif args.output_format == "text":
        lines = [f"{len(masks)} elements below the Coxeter element (order {order})"]
        for m in masks:
            root = f" root={reflection_roots[m]}" if m in reflection_roots else ""
            lines.append(f"  w{ids[m]:03d} length={lengths[m]}{root}")
        _emit(args, ("\n".join(lines),))
    else:
        nodes = [f"w{ids[m]} [label=\"{ids[m]}:{lengths[m]}\"]" for m in masks]
        dot_edges = [f"w{a} -> w{b}" for a, b in sorted(edges)]
        _emit(args, (_dot("nc_interval", nodes, dot_edges, directed=True),))
    return EXIT_OK


def cmd_verify(args: SimpleNamespace) -> int:
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
        _emit(args, ("\n".join(lines),))
    if any(f.get("kind") == "cap_exceeded" for f in report.failures):
        return EXIT_CAP_EXCEEDED
    return EXIT_OK if report.all_ok else EXIT_VERIFICATION_FAILED


def cmd_hurwitz(args: SimpleNamespace) -> int:
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
        "orbit": ordered,
    }
    if args.output_format == "json":
        _emit_json(args, payload, "orbit")
    elif args.output_format == "text":
        _emit(args, (f"orbit size {payload['orbit_size']}, factorizations {count}, "
                     f"single orbit: {single}",))
    else:
        if not single:
            print("verification failed: the factorizations are not one braid orbit, "
                  "so no graph is drawn", file=sys.stderr)
            return EXIT_VERIFICATION_FAILED
        if ordered is None:
            raise CapExceededError(f"orbit size exceeds cap {args.cap_orbit}")
        edges = braid_edges(ordered, roots)
        nodes = [f"t{k}" for k in range(len(ordered))]
        dot_edges = [f"t{a} -- t{b}" for a, b in edges]
        _emit(args, (_dot("hurwitz_orbit", nodes, dot_edges, directed=False),))
    return EXIT_OK if single else EXIT_VERIFICATION_FAILED


def cmd_sequences(args: SimpleNamespace) -> int:
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
    edges = (braid_edges(chains, reg.rootsystem)
             if connected and chains is not None else None)
    payload = {
        "quiver": args.quiver_file,
        "count": count,
        "connected": connected,
        "sequences": chains,
        "mutation_edges": edges,
    }
    if args.output_format == "json":
        _emit_json(args, payload, "sequences")
    elif args.output_format == "text":
        _emit(args, (f"{count} complete exceptional sequences, "
                     f"mutation graph connected: {connected}",))
    else:
        if not connected:
            print("verification failed: the sequences are not one mutation class, "
                  "so no graph is drawn", file=sys.stderr)
            return EXIT_VERIFICATION_FAILED
        if chains is None:
            raise CapExceededError(f"sequence count exceeds cap {args.cap_sequences}")
        dot_nodes = [f"s{k}" for k in range(len(chains))]
        dot_edges = [f"s{a} -- s{b}" for a, b in edges]
        _emit(args, (_dot("mutation_graph", dot_nodes, dot_edges, directed=False),))
    return EXIT_OK if connected else EXIT_VERIFICATION_FAILED


# Each option's attribute, usage placeholder (None: the formats), converter and default.
_OPTIONS = {
    "--coxeter-order": ("coxeter_order", "1,3,2,...", _parse_order, None),
    "--format": ("output_format", None, str, "text"),
    "--out": ("output_path", "PATH", str, None),
    "--cap-orbit": ("cap_orbit", "N", _positive_int, DEFAULT_ORBIT_CAP),
    "--cap-sequences": ("cap_sequences", "N", _positive_int, DEFAULT_SEQUENCE_CAP),
}
# Each command's handler, its formats and its options, in usage order.
_COMMANDS = {
    "analyze": (cmd_analyze, ("json", "text"), ("--format", "--out")),
    "nc": (cmd_nc, ("json", "dot", "text"), ("--coxeter-order", "--format", "--out")),
    "verify": (cmd_verify, ("json", "text"), ("--coxeter-order", "--format", "--out")),
    "hurwitz": (cmd_hurwitz, ("json", "dot", "text"),
                ("--coxeter-order", "--format", "--out", "--cap-orbit")),
    "sequences": (cmd_sequences, ("json", "dot", "text"), ("--format", "--out", "--cap-sequences")),
}


def _usage(name: str | None, error: str | None = None) -> int:
    """Print the usage of the command, or of all of them: on stdout for
    help, exit 0, or on stderr above a usage error, exit 2."""
    lines = [f"ncpq {n:<9} <quiver-file> " + " ".join(
        f"[{flag} {_OPTIONS[flag][1] or '|'.join(_COMMANDS[n][1])}]" for flag in _COMMANDS[n][2])
        for n in ([name] if name else _COMMANDS)]
    if error:
        lines.append(f"ncpq: error: {error}")
    print(*lines, sep="\n", file=sys.stderr if error else sys.stdout)
    return EXIT_INPUT_ERROR if error else EXIT_OK


def _is_option(word: str) -> bool:
    return word[:1] == "-" and word != "-" and not word[1:].isdigit()


def _read_args(argv: list[str]) -> SimpleNamespace | int:
    """The command, named by the first word, and the attributes it reads;
    or the exit code, once help or a usage error is printed. An option
    takes the next word or the text after `=`, a unique prefix names it,
    it may come before the quiver file, and `--` ends the options."""
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    _, formats, flags = _COMMANDS.get(name, (None, (), ()))
    args = SimpleNamespace(command=name, **{_OPTIONS[f][0]: _OPTIONS[f][3] for f in flags})
    files, words = [], iter(argv[1:] if name else argv)
    for word in words:
        given, eq, value = word.partition("=")
        found = ["--help"] if word == "-h" else [f for f in (*flags, "--help") if f.startswith(given)]
        if word == "--":
            files += words
        elif not _is_option(word):
            files.append(word)
        elif len(found) != 1:
            return _usage(name, f"ambiguous option {given}: {', '.join(found)}" if found
                          else f"unrecognized option {word}")
        elif found == ["--help"]:
            return _usage(name)
        elif not eq and ((value := next(words, None)) is None or _is_option(value)):
            return _usage(name, f"argument {found[0]}: expected one argument")
        else:
            dest, _, convert, _ = _OPTIONS[found[0]]
            try:
                if dest == "output_format" and value not in formats:
                    raise ValueError(f"invalid choice {value!r}, not one of {formats}")
                setattr(args, dest, convert(value))
            except ValueError as exc:
                return _usage(name, f"argument {found[0]}: {exc}")
    if name is None or len(files) != 1:
        return _usage(name, f"expected a command and one quiver file, got {' '.join(argv)!r}")
    args.quiver_file = files[0]
    return args


def main(argv: list[str] | None = None) -> int:
    args = _read_args(sys.argv[1:] if argv is None else argv)
    if isinstance(args, int):
        return args
    try:
        return _COMMANDS[args.command][0](args)
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
