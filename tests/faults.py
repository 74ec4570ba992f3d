"""A catalogue of seeded faults that the package's checks must catch.

Each fault is one plain-text substitution in one file of a scratch copy
of `src/` (with `tests/` and `pyproject.toml` beside it), and a named
outcome that the faulted copy must show:

- ("verify", flag): `ncpq verify` on A3 exits 1 with that flag false;
- ("internal", command): the command on A3 exits 5, an internal error;
- ("test", node id): that test fails.

The unfaulted copy is probed first, and every probe must pass there, so
a fault is caught only by the check it names. A substitution whose text
is not found exactly once in its file stops the run: the catalogue has
drifted from the code. Run it from anywhere, with the standard library
and pytest:

    python tests/faults.py            # every fault
    python tests/faults.py NAME ...   # the named faults only

It exits 0 when every fault is caught and 1 otherwise, and prints one
line per fault. Pytest does not collect it (its name has no `test_`).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
A3 = "vertices 3\narrow 1 2\narrow 2 3\n"
TIMEOUT_S = 120


class Fault(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    outcome: tuple


# `verify`'s values run through `bijection._cox_vectors`, read upward.
RETURN = "    return values\n"


def _product(seq: str) -> str:
    """`_cox_vectors` returning, for each subcategory with ordered simples
    `s`, the vector of the product of `seq` (an expression in `s`), left
    to right, in place of its upward value."""
    fold = "functools.reduce(lambda u, x: _height_step(u, steps[position[x]]), "
    return f"    return {{ind: {fold}{seq}, (1,) * roots.n) for ind, s in simples.items()}}\n"


FAULTS = (
    # Every reflection action is the one step: the column action t(v) is
    # the step (A a, a), a matrix row the step (a, A a).
    Fault("column-action-sign", "weyl.py",
          "tuple((j, x) for j, x in enumerate(self.step[1]) if x)",
          "tuple((j, -x) for j, x in enumerate(self.step[1]) if x)",
          ("internal", "verify")),
    Fault("column-action-reads-the-row", "weyl.py",
          "return _height_step(v, self._column)", "return _height_step(v, self.step)",
          ("test", "tests/test_exc.py::test_mutation_graph_catches_a_corrupted_reflection")),
    Fault("row-step-swapped", "weyl.py",
          "_height_step(row, t.step) for row", "_height_step(row, t._column) for row",
          ("test", "tests/test_weyl.py::test_reflection_products_equal_compose")),
    # The walk and the registry read the one table `RootSystem.orth`.
    Fault("orth-side", "weyl.py",
          "e == 0) for row in self.euler)", "e == 0) for row in zip(*self.euler))",
          ("internal", "verify")),
    # The walk and every reader read a mask's covers off one bit loop.
    Fault("letter-kept-in-its-child", "weyl.py",
          "yield k, b & orth[k]", "yield k, b & (orth[k] | 1 << k)",
          ("internal", "verify")),
    # A node the walk leaves out leaves it short of the Coxeter-Catalan number.
    Fault("walk-drops-a-node", "weyl.py",
          "if child not in met:", "if child not in met and child != 1:",
          ("internal", "verify")),
    # `left_orth` is `orth` transposed, the perps' and closures' other side.
    Fault("left-orth-untransposed", "weyl.py",
          "if o >> a & 1)", "if orth[a] >> s & 1)",
          ("test", "tests/test_weyl.py::test_euler_table_is_the_euler_form_on_the_sorted_roots")),
    Fault("maps-into-nonnegative", "rep.py",
          "if e > 0 and any(", "if e >= 0 and any(",
          ("internal", "verify")),
    # The closure path orders by the registry's Ext screen and the one mask
    # sort, against the heap sort of the root-keyed Ext-quiver.
    Fault("ext-quiver-sign", "rep.py",
          "if e < 0:", "if e > 0:",
          ("test", "tests/test_exc.py::test_order_antichain_matches_the_root_keyed_ext_quiver[A3]")),
    Fault("mask-sort-highest-first", "quiver.py",
          "low = pending & -pending", "low = 1 << pending.bit_length() - 1",
          ("test", "tests/test_exc.py::test_order_antichain_matches_the_root_keyed_ext_quiver[A3]")),
    # The transport slices each reversed arrow's map out of the kernel
    # rows, and keeps an all-int map as it is.
    Fault("cokernel-slice-first-block", "rep.py",
          "tuple(row[off:off + width] for row in proj)", "tuple(row[:width] for row in proj)",
          ("test", "tests/test_rep.py::test_registry_is_each_roots_own_walk")),
    Fault("int-fast-path-takes-fractions", "rep.py",
          "itertools.chain.from_iterable(m))) <= {int}:",
          "itertools.chain.from_iterable(m))) <= {int, type(_exact(0.5))}:",
          ("test", "tests/test_rep.py::test_representation_keeps_integral_entries_as_ints")),
    # A registry reads Hom and Ext off its own quiver's Euler form.
    Fault("registry-quiver-check-skipped", "rep.py",
          "if quiver != rootsystem.quiver:", "if quiver.n != rootsystem.quiver.n:",
          ("test", "tests/test_rep.py::test_registry_refuses_the_roots_of_another_orientation")),
    # A registry refuses a foreign root system before it transports a module.
    Fault("registry-refusal-after-transport", "rep.py",
          "    if q != roots.quiver:\n"
          "        raise ValidationError(\"a registry's root system is of another quiver\")\n", "",
          ("test", "tests/test_rep.py::"
                   "test_registry_refuses_the_roots_of_another_orientation_before_the_transport")),
    Fault("cartan-one-side", "quiver.py",
          "        entries[t - 1][h - 1] -= 1\n", "",
          ("test", "tests/test_quiver.py::test_cartan_a2")),
    Fault("exceptional-test-skipped", "exc.py",
          "if ordered != tested and not", "if False and not",
          ("test", "tests/test_exc.py::"
                   "test_subcategory_check_skips_the_exceptional_test_only_for_the_tested_tuple")),
    Fault("fixpoint-skipped", "exc.py",
          "if not generated and _closure(", "if False and _closure(",
          ("test", "tests/test_exc.py::test_subcategory_check_runs_the_fixpoint")),
    Fault("walk-cap-off-by-one", "weyl.py",
          "if size > cap:", "if size > cap + 1:",
          ("test", "tests/test_weyl.py::test_walk_cap_is_read_at_call_time")),
    Fault("coxeter-check-skipped", "weyl.py",
          "if c.n != q.n or mat_mul(", "if c.n != q.n or False and mat_mul(",
          ("test", "tests/test_weyl.py::"
                   "test_walk_refuses_the_coxeter_element_of_another_orientation")),
    Fault("connectivity-skipped", "weyl.py",
          "len(connected_components(b, undirected)) < 2", "True",
          ("test", "tests/test_weyl.py::test_certificate_checks_every_node")),
    # Finite type is read off the graph's shape, for the quiver and for
    # every relative quiver of the closure path.
    Fault("reader-tree-check-skipped", "quiver.py",
          "if ends != 2 * (size - 1) or len(branch) > 1:", "if len(branch) > 1:",
          ("test", "tests/test_exc.py::test_relative_root_count_refuses_a_non_finite_quiver")),
    Fault("reader-legs-1-2-5-read-as-e", "quiver.py",
          "([1, 2, 2], [1, 2, 3], [1, 2, 4])", "([1, 2, 2], [1, 2, 3], [1, 2, 4], [1, 2, 5])",
          ("test", "tests/test_quiver.py::"
                   "test_classify_affine_and_indefinite_table[quiver5-affine]")),
    Fault("relative-ext-2-read-as-one-edge", "exc.py",
          "if e < -1:", "if e < -2:",
          ("test", "tests/test_exc.py::test_relative_root_count_refuses_a_non_finite_quiver")),
    Fault("bareiss-sign", "quiver.py",
          "(x * row[k] - lower[k] * y)", "(x * row[k] + lower[k] * y)",
          ("test", "tests/test_quiver.py::test_classify_kronecker_affine")),
    Fault("transposed-matrix-action", "_linalg.py",
          "sum(map(mul, row, v)) for row in a)", "sum(map(mul, row, v)) for row in zip(*a))",
          ("test", "tests/test_weyl.py::test_reflections_are_the_matrix_oracle[A3]")),
    Fault("braid-pair-check-skipped", "hurwitz.py",
          "if (_height_step(_height_step(one,", "if False and (_height_step(_height_step(one,",
          ("test", "tests/test_exc.py::test_mutation_graph_catches_a_corrupted_reflection")),
    # A braid-graph key has one digit per root, its position + 1, wide
    # enough for every root: no digit is 0, and no digit spills.
    Fault("braid-key-digit-zero", "hurwitz.py",
          "range(1, len(order) + 1)", "range(len(order))",
          ("test", "tests/test_hurwitz.py::test_braid_edges_keys_tell_unequal_lengths_apart")),
    Fault("braid-key-digit-one-bit-short", "hurwitz.py",
          "width = len(order).bit_length()", "width = len(order).bit_length() - 1",
          ("test", "tests/test_hurwitz.py::test_braid_edges_refuse_a_moved_root_past_the_digits")),
    Fault("base-case-skipped", "bijection.py",
          "if not ind and value != one:", "if False:",
          ("test", "tests/test_bijection.py::test_base_case_of_the_induction_is_checked")),
    Fault("failed-certificate-exits-0", "cli.py",
          "return EXIT_OK if single else EXIT_VERIFICATION_FAILED", "return EXIT_OK",
          ("test", "tests/test_cli.py::test_a_dropped_cover_fails_the_hurwitz_certificate")),
    # The command table gives each command its formats and its options.
    Fault("cli-format-unchecked", "cli.py",
          'if dest == "output_format" and value not in formats:', "if False:",
          ("test", "tests/test_cli.py::test_verify_rejects_dot")),
    Fault("cli-foreign-option-accepted", "cli.py",
          'for f in (*flags, "--help")', 'for f in (*_OPTIONS, "--help")',
          ("test", "tests/test_cli.py::test_usage_errors_exit_2[verify Q --cap-orbit 5]")),
    # JSON writes a listing's chains in batches, joined by one comma each.
    Fault("listing-batch-comma-dropped", "cli.py",
          '("," if start else "")', '""',
          ("test", "tests/test_cli.py::test_json_listing_crosses_a_batch_boundary")),
    # One corrupted cox(B) per flag of the `verify` report.
    Fault("cox-times-s1", "bijection.py",
          RETURN, _product("(simple_root(roots.n, 1), *s)"),
          ("verify", "well_defined")),
    Fault("cox-first-simple-only", "bijection.py",
          RETURN, _product("s[:1]"),
          ("verify", "injective")),
    Fault("cox-reversed", "bijection.py",
          RETURN, _product("s[::-1]"),
          ("verify", "surjective")),
    Fault("cox-reversed-at-rank-2", "bijection.py",
          RETURN, _product("(s[::-1] if len(s) == 2 else s)"),
          ("verify", "order_iso_forward")),
    Fault("cox-reversed-at-the-top", "bijection.py",
          RETURN, _product("(s[::-1] if len(s) == roots.n else s)"),
          ("verify", "order_iso_backward")),
    Fault("cox-rotated", "bijection.py",
          RETURN, _product("(*s[1:], *s[:1])"),
          ("verify", "order_iso")),
    # One product per element: phi(w*t) = phi(w) - (phi(w) . a) (A a)^T.
    Fault("height-step-sign", "weyl.py",
          "[x - s * y for x, y in zip(v, row)]", "[x + s * y for x, y in zip(v, row)]",
          ("internal", "verify")),
    # A wrong top vector steps down to a wrong bottom, which only the
    # walk's own check, that it ends on the identity, sees.
    Fault("walk-top-vector-doubled", "weyl.py",
          "_walk(c, roots, height_vector(c),",
          "_walk(c, roots, tuple(2 * x for x in height_vector(c)),",
          ("internal", "verify")),
    Fault("cox-prefix-check-skipped", "bijection.py",
          "if simples[child] != ordered[:-1]:", "if False:",
          ("test", "tests/test_bijection.py::test_cox_upward_checks_the_simples_of_each_child")),
    # The lister keeps the letters of its path on one stack.
    Fault("chain-lister-keeps-letter", "weyl.py",
          "yield tuple(path)\n            path.pop()\n", "yield tuple(path)\n",
          ("test", "tests/test_weyl.py::test_maximal_chains_match_the_nested_oracle[A3]")),
    Fault("catalan-count-check-skipped", "weyl.py",
          "if len(diagram) != size:", "if False:",
          ("test", "tests/test_bijection.py::"
                   "test_verify_checks_the_node_count_against_the_coxeter_catalan_number")),
    # Every value class is a `quiver.Record`: equal within its own class
    # only, hashed as its field tuple, frozen.
    Fault("record-eq-any-class", "quiver.py",
          "        if other.__class__ is not self.__class__:\n            return NotImplemented\n",
          "",
          ("test", "tests/test_records.py::test_record_equals_only_its_own_class")),
    Fault("record-hash-drops-a-field", "quiver.py",
          "return hash(self._values())", "return hash(self._values()[1:])",
          ("test", "tests/test_records.py::test_record_hash_is_the_hash_of_its_field_tuple")),
    Fault("record-setattr-assigns", "quiver.py",
          'raise AttributeError(f"cannot assign to field {name!r}")',
          "object.__setattr__(self, name, value)",
          ("test", "tests/test_records.py::test_record_refuses_assignment_and_deletion")),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _apply(fault: Fault, dest: Path) -> None:
    path = dest / "src" / "ncpq" / fault.path
    text = path.read_text(encoding="utf-8")
    found = text.count(fault.old)
    if found != 1:
        raise SystemExit(f"{fault.name}: {fault.old!r} is in {fault.path} {found} times, not once")
    path.write_text(text.replace(fault.old, fault.new), encoding="utf-8")


def _run(args: list[str], tree: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


def _probe(outcome: tuple, tree: Path) -> tuple[bool, bool, str]:
    """(held, caught, detail): whether the probe passed, whether it showed
    the named outcome, and what it saw."""
    kind, what = outcome
    if kind == "test":
        run = _run(["-m", "pytest", "-q", "-p", "no:cacheprovider", what], tree)
        tail = (run.stdout.strip().splitlines() or [""])[-1]
        return run.returncode == 0, run.returncode == 1, f"pytest exit {run.returncode}: {tail}"
    quiver = tree / "a3.quiver"
    quiver.write_text(A3, encoding="utf-8")
    command = "verify" if kind == "verify" else what
    run = _run(["-m", "ncpq.cli", command, str(quiver), "--format", "json"], tree)
    if kind == "internal":
        detail = f"exit {run.returncode}: {run.stderr.strip()[:100]}"
        return run.returncode == 0, run.returncode == 5, detail
    flags = json.loads(run.stdout)["flags"] if run.returncode in (0, 1) else {}
    detail = f"exit {run.returncode}, {what} = {flags.get(what)}"
    held = run.returncode == 0 and all(flags.values())
    return held, run.returncode == 1 and flags.get(what) is False, detail


def main(names: list[str]) -> int:
    faults = [f for f in FAULTS if not names or f.name in names]
    if names and len(faults) != len(set(names)):
        known = sorted(f.name for f in FAULTS)
        raise SystemExit(f"unknown fault in {names}; the faults are {known}")
    start = time.monotonic()
    unheld = missed = 0
    with tempfile.TemporaryDirectory(prefix="ncpq-faults-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        for outcome in dict.fromkeys(f.outcome for f in faults):
            held, _, detail = _probe(outcome, clean)
            if not held:
                print(f"PROBE FAILS UNFAULTED {outcome}: {detail}")
                unheld += 1
        for fault in faults:
            tree = Path(tmp) / fault.name
            _copy(tree)
            _apply(fault, tree)
            _, caught, detail = _probe(fault.outcome, tree)
            print(f"{'caught' if caught else 'MISSED'} {fault.name}: {fault.outcome} ({detail})")
            missed += not caught
            shutil.rmtree(tree)
    print(f"{len(faults) - missed} of {len(faults)} faults caught, {unheld} probes fail "
          f"unfaulted, in {time.monotonic() - start:.0f} s")
    return 1 if missed or unheld else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
