"""Benchmark for ncpq: time to a verified answer, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 30 --trace 0

The run draws its quivers from --seed, starts a fresh single-threaded
interpreter per timed call (per pass for subcat-e7), checks every output
against closed forms ncpq does not compute, and prints the metrics; the
last line of stdout is one JSON object. With --trace 0 it repeats passes
while another fits in --seconds and prints the end-to-end metrics. With
--trace 1 it runs one untraced and one traced pass on the same inputs,
checks that both give the same payloads, and prints the per-layer metrics.
A full record (provenance, inputs, every sample) goes to
.perfbench_out/results/. See perfbench/README.md for the rationale.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

from inputs import EXPONENTS, coxeter_catalan, draw_inputs, dynkin_type, factorization_count
from speed import SAMPLE_REF_S, mono
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Each workload: the quiver labels it draws ("A5#2" is a second A5), the
# calls of one pass (each in its own process), the extra single-call
# processes an untraced pass adds, and the step behind call_s.1-4 (samples
# of every drawn quiver of that type count). The extras give short calls
# more samples and spread calls over more orientations, since times depend
# on the orientation by up to 15 %.
WORKLOADS = {
    "verify-ladder": {
        "labels": ["A4", "D4", "A5", "D5"],
        "calls": [("verify", "A4"), ("verify", "D4"), ("verify", "A5"), ("verify", "D5")],
        "extra": [("verify", "A4")] * 6 + [("verify", "D4")] * 4,
        "metrics": ["verify.A4", "verify.D4", "verify.A5", "verify.D5"],
        "aliases": {"verify_s.A4": (1,), "verify_s.D4": (2,), "verify_s.A5": (3,),
                    "verify_s.D5": (4,)},
    },
    "braid-orbits": {
        "labels": ["A5", "D5", "A5#2", "D5#2"],
        "calls": [("hurwitz", "A5"), ("hurwitz", "D5"), ("sequences", "A5"), ("sequences", "D5")],
        "extra": [("hurwitz", "A5#2"), ("sequences", "A5#2"), ("sequences", "D5#2")],
        "metrics": ["hurwitz.A5", "hurwitz.D5", "sequences.A5", "sequences.D5"],
        "aliases": {"hurwitz_s": (1, 2), "sequences_s": (3, 4)},
    },
    "subcat-e7": {
        "labels": ["E7#1", "E7#2", "E7#3", "E7#4", "E7#5"],
        "calls": [("subcat", "E7#1")],
        "extra": [("antichains", "E7#2")] + [("registry", f"E7#{k}") for k in range(3, 6)],
        "metrics": ["registry.E7", "antichains.E7", "closures_low.E7", "closures_high.E7"],
        "aliases": {},
    },
}
SUBCAT_STEPS = ("registry", "antichains", "closures_low", "closures_high")
SETUP_PROBES = 6          # set-up-only processes per run, besides the pass workers
WORKER_TIMEOUT_S = 120
PASS_DEADLINE_S = 140     # no pass starts once one more would end past this
OUT = os.path.join(ROOT, ".perfbench_out")


def step_names(command: str, label: str) -> list[str]:
    if command == "subcat":
        return [f"{step}.{label}" for step in SUBCAT_STEPS]
    if command == "antichains":
        return [f"{step}.{label}" for step in SUBCAT_STEPS[:2]]
    return [f"{command}.{label}"]


def gate(name: str, facts: dict) -> list[str]:
    """Problems with one step's output; empty when it matches the closed forms."""
    kind, label = name.split(".")
    catalan, factorizations = coxeter_catalan(label), factorization_count(label)
    exponents = EXPONENTS[dynkin_type(label)]
    checks = []
    if kind == "verify":
        counts = facts["counts"]
        checks += [
            ("exit code 0", facts["exit"] == 0),
            (f"subcategories == nc == {catalan}",
             counts["subcategories"] == counts["nc"] == catalan),
            ("every flag true", all(facts["flags"].values())),
            ("no failures", facts["failures"] == 0),
        ]
    elif kind == "hurwitz":
        checks += [
            ("exit code 0", facts["exit"] == 0),
            (f"orbit_size == factorization_count == {factorizations}",
             facts["orbit_size"] == facts["factorization_count"] == factorizations),
            ("single orbit", facts["single_orbit"]),
            ("orbit tuples distinct", facts["orbit_distinct"] == factorizations),
        ]
    elif kind == "sequences":
        checks += [
            ("exit code 0", facts["exit"] == 0),
            (f"count == {factorizations}", facts["count"] == factorizations),
            ("sequences distinct", facts["sequences_distinct"] == factorizations),
            ("mutation graph connected", facts["connected"] and facts["graph_connected"]),
        ]
    elif kind == "registry":
        checks.append((f"{sum(exponents)} positive roots", facts["roots"] == sum(exponents)))
    elif kind == "antichains":
        checks.append((f"{catalan} antichains", facts["antichains"] == catalan))
    elif kind == "closures_low":
        checks.append((f"{catalan // 2} closures of rank <= n/2 (Kreweras complement, n odd)",
                       len(exponents) % 2 == 0 or 2 * facts["closures"] == catalan))
    elif kind == "closures_high":
        checks.append((f"{catalan} distinct closures recovering their antichains",
                       facts["closures"] == facts["distinct_closures"]
                       == facts["recovered"] == catalan))
    return [f"{name}: expected {what}" for what, ok in checks if not ok]


def run_worker(spec: dict) -> tuple[float, dict | None, str]:
    """Start one worker and wait for it; returns (spawn time, result, error)."""
    t_spawn = mono()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                              input=json.dumps(spec), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return t_spawn, None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return t_spawn, None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    result = json.loads(lines[-1])
    if "error" in result:
        return t_spawn, result, result["error"]
    return t_spawn, result, ""


def run_pass(workload: str, seed: int, work_dir: str, trace: bool, extra: bool) -> dict:
    """One pass, with or without the extra samples of short calls. Every
    time is scaled to the reference speed by the speed samples taken with
    it (see speed.py); raw times are kept beside them."""
    wl = WORKLOADS[workload]
    record = {"steps": [], "setup_s": [], "raw_setup_s": [], "sample_s": [], "failures": [],
              "processes": [],
              "traces": [], "witnesses": 0, "pass_s": 0.0, "raw_pass_s": 0.0,
              "peak_rss_mb": 0.0}
    if extra:
        processes = wl["extra"] + wl["calls"]
    else:  # each command once per type
        processes, seen = [], set()
        for command, label in wl["calls"]:
            if (command, dynkin_type(label)) not in seen:
                seen.add((command, dynkin_type(label)))
                processes.append((command, label))
    for k, (command, label) in enumerate(processes):
        spec = {"root": ROOT, "labels": wl["labels"], "seed": seed, "call": [command, label],
                "work_dir": work_dir, "trace": trace,
                "span_stem": os.path.join(OUT, "spans", f"{workload}-p{k}")}
        t_spawn, result, error = run_worker(spec)
        done = {}
        if result is None:
            record["pass_s"] += mono() - t_spawn
            record["raw_pass_s"] += mono() - t_spawn
        else:
            setup = result["setup_end"] - t_spawn
            record["setup_s"].append(setup * SAMPLE_REF_S / result["setup_sample_s"])
            record["raw_setup_s"].append(setup)
            record["sample_s"].append(result["sample_s"])
            record["pass_s"] += record["setup_s"][-1] + sum(
                s["seconds"] * SAMPLE_REF_S / s["sample_s"] for s in result["steps"])
            raw_busy = setup + sum(s["seconds"] for s in result["steps"])
            record["raw_pass_s"] += raw_busy
            record["processes"].append({"raw_busy_s": raw_busy,
                                        "scale": SAMPLE_REF_S / result["sample_s"]})
            record["peak_rss_mb"] = max(record["peak_rss_mb"], result["peak_rss_mb"])
            if trace:
                record["traces"].append({**result["trace"],
                                         "scale": record["processes"][-1]["scale"]})
            done = {s["name"]: s for s in result["steps"]}
        for name in step_names(command, label):
            step = done.get(name)
            if step is None:
                record["failures"].append(f"{name}: not completed: {error}")
                record["steps"].append({"name": name, "seconds": None, "digest": None})
                continue
            problems = gate(name, step["facts"])
            record["failures"] += problems
            record["steps"].append({"name": name,
                                    "seconds": step["seconds"] * SAMPLE_REF_S / step["sample_s"],
                                    "raw_seconds": step["seconds"], "samples": step["samples"],
                                    "digest": step["digest"], "ok": not problems})
            if name.startswith("verify."):
                record["witnesses"] += step["facts"]["counts"]["well_defined_witnesses"]
    return record


def setup_probe(workload: str, seed: int, work_dir: str) -> dict | None:
    """A process that only sets up and samples the speed."""
    spec = {"root": ROOT, "labels": WORKLOADS[workload]["labels"], "seed": seed,
            "call": None, "work_dir": work_dir, "trace": False, "span_stem": ""}
    t_spawn, result, error = run_worker(spec)
    if result is None or error:
        return None
    setup = result["setup_end"] - t_spawn
    return {"setup_s": setup * SAMPLE_REF_S / result["setup_sample_s"],
            "raw_setup_s": setup, "sample_s": result["sample_s"]}


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    for p in (99.9, 99, 95, 90, 75):
        if len(samples) * (1 - p / 100) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            out[f"p{p:g}"] = cut[round(p * 10) - 1]
            break
    return out


def provenance() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "ncpq")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"commit": commit, "source_sha256": src.hexdigest(),
            "python": platform.python_version(), "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "threads_per_worker": 1}


def end_to_end(workload: str, passes: list[dict], probes: list[dict]) -> tuple[dict, dict]:
    wl = WORKLOADS[workload]
    attempted = sum(len(p["steps"]) for p in passes)
    failed = sum(1 for p in passes for s in p["steps"] if not s.get("ok"))
    samples, raw = {}, {}
    for key in ("setup_s", "raw_setup_s"):
        samples[key] = [p[key] for p in probes] + [s for p in passes for s in p[key]]
    for key in ("pass_s", "raw_pass_s", "peak_rss_mb"):
        samples[key] = [p[key] for p in passes]
    for k, step in enumerate(wl["metrics"], 1):
        ran = [s for p in passes for s in p["steps"] if s.get("ok")
               and s["name"].split("#")[0] == step]
        samples[f"call_s.{k}"] = [s["seconds"] for s in ran]
        samples[f"raw_call_s.{k}"] = [s["raw_seconds"] for s in ran]
    for key in [k for k in samples if k.startswith("raw_")]:
        raw[key[4:]] = samples.pop(key)
    units = {"peak_rss_mb": "MB"}
    metrics = {name: {"value": statistics.median(vals) if vals else 0.0,
                      "unit": units.get(name, "s")}
               for name, vals in samples.items()}
    metrics["ok_frac"] = {"value": 1 - failed / attempted, "unit": "ratio"}
    stats = {name: summarize(vals) for name, vals in samples.items() if vals}
    for name, vals in raw.items():
        if vals:
            stats[name]["raw_median"] = statistics.median(vals)
    for k, step in enumerate(wl["metrics"], 1):
        stats.get(f"call_s.{k}", {})["step"] = step
    stats["ok_frac"] = {"attempted": attempted, "failed": failed}
    for alias, ks in wl["aliases"].items():
        stats[alias] = {"median": sum(metrics[f"call_s.{k}"]["value"] for k in ks),
                        "of": " + ".join(f"call_s.{k}" for k in ks)}
    return metrics, stats


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of the traced pass, times scaled like the pass."""
    funcs: dict[str, dict] = {}
    for tr in traced["traces"]:
        for name, agg in tr["functions"].items():
            acc = funcs.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            acc["calls"] += agg["calls"]
            acc["busy_s"] += agg["busy_s"] * tr["scale"]
            acc["self_s"] += agg["self_s"] * tr["scale"]

    def f(name: str, field: str):
        return funcs.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("weyl.absolute_leq", "weyl.absolute_length", "weyl.compose", "weyl.generate_roots",
                 "rep.hom_dim", "rep.has_injective_hom", "quiver.euler_form",
                 "quiver.classify_type"):
        m[f"{name}.calls"] = (f(name, "calls"), "count")
        m[f"{name}.busy_s"] = (f(name, "busy_s"), "s")
    for name in ("weyl.inverse", "rep.hom", "rep.ext", "exc.thick_closure", "exc.right_perp",
                 "exc.left_perp", "exc.braid_mutate", "exc.sequence_product",
                 "hurwitz.hurwitz_move"):
        m[f"{name}.calls"] = (f(name, "calls"), "count")
    for name in ("weyl.enumerate_group", "bijection.minimal_reflection_factorizations",
                 "rep.build_registry", "exc.enumerate_complete_sequences"):
        m[f"{name}.busy_s"] = (f(name, "busy_s"), "s")
    for name in ("weyl.noncrossing_partitions", "bijection.verify_bijection",
                 "exc.enumerate_exceptional_antichains", "exc.thick_closure",
                 "exc.mutation_graph", "hurwitz.hurwitz_orbit", "cli.main"):
        m[f"{name}.self_s"] = (f(name, "self_s"), "s")
    distinct = sum(tr["abs_len_distinct"] for tr in traced["traces"])
    orbit = sum(sum(tr["orbit_sizes"]) for tr in traced["traces"])
    m["weyl.absolute_length.distinct_frac"] = (
        ratio(distinct, f("weyl.absolute_length", "calls")), "ratio")
    m["rep.hom.memo_hit_frac"] = (
        1 - ratio(f("rep.hom_dim", "calls"), f("rep.hom", "calls")) if f("rep.hom", "calls")
        else 0.0, "ratio")
    m["hurwitz.hurwitz_move.new_frac"] = (ratio(orbit, f("hurwitz.hurwitz_move", "calls")), "ratio")
    m["exc.enumerate_exceptional_antichains.items"] = (
        sum(sum(tr["antichain_counts"]) for tr in traced["traces"]), "count")
    m["bijection.witnesses"] = (traced["witnesses"], "count")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, agg in funcs.items():
        layer_self[name.split(".")[0]] += agg["self_s"]
    for layer, value in layer_self.items():
        m[f"layer.{layer}.self_s"] = (value, "s")
    # Both passes scaled per process by its mean timer sample, like the spans.
    top = sum(tr["top_level_s"] * tr["scale"] for tr in traced["traces"])
    traced_s, untraced_s = (sum(p["raw_busy_s"] * p["scale"] for p in r["processes"])
                            for r in (traced, untraced))
    m["trace.pass_s"] = (traced_s, "s")
    m["trace.uncovered_s"] = (traced_s - top, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.spans"] = (sum(tr["spans"] for tr in traced["traces"]), "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(m.items())}


def check_checkout() -> str | None:
    if not os.path.isfile(os.path.join(ROOT, "src", "ncpq", "cli.py")):
        return f"no ncpq sources under {os.path.join(ROOT, 'src', 'ncpq')}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = check_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(OUT, "work", tag)
    for sub in ("results", "spans"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    started = mono()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance()}
    record["inputs"] = draw_inputs(WORKLOADS[args.workload]["labels"], args.seed)

    probes = [p for p in (setup_probe(args.workload, args.seed, work_dir)
                          for _ in range(SETUP_PROBES)) if p is not None]
    if args.trace:
        untraced = run_pass(args.workload, args.seed, work_dir, trace=False, extra=False)
        traced = run_pass(args.workload, args.seed, work_dir, trace=True, extra=False)
        passes = [untraced, traced]
    else:
        measure_start = mono()
        passes = []
        while True:
            passes.append(run_pass(args.workload, args.seed, work_dir, trace=False, extra=True))
            elapsed = mono() - measure_start
            typical = statistics.median(p["raw_pass_s"] for p in passes)
            if (elapsed + typical > args.seconds
                    or mono() - started + typical > PASS_DEADLINE_S):
                break
    failures = [msg for p in passes for msg in p["failures"]]
    speed = [p["sample_s"] for p in probes] + [s for p in passes for s in p["sample_s"]]
    record["speed"] = {"ref_s": SAMPLE_REF_S, "process_mean_sample_s": speed}
    if args.trace:
        for a, b in zip(untraced["steps"], traced["steps"]):
            if a["digest"] != b["digest"]:
                failures.append(f"{a['name']}: traced output differs from untraced")
                b["ok"] = False
        metrics = per_layer(untraced, traced)
        layers = sum(metrics[f"layer.{layer}.self_s"]["value"] for layer in LAYERS)
        if abs(layers + metrics["trace.uncovered_s"]["value"]
               - metrics["trace.pass_s"]["value"]) > 1e-6:
            failures.append("trace: layer self times plus uncovered do not add up to pass_s")
        stats = {}
    else:
        metrics, stats = end_to_end(args.workload, passes, probes)

    attempted = sum(len(p["steps"]) for p in passes)
    failed = sum(1 for p in passes for s in p["steps"] if not s.get("ok"))
    if args.trace and failures and not failed:
        failed = 1  # a trace accounting failure belongs to no single step
    record.update({"passes": [{k: v for k, v in p.items() if k != "traces"} for p in passes],
                   "failures": failures, "metrics": metrics, "stats": stats,
                   "wall_s": mono() - started})
    with open(os.path.join(OUT, "results", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    prov = record["provenance"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={prov['commit']} src={prov['source_sha256'][:12]} "
          f"python={prov['python']} nproc={prov['nproc']} passes={len(passes)} "
          f"speed sample median={statistics.median(speed) * 1000 if speed else 0:.3f}ms "
          f"(ref {SAMPLE_REF_S * 1000:g}ms)")
    for label, quiver in record["inputs"].items():
        arrows = " ".join(line[6:].replace(" ", "->") for line in quiver["text"].splitlines()
                          if line.startswith("arrow"))
        print(f"  input {label}: {arrows} order={quiver['coxeter_order']}")
    for name, metric in metrics.items():
        extra = stats.get(name, {})
        detail = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in extra.items() if k != "median")
        print(f"  {name} = {metric['value']:.6g} {metric['unit']} {detail}".rstrip())
    for alias in WORKLOADS[args.workload]["aliases"]:
        if alias in stats:
            print(f"  {alias} = {stats[alias]['median']:.6g} s ({stats[alias]['of']})")
    for msg in failures:
        print(f"  FAIL {msg}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
