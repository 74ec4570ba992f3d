"""One benchmark process: set up, run the timed calls, report as JSON.

The parent starts a fresh interpreter for every timed call of the CLI
workloads and for every pass of subcat-e7, so no call inherits memo state
from an earlier call on the same quiver. The spec arrives as JSON on stdin;
the result is the last line of stdout. Set-up (interpreter start,
``import ncpq``, drawing and writing the inputs) ends at ``setup_end``, a
CLOCK_MONOTONIC reading the parent compares with its own spawn time.
``speed.SpeedSampler`` measures the machine's speed right after set-up and
during the timed calls (see speed.py); every time the worker reports comes
with the mean sample time that the parent scales it by.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import traceback

from inputs import draw_inputs
from speed import SpeedSampler, mono


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _connected(count: int, edges) -> bool:
    adj = {i: [] for i in range(count)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == count


def _facts(command: str, code: int, payload: dict) -> dict:
    """The parts of a CLI payload the gate checks, read outside the timing."""
    if command == "verify":
        return {"exit": code, "counts": payload["counts"], "flags": payload["flags"],
                "failures": len(payload["failures"])}
    if command == "hurwitz":
        return {"exit": code, "orbit_size": payload["orbit_size"],
                "factorization_count": payload["factorization_count"],
                "single_orbit": payload["single_orbit"],
                "orbit_distinct": len({json.dumps(t) for t in payload["orbit"]})}
    return {"exit": code, "count": payload["count"], "connected": payload["connected"],
            "sequences_distinct": len({json.dumps(s) for s in payload["sequences"]}),
            "graph_connected": _connected(len(payload["sequences"]), payload["mutation_edges"])}


def run_cli(ncpq, command: str, quiver: dict, path: str, out: str) -> list[tuple]:
    """One in-process CLI call, as (step, start, end, facts, digest)."""
    argv = [command, path, "--format", "json", "--out", out]
    if command in ("verify", "hurwitz"):
        argv += ["--coxeter-order", ",".join(map(str, quiver["coxeter_order"]))]
    t0 = mono()
    code = ncpq.cli.main(argv)
    t1 = mono()
    with open(out, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.pop("elapsed_ms", None)
    return [(f"{command}.{quiver['label']}", t0, t1, _facts(command, code, payload),
             _digest(payload))]


def _registry(ncpq, path: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    t0 = mono()
    q = ncpq.parse_quiver(text)
    reg = ncpq.build_registry(q, ncpq.generate_roots(q))
    return q, reg, t0, mono()


def run_registry(ncpq, quiver: dict, path: str) -> list[tuple]:
    """Parse, generate roots and build the registry, nothing else."""
    _, reg, t0, t1 = _registry(ncpq, path)
    return [(f"registry.{quiver['label']}", t0, t1, {"roots": len(reg)}, None)]


def run_subcat(ncpq, quiver: dict, path: str, closures: bool) -> list[tuple]:
    """The library path to the thick-subcategory lattice: registry,
    antichains, then (if asked) thick_closure(ExcSequence(order_antichain(a)))
    for the antichains of rank up to half the vertex count and for the rest."""
    from ncpq.exc import order_antichain

    label = quiver["label"]
    q, reg, t0, t1 = _registry(ncpq, path)
    antichains = sorted(ncpq.enumerate_exceptional_antichains(q, reg),
                        key=lambda a: tuple(sorted(a)))
    t2 = mono()
    steps = [(f"registry.{label}", t0, t1, {"roots": len(reg)}, None),
             (f"antichains.{label}", t1, t2, {"antichains": len(antichains)}, None)]
    if not closures:
        return steps
    low = [a for a in antichains if 2 * len(a) <= q.n]
    high = [a for a in antichains if 2 * len(a) > q.n]
    subs_low = [ncpq.thick_closure(ncpq.ExcSequence(order_antichain(a, reg)), reg) for a in low]
    t3 = mono()
    subs_high = [ncpq.thick_closure(ncpq.ExcSequence(order_antichain(a, reg)), reg) for a in high]
    t4 = mono()
    pairs = list(zip(low + high, subs_low + subs_high))
    lattice = sorted((sorted(a), sorted(s.ind_roots)) for a, s in pairs)
    facts = {"closures": len(pairs),
             "distinct_closures": len({s.ind_roots for _, s in pairs}),
             "recovered": sum(frozenset(s.simples) == a for a, s in pairs)}
    return steps + [(f"closures_low.{label}", t2, t3, {"closures": len(low)}, None),
                    (f"closures_high.{label}", t3, t4, facts, _digest(lattice))]


def main() -> int:
    spec = json.load(sys.stdin)
    root = spec["root"]
    sys.path.insert(0, os.path.join(root, "src"))
    import ncpq
    import ncpq.cli

    quivers = draw_inputs(spec["labels"], spec["seed"])
    work = spec["work_dir"]
    paths = {}
    for label, quiver in quivers.items():
        paths[label] = os.path.join(work, f"{label}.quiver")
        with open(paths[label], "w", encoding="utf-8") as fh:
            fh.write(quiver["text"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    setup_end = mono()
    sampler = SpeedSampler()
    result = {"steps": [], "setup_end": setup_end, "setup_sample_s": sampler.burst()}
    sampler.start()
    try:
        steps = []
        if spec["call"]:
            command, label = spec["call"]
            if command in ("subcat", "antichains"):
                steps = run_subcat(ncpq, quivers[label], paths[label], command == "subcat")
            elif command == "registry":
                steps = run_registry(ncpq, quivers[label], paths[label])
            else:
                out = os.path.join(work, f"{command}-{label}.json")
                steps = run_cli(ncpq, command, quivers[label], paths[label], out)
    except Exception:  # reported to the parent, which counts the call as failed
        result["error"] = traceback.format_exc()
    finally:
        sampler.stop()
    for name, start, end, facts, digest in steps:
        seconds, sample_s, used = sampler.window(start, end)
        result["steps"].append({"name": name, "seconds": seconds, "sample_s": sample_s,
                                "samples": used, "facts": facts, "digest": digest})
    result["samples"] = len(sampler.samples)
    result["sample_s"] = sampler.mean()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.summary(sampler.samples)
        tracer.write(spec["span_stem"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
