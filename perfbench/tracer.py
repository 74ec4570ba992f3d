"""Outside-in tracer for the ncpq layers.

The tracer wraps every public function of the layer modules (plus the
memoised Hom/Ext methods of ``IndecRegistry``) from outside the package and
records one span per call: function id, parent span, start and end in
``perf_counter_ns``. Spans stay in memory in flat arrays and are written
once, when the traced process ends.

A wrapped function is rebound under every name that refers to it in any
``ncpq`` module, because ``from .weyl import compose`` copies the binding
into ``bijection``, ``exc`` and ``hurwitz``, and ``absolute_leq`` reaches
``absolute_length``, ``compose`` and ``inverse`` through ``weyl``'s own
globals. ``_linalg`` is not wrapped: its time stays in the caller's self
time, so Fraction elimination called from ``weyl`` counts for weyl and the
same routines called from ``rep`` count for rep.
"""

from __future__ import annotations

import array
import bisect
import importlib
import inspect
import json
import sys
import time

LAYERS = ("quiver", "weyl", "rep", "exc", "hurwitz", "bijection", "cli")
REGISTRY_METHODS = ("hom", "ext", "has_injective_hom")


class Tracer:
    """Span recorder; install() wraps the package, summary() aggregates."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.fid = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack = [-1]
        # Arguments or results some ratios need, collected by observers.
        self.abs_len_matrices: set = set()
        self.orbit_sizes: list[int] = []
        self.antichain_counts: list[int] = []

    def _wrap(self, name: str, fn, observe=None):
        fid = len(self.names)
        self.names.append(name)
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _observers(self) -> dict:
        return {
            "weyl.absolute_length": lambda args, _: self.abs_len_matrices.add(args[0].matrix),
            "hurwitz.hurwitz_orbit": lambda _, result: self.orbit_sizes.append(len(result)),
            "exc.enumerate_exceptional_antichains":
                lambda _, result: self.antichain_counts.append(len(result)),
        }

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind them in
        every loaded ``ncpq`` module."""
        observers = self._observers()
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ncpq.{layer}")
            for name, obj in sorted(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                key = f"{layer}.{name}"
                wrappers[obj] = self._wrap(key, obj, observers.get(key))
        modules = [m for n, m in sys.modules.items() if n == "ncpq" or n.startswith("ncpq.")]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
        registry = importlib.import_module("ncpq.rep").IndecRegistry
        for method in REGISTRY_METHODS:
            setattr(registry, method, self._wrap(f"rep.{method}", getattr(registry, method)))

    def summary(self, samples=()) -> dict:
        """Per-function calls, busy time (outermost calls only) and self
        time (duration minus direct child spans), plus top-level time.

        ``samples`` are (start, seconds) of the speed-sampling jobs that
        ran inside spans (CLOCK_MONOTONIC, the clock of perf_counter on
        Linux). Each one is taken out of every span open at its start, so
        it leaves the self time of the innermost of them."""
        fids, parents, starts, ends = self.fid, self.parent, self.start, self.end
        held = array.array("q", bytes(8 * len(fids)))
        for t, d in samples:
            i = bisect.bisect_right(starts, int(t * 1e9)) - 1
            while i >= 0 and ends[i] < t * 1e9:
                i = parents[i]
            while i >= 0:
                held[i] += int(d * 1e9)
                i = parents[i]
        n_funcs = len(self.names)
        calls = [0] * n_funcs
        busy = [0] * n_funcs
        self_ns = [0] * n_funcs
        open_until = [-1] * n_funcs
        child = array.array("q", bytes(8 * len(fids)))
        top = 0
        for i in range(len(fids) - 1, -1, -1):
            dur = ends[i] - starts[i] - held[i]
            p = parents[i]
            if p >= 0:
                child[p] += dur
            else:
                top += dur
            self_ns[fids[i]] += dur - child[i]
        for i in range(len(fids)):
            f = fids[i]
            calls[f] += 1
            if starts[i] >= open_until[f]:
                busy[f] += ends[i] - starts[i] - held[i]
                open_until[f] = ends[i]
        funcs = {
            name: {"calls": calls[k], "busy_s": busy[k] / 1e9, "self_s": self_ns[k] / 1e9}
            for k, name in enumerate(self.names) if calls[k]
        }
        return {
            "spans": len(fids),
            "top_level_s": top / 1e9,
            "functions": funcs,
            "abs_len_distinct": len(self.abs_len_matrices),
            "orbit_sizes": self.orbit_sizes,
            "antichain_counts": self.antichain_counts,
        }

    def write(self, stem: str) -> None:
        """Write the spans: ``stem.json`` names the functions and the
        layout, ``stem.spans`` holds the four arrays back to back."""
        with open(stem + ".spans", "wb") as fh:
            for arr in (self.fid, self.parent, self.start, self.end):
                arr.tofile(fh)
        meta = {
            "names": self.names,
            "count": len(self.fid),
            "layout": ["fid:int32", "parent:int32", "start_ns:int64", "end_ns:int64"],
        }
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
