"""Per-layer tracing of curvepath from the outside.

The tracer replaces functions of the curvepath modules (and numpy's
``leggauss``) with wrappers that record spans or counts, and puts the
originals back on ``uninstall``. No file of the package changes. A function
imported by name into another module (``from .geometry import point_geometry``)
is replaced at every binding in every loaded ``curvepath`` module, so calls
through any of them are seen.

A span is (span id, parent span id, request id, name, thread id, start, end).
The request is one CLI call. ``sweep`` runs its work on pool threads whose own
stacks are empty; their top-level spans take the CLI call in progress as
parent, so a layer's self time is its duration minus the union of its
children's intervals, whichever thread they ran on. Busy time is summed over
threads and can exceed wall time while the pool runs.

A target that no longer exists (a private helper removed by a later change)
is listed as absent and reported as zero, not treated as a failure.
"""
from __future__ import annotations

import collections
import importlib
import itertools
import json
import sys
import threading
import time

# (metric prefix, module, attribute); "Class.method" patches the class.
SPAN_TARGETS = (
    ("cli.main", "curvepath.cli", "main"),
    ("metrics.eval_metric_jet", "curvepath.metrics", "eval_metric_jet"),
    ("geometry.point_geometry", "curvepath.geometry", "point_geometry"),
    ("propagator.equal_time_table", "curvepath.propagator", "PeriodicPropagator.equal_time_table"),
    ("wick.vertex_catalog", "curvepath.wick", "vertex_catalog"),
    ("wick.expect_first_order", "curvepath.wick", "expect_first_order"),
    ("wick.expect_second_order_connected", "curvepath.wick", "expect_second_order_connected"),
    ("numpy.leggauss", "numpy.polynomial.legendre", "leggauss"),
    ("ecp.boltzmann_covariant", "curvepath.ecp", "boltzmann_covariant"),
    ("ecp.boltzmann_eta", "curvepath.ecp", "boltzmann_eta"),
    ("ecp.boltzmann_sphere", "curvepath.ecp", "boltzmann_sphere"),
    ("ecp.partition_function", "curvepath.ecp", "partition_function"),
    ("montecarlo.mc_boltzmann", "curvepath.montecarlo", "mc_boltzmann"),
    ("montecarlo.draw", "curvepath.montecarlo", "_draw_modes"),
    ("montecarlo.fft", "curvepath.montecarlo", "_to_grid"),
    ("montecarlo.vertex_action", "curvepath.montecarlo", "_vertex_action"),
)

# Hot or trivial functions: counted only, since a span per call would
# dominate what it measures.
COUNT_TARGETS = (
    ("expressions.evaluate.calls", "curvepath.expressions", "evaluate"),
    ("jets.Jet3.constructed", "curvepath.jets", "Jet3.__init__"),
    ("wick.cross_integral_table.calls", "curvepath.wick", "cross_integral_table"),
)

# Counters fed from results: name -> (span target, amount from result).
RESULT_COUNTERS = {
    "montecarlo.samples": ("montecarlo.mc_boltzmann", lambda r: r.n_samples),
    "montecarlo.grid_bytes": ("montecarlo.fft", lambda r: r.nbytes),
}

# Self time, summed over the spans whose name starts with the prefix.
SELF_TIMES = {
    "cli.self_s": "cli.main",
    "geometry.point_geometry.self_s": "geometry.point_geometry",
    "ecp.self_s": "ecp.",
    "montecarlo.reduction.self_s": "montecarlo.mc_boltzmann",
}


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Spans and counters kept in memory while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counters: list[collections.Counter] = []
        self._register = threading.Lock()
        self._root = None
        self._request = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.counters = collections.Counter()
            with self._register:
                self._thread_counters.append(local.counters)
        return local

    def _span(self, name: str, fn, result_counters=(), is_root=False):
        tracer = self

        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            if is_root:
                tracer._request += 1
                tracer._root = sid
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = None
                tracer.spans.append((sid, parent, tracer._request, name,
                                     threading.get_ident(), t0, t1))
            for counter, amount in result_counters:
                state.counters[counter] += amount(result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._state().counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, name: str, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            if name not in self.absent:
                self.absent.append(name)
            return
        wrapper = make(original)
        if owner_name:
            targets = [owner]
        else:
            targets = [m for key, m in list(sys.modules.items())
                       if m is not None and (key == module_name or key.startswith("curvepath"))]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    self._undo.append((target, key, original))

    def install(self) -> None:
        for name, module_name, attr in SPAN_TARGETS:
            counters = [(counter, amount) for counter, (span, amount)
                        in RESULT_COUNTERS.items() if span == name]
            self._patch(name, module_name, attr,
                        lambda fn, n=name, c=counters: self._span(n, fn, c, n == "cli.main"))
        for name, module_name, attr in COUNT_TARGETS:
            self._patch(name, module_name, attr, lambda fn, n=name: self._count(n, fn))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # -- reporting --------------------------------------------------------

    def counters(self) -> collections.Counter:
        total = collections.Counter()
        for c in self._thread_counters:
            total.update(c)
        return total

    def self_times(self) -> dict[int, float]:
        children = collections.defaultdict(list)
        for sid, parent, _, _, _, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        return {sid: (t1 - t0) - _union_length(children.get(sid, ()), t0, t1)
                for sid, _, _, _, _, t0, t1 in self.spans}

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer totals divided by the number of traced rounds."""
        calls = collections.Counter()
        busy = collections.Counter()
        for _, _, _, name, _, t0, t1 in self.spans:
            calls[name] += 1
            busy[name] += t1 - t0
        out = {}
        for name, _, _ in SPAN_TARGETS:
            out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.busy_s"] = busy[name] / rounds
        counters = self.counters()
        for name, _, _ in COUNT_TARGETS:
            out[name] = counters[name] / rounds
        for name in RESULT_COUNTERS:
            out[name] = counters[name] / rounds
        out["montecarlo.batches"] = calls["montecarlo.draw"] / rounds
        own = self.self_times()
        for metric, prefix in SELF_TIMES.items():
            out[metric] = sum(own[s[0]] for s in self.spans if s[3].startswith(prefix)) / rounds
        return out

    def dump(self, path, facts: dict) -> None:
        doc = {"facts": facts, "absent": self.absent, "counters": dict(self.counters()),
               "span_fields": ["id", "parent", "request", "name", "thread", "start", "end"],
               "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
