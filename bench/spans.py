"""Span tracer for the benchmark's per-layer metrics.

The tracer wraps wtree's functions at the module bindings their callers
resolve at call time (``wtree.engine.omega_for_generation`` is what
``solve_root_R_batch`` calls, ``wtree.observables.solve_root_R_batch``
is what ``spectral_density`` calls, and so on).  Each call records one
span: layer, thread id, start, end, the span that caused it, and the
work it did.  Spans stay in memory until the run ends.

A span started on a worker thread with no open span of its own is
caused by the innermost open span of the main thread; in wtree only
``spectral_density`` starts worker threads, and it waits on them.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from wtree.graphmodel import ROOT_EDGE


def _subtree_edges(K: int, depth_local: int) -> int:
    if K == 1:
        return depth_local + 1
    return (K ** (depth_local + 1) - 1) // (K - 1)


def _batch_work(args, kwargs, result):
    out = result[0] if isinstance(result, tuple) else result
    return out.size * args[0].edge_count(), out.size


def _scalar_work(args, kwargs, result):
    spec = args[0]
    addr = args[3] if len(args) > 3 else kwargs.get("addr", ROOT_EDGE)
    return _subtree_edges(spec.K, spec.depth - addr.generation), None


# layer -> ((module, attribute), ...), the bindings callers look up.
PATCH_POINTS = {
    "graphmodel.omega": (("wtree.engine", "omega_for_generation"),),
    "graphmodel.hash": (("wtree.ensemble", "hash_words"),),
    "engine.batch": (
        ("wtree.ensemble", "solve_root_R_batch"),
        ("wtree.observables", "solve_root_R_batch"),
        ("wtree.cli", "solve_root_R_batch"),
    ),
    "engine.scalar": (("wtree.engine", "solve_edge_R"),),
    "engine.minus": (("wtree.engine", "solve_R_minus"),),
    "regular.fixed_point": (
        ("wtree.observables", "fixed_point_batch"),
        ("wtree.ensemble", "fixed_point_batch"),
        ("wtree.cli", "fixed_point_batch"),
    ),
    "regular.seed": (
        ("wtree.ensemble", "cut_seed_disk"),
        ("wtree.ensemble", "stationary_disk"),
        ("wtree.observables", "_seed_array"),
    ),
    "observables.density": (("wtree.cli", "spectral_density"),),
    "observables.profile": (("wtree.observables", "tree_profile"),),
    "ensemble.pool_init": (("wtree.ensemble", "pool_init"),),
    "ensemble.pool_step": (("wtree.ensemble", "pool_step"),),
    "ensemble.estimator": (
        ("wtree.cli", "estimate_gamma"),
        ("wtree.cli", "fluctuation_report"),
    ),
    "cli.run": (("wtree.cli", "run"),),
}

# layer -> f(args, kwargs, result) -> (work units, extra)
WORK = {
    "graphmodel.omega": lambda a, k, r: (r.size, None),
    "engine.batch": _batch_work,
    "engine.scalar": _scalar_work,
    "regular.fixed_point": lambda a, k, r: (int(np.size(a[0])), None),
    "observables.density": lambda a, k, r: (len(r), None),
    "ensemble.pool_init": lambda a, k, r: (r.size, r),
    "ensemble.pool_step": lambda a, k, r: (a[0].size, a[0]),
}


class TraceError(RuntimeError):
    """A wrapper could not be installed or an expected span never fired."""


class Span:
    __slots__ = ("layer", "tid", "t0", "t1", "parent", "work", "extra")

    def __init__(self, layer, tid, t0, parent):
        self.layer = layer
        self.tid = tid
        self.t0 = t0
        self.t1 = t0
        self.parent = parent
        self.work = 0
        self.extra = None


class Tracer:
    """Records spans while installed; spans accumulate across installs."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main_stack = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, fn):
        work = WORK.get(layer)
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            span = Span(layer, threading.get_ident(), clock(), parent)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
                spans.append(span)
            if work is not None:
                span.work, span.extra = work(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding in PATCH_POINTS for the duration of the block."""
        saved = []
        try:
            for layer, points in PATCH_POINTS.items():
                for modname, attr in points:
                    mod = importlib.import_module(modname)
                    fn = getattr(mod, attr, None)
                    if not callable(fn):
                        raise TraceError(
                            f"{modname}.{attr} is missing; layer {layer} cannot be traced"
                        )
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(layer, fn))
            self._main_stack = self._stack()
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
            self._main_stack = None


def _covered(t0, t1, intervals):
    """Length of [t0, t1] covered by the union of the given intervals."""
    total = 0.0
    end = t0
    for s, e in sorted(intervals):
        s = max(s, end)
        e = min(e, t1)
        if e > s:
            total += e - s
            end = e
    return total


def missing_layers(spans, expected):
    """Expected layers that recorded no span."""
    seen = {s.layer for s in spans}
    return [layer for layer in expected if layer not in seen]


def layer_metrics(spans, iterations: int) -> dict:
    """Per-layer metrics from the spans of ``iterations`` traced runs.

    Counts and times are per traced run; rates and ratios are over all
    of them.
    """
    by_layer = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_layer[s.layer].append(s)
        if s.parent is not None:
            children[id(s.parent)].append(s)

    def busy(layer):
        return sum(s.t1 - s.t0 for s in by_layer[layer])

    def self_time(layer):
        return sum(
            (s.t1 - s.t0) - _covered(s.t0, s.t1, [(c.t0, c.t1) for c in children[id(s)]])
            for s in by_layer[layer]
        )

    def work(layer):
        return sum(s.work for s in by_layer[layer])

    def rate(num, den):
        return num / den if den > 0 else 0.0

    def child_busy(layer, child_layer):
        return sum(
            c.t1 - c.t0
            for s in by_layer[layer]
            for c in children[id(s)]
            if c.layer == child_layer
        )

    n = max(iterations, 1)
    m = {}
    for layer in ("graphmodel.omega", "graphmodel.hash", "engine.batch", "engine.scalar",
                  "regular.fixed_point", "ensemble.pool_step"):
        m[f"{layer}.calls"] = len(by_layer[layer]) / n
        m[f"{layer}.busy_s"] = busy(layer) / n
    m["graphmodel.omega.edges_per_s"] = rate(work("graphmodel.omega"), busy("graphmodel.omega"))
    m["engine.batch.self_s"] = self_time("engine.batch") / n
    m["engine.batch.edges_per_s"] = rate(work("engine.batch"), busy("engine.batch"))
    m["engine.batch.hash_share"] = rate(
        child_busy("engine.batch", "graphmodel.omega"), busy("engine.batch")
    )
    m["engine.scalar.edges_per_s"] = rate(work("engine.scalar"), busy("engine.scalar"))
    m["engine.minus.self_s"] = self_time("engine.minus") / n
    m["regular.fixed_point.points_per_s"] = rate(
        work("regular.fixed_point"), busy("regular.fixed_point")
    )
    m["regular.seed.calls"] = len(by_layer["regular.seed"]) / n

    # Each worker thread of spectral_density solves one chunk; further
    # solves on the same thread are one-replica fallbacks.
    batch_busy = threads_wall = chunks = batch_calls = 0
    for s in by_layer["observables.density"]:
        kids = [c for c in children[id(s)] if c.layer == "engine.batch"]
        workers = len({c.tid for c in kids})
        batch_busy += sum(c.t1 - c.t0 for c in kids)
        threads_wall += max(workers, 1) * (s.t1 - s.t0)
        chunks += workers
        batch_calls += len(kids)
    m["observables.density.busy_s"] = busy("observables.density") / n
    m["observables.density.self_s"] = self_time("observables.density") / n
    m["observables.density.parallel_eff"] = rate(batch_busy, threads_wall)
    m["observables.density.retry_ratio"] = rate(batch_calls - chunks, work("observables.density"))
    m["observables.profile.busy_s"] = busy("observables.profile") / n

    m["ensemble.pool_step.member_gens_per_s"] = rate(
        work("ensemble.pool_step"), busy("ensemble.pool_step")
    )
    pools = [s.extra for s in by_layer["ensemble.pool_init"]]
    steps = Counter(id(s.extra) for s in by_layer["ensemble.pool_step"])
    generations = sum(p.generation for p in pools)
    collected = sum(p.generation - steps[id(p)] for p in pools)
    member_gens = sum(p.generation * p.size for p in pools)
    m["ensemble.pool.collect_ratio"] = rate(collected, generations)
    m["ensemble.pool.resample_ratio"] = rate(sum(p.resampled for p in pools), member_gens)
    m["ensemble.estimator.self_s"] = self_time("ensemble.estimator") / n
    m["cli.run.busy_s"] = busy("cli.run") / n
    m["cli.run.self_s"] = self_time("cli.run") / n
    return m
