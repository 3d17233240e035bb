"""Layer tracing for the traced run, from outside the program.

:class:`LayerTracer` wraps public functions at layer boundaries (compile,
``Miniperf.stat``/``record``, ``Machine.execute_batch``, the disk store, the
daemon's result cache and pool) and records, per layer, calls, total seconds
and self seconds -- total minus the time of wrapped calls nested inside.  A
thread folds its pending tallies into the program's telemetry registry when
its outermost wrapped call returns, so tallies made in a pool worker ride
the registry delta the worker already ships to its parent (both
``run_plan`` and the daemon merge it).  That needs the wrappers in place
before the worker forks; pools are created after :meth:`install`.

Nothing here changes what a wrapped function computes.
"""

from __future__ import annotations

import functools
import importlib
import threading
from time import perf_counter
from typing import Dict, List, Tuple

SECONDS = "steadybench_layer_seconds_total"
CALLS = "steadybench_layer_calls_total"
BYTES = "steadybench_layer_bytes_total"


def _resolve(path: str):
    module_name, _, attr = path.partition(":")
    owner = importlib.import_module(module_name)
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, attr.split(".")[-1]


#: (layer, "module:Owner.attribute") -- every wrapped boundary.
BOUNDARIES: Tuple[Tuple[str, str], ...] = (
    ("compiler.lookup", "repro.compiler.cache:compile_source_cached"),
    ("compiler.lookup", "repro.api.workload:compile_source_cached"),
    ("compiler.lookup", "repro.workloads.parallel:compile_source_cached"),
    ("compiler.compile", "repro.compiler.cache:compile_source"),
    ("miniperf.stat", "repro.miniperf.tool:Miniperf.stat"),
    ("miniperf.record", "repro.miniperf.tool:Miniperf.record"),
    ("miniperf.hotspots", "repro.miniperf.tool:Miniperf.hotspots"),
    ("smp.stat", "repro.smp:smp_stat"),
    ("smp.record", "repro.smp:smp_record"),
    ("platforms.execute_batch",
     "repro.platforms.machine:Machine.execute_batch"),
    ("flamegraph.build", "repro.api.session:build_flame_graph"),
    ("roofline.run", "repro.api.workload:CompiledKernelWorkload.roofline"),
    ("cache.get", "repro.cache.store:DiskCache.get"),
    ("cache.put", "repro.cache.store:DiskCache.put"),
    ("service.cache_get", "repro.service.cache:ResultCache.get"),
)

#: Layers whose self time is IR interpretation: the profiled run minus the
#: retirement batches (and anything else wrapped) nested inside it.
VM_LAYERS = ("miniperf.stat", "miniperf.record", "smp.stat", "smp.record")


class LayerTracer:
    """Installs and removes the boundary wrappers; see the module doc."""

    def __init__(self) -> None:
        from repro import telemetry
        self._registry = telemetry.REGISTRY
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []
        self._unshipped = None

    # -- recording ------------------------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.pending = {}
        return local

    def _flush(self, pending: Dict[Tuple[str, str], float]) -> None:
        with self._lock:
            seconds = self._registry.counter(SECONDS, "steadybench layer time")
            calls = self._registry.counter(CALLS, "steadybench layer calls")
            written = self._registry.counter(BYTES, "steadybench layer bytes")
            for (layer, part), value in pending.items():
                if part == "calls":
                    calls.inc(value, layer=layer)
                elif part == "bytes":
                    written.inc(value, layer=layer)
                else:
                    seconds.inc(value, layer=layer, part=part)
        pending.clear()

    def _add(self, pending, layer: str, part: str, value: float) -> None:
        key = (layer, part)
        pending[key] = pending.get(key, 0) + value

    def _wrap(self, layer: str, function):
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            stack.append(0.0)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                pending = state.pending
                tracer._add(pending, layer, "total", elapsed)
                tracer._add(pending, layer, "self", elapsed - nested)
                tracer._add(pending, layer, "calls", 1)
                if layer == "cache.put" and len(args) > 3:
                    tracer._add(pending, layer, "bytes", len(args[3]))
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer._flush(pending)

        return wrapper

    def _wrap_submit(self, function):
        """``WarmPool.submit``: time from submit until the future is done."""
        tracer = self

        @functools.wraps(function)
        def submit(*args, **kwargs):
            start = perf_counter()
            future = function(*args, **kwargs)

            def done(_future) -> None:
                tracer._flush({("service.pool", "total"):
                               perf_counter() - start,
                               ("service.pool", "calls"): 1})

            future.add_done_callback(done)
            return future

        return submit

    def _wrap_pool_class(self, cls):
        """Count the process pools ``run_plan`` creates (retries show as
        extra pools per plan)."""
        tracer = self

        def make_pool(*args, **kwargs):
            tracer._flush({("executor.pools", "calls"): 1})
            return cls(*args, **kwargs)

        return make_pool

    def _wrap_initializer(self, function):
        """``run_plan``'s pool initializer compiles the plan cold in each
        fresh worker, outside any request's telemetry window: keep that
        window's registry delta to ship with the worker's first request."""
        tracer = self

        @functools.wraps(function)
        def initializer(*args, **kwargs):
            before = tracer._registry.snapshot()
            try:
                return function(*args, **kwargs)
            finally:
                tracer._unshipped = tracer._registry.snapshot_delta(before)

        return initializer

    def _wrap_shipped(self, function):
        """Append the initializer's delta to the first shipped delta; the
        parent's ``REGISTRY.merge`` adds repeated series."""
        tracer = self

        @functools.wraps(function)
        def shipped(*args, **kwargs):
            run, wire = function(*args, **kwargs)
            pending, tracer._unshipped = tracer._unshipped, None
            for name, entry in (pending or {}).items():
                if entry["kind"] == "gauge":
                    continue
                into = wire["metrics"].setdefault(name, dict(entry, series=[]))
                into["series"] = list(into["series"]) + list(entry["series"])
            return run, wire

        return shipped

    # -- install / remove -----------------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            return
        for layer, path in BOUNDARIES:
            owner, name = _resolve(path)
            self._patch(owner, name, self._wrap(layer, getattr(owner, name)))
        for path, wrap in (
                ("repro.service.pool:WarmPool.submit", self._wrap_submit),
                ("repro.api.executor:ProcessPoolExecutor",
                 self._wrap_pool_class),
                ("repro.api.executor:_warm_worker", self._wrap_initializer),
                ("repro.api.executor:_execute_request_shipped",
                 self._wrap_shipped)):
            owner, name = _resolve(path)
            self._patch(owner, name, wrap(getattr(owner, name)))

    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def remove(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)


# -- reading the registry ------------------------------------------------------------------


def series(delta: dict, family: str, **match) -> float:
    """Sum of a counter family's series (histograms: their sums) whose
    labels include *match*, in a registry snapshot or snapshot delta."""
    entry = delta.get(family)
    if entry is None:
        return 0.0
    total = 0.0
    for key_list, value in entry["series"]:
        labels = dict(tuple(pair) for pair in key_list)
        if all(labels.get(k) == v for k, v in match.items()):
            total += value["sum"] if entry["kind"] == "histogram" else value
    return total


def layer_seconds(delta: dict, layer: str, part: str = "total") -> float:
    return series(delta, SECONDS, layer=layer, part=part)


def layer_calls(delta: dict, layer: str) -> float:
    return series(delta, CALLS, layer=layer)


def merge_deltas(total: dict, delta: dict) -> None:
    """Fold one snapshot delta into an accumulated one.  Series may repeat;
    :func:`series` sums them.  Gauges are point-in-time and dropped."""
    for name, entry in delta.items():
        if entry["kind"] != "gauge":
            total.setdefault(name, dict(entry, series=[]))["series"].extend(
                entry["series"])
