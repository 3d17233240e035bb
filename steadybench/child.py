"""One benchmark interpreter: set a workload up, run its rounds, record them.

The coordinator (``run.py``) starts this script in a fresh interpreter with
a scrubbed environment and reads the JSON record it writes to ``--out``.
Modes:

* ``setup``   -- set up (imports, daemon start, warm-up), note the time the
  first op could start, tear down.  One sample of ``setup_s``.
* ``measure`` -- set up, then run ``--rounds`` untraced rounds.
* ``trace``   -- set up, then alternate untraced and traced rounds; the
  traced ones run under :class:`layers.LayerTracer`.
* ``smoke``   -- set up, then run the workload's smallest op once.

Every op's output is digested and compared with ``expected.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import sys
from time import monotonic, perf_counter
from typing import Dict, List, Optional

import layers
import ops as bench_ops

HERE = os.path.dirname(os.path.abspath(__file__))

#: Op kinds that ran the simulator (the rest were served from a cache).
EXECUTED = ("op", "miss", "cold")


def load_expected() -> Dict[str, str]:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return {name: entry["digest"]
                for name, entry in json.load(handle)["ops"].items()}


def _calibration_kernel() -> int:
    """Fixed pure-Python work shaped like an interpreter's inner loop
    (closure dispatch over a list memory) that never touches the program
    under test."""
    memory = [0] * 256
    steps = [
        (lambda m, a=index % 7, b=(index * 3) % 11:
         m.__setitem__(a, (m[a] + m[b] + 1) & 0xFFFF))
        for index in range(64)]
    total = 0
    for _ in range(150):
        for step in steps:
            step(memory)
        total += memory[3]
    return total


def calibrate() -> float:
    """Seconds one calibration run takes on this host right now (about
    2 ms on the reference host)."""
    start = perf_counter()
    _calibration_kernel()
    return perf_counter() - start


class Round:
    """What one round did: wall time of its timed sections and every op."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.wall = 0.0
        self.ops: List[dict] = []
        self.passes: List[dict] = []
        #: The timed sections the wall time adds up from, as (key, seconds,
        #: mean of the calibration runs right before and right after it):
        #: one per op, or one per sweep pass.
        self.sections: List[tuple] = []
        self._calibration = calibrate()

    def timed(self, key: str, seconds: float) -> None:
        after = calibrate()
        self.wall += seconds
        self.sections.append((key, seconds, (self._calibration + after) / 2))
        self._calibration = after

    def add(self, name: str, kind: str, latency: float, ok: bool,
            payload: Optional[dict], **extra) -> None:
        record = {"name": name, "kind": kind, "latency_s": latency,
                  "ok": ok,
                  "instructions": (bench_ops.modelled_instructions(payload)
                                   if payload and kind in EXECUTED else 0),
                  "samples": bench_ops.sample_count(payload) if payload else 0}
        record.update(extra)
        self.ops.append(record)

    def to_dict(self) -> dict:
        return {"traced": self.traced, "wall_s": self.wall, "ops": self.ops,
                "passes": self.passes, "sections": self.sections}


# -- workloads ----------------------------------------------------------------------------


class InProcess:
    """profile-count / profile-sample: ``Session.run`` in this process."""

    def __init__(self, expected: Dict[str, str], op_set) -> None:
        self.expected = expected
        self.op_set = op_set

    def _run(self, request: dict):
        from repro.api import RunRequest, Session
        from repro.workloads import registry
        run_request = RunRequest.from_dict(request)
        session = Session(run_request.platform,
                          vendor_driver=run_request.vendor_driver)
        run = session.run(registry.create(run_request.workload,
                                          **run_request.params),
                          run_request.spec)
        return run.deterministic_dict()

    def setup(self, tracer) -> None:
        # Warm-up: every op once at a tiny size compiles every kernel for
        # every platform and runs every code path the timed ops take.
        for op in self.op_set:
            warm = json.loads(json.dumps(op.request))
            warm["params"]["n"] = 4
            self._run(warm)

    def run_round(self, round_ops, traced: bool) -> Round:
        result = Round(traced)
        for op, request, kind in round_ops:
            payload = None
            start = perf_counter()
            try:
                payload = self._run(request)
            except Exception as error:  # an op that raises is a failed op
                latency = perf_counter() - start
                result.add(op.name, kind, latency, False, None,
                           error=repr(error))
            else:
                latency = perf_counter() - start
                result.add(op.name, kind, latency,
                           bench_ops.digest(payload) == self.expected[op.name],
                           payload)
            result.timed(f"{op.name}|{kind}", latency)
            gc.collect()
        return result

    def close(self) -> None:
        pass


class ServeMix:
    """serve-mix: a ``BackgroundServer`` with one worker, one client."""

    def __init__(self, expected: Dict[str, str], tracing: bool) -> None:
        self.expected = expected
        self.tracing = tracing
        self.servers = []
        self.clients = {}

    def _start(self, traced: bool) -> None:
        from repro.service.client import ServiceClient
        from repro.service.daemon import BackgroundServer, ServiceConfig
        # One worker: with the in-process client that is at most two busy
        # threads on a 2-vCPU host (the default of two workers makes three).
        server = BackgroundServer(ServiceConfig(port=0, workers=1))
        server.__enter__()
        self.servers.append(server)
        client = ServiceClient(server.address)
        self.clients[traced] = client
        for op in bench_ops.SERVE_HITS:
            reply = client.run(op.request, with_meta=True)
            if reply.cache != "miss":
                raise RuntimeError(f"prefill of {op.name} was not a miss")

    def setup(self, tracer) -> None:
        # The worker forks on the first request, so a daemon started while
        # the tracer is installed has a traced worker for good: the traced
        # run keeps a second daemon for its traced rounds.
        self._start(traced=False)
        if self.tracing:
            tracer.install()
            try:
                self._start(traced=True)
            finally:
                tracer.remove()

    def run_round(self, round_ops, traced: bool) -> Round:
        from repro.service.client import ServiceError
        client = self.clients[traced]
        result = Round(traced)
        for op, request, kind in round_ops:
            start = perf_counter()
            try:
                reply = client.run(request, with_meta=True)
            except ServiceError as error:
                latency = perf_counter() - start
                result.add(op.name, kind, latency, False, None,
                           error=repr(error), status=error.status)
            else:
                latency = perf_counter() - start
                payload = reply.payload["run"]
                ok = (reply.cache == kind
                      and bench_ops.digest(payload) == self.expected[op.name])
                result.add(op.name, kind, latency, ok, payload,
                           cache=reply.cache, server_ms=reply.elapsed_ms)
            result.timed(f"{op.name}|{kind}", latency)
            gc.collect()
        return result

    def close(self) -> None:
        while self.servers:
            self.servers.pop().__exit__(None, None, None)


class SweepCold:
    """sweep-cold: ``api.sweep.sweep`` into a fresh store, then warm."""

    def __init__(self, expected: Dict[str, str], work: str) -> None:
        self.expected = expected
        self.work = work
        self.stores = 0

    def _fresh_store(self):
        from repro.cache.store import DiskCache
        self.stores += 1
        root = os.path.join(self.work, f"sweep-store-{self.stores}")
        # The workers' compile cache resolves its store from this variable
        # when they fork, so each cold pass compiles cold in fresh workers.
        os.environ["REPRO_CACHE_DIR"] = root
        return root, DiskCache(root)

    def setup(self, tracer) -> None:
        from repro.api import RunRequest
        from repro.api.sweep import sweep
        root, store = self._fresh_store()
        warm = []
        for op in bench_ops.SWEEP_PLAN[:2]:
            request = json.loads(json.dumps(op.request))
            request["params"]["n"] = 4
            warm.append(RunRequest.from_dict(request))
        sweep(warm, workers=bench_ops.SWEEP_WORKERS, store=store)
        sweep(warm, workers=bench_ops.SWEEP_WORKERS, store=store)
        shutil.rmtree(root)

    def run_round(self, round_ops, traced: bool) -> Round:
        from repro.api import RunRequest
        from repro.api.sweep import sweep
        result = Round(traced)
        requests = [RunRequest.from_dict(request)
                    for _op, request, _kind in round_ops]
        root = None
        for index in range(bench_ops.COLD_PASSES + 1):
            cold = index < bench_ops.COLD_PASSES
            if cold:
                if root is not None:
                    shutil.rmtree(root)
                root, store = self._fresh_store()
            start = perf_counter()
            swept = sweep(requests, workers=bench_ops.SWEEP_WORKERS,
                          store=store)
            elapsed = perf_counter() - start
            result.timed(f"pass-{index}", elapsed)
            result.passes.append({"cold": cold, "wall_s": elapsed})
            for (op, _request, _kind), outcome in zip(round_ops,
                                                      swept.outcomes):
                payload = outcome.run if "run" in outcome.payload else None
                ok = (outcome.status == ("executed" if cold else "hit")
                      and payload is not None
                      and bench_ops.digest(payload) == self.expected[op.name])
                result.add(op.name, "cold" if cold else "warm",
                           elapsed, ok, payload, status=outcome.status,
                           section=f"pass-{index}")
            gc.collect()
        shutil.rmtree(root)
        return result

    def close(self) -> None:
        pass


def make_workload(name: str, expected, work: str, tracing: bool):
    if name == "profile-count":
        return InProcess(expected, bench_ops.PROFILE_COUNT)
    if name == "profile-sample":
        return InProcess(expected, bench_ops.PROFILE_SAMPLE)
    if name == "serve-mix":
        return ServeMix(expected, tracing)
    if name == "sweep-cold":
        return SweepCold(expected, work)
    raise KeyError(name)


def smoke_round(name: str, seed: int):
    """The smallest checked op (or pass) of a workload, as one round."""
    rng = random.Random(seed)
    full = bench_ops.round_ops(name, 0, rng)
    if name == "serve-mix":
        hit = next(item for item in full if item[2] == "hit")
        miss = next(item for item in full if item[2] == "miss")
        return [miss, hit]
    if name == "sweep-cold":
        return full[:2]
    return [next(item for item in full if "dot-product" in item[0].name)]


# -- per-layer metrics of the traced run ---------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _percentile(values, fraction: float) -> float:
    """The *fraction* percentile, or 0 when fewer than ten samples lie
    beyond it (a percentile without that support is not reported)."""
    values = sorted(values)
    if len(values) * (1 - fraction) < 10:
        return 0.0
    return values[min(len(values) - 1, int(fraction * len(values)))]


def layer_metrics(rounds: List[Round], delta: dict) -> dict:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    per_round = 1.0 / max(1, len(traced))

    def seconds(layer: str, part: str = "total") -> float:
        return layers.layer_seconds(delta, layer, part) * per_round

    def calls(layer: str) -> float:
        return layers.layer_calls(delta, layer) * per_round

    traced_ops = [op for r in traced for op in r.ops]
    hits = [op for op in traced_ops if op["kind"] == "hit" and op.get("cache")]
    lookups = [op for op in traced_ops if op.get("cache")]
    cold_walls = sum(p["wall_s"] for r in traced for p in r.passes
                     if p["cold"])
    phase = {part: layers.series(delta, "repro_run_phase_seconds", phase=part)
             for part in ("compile", "execute", "analyses")}
    pools = layers.layer_calls(delta, "executor.pools")
    cold_passes = sum(1 for r in traced for p in r.passes if p["cold"])
    compile_hits = layers.series(delta, "repro_compile_cache_total",
                                 outcome="hit")
    compile_misses = layers.series(delta, "repro_compile_cache_total",
                                   outcome="miss")
    delta_hits = layers.series(delta, "repro_block_delta_cache_total",
                               outcome="hit")
    delta_misses = layers.series(delta, "repro_block_delta_cache_total",
                                 outcome="miss")
    # Adjacent untraced/traced rounds, each section scaled by the
    # calibration around it, so host speed cancels out of the ratio.
    def normalised_wall(round_: Round) -> float:
        return sum(seconds / calibration
                   for _key, seconds, calibration in round_.sections)

    pairs = [normalised_wall(p) / normalised_wall(t)
             for p, t in zip(plain, traced)]
    plain_ops = [op for r in plain for op in r.ops]

    def latencies(kind: str) -> List[float]:
        return [op["latency_s"] * 1000 for op in plain_ops
                if op["kind"] == kind]

    warm_passes = [p["wall_s"] * 1000 for r in plain for p in r.passes
                   if not p["cold"]]
    metrics = {
        "compiler.compile_s": (seconds("compiler.lookup"), "s/round"),
        "compiler.true_compiles": (calls("compiler.compile"), "count/round"),
        "compiler.memo_hit_ratio": (
            _ratio(compile_hits, compile_hits + compile_misses), "ratio"),
        "vm.exec_s": (sum(seconds(layer, "self")
                          for layer in layers.VM_LAYERS), "s/round"),
        "platforms.execute_batch_s": (seconds("platforms.execute_batch"),
                                      "s/round"),
        "platforms.batches": (calls("platforms.execute_batch"),
                              "count/round"),
        "cpu.block_delta_blocks": (
            layers.series(delta, "repro_block_delta_blocks_retired_total")
            * per_round, "count/round"),
        "cpu.block_delta_hit_ratio": (
            _ratio(delta_hits, delta_hits + delta_misses), "ratio"),
        "cpu.fast_cache_short_circuits": (
            layers.series(delta, "repro_fast_cache_short_circuits_total")
            * per_round, "count/round"),
        "miniperf.record_s": (seconds("miniperf.record")
                              + seconds("smp.record"), "s/round"),
        "miniperf.samples": (sum(op["samples"] for op in traced_ops)
                             * per_round, "count/round"),
        "miniperf.hotspots_s": (seconds("miniperf.hotspots"), "s/round"),
        "flamegraph.build_s": (seconds("flamegraph.build"), "s/round"),
        "roofline.run_s": (seconds("roofline.run"), "s/round"),
        "service.server_ms": (_median(op["server_ms"] for op in hits),
                              "ms"),
        "service.transport_ms": (
            _median(op["latency_s"] * 1000 - op["server_ms"] for op in hits),
            "ms"),
        "service.cache_get_s": (seconds("service.cache_get"), "s/round"),
        "service.pool_ms": (
            _ratio(layers.layer_seconds(delta, "service.pool") * 1000,
                   layers.layer_calls(delta, "service.pool")), "ms"),
        "service.cache_hit_ratio": (
            _ratio(sum(1 for op in lookups if op["cache"] == "hit"),
                   len(lookups)), "ratio"),
        "service.rejected": (
            (layers.series(delta, "repro_service_rejected_total")
             + sum(1 for op in traced_ops if op.get("status") in (429, 503)))
            * per_round, "count/round"),
        "executor.phase_s.compile": (phase["compile"] * per_round, "s/round"),
        "executor.phase_s.execute": (phase["execute"] * per_round, "s/round"),
        "executor.phase_s.analyses": (phase["analyses"] * per_round,
                                      "s/round"),
        "executor.idle_share": (
            1 - _ratio(sum(phase.values()),
                       bench_ops.SWEEP_WORKERS * cold_walls)
            if cold_walls else 0.0, "ratio"),
        "executor.retries": (max(0.0, pools - cold_passes) * per_round,
                             "count/round"),
        "cache.put_s": (seconds("cache.put"), "s/round"),
        "cache.get_s": (seconds("cache.get"), "s/round"),
        "cache.puts": (calls("cache.put"), "count/round"),
        "cache.gets": (calls("cache.get"), "count/round"),
        "cache.bytes_written": (
            layers.series(delta, layers.BYTES, layer="cache.put")
            * per_round, "bytes/round"),
        "trace.overhead_ratio": (_median(pairs), "ratio"),
        "op_p90_ms": (_percentile([op["latency_s"] * 1000
                                   for op in plain_ops], 0.9), "ms"),
        "hit_p50_ms": (_median(latencies("hit")), "ms"),
        "hit_p90_ms": (_percentile(latencies("hit"), 0.9), "ms"),
        "miss_p50_ms": (_median(latencies("miss")), "ms"),
        "warm_pass_ms": (_median(warm_passes), "ms"),
    }
    return {key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()}


# -- main ---------------------------------------------------------------------------------


def peak_rss_mb() -> dict:
    """Peak RSS in MB of this process and of the largest of its children
    (all of them ended and reaped first)."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    return {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "children": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench_ops.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "trace", "smoke"))
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    expected = load_expected()
    tracing = args.mode == "trace"
    tracer = layers.LayerTracer() if tracing else None
    workload = make_workload(args.workload, expected, args.work, tracing)
    record: dict = {"workload": args.workload, "mode": args.mode}
    try:
        workload.setup(tracer)
        record["ready"] = monotonic()
        if args.mode == "setup":
            return _write(args.out, record)
        if args.mode == "smoke":
            schedule = [smoke_round(args.workload, args.seed)]
        else:
            schedule = bench_ops.schedule(args.workload, args.seed,
                                          args.rounds)
        from repro import telemetry
        rounds: List[Round] = []
        delta: dict = {}
        for index, round_ops in enumerate(schedule):
            traced = tracing and index % 2 == 1
            if traced:
                before = telemetry.REGISTRY.snapshot()
                tracer.install()
            try:
                rounds.append(workload.run_round(round_ops, traced))
            finally:
                if traced:
                    tracer.remove()
                    layers.merge_deltas(
                        delta, telemetry.REGISTRY.snapshot_delta(before))
        record["rounds"] = [r.to_dict() for r in rounds]
        if tracing:
            record["layers"] = layer_metrics(rounds, delta)
    finally:
        workload.close()
    record["peak_rss_mb"] = peak_rss_mb()
    return _write(args.out, record)


def _write(path: str, record: dict) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
