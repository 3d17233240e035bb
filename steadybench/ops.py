"""The benchmark's workloads: which ops a round holds, in which order.

An op is one ``RunRequest``-shaped dict (the daemon's wire format).  A round
holds every op of its workload exactly once; the seed permutes the order of
each round and never the set, so two seeds do identical work.  Every op has a
stable name that keys ``expected.json``.

This module imports nothing from ``repro``: the coordinator and the
self-tests use it without importing the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

COUNTING = {"analyses": ["stat"]}
#: Sampling spec of profile-sample: a short period, so every op delivers
#: tens to hundreds of samples through the kernel/SBI overflow path.
SAMPLING = {"analyses": ["hotspots", "flamegraph"], "sample_period": 500}
ROOFLINE = {"analyses": ["roofline"]}


def request(platform: str, workload: str, spec: dict, **params) -> dict:
    return {"platform": platform, "workload": workload,
            "params": dict(params), "spec": dict(spec)}


@dataclass(frozen=True)
class Op:
    """One named request; ``name`` keys the expected-digest file."""

    name: str
    request: dict = field(hash=False, compare=False)


def _op(name: str, platform: str, workload: str, spec: dict, **params) -> Op:
    return Op(name, request(platform, workload, spec, **params))


# -- op sets ------------------------------------------------------------------------------
#
# Sizes are chosen so that one round takes at most about two seconds on a
# 2-vCPU x86 host: a ten-second run then holds at least six rounds, so the
# median time of every op comes from several samples.

#: profile-count: every kernel on two platforms, every platform at least
#: twice, plus one SMP op.  IR interpretation dominates these runs.
PROFILE_COUNT: Tuple[Op, ...] = (
    _op("count/u74/matmul-tiled-16", "u74", "matmul-tiled", COUNTING, n=16),
    _op("count/c910/matmul-tiled-16", "c910", "matmul-tiled", COUNTING, n=16),
    _op("count/x60/matmul-tiled-24", "x60", "matmul-tiled", COUNTING, n=24),
    _op("count/i5/matmul-tiled-24", "i5", "matmul-tiled", COUNTING, n=24),
    _op("count/u74/stream-triad", "u74", "stream-triad", COUNTING),
    _op("count/x60/stream-triad", "x60", "stream-triad", COUNTING),
    _op("count/c910/stencil3", "c910", "stencil3", COUNTING),
    _op("count/i5/stencil3", "i5", "stencil3", COUNTING),
    _op("count/x60/dot-product", "x60", "dot-product", COUNTING),
    _op("count/u74/dot-product", "u74", "dot-product", COUNTING),
    _op("count/x60/matmul-parallel-16-cpus2", "x60", "matmul-parallel",
        dict(COUNTING, cpus=2), n=16),
)

#: profile-sample: sampling runs on the X60 (group-leader workaround), the
#: C910 and the i5, plus one Roofline op.  The U74 cannot sample.
PROFILE_SAMPLE: Tuple[Op, ...] = (
    _op("sample/x60/matmul-tiled-16", "x60", "matmul-tiled", SAMPLING, n=16),
    _op("sample/x60/stream-triad", "x60", "stream-triad", SAMPLING),
    _op("sample/c910/stencil3", "c910", "stencil3", SAMPLING),
    _op("sample/c910/dot-product", "c910", "dot-product", SAMPLING),
    _op("sample/i5/stream-triad", "i5", "stream-triad", SAMPLING),
    _op("sample/i5/dot-product", "i5", "dot-product", SAMPLING),
    _op("roofline/x60/matmul-tiled-16", "x60", "matmul-tiled", ROOFLINE,
        n=16),
)

#: serve-mix hits: filled once during set-up, then repeated.
SERVE_HITS: Tuple[Op, ...] = (
    _op("count/x60/dot-product", "x60", "dot-product", COUNTING),
    _op("count/x60/stream-triad", "x60", "stream-triad", COUNTING),
    _op("serve/c910/dot-product", "c910", "dot-product", COUNTING),
    _op("serve/i5/stream-triad", "i5", "stream-triad", COUNTING),
    _op("serve/i5/dot-product", "i5", "dot-product", COUNTING),
    _op("count/u74/dot-product", "u74", "dot-product", COUNTING),
)
#: serve-mix misses: salted per round (see :func:`salted`), so each is new.
SERVE_MISSES: Tuple[Op, ...] = (
    _op("serve/x60/matmul-tiled-16", "x60", "matmul-tiled", COUNTING, n=16),
    _op("count/c910/stencil3", "c910", "stencil3", COUNTING),
)
#: Each hit repeats this often per round: 2 misses + 6 x 3 hits = 1 in 10.
HIT_REPEATS = 3

#: sweep-cold: a 12-cell counting plan (3 platforms x 4 kernels).
SWEEP_PLAN: Tuple[Op, ...] = tuple(
    _op(f"sweep/{platform}/{workload}", platform, workload, COUNTING)
    for platform in ("x60", "c910", "i5")
    for workload in ("dot-product", "stream-triad", "stencil3", "memset"))
SWEEP_WORKERS = 2
#: Cold passes per round, each into a fresh store; the last store is then
#: swept once more warm.  Two, so that cold cells outnumber warm ones and
#: the median cell latency is a cold pass: a warm pass is a few ms of file
#: reads whose time moves with the host's I/O, which the calibration does
#: not follow.
COLD_PASSES = 2


#: Round time of each workload, measured when the benchmark was defined
#: (2-vCPU x86 host).  A run's round count is fixed from it and
#: ``--seconds``, so every commit does the same work; a faster commit simply
#: finishes sooner.
WORKLOADS: Dict[str, float] = {
    "profile-count": 1.7,
    "profile-sample": 1.5,
    "serve-mix": 0.32,
    "sweep-cold": 1.1,
}

MIN_ROUNDS = 4


def round_count(workload: str, seconds: float) -> int:
    """Rounds a run holds: fixed by ``--seconds`` and the nominal round."""
    return max(MIN_ROUNDS,
               math.ceil(seconds / WORKLOADS[workload]))


def salted(op: Op, round_index: int) -> dict:
    """*op*'s request with a per-round ``spec.seed``.

    The seed feeds synthetic trace generation only, so a compiled kernel's
    run is unchanged while the request's cache key is new: the request
    misses the result cache and runs through the pool.
    """
    salted_request = json.loads(json.dumps(op.request))
    salted_request["spec"]["seed"] = 1_000_000 + round_index
    return salted_request


def round_ops(workload: str, round_index: int,
              rng: random.Random) -> List[Tuple[Op, dict, str]]:
    """The ops of one round as ``(op, request, kind)`` in seeded order.

    ``kind`` is ``op`` for in-process and sweep ops, ``hit`` or ``miss`` for
    serve-mix.  The rng (seeded once per run) permutes the order only.
    """
    if workload == "profile-count":
        ops = [(op, op.request, "op") for op in PROFILE_COUNT]
    elif workload == "profile-sample":
        ops = [(op, op.request, "op") for op in PROFILE_SAMPLE]
    elif workload == "serve-mix":
        misses = [(op, salted(op, round_index), "miss") for op in SERVE_MISSES]
        ops = misses + [(op, op.request, "hit") for op in SERVE_HITS
                        for _ in range(HIT_REPEATS)]
        rng.shuffle(ops)
        # Misses keep their relative order, so the daemon's worker -- which
        # sees only misses -- runs the same request sequence under every
        # seed, and its heap (peak RSS) does not depend on the seed.
        slots = [index for index, item in enumerate(ops) if item[2] == "miss"]
        for index, miss in zip(slots, misses):
            ops[index] = miss
        return ops
    elif workload == "sweep-cold":
        ops = [(op, op.request, "op") for op in SWEEP_PLAN]
    else:
        raise KeyError(f"unknown workload {workload!r}; available: "
                       f"{', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    return ops


def schedule(workload: str, seed: int, rounds: int
             ) -> List[List[Tuple[Op, dict, str]]]:
    """Every round of a run, in order."""
    rng = random.Random(seed)
    return [round_ops(workload, index, rng) for index in range(rounds)]


def all_ops() -> Dict[str, Op]:
    """Every distinct op of every workload, by name."""
    ops: Dict[str, Op] = {}
    for op in (PROFILE_COUNT + PROFILE_SAMPLE + SERVE_HITS + SERVE_MISSES
               + SWEEP_PLAN):
        known = ops.setdefault(op.name, op)
        if known.request != op.request:
            raise ValueError(f"op name {op.name!r} names two requests")
    return ops


def digest(run_payload: dict) -> str:
    """sha256 of a run export without its ``spec``.

    The spec is the op's input (and carries the fast-path switches and the
    serve-mix salt); everything else -- modelled cycles, instructions,
    samples, hotspots, flame graphs, Roofline points -- is output.
    """
    output = {key: value for key, value in run_payload.items()
              if key != "spec"}
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def modelled_instructions(run_payload: dict) -> int:
    """Retired instructions the PMU counted in a run export (0 for a
    Roofline-only run, whose phases are not PMU runs)."""
    stat = run_payload.get("stat")
    if stat is not None:
        if "aggregate" in stat:
            return int(stat["aggregate"].get("instructions", 0))
        for count in stat.get("counts", []):
            if count.get("event") == "instructions":
                return int(count["count"])
    recording = run_payload.get("recording")
    if recording is not None:
        return int(recording.get("final_counts", {}).get("instructions", 0))
    return 0


def sample_count(run_payload: dict) -> int:
    recording = run_payload.get("recording")
    return int(recording.get("sample_count", 0)) if recording else 0
