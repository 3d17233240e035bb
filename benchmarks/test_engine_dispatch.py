"""Microbenchmarks: dispatch and retirement fast paths vs their references.

Three comparisons, all on the tiled matmul with full timing/PMU accounting:

* the generated executor vs the reference interpreter;
* counting-mode retirement: block-delta + batched retirement vs per-op
  retirement (``Machine.execute`` per op);
* sampling-mode retirement (the X60 group-leader workaround at period
  500): overflow-budgeted batched retirement vs per-op retirement.

Both retirement comparisons replay the batches one counting-mode Session
run handed the machine, on fresh machines, so they time retirement alone.
Their measurements -- with host, Python, commit, repetitions and min/median
-- are written to ``benchmarks/output/BENCH_retire.json``.

Each benchmark asserts the fast path actually wins and cross-checks that
both sides leave the machine in an identical state (and, when sampling,
write identical sample records).  The exhaustive bit-level equivalence
checks live in ``tests/test_engine_codegen.py``,
``tests/test_block_delta.py`` and ``tests/test_sampling_retire.py``.
"""

import dataclasses
import json
import os
import platform
import statistics
import subprocess
import time

import pytest

from repro.api import ProfileSpec, Session
from repro.compiler.frontend import compile_source
from repro.compiler.targets import target_for_platform
from repro.compiler.transforms import build_roofline_pipeline
from repro.cpu.core import BlockDelta
from repro.cpu.events import HwEvent
from repro.kernel import PerfEventAttr, ReadFormat, SampleType
from repro.platforms import Machine, spacemit_x60
from repro.runtime import RooflineRuntime
from repro.vm import ExecutionEngine, Memory
from repro.workloads import MATMUL_TILED_SOURCE, matmul_args_builder, registry

MATMUL_N = 16

#: Matrix size of the Session run whose batches the retirement benchmarks
#: replay.
RETIRE_MATMUL_N = 24

#: Sample period of the sampling-mode retirement benchmark.
SAMPLING_PERIOD = 500

#: Required generated-vs-reference speedup.  The local default (1.2x) keeps
#: the assertion robust on a loaded host; CI's dispatch-differential lane
#: raises it (REPRO_MIN_DISPATCH_SPEEDUP=5.0, half the measured ~10x margin)
#: so an executor that quietly degrades fails the build.
MIN_SPEEDUP = float(os.environ.get("REPRO_MIN_DISPATCH_SPEEDUP", "1.2"))

#: Required block-delta-vs-per-op speedup of counting-mode retirement.  The
#: local default (1.5x) keeps the assertion robust on a loaded host; CI's
#: perf-regression lane raises it (REPRO_MIN_RETIRE_SPEEDUP=5.0, under half
#: the measured ~13x margin).
MIN_RETIRE_SPEEDUP = float(os.environ.get("REPRO_MIN_RETIRE_SPEEDUP", "1.5"))

#: Required budgeted-vs-per-op speedup of sampling-mode retirement: 1.5x
#: locally; CI's perf-regression lane raises it
#: (REPRO_MIN_SAMPLING_RETIRE_SPEEDUP=6.0, under half the measured ~12-13x
#: margin).
MIN_SAMPLING_RETIRE_SPEEDUP = float(
    os.environ.get("REPRO_MIN_SAMPLING_RETIRE_SPEEDUP", "1.5"))


def _run(fast_dispatch: bool):
    descriptor = spacemit_x60()
    module = compile_source(MATMUL_TILED_SOURCE, "matmul.c")
    build_roofline_pipeline(vector_width=descriptor.vector.sp_lanes()).run(module)
    machine = Machine(descriptor)
    task = machine.create_task("matmul")
    memory = Memory()
    args = matmul_args_builder(MATMUL_N)(memory)
    runtime = RooflineRuntime(module, machine, instrumented=False)
    engine = ExecutionEngine(module, machine, target_for_platform(descriptor),
                             task=task, memory=memory,
                             external_handlers=[runtime],
                             fast_dispatch=fast_dispatch)
    start = time.perf_counter()
    engine.run("matmul_tiled", args)
    elapsed = time.perf_counter() - start
    return engine.stats, machine, elapsed


def test_fast_dispatch_beats_reference_interpreter():
    fast_stats, fast_machine, fast_elapsed = _run(True)
    slow_stats, slow_machine, slow_elapsed = _run(False)

    fast_rate = fast_stats.ir_instructions / fast_elapsed
    slow_rate = slow_stats.ir_instructions / slow_elapsed
    speedup = slow_elapsed / fast_elapsed
    print(f"\nfast dispatch: {fast_rate:,.0f} IR inst/s; "
          f"reference: {slow_rate:,.0f} IR inst/s; speedup {speedup:.1f}x")

    # Same work, same modelled machine state either way.
    assert fast_stats == slow_stats
    assert fast_machine.cycles == slow_machine.cycles
    assert fast_machine.instructions == slow_machine.instructions
    assert fast_machine.event_totals() == slow_machine.event_totals()

    # The margin is normally ~10x; see MIN_SPEEDUP for how the floor is set.
    assert speedup > MIN_SPEEDUP, (
        f"fast dispatch only {speedup:.2f}x faster than the reference "
        f"interpreter (required: {MIN_SPEEDUP}x)"
    )


def test_dispatch_rate_fast(benchmark):
    """Track the fast path's absolute throughput via pytest-benchmark."""
    stats, machine, _elapsed = benchmark.pedantic(_run, args=(True,),
                                                  rounds=1, iterations=1)
    assert stats.ir_instructions > 0
    assert machine.cycles > 0


def _capture_batches():
    """Run one counting-mode matmul-tiled Session and capture every batch
    its generated executor hands the machine: ``[(ops, accesses), ...]``."""
    session = Session("SpacemiT X60")
    machine = session.machine(True)
    batches = []
    execute_batch = machine.execute_batch

    def capture(ops, task=None, mem_accesses=None):
        batches.append((list(ops), list(mem_accesses) if mem_accesses else None))
        execute_batch(ops, task, mem_accesses)

    machine.execute_batch = capture
    try:
        run = session.run(registry.create("matmul-tiled", n=RETIRE_MATMUL_N),
                          ProfileSpec().counting())
    finally:
        del machine.execute_batch
    assert not run.errors, run.errors
    return machine.descriptor, batches


@pytest.fixture(scope="module")
def captured_batches():
    return _capture_batches()


def _replay(descriptor, batches, per_op: bool, sample_period: int = 0):
    """Retire captured *batches* on a fresh machine: batched through
    ``Machine.execute_batch`` or op by op through ``Machine.execute``.

    With *sample_period* the X60 group-leader workaround is armed
    (``u_mode_cycle`` leader, cycles and instructions as members);
    otherwise cycles and instructions are opened in counting mode.
    Returns ``(machine, fds, samples, elapsed)``.
    """
    machine = Machine(descriptor)
    task = machine.create_task("replay")
    if sample_period:
        leader = machine.perf.perf_event_open(PerfEventAttr(
            event=HwEvent.U_MODE_CYCLE, sample_period=sample_period,
            sample_type=frozenset({SampleType.IP, SampleType.TIME,
                                   SampleType.READ, SampleType.PERIOD}),
            read_format=frozenset({ReadFormat.GROUP})), task)
        fds = [leader] + [
            machine.perf.perf_event_open(PerfEventAttr(event=event), task,
                                         group_fd=leader)
            for event in (HwEvent.CYCLES, HwEvent.INSTRUCTIONS)]
        machine.perf.enable(leader)
    else:
        fds = [machine.perf.perf_event_open(
            PerfEventAttr(event=event, disabled=False), task)
            for event in (HwEvent.CYCLES, HwEvent.INSTRUCTIONS)]
        for fd in fds:
            machine.perf.enable(fd)
    start = time.perf_counter()
    if per_op:
        execute = machine.execute
        for ops, _accesses in batches:
            for op in ops:
                for sub in op.ops if op.__class__ is BlockDelta else (op,):
                    execute(sub, task)
    else:
        for ops, accesses in batches:
            machine.execute_batch(ops, task, accesses)
    elapsed = time.perf_counter() - start
    samples = machine.perf.mmap(fds[0]).drain() if sample_period else []
    return machine, fds, samples, elapsed


def _compare_retirement(descriptor, batches, sample_period: int = 0,
                        repetitions: int = 3):
    """Interleave batched and per-op replays; assert identical machine
    state, counter reads and sample records; return the timings."""
    batched_times, per_op_times = [], []
    for _ in range(repetitions):
        fast = _replay(descriptor, batches, False, sample_period)
        slow = _replay(descriptor, batches, True, sample_period)
        batched_times.append(fast[3])
        per_op_times.append(slow[3])
    (fast_machine, fast_fds, fast_samples, _), \
        (slow_machine, slow_fds, slow_samples, _) = fast, slow
    assert fast_machine.cycles == slow_machine.cycles
    assert fast_machine.instructions == slow_machine.instructions
    assert fast_machine.event_totals() == slow_machine.event_totals()
    for fast_fd, slow_fd in zip(fast_fds, slow_fds):
        fast_read = fast_machine.perf.read(fast_fd)
        slow_read = slow_machine.perf.read(slow_fd)
        assert (fast_read.value, fast_read.group) == \
            (slow_read.value, slow_read.group)
    # Task ids come from a process-wide counter; everything else must match.
    assert ([dataclasses.replace(s, pid=0, tid=0) for s in fast_samples]
            == [dataclasses.replace(s, pid=0, tid=0) for s in slow_samples])
    return fast_machine, fast_samples, batched_times, per_op_times


def _write_retire_bench(output_dir, case: str, result: dict) -> None:
    """Merge one case's measurement, with its provenance, into
    BENCH_retire.json (the other case's entry is kept)."""
    path = os.path.join(output_dir, "BENCH_retire.json")
    try:
        with open(path, encoding="utf-8") as handle:
            cases = json.load(handle).get("cases", {})
    except (OSError, ValueError, AttributeError):
        cases = {}
    cases[case] = dict(result, provenance={
        "host": platform.node(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
    })
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"cases": cases}, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    """The checkout's HEAD commit, or None outside a git checkout."""
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"],
                                cwd=os.path.dirname(os.path.abspath(__file__)),
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def _summary(benchmark: str, ops: int, batched_times, per_op_times,
             floor: float, **extra) -> dict:
    batched = statistics.median(batched_times)
    per_op = statistics.median(per_op_times)
    return dict(
        benchmark=benchmark, machine_ops=ops,
        repetitions=len(batched_times),
        batched_seconds={"min": round(min(batched_times), 4),
                         "median": round(batched, 4)},
        per_op_seconds={"min": round(min(per_op_times), 4),
                        "median": round(per_op, 4)},
        batched_ops_per_sec=round(ops / batched),
        per_op_ops_per_sec=round(ops / per_op),
        speedup=round(per_op / batched, 3),
        floor=floor, **extra)


def test_block_delta_retirement_beats_per_op(captured_batches, output_dir):
    """Counting mode: block-delta + batched retirement vs per-op.

    Both sides replay the batches a counting-mode matmul-tiled Session run
    captured; the floor is REPRO_MIN_RETIRE_SPEEDUP.
    """
    descriptor, batches = captured_batches
    machine, _samples, batched_times, per_op_times = _compare_retirement(
        descriptor, batches)
    result = _summary(
        "counting-mode retirement of a matmul-tiled Session run's batches "
        f"(n={RETIRE_MATMUL_N}, SpacemiT X60)", machine.instructions,
        batched_times, per_op_times, MIN_RETIRE_SPEEDUP)
    _write_retire_bench(output_dir, "counting", result)
    print(f"\ncounting retirement: per-op {result['per_op_ops_per_sec']:,} "
          f"ops/s; batched {result['batched_ops_per_sec']:,} ops/s; "
          f"speedup {result['speedup']:.2f}x (floor {MIN_RETIRE_SPEEDUP}x)")
    assert result["speedup"] > MIN_RETIRE_SPEEDUP, (
        f"batched retirement only {result['speedup']:.2f}x faster than "
        f"per-op retirement (required: {MIN_RETIRE_SPEEDUP}x)")


def test_budgeted_sampling_retirement_beats_per_op(captured_batches, output_dir):
    """Sampling mode (X60 workaround, period 500): overflow-budgeted batched
    retirement vs per-op, on the same captured batches, with identical
    sample records; the floor is REPRO_MIN_SAMPLING_RETIRE_SPEEDUP.
    """
    descriptor, batches = captured_batches
    machine, samples, batched_times, per_op_times = _compare_retirement(
        descriptor, batches, sample_period=SAMPLING_PERIOD)
    assert len(samples) > 10
    result = _summary(
        "sampling-mode retirement (u_mode_cycle leader, period "
        f"{SAMPLING_PERIOD}) of a matmul-tiled Session run's batches "
        f"(n={RETIRE_MATMUL_N}, SpacemiT X60)", machine.instructions,
        batched_times, per_op_times, MIN_SAMPLING_RETIRE_SPEEDUP,
        samples=len(samples), overflow_splits=machine.core.overflow_splits)
    _write_retire_bench(output_dir, "sampling", result)
    print(f"\nsampling retirement: per-op {result['per_op_ops_per_sec']:,} "
          f"ops/s; budgeted {result['batched_ops_per_sec']:,} ops/s; "
          f"speedup {result['speedup']:.2f}x "
          f"(floor {MIN_SAMPLING_RETIRE_SPEEDUP}x)")
    assert result["speedup"] > MIN_SAMPLING_RETIRE_SPEEDUP, (
        f"budgeted sampling retirement only {result['speedup']:.2f}x faster "
        f"than per-op retirement (required: {MIN_SAMPLING_RETIRE_SPEEDUP}x)")
