"""Overflow-budgeted retirement: batched sampling runs vs per-op retirement.

With a sampling counter armed, :meth:`CoreTimingModel.retire_batch` retires
ops in stretches up to the op where an armed counter overflows and commits
that op the per-op way.  Everything an overflow handler can observe -- the
task pc, the clock, group-member counter values, the sample stream -- must
be exactly what per-op retirement (:meth:`Machine.execute` per op) shows:

* Session differential: every compiled registry kernel on the X60 (the
  group-leader workaround), the C910 and the i5, at sample periods 1, 7 and
  500, on one and two harts: the generated executor (batched) against the
  reference interpreter (per-op), whole export and raw sample records;
* core-level cases: an overflow inside a BlockDelta, one op crossing several
  periods, an instructions-led group, a raw-API counter on ``cache-misses``
  (which the core cannot budget, so every op is a stop), seeded random op
  streams checked at every overflow, and stops where nothing overflows.
"""

import dataclasses
import random

import pytest

from repro import telemetry
from repro.api import ProfileSpec, Session
from repro.api.workload import CompiledKernelWorkload
from repro.cpu.core import BlockDelta
from repro.cpu.events import HwEvent
from repro.isa.machine_ops import MachineOp, OpClass
from repro.kernel import PerfEventAttr, ReadFormat, SampleType
from repro.platforms import Machine, intel_i5_1135g7, spacemit_x60, thead_c910
from repro.pmu import unit as unit_module
from repro.workloads import registry
from repro.workloads.parallel import ParallelWorkload

PLATFORMS = ("SpacemiT X60", "T-Head C910", "Intel Core i5-1135G7")

#: Small sizes: every loop still runs and every run overflows a period of
#: 500 at least once, while period 1 stays affordable on the reference
#: interpreter.
SMALL_PARAMS = {
    "matmul-tiled": {"n": 8},
    "matmul-naive": {"n": 8},
    "dot-product": {"n": 640},
    "stream-triad": {"n": 200},
    "stencil3": {"n": 200},
    "memset": {"n": 1200},
    "matmul-parallel": {"n": 10},
    "stream-triad-mt": {"n": 128},
}

#: Registry workloads whose ops come from compiled IR, i.e. reach the
#: batched path (synthetic call trees retire through ``Machine.execute``).
KERNELS = sorted(
    name for name in registry
    if isinstance(registry[name], CompiledKernelWorkload)
    or (isinstance(registry[name], ParallelWorkload)
        and name in SMALL_PARAMS)
)


def _comparable(run) -> dict:
    payload = run.to_dict()
    payload.pop("spec")
    payload.pop("timings", None)
    return payload


def _records(samples):
    """Raw sample records minus pid/tid (task ids come from a process-wide
    counter, so they differ between two runs)."""
    return [dataclasses.replace(sample, pid=0, tid=0) for sample in samples]


def test_covers_every_compiled_registry_kernel():
    compiled = {name for name in registry
                if isinstance(registry[name], CompiledKernelWorkload)}
    assert compiled <= set(KERNELS) <= set(SMALL_PARAMS)


@pytest.mark.parametrize("cpus", (1, 2))
@pytest.mark.parametrize("period", (1, 7, 500))
@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("name", KERNELS)
def test_budgeted_sampling_session_matches_per_op(name, platform, period, cpus):
    spec = ProfileSpec(sample_period=period,
                       analyses=("hotspots", "flamegraph")).with_cpus(cpus)
    budgeted, reference = [
        Session(platform).run(registry.create(name, **SMALL_PARAMS[name]),
                              spec.replace(fast_dispatch=fast))
        for fast in (True, False)]
    assert not budgeted.errors and budgeted.errors == reference.errors
    assert _comparable(budgeted) == _comparable(reference)
    assert budgeted.recording.samples
    assert (_records(budgeted.recording.samples)
            == _records(reference.recording.samples))


def test_overflow_splits_reach_the_registry():
    family = telemetry.REGISTRY.counter("repro_retire_overflow_splits_total")
    before = family.value()
    run = Session("SpacemiT X60").run(
        registry.create("dot-product", n=64),
        ProfileSpec(sample_period=500, analyses=("hotspots",)))
    splits = family.value() - before
    assert 0 < splits <= len(run.recording.samples)


# -- core level ---------------------------------------------------------------------------


def _open_group(machine, task, leader, period, members):
    attr = PerfEventAttr(
        event=leader, sample_period=period,
        sample_type=frozenset({SampleType.IP, SampleType.TIME,
                               SampleType.READ, SampleType.PERIOD}),
        read_format=frozenset({ReadFormat.GROUP}))
    fd = machine.perf.perf_event_open(attr, task)
    for member in members:
        machine.perf.perf_event_open(PerfEventAttr(event=member), task,
                                     group_fd=fd)
    machine.perf.enable(fd)
    return fd


def _twin_runs(descriptor, leader, period, batches,
               members=(HwEvent.CYCLES, HwEvent.INSTRUCTIONS)):
    """Retire *batches* batched on one machine and op by op on a twin.

    Returns ``[(machine, task, leader_fd, samples), ...]`` for (batched,
    per-op).
    Block deltas are built once per machine from the op lists in
    *batches* marked ``("delta", ops)``.
    """
    results = []
    for batched in (True, False):
        machine = Machine(descriptor)
        task = machine.create_task("t")
        task.push_frame("main")
        fd = _open_group(machine, task, leader, period, members)
        deltas = {}
        for batch in batches:
            ops = []
            for item in batch:
                if isinstance(item, tuple):
                    key = id(item[1])
                    if key not in deltas:
                        deltas[key] = machine.core.block_delta_for(item[1])
                    ops.append(deltas[key])
                else:
                    ops.append(item)
            if batched:
                accesses = [(op.address, op.size_bytes, op.is_store)
                            for op in ops
                            if op.__class__ is not BlockDelta and op.is_memory
                            and op.address is not None and op.size_bytes > 0]
                machine.execute_batch(ops, task, accesses or None)
            else:
                for op in ops:
                    for sub in (op.ops if op.__class__ is BlockDelta
                                else (op,)):
                        machine.execute(sub, task)
        samples = machine.perf.mmap(fd).drain()
        results.append((machine, task, fd, samples))
    return results


def _assert_identical(results):
    (machine, task, fd, samples), (ref, ref_task, ref_fd, ref_samples) = results
    assert _records(samples) == _records(ref_samples)
    assert machine.cycles == ref.cycles
    assert machine.instructions == ref.instructions
    assert machine.event_totals() == ref.event_totals()
    assert machine.core._cycle_remainder == ref.core._cycle_remainder
    assert task.current_pc == ref_task.current_pc
    read, ref_read = machine.perf.read(fd), ref.perf.read(ref_fd)
    assert (read.value, read.group) == (ref_read.value, ref_read.group)


def _int_ops(count, base_pc, opclass=OpClass.INT_MUL):
    return [MachineOp(opclass, pc=base_pc + 4 * index) for index in range(count)]


def test_overflow_inside_a_block_delta():
    block = _int_ops(24, 0x2000)
    lead_in = _int_ops(3, 0x1000, OpClass.INT_ALU)
    batches = [lead_in + [("delta", block)] * 6]
    results = _twin_runs(spacemit_x60(), HwEvent.U_MODE_CYCLE, 37, batches)
    _assert_identical(results)
    machine, _task, _fd, samples = results[0]
    inner_pcs = {op.pc for op in block[:-1]}
    assert any(sample.ip in inner_pcs for sample in samples)
    # Deltas the overflow missed still retired as aggregates.
    assert 0 < machine.core.delta_blocks_retired < 6


def test_one_op_crossing_several_periods():
    # An X60 divide costs ~9 cycles: period 2 overflows it four times.
    batches = [_int_ops(5, 0x1000, OpClass.INT_ALU)
               + [MachineOp(OpClass.INT_DIV, pc=0x3000)]
               + _int_ops(5, 0x1100, OpClass.INT_ALU)]
    results = _twin_runs(spacemit_x60(), HwEvent.U_MODE_CYCLE, 2, batches)
    _assert_identical(results)
    samples = results[0][3]
    at_divide = [sample for sample in samples if sample.ip == 0x3000]
    assert len(at_divide) > 1
    assert len({(s.time, tuple(sorted(s.group_values.items())))
                for s in at_divide}) == 1
    assert results[0][0].core.overflow_splits < len(samples)


def test_instructions_led_group():
    rng = random.Random(11)
    batches = [_random_batch(rng, 0x1000 * (index + 1)) for index in range(6)]
    results = _twin_runs(thead_c910(), HwEvent.INSTRUCTIONS, 7, batches,
                         members=(HwEvent.CYCLES, HwEvent.BRANCH_MISSES))
    _assert_identical(results)
    assert len(results[0][3]) > 10


def test_raw_counter_on_cache_misses_stops_at_every_op():
    loads = [MachineOp(OpClass.LOAD, size_bytes=8, address=0x10_0000 + 4096 * i,
                       pc=0x1000 + 4 * i) for i in range(64)]
    block = _int_ops(8, 0x4000)
    batches = [loads[:32] + [("delta", block)] + loads[32:]]
    results = _twin_runs(intel_i5_1135g7(), HwEvent.CACHE_MISSES, 3, batches)
    _assert_identical(results)
    machine = results[0][0]
    assert machine.pmu.overflow_budget(HwEvent.U_MODE_CYCLE) is None
    assert machine.core.overflow_splits == len(loads) + len(block)
    assert len(results[0][3]) > 5


_RANDOM_CLASSES = (OpClass.INT_ALU, OpClass.INT_MUL, OpClass.INT_DIV,
                   OpClass.FP_ADD, OpClass.FP_FMA, OpClass.FP_DIV,
                   OpClass.VECTOR_FMA, OpClass.NOP, OpClass.JUMP)


def _random_batch(rng, base_pc):
    """A random batch: ALU/FP/vector ops, loads and stores over a few
    pages, taken and not-taken branches, zero pcs, and block deltas."""
    batch = []
    for index in range(rng.randint(1, 120)):
        pc = 0 if rng.random() < 0.1 else base_pc + 4 * index
        roll = rng.random()
        if roll < 0.25:
            opclass = rng.choice((OpClass.LOAD, OpClass.STORE,
                                  OpClass.VECTOR_LOAD))
            address = None if rng.random() < 0.05 else \
                0x8000 + 64 * rng.randrange(512)
            batch.append(MachineOp(opclass, size_bytes=8, address=address,
                                   lanes=4 if opclass is OpClass.VECTOR_LOAD
                                   else 1, pc=pc))
        elif roll < 0.4:
            batch.append(MachineOp(OpClass.BRANCH, taken=rng.random() < 0.6,
                                   target=base_pc, pc=pc))
        elif roll < 0.45:
            batch.append(("delta", _DELTA_BLOCKS[rng.randrange(3)]))
        else:
            opclass = rng.choice(_RANDOM_CLASSES)
            batch.append(MachineOp(opclass, pc=pc,
                                   lanes=8 if opclass is OpClass.VECTOR_FMA
                                   else 1))
    return batch


#: Shared block bodies, so a delta is reused across executions and its
#: memoized remainder walk is exercised.
_DELTA_BLOCKS = [
    _int_ops(4, 0x9000),
    _int_ops(11, 0x9100, OpClass.FP_FMA),
    [MachineOp(OpClass.INT_ALU)] * 3 + _int_ops(6, 0x9200, OpClass.INT_DIV),
]


@pytest.mark.parametrize("seed", range(8))
def test_random_streams_match_per_op_at_every_overflow(seed):
    rng = random.Random(seed)
    descriptor, leader = rng.choice([
        (spacemit_x60(), HwEvent.U_MODE_CYCLE),
        (thead_c910(), HwEvent.CYCLES),
        (intel_i5_1135g7(), HwEvent.INSTRUCTIONS),
    ])
    period = rng.choice((1, 3, 7, 61))
    batches = [_random_batch(rng, 0x1000 * (index + 1))
               for index in range(rng.randint(3, 10))]
    results = _twin_runs(descriptor, leader, period, batches)
    _assert_identical(results)
    assert results[0][3]


def test_stopping_without_an_overflow_is_exact(monkeypatch):
    """A stop only commits the stretch before it and the stopping op the
    per-op way, so stopping where nothing overflows changes nothing: the
    ``NO_OVERFLOW`` cap on the stops is safe."""
    monkeypatch.setattr(unit_module, "NO_OVERFLOW", 5)
    rng = random.Random(3)
    batches = [_random_batch(rng, 0x1000 * (index + 1)) for index in range(4)]
    machines = []
    for batched in (True, False):
        machine = Machine(spacemit_x60())
        task = machine.create_task("t")
        fds = [machine.perf.perf_event_open(PerfEventAttr(event=event), task)
               for event in (HwEvent.CYCLES, HwEvent.INSTRUCTIONS,
                             HwEvent.CACHE_MISSES)]
        for fd in fds:
            machine.perf.enable(fd)
        for batch in batches:
            ops = [machine.core.block_delta_for(item[1])
                   if isinstance(item, tuple) else item for item in batch]
            if batched:
                machine.execute_batch(ops, task)
            else:
                for op in ops:
                    for sub in (op.ops if op.__class__ is BlockDelta
                                else (op,)):
                        machine.execute(sub, task)
        machines.append((machine, task,
                         [machine.perf.read(fd).value for fd in fds]))
    (machine, task, reads), (ref, ref_task, ref_reads) = machines
    assert machine.core.overflow_splits > 10
    assert reads == ref_reads
    assert machine.cycles == ref.cycles
    assert machine.event_totals() == ref.event_totals()
    assert task.current_pc == ref_task.current_pc
