"""SMP scaling benchmark: aggregate throughput and shared-LLC contention.

Weak-scaling STREAM triad (``stream-triad-mt``) on the SpacemiT X60 model:
every software thread streams its own ~192 KiB slice (three 16 Ki-element
float arrays at a thread-private address range) for three passes.  One
thread's slice fits the 512 KiB shared L2, so a single hart hits in the LLC
from pass two onward; four harts put ~768 KiB of live slices behind the same
LLC and evict each other continuously while also queueing on the contended
memory controller.

Two assertions pin down the SMP model's behaviour:

* aggregate retired-instruction throughput (total instructions per wall
  cycle) at 4 harts is > 1.5x the 1-hart run (it measures ~3.5-4x: the
  per-element instruction stream is identical, only memory time stretches);
* the shared-LLC contention is visible in the per-hart ``cache-misses``
  counters: every hart of the 4-hart run misses the LLC far more often per
  instruction than the lone hart does.
"""

import os
import time

from repro.api import ProfileSpec, Session
from repro.cpu.events import HwEvent
from repro.platforms import spacemit_x60
from repro.smp import MultiHartMachine, smp_stat
from repro.workloads import registry

EVENTS = (HwEvent.CYCLES, HwEvent.INSTRUCTIONS,
          HwEvent.CACHE_REFERENCES, HwEvent.CACHE_MISSES)
SLICE_ELEMENTS = 16 * 1024    # 3 arrays x 64 KiB = 192 KiB per thread


def _run(cpus: int):
    spec = ProfileSpec()
    workload = registry.create("stream-triad-mt", n=SLICE_ELEMENTS)
    machine = MultiHartMachine(spacemit_x60(), cpus=cpus)
    stat = smp_stat(machine, workload.threads(cpus, spec), events=EVENTS)
    return machine, stat


def test_four_harts_scale_throughput_with_visible_llc_contention():
    machine_1, stat_1 = _run(1)
    machine_4, stat_4 = _run(4)

    throughput_1 = machine_1.total_instructions / machine_1.wall_cycles
    throughput_4 = machine_4.total_instructions / machine_4.wall_cycles
    scaling = throughput_4 / throughput_1

    def misses_per_kinst(stat, cpu):
        instructions = stat.count_on(cpu, HwEvent.INSTRUCTIONS)
        return 1000.0 * stat.count_on(cpu, HwEvent.CACHE_MISSES) / instructions

    solo_miss_rate = misses_per_kinst(stat_1, 0)
    contended_miss_rates = [misses_per_kinst(stat_4, cpu) for cpu in range(4)]

    print("\nSMP weak scaling, stream-triad-mt on SpacemiT X60 "
          f"({SLICE_ELEMENTS} elements/thread, 3 passes):")
    print(f"  1 hart : {machine_1.total_instructions:>9,} inst in "
          f"{machine_1.wall_cycles:>9,} wall cycles -> "
          f"{throughput_1:.3f} inst/cycle; "
          f"LLC misses/kinst cpu0 = {solo_miss_rate:.1f}")
    print(f"  4 harts: {machine_4.total_instructions:>9,} inst in "
          f"{machine_4.wall_cycles:>9,} wall cycles -> "
          f"{throughput_4:.3f} inst/cycle; LLC misses/kinst per hart = "
          + ", ".join(f"{rate:.1f}" for rate in contended_miss_rates))
    print(f"  aggregate throughput scaling: {scaling:.2f}x; DRAM accesses "
          f"contended: {machine_4.memory_system.controller.contended_accesses:,}")

    # Acceptance: >1.5x aggregate retired-instruction throughput at 4 harts.
    assert scaling > 1.5, f"aggregate throughput only scaled {scaling:.2f}x"

    # Shared-LLC contention shows up in every hart's cache-miss counter:
    # slices that fit the LLC alone no longer do when four harts share it.
    for cpu, rate in enumerate(contended_miss_rates):
        assert rate > 2.0 * solo_miss_rate, (
            f"cpu{cpu}: {rate:.1f} LLC misses/kinst vs {solo_miss_rate:.1f} "
            "solo -- contention not visible"
        )

    # And the memory controller actually saw interleaved demand.
    assert machine_4.memory_system.controller.contended_accesses > 0


def test_fast_dispatch_smp_run_is_at_least_twice_as_fast():
    """The tentpole number: a 4-hart ``matmul-parallel`` counting-mode
    Session run through the fast-dispatch engine vs. the reference
    interpreter.  Same modelled machine state either way (the differential
    suite proves bit-identity sample by sample); only wall-clock time may
    differ, and it must differ by >= 2x (normally ~20x).
    """
    minimum = float(os.environ.get("REPRO_MIN_SMP_DISPATCH_SPEEDUP", "2.0"))
    workload = registry.create("matmul-parallel", n=32)
    spec = ProfileSpec(cpus=4).counting()

    def run(fast_dispatch: bool):
        session = Session(spacemit_x60())
        start = time.perf_counter()
        run_ = session.run(workload, spec.replace(fast_dispatch=fast_dispatch))
        elapsed = time.perf_counter() - start
        payload = run_.to_dict()
        payload.pop("spec")          # names the engine; everything else equal
        payload.pop("timings", None)  # wall-clock phases: the point of the test
        return payload, elapsed

    fast_payload, fast_elapsed = run(True)
    slow_payload, slow_elapsed = run(False)
    speedup = slow_elapsed / fast_elapsed
    print(f"\nmatmul-parallel n=32, 4 harts, counting mode: "
          f"interpreter {slow_elapsed:.2f}s -> fast dispatch "
          f"{fast_elapsed:.2f}s ({speedup:.2f}x)")

    assert fast_payload == slow_payload
    assert speedup > minimum, (
        f"fast-dispatch SMP run only {speedup:.2f}x faster than the "
        f"interpreter (required: {minimum}x)"
    )


def test_strong_scaling_matmul_parallel_cuts_wall_time():
    """Fixed-size matmul sharded across harts finishes in ~1/cpus the time."""
    spec = ProfileSpec()
    workload = registry.create("matmul-parallel", n=24)

    machine_1 = MultiHartMachine(spacemit_x60(), cpus=1)
    smp_stat(machine_1, workload.threads(1, spec), events=EVENTS)
    machine_4 = MultiHartMachine(spacemit_x60(), cpus=4)
    smp_stat(machine_4, workload.threads(4, spec), events=EVENTS)

    speedup = machine_1.wall_cycles / machine_4.wall_cycles
    print(f"\nmatmul-parallel n=24 strong scaling: wall cycles "
          f"{machine_1.wall_cycles:,} -> {machine_4.wall_cycles:,} "
          f"({speedup:.2f}x)")
    assert speedup > 1.5
    # Same total work either way (row shards partition the matrix).
    assert abs(machine_4.total_instructions - machine_1.total_instructions) \
        <= 0.01 * machine_1.total_instructions
