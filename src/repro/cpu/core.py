"""Core timing models.

Two models are provided:

* :class:`InOrderCore` -- a dual-issue in-order pipeline in the spirit of the
  SiFive U74 and SpacemiT X60.  Dependent-operation latency, load-use delay,
  cache-miss latency and branch mispredictions are all exposed to the retire
  stream, which is what produces the low IPC the paper measures (0.86 on the
  X60 for sqlite3).
* :class:`OutOfOrderCore` -- a wide out-of-order machine in the spirit of the
  T-Head C910 and the Intel i5-1135G7 comparator.  Most latency is hidden by
  the scheduler; only a configurable exposed fraction of miss latency and the
  mispredict penalty reach the bottom line, giving the high IPC (3.4) the
  paper reports for x86.

The models are *cycle-approximate*: they accumulate fractional cycles per
retired :class:`~repro.isa.machine_ops.MachineOp` and publish integer cycle
increments on the :class:`~repro.cpu.events.EventBus` so the PMU sees a
monotonically increasing cycle count while execution is in flight (necessary
for sampling interrupts to fire mid-run, exactly as on hardware).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import length_hint
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from repro.cpu.branch import BranchPredictor, GsharePredictor
from repro.cpu.cache import AccessResult, CacheHierarchy
from repro.cpu.events import NO_OVERFLOW, EventBus, HwEvent
from repro.isa.machine_ops import (
    FLOP_OP_CLASSES,
    MEMORY_OP_CLASSES,
    MachineOp,
    OpClass,
    VECTOR_OP_CLASSES,
)
from repro.isa.privilege import ModeCycleAccounting, PrivilegeMode

if TYPE_CHECKING:
    from repro.kernel.task import Task

#: Privilege mode -> the vendor per-mode cycle event it pulses.
_MODE_CYCLE_EVENT = {
    PrivilegeMode.USER: HwEvent.U_MODE_CYCLE,
    PrivilegeMode.SUPERVISOR: HwEvent.S_MODE_CYCLE,
    PrivilegeMode.MACHINE: HwEvent.M_MODE_CYCLE,
}

#: ``(cycles, instructions)`` stops of a batch no armed counter limits.
_NO_STOPS = (NO_OVERFLOW, NO_OVERFLOW)
#: Stops while a counter the core cannot budget is armed: it may overflow
#: at any op, so every op is committed the per-op way.
_EVERY_OP = (1, 1)

#: Privilege mode -> the events a committed stretch publishes, in order
#: (the amounts line up with the tallies in :meth:`CoreTimingModel.
#: retire_batch`).
_STRETCH_EVENTS = {
    mode: (HwEvent.CYCLES, mode_event, HwEvent.INSTRUCTIONS,
           HwEvent.LOADS_RETIRED, HwEvent.L1D_LOADS,
           HwEvent.STORES_RETIRED, HwEvent.L1D_STORES,
           HwEvent.CACHE_REFERENCES, HwEvent.L1D_LOAD_MISSES,
           HwEvent.L1D_STORE_MISSES, HwEvent.CACHE_MISSES,
           HwEvent.DRAM_READ_BYTES, HwEvent.DRAM_WRITE_BYTES,
           HwEvent.BRANCH_INSTRUCTIONS, HwEvent.BRANCH_MISSES,
           HwEvent.FP_OPS_RETIRED, HwEvent.INT_OPS_RETIRED,
           HwEvent.VECTOR_OPS_RETIRED, HwEvent.STALLED_CYCLES_FRONTEND,
           HwEvent.STALLED_CYCLES_BACKEND)
    for mode, mode_event in _MODE_CYCLE_EVENT.items()
}


#: Default operation latencies (cycles), roughly matching published numbers
#: for small in-order RISC-V cores.
DEFAULT_LATENCIES: Dict[OpClass, int] = {
    OpClass.INT_ALU: 1,
    OpClass.INT_MUL: 3,
    OpClass.INT_DIV: 20,
    OpClass.FP_ADD: 4,
    OpClass.FP_MUL: 5,
    OpClass.FP_FMA: 5,
    OpClass.FP_DIV: 18,
    OpClass.FP_MISC: 2,
    OpClass.LOAD: 3,
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    OpClass.JUMP: 1,
    OpClass.CALL: 1,
    OpClass.RET: 1,
    OpClass.CSR: 3,
    OpClass.ECALL: 10,
    OpClass.FENCE: 5,
    OpClass.VECTOR_ALU: 2,
    OpClass.VECTOR_FP: 4,
    OpClass.VECTOR_FMA: 4,
    OpClass.VECTOR_LOAD: 4,
    OpClass.VECTOR_STORE: 2,
    OpClass.NOP: 1,
}


@dataclass(frozen=True)
class CoreConfig:
    """Tunable parameters of a core timing model."""

    name: str
    frequency_hz: float
    issue_width: int = 2
    out_of_order: bool = False
    #: Per-opclass execution latency in cycles.
    latencies: Dict[OpClass, int] = field(default_factory=lambda: dict(DEFAULT_LATENCIES))
    #: Fraction of (latency - 1) cycles of a non-memory op that stalls retire.
    #: In-order cores expose most of it; out-of-order cores hide most of it.
    dependency_exposure: float = 0.45
    #: Fraction of a memory access's latency (beyond the first cycle) that
    #: stalls retire.  Models load-use stalls and limited MLP for in-order
    #: cores and deep MLP for out-of-order cores.
    memory_exposure: float = 0.6
    #: Cycles lost on a branch misprediction.
    mispredict_penalty: int = 8
    #: Number of single-precision FLOPs the FP/vector datapath can retire per
    #: cycle at peak (used by the theoretical roofline roof, not the timing).
    peak_sp_flops_per_cycle: float = 16.0
    #: Single-precision lanes per vector instruction.
    vector_sp_lanes: int = 8
    #: Fixed front-end cost (cycles) added per taken control-flow transfer.
    taken_branch_bubble: float = 0.5

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("frequency_hz must be positive")
        if self.issue_width < 1:
            raise ValueError("issue_width must be >= 1")
        if not 0.0 <= self.dependency_exposure <= 1.0:
            raise ValueError("dependency_exposure must be in [0, 1]")
        if not 0.0 <= self.memory_exposure <= 1.0:
            raise ValueError("memory_exposure must be in [0, 1]")
        if self.mispredict_penalty < 0:
            raise ValueError("mispredict_penalty must be non-negative")

    def latency_of(self, opclass: OpClass) -> int:
        return self.latencies.get(opclass, 1)


class BlockDelta:
    """Precomputed retirement signature of one memory-free, branch-free block.

    A basic block that retires no memory accesses and no conditional branches
    costs the same fractional cycles on every execution: nothing it does
    depends on cache or predictor state.  The engine therefore lowers such a
    block once per ``(block, core config)``, precomputes the per-op cost
    sequence and the aggregate event pulses, and retires every subsequent
    execution through :meth:`CoreTimingModel.retire_block_delta` (or as one
    sentinel in a :meth:`CoreTimingModel.retire_batch` stream) instead of op
    by op.

    Bit-exactness: the integer cycles a cost sequence produces depend only on
    the incoming fractional-cycle remainder, so the delta keeps the exact
    per-op cost list and replays the remainder walk -- and memoizes the
    ``remainder -> (cycles, new remainder)`` map, which converges to a handful
    of entries inside any loop.  Event pulse totals are constant and
    precomputed outright.  Only when an armed counter's next overflow falls
    inside the block does :meth:`CoreTimingModel.retire_batch` retire its
    op stream (``ops``) instead, so the overflow interrupt observes precise
    pc/cycle state.
    """

    __slots__ = ("ops", "costs", "instructions", "int_ops", "flops",
                 "vector_ops", "frontend_total", "backend_total",
                 "frontend_pulses", "backend_pulses", "last_pc", "walk_cache")

    #: Bound on the memoized remainder walk (remainders cycle quickly; the
    #: cap only guards pathological cost sequences).
    WALK_CACHE_LIMIT = 1024

    def __init__(self, ops: Tuple[MachineOp, ...], costs: Tuple[float, ...],
                 int_ops: int, flops: int, vector_ops: int,
                 frontend_total: float, backend_total: float,
                 frontend_pulses: int, backend_pulses: int, last_pc: int):
        self.ops = ops
        self.costs = costs
        self.instructions = len(ops)
        self.int_ops = int_ops
        self.flops = flops
        self.vector_ops = vector_ops
        self.frontend_total = frontend_total
        self.backend_total = backend_total
        self.frontend_pulses = frontend_pulses
        self.backend_pulses = backend_pulses
        self.last_pc = last_pc
        self.walk_cache: Dict[float, Tuple[int, float]] = {}

    def __repr__(self) -> str:
        return (f"BlockDelta(ops={self.instructions}, "
                f"cost={sum(self.costs):.3f}cyc)")


@dataclass
class RetireResult:
    """What retiring one machine op cost."""

    cycles: int
    base_cycles: float
    stall_cycles: float
    l1_miss: bool = False
    llc_miss: bool = False
    mispredicted: bool = False
    dram_bytes: int = 0


def _last_pc(ops: Sequence[object], end: int) -> int:
    """The last non-zero pc among ``ops[:end]`` (0 when there is none)."""
    for index in range(end - 1, -1, -1):
        op = ops[index]
        pc = op.last_pc if op.__class__ is BlockDelta else op.pc
        if pc:
            return pc
    return 0


class CoreTimingModel:
    """Common machinery shared by the in-order and out-of-order models."""

    def __init__(
        self,
        config: CoreConfig,
        hierarchy: CacheHierarchy,
        bus: EventBus,
        predictor: Optional[BranchPredictor] = None,
    ):
        self.config = config
        self.hierarchy = hierarchy
        self.bus = bus
        self.predictor = predictor or GsharePredictor()
        self.privilege_mode = PrivilegeMode.USER
        self.mode_cycles = ModeCycleAccounting()
        self.retired_instructions = 0
        self.total_cycles = 0
        #: How many BlockDelta sentinels the batched path retired as
        #: aggregates (observability only; never feeds modelled time).
        self.delta_blocks_retired = 0
        #: How many times :meth:`retire_batch` stopped a stretch at an op
        #: that reaches the overflow budget (observability only).
        self.overflow_splits = 0
        #: ``mode_event -> (cycles, instructions) | None``: how far the armed
        #: sampling counters are from their next overflow, None when one
        #: cannot be budgeted (see :meth:`~repro.pmu.unit.PmuUnit.
        #: overflow_budget`).  The machine wires in its PMU's; a bare core
        #: has no budget and never stops.
        self.overflow_budget: Optional[
            Callable[[HwEvent], Optional[Tuple[int, int]]]] = None
        self._cycle_remainder = 0.0
        self.frontend_stall_cycles = 0.0
        self.backend_stall_cycles = 0.0
        # Batched-retirement dispatch tables, built lazily on first use (the
        # config is immutable after construction): per-opclass cost/flag
        # rows, and a mem-latency -> cost memo shared by all memory classes.
        self._batch_info: Optional[list] = None
        self._mem_cost_cache: Dict[int, float] = {}

    # -- to be provided by subclasses ------------------------------------------

    def _op_cost(self, op: MachineOp, mem: Optional[AccessResult],
                 mispredicted: bool) -> Tuple[float, float, float]:
        """Return ``(base, frontend_stall, backend_stall)`` fractional cycles."""
        raise NotImplementedError

    # -- public API -------------------------------------------------------------

    @property
    def ipc(self) -> float:
        """Instructions per cycle retired so far."""
        return self.retired_instructions / self.total_cycles if self.total_cycles else 0.0

    @property
    def frequency_hz(self) -> float:
        return self.config.frequency_hz

    def elapsed_seconds(self) -> float:
        return self.total_cycles / self.config.frequency_hz

    def retire(self, op: MachineOp) -> RetireResult:
        """Retire one machine op: advance time, publish PMU events."""
        mem: Optional[AccessResult] = None
        mispredicted = False

        if op.is_memory and op.address is not None and op.size_bytes > 0:
            mem = self.hierarchy.access(op.address, op.size_bytes, op.is_store)
        if op.is_branch:
            mispredicted = self.predictor.update(op.pc, op.target, op.taken)

        base, frontend, backend = self._op_cost(op, mem, mispredicted)
        self.frontend_stall_cycles += frontend
        self.backend_stall_cycles += backend
        total = base + frontend + backend

        self._cycle_remainder += total
        cycles = int(self._cycle_remainder)
        self._cycle_remainder -= cycles
        self.total_cycles += cycles
        self.retired_instructions += 1
        self.mode_cycles.add(self.privilege_mode, cycles)

        self._publish(op, mem, mispredicted, cycles, frontend, backend,
                      self.bus.publish)

        return RetireResult(
            cycles=cycles,
            base_cycles=base,
            stall_cycles=frontend + backend,
            l1_miss=bool(mem and mem.l1_miss),
            llc_miss=bool(mem and mem.llc_miss),
            mispredicted=mispredicted,
            dram_bytes=mem.dram_bytes if mem else 0,
        )

    # -- batched retirement -----------------------------------------------------

    def _cost_row(self, op: MachineOp, mispredicted: bool = False) -> Tuple:
        """``(total, frontend, backend, frontend_pulse, backend_pulse)`` for
        one op retired with no memory result -- the same arithmetic, float op
        for float op, as the per-op path, frozen into a table row."""
        base, frontend, backend = self._op_cost(op, None, mispredicted)
        total = base + frontend + backend
        fp = int(frontend) if frontend >= 1.0 else 0
        bp = int(backend) if backend >= 1.0 else 0
        return (total, frontend, backend, fp, bp)

    def _build_batch_info(self) -> list:
        """Per-opclass dispatch rows for :meth:`retire_batch`.

        Indexed by ``OpClass.<member>.index``.  Row layouts:

        * plain ops      -- ``(0, cost_row, flop_factor, is_int, is_vector)``;
          the cost is a constant of the core config.
        * memory ops     -- ``(1, addressless_cost_row, is_load, is_store,
          is_vector)``; the addressed cost depends only on the access
          latency and is memoized in ``_mem_cost_cache``.
        * branches       -- ``(2, rows[taken][mispredicted])``.
        """
        table: list = [None] * len(OpClass)
        for opclass in OpClass:
            if opclass in MEMORY_OP_CLASSES:
                row = (1,
                       self._cost_row(MachineOp(opclass)),
                       opclass is OpClass.LOAD or opclass is OpClass.VECTOR_LOAD,
                       opclass is OpClass.STORE or opclass is OpClass.VECTOR_STORE,
                       opclass in VECTOR_OP_CLASSES)
            elif opclass is OpClass.BRANCH:
                rows = [
                    [self._cost_row(MachineOp(OpClass.BRANCH, taken=taken),
                                    mispredicted)
                     for mispredicted in (False, True)]
                    for taken in (False, True)
                ]
                row = (2, rows)
            else:
                if opclass in (OpClass.FP_FMA, OpClass.VECTOR_FMA):
                    flop_factor = 2
                elif opclass in FLOP_OP_CLASSES:
                    flop_factor = 1
                else:
                    flop_factor = 0
                is_int = opclass in (OpClass.INT_ALU, OpClass.INT_MUL,
                                     OpClass.INT_DIV, OpClass.VECTOR_ALU)
                row = (0, self._cost_row(MachineOp(opclass)), flop_factor,
                       is_int, opclass in VECTOR_OP_CLASSES)
            table[opclass.index] = row
        return table

    def block_delta_for(self, ops: Sequence[MachineOp]) -> BlockDelta:
        """Precompute the :class:`BlockDelta` of a memory-free, branch-free
        op stream (one basic block's constant retirement signature)."""
        costs = []
        int_ops = flops = vector_ops = 0
        frontend_total = 0.0
        backend_total = 0.0
        frontend_pulses = backend_pulses = 0
        last_pc = 0
        for op in ops:
            if op.opclass in MEMORY_OP_CLASSES or op.opclass is OpClass.BRANCH:
                raise ValueError(
                    "block deltas require memory-free, branch-free blocks "
                    f"(got a {op.opclass.value} op)")
            base, frontend, backend = self._op_cost(op, None, False)
            costs.append(base + frontend + backend)
            frontend_total += frontend
            backend_total += backend
            if frontend >= 1.0:
                frontend_pulses += int(frontend)
            if backend >= 1.0:
                backend_pulses += int(backend)
            flops += op.flop_count
            int_ops += op.int_op_count
            if op.is_vector:
                vector_ops += 1
            if op.pc:
                last_pc = op.pc
        return BlockDelta(tuple(ops), tuple(costs), int_ops, flops,
                          vector_ops, frontend_total, backend_total,
                          frontend_pulses, backend_pulses, last_pc)

    def retire_block_delta(self, delta: BlockDelta) -> int:
        """Retire one execution of a precomputed block in a single call.

        Equivalent to retiring ``delta.ops`` through :meth:`retire_batch`:
        the remainder walk reuses the delta's memoized ``remainder ->
        (cycles, remainder)`` map and event pulses are published from the
        precomputed aggregates.  Returns the integer cycles consumed.
        """
        return self.retire_batch((delta,))

    def retire_batch(self, ops: Sequence[object],
                     mem_results: Optional[Sequence[AccessResult]] = None,
                     task: Optional[Task] = None) -> int:
        """Retire a chunk of ops, publishing events per stretch, not per op.

        Microarchitectural state (cache hierarchy, branch predictor, the
        fractional-cycle remainder) advances op by op in stream order, so the
        per-op integer cycle sequence is identical to calling :meth:`retire`
        in a loop.  Event publication is coalesced into one pulse per event
        per *stretch*: the ops up to the next armed overflow.

        Overflow budget: before each stretch the loop reads, through
        :attr:`overflow_budget`, how many cycles and instructions the armed
        sampling counters may still count before one overflows, and stops
        at the op whose running totals reach that distance.  The stretch
        before it is committed as one aggregate; the triggering op is then
        committed the per-op way (task pc first, then its pulses in
        :meth:`_publish` order, as :meth:`retire` publishes them), so an
        overflow handler sees exactly what per-op retirement shows it:
        ``total_cycles``, the task pc, and group members holding the prefix
        plus the trigger's pulses published before the leader's.  The
        budget is re-read after every stop.  With nothing armed the stops
        sit at ``NO_OVERFLOW`` and a batch is one stretch; while an armed
        counter counts an event the budget does not cover
        (:meth:`~repro.pmu.unit.PmuUnit.overflow_budget` returns None)
        every op is a stop.  Stopping where nothing overflows is exact too,
        so a stop only has to come no later than the overflow.

        *ops* is a list or tuple and may contain :class:`BlockDelta`
        sentinels (a whole precomputed block execution each): a sentinel
        whose remainder walk stays below the stops retires as one
        aggregate, otherwise its op stream is retired by a nested call.
        *mem_results* optionally supplies the
        :class:`~repro.cpu.cache.AccessResult` sequence of the batch's
        addressed memory ops, as produced by the hierarchy's batched
        ``access_lines`` entry point (overflow handlers never touch the
        hierarchy, so resolving the accesses up front stays exact).  When
        *task* is given its pc follows the last retired op with a non-zero
        pc.  Returns the total integer cycles the batch consumed.
        """
        table = self._batch_info
        if table is None:
            table = self._build_batch_info()
            self._batch_info = table
        access = self.hierarchy.access
        predictor_update = self.predictor.update
        mem_costs = self._mem_cost_cache
        op_cost = self._op_cost
        publish = self.bus.publish
        budget = self.overflow_budget
        remainder = self._cycle_remainder
        walk_limit = BlockDelta.WALK_CACHE_LIMIT
        mem_index = 0
        consumed = 0
        ops_iter = iter(ops)

        while True:
            mode_event = _MODE_CYCLE_EVENT[self.privilege_mode]
            stops = budget(mode_event) if budget is not None else _NO_STOPS
            stop_cycles, stop_count = stops or _EVERY_OP
            count = 0
            cycles_total = 0
            frontend_total = 0.0
            backend_total = 0.0
            frontend_pulses = 0
            backend_pulses = 0
            loads = stores = cache_refs = 0
            load_misses = store_misses = llc_misses = 0
            dram_read = dram_write = 0
            branches = branch_misses = 0
            flops = int_ops = vector_ops = 0
            delta_blocks = 0
            # What this stretch stopped at: a BlockDelta to expand, or the
            # pulse list of a plain op that reached an overflow.
            trigger = None

            for op in ops_iter:
                if op.__class__ is BlockDelta:
                    walk_cache = op.walk_cache
                    walked = walk_cache.get(remainder)
                    if walked is None:
                        r = remainder
                        walked_cycles = 0
                        for cost in op.costs:
                            r += cost
                            c = int(r)
                            r -= c
                            walked_cycles += c
                        walked = (walked_cycles, r)
                        if len(walk_cache) < walk_limit:
                            walk_cache[remainder] = walked
                    block_cycles, after = walked
                    if (cycles_total + block_cycles >= stop_cycles
                            or count + op.instructions >= stop_count):
                        trigger = op
                        break
                    remainder = after
                    cycles_total += block_cycles
                    count += op.instructions
                    delta_blocks += 1
                    int_ops += op.int_ops
                    flops += op.flops
                    vector_ops += op.vector_ops
                    frontend_total += op.frontend_total
                    backend_total += op.backend_total
                    frontend_pulses += op.frontend_pulses
                    backend_pulses += op.backend_pulses
                    continue

                count += 1
                info = table[op.opclass.index]
                kind = info[0]
                if kind == 0:
                    total, frontend, backend, fp, bp = info[1]
                    flop_factor = info[2]
                    if flop_factor:
                        flops += flop_factor * op.lanes
                    elif info[3]:
                        int_ops += op.lanes
                    if info[4]:
                        vector_ops += 1
                elif kind == 1:
                    is_load = info[2]
                    is_store = info[3]
                    if is_load:
                        loads += 1
                    else:
                        stores += 1
                    cache_refs += 1
                    address = op.address
                    if address is not None and op.size_bytes > 0:
                        if mem_results is None:
                            mem = access(address, op.size_bytes, is_store)
                        else:
                            mem = mem_results[mem_index]
                            mem_index += 1
                        cached = mem_costs.get(mem.latency)
                        if cached is None:
                            base, frontend, backend = op_cost(op, mem, False)
                            cached = (base + frontend + backend, backend,
                                      int(backend) if backend >= 1.0 else 0)
                            mem_costs[mem.latency] = cached
                        total, backend, bp = cached
                        frontend = 0.0
                        fp = 0
                        if mem.l1_miss:
                            if is_load:
                                load_misses += 1
                            else:
                                store_misses += 1
                        if mem.llc_miss:
                            llc_misses += 1
                        dram = mem.dram_bytes
                        if dram:
                            if is_store:
                                dram_write += dram
                            else:
                                dram_read += dram
                    else:
                        mem = None
                        total, frontend, backend, fp, bp = info[1]
                    if info[4]:
                        vector_ops += 1
                else:
                    mispredicted = predictor_update(op.pc, op.target, op.taken)
                    branches += 1
                    if mispredicted:
                        branch_misses += 1
                    total, frontend, backend, fp, bp = info[1][op.taken][mispredicted]

                frontend_total += frontend
                backend_total += backend
                frontend_pulses += fp
                backend_pulses += bp
                remainder += total
                cycles = int(remainder)
                remainder -= cycles
                cycles_total += cycles
                if cycles_total >= stop_cycles or count >= stop_count:
                    trigger = []
                    self._publish(op, mem if kind == 1 else None,
                                  kind == 2 and mispredicted, cycles,
                                  frontend, backend,
                                  lambda *pulse: trigger.append(pulse))
                    break

            # Commit the stretch.  A plain trigger is part of it, and its
            # cycles reach the core's clock before any pulse is published,
            # as in :meth:`retire`; its own pulses are held back from the
            # aggregate and published last, in per-op order.
            self._cycle_remainder = remainder
            self.total_cycles += cycles_total
            self.retired_instructions += count
            self.delta_blocks_retired += delta_blocks
            self.frontend_stall_cycles += frontend_total
            self.backend_stall_cycles += backend_total
            self.mode_cycles.add(self.privilege_mode, cycles_total)
            consumed += cycles_total
            events = _STRETCH_EVENTS[self.privilege_mode]
            amounts = (cycles_total, cycles_total, count, loads, loads,
                       stores, stores, cache_refs, load_misses, store_misses,
                       llc_misses, dram_read, dram_write, branches,
                       branch_misses, flops, int_ops, vector_ops,
                       frontend_pulses, backend_pulses)
            if trigger.__class__ is list:
                own = dict(trigger)
                amounts = [amount - own.get(event, 0)
                           for event, amount in zip(events, amounts)]
            for event, amount in zip(events, amounts):
                if amount:
                    publish(event, amount)

            if trigger is None:
                if task is not None:
                    pc = _last_pc(ops, len(ops))
                    if pc:
                        task.set_pc(pc)
                return consumed
            # Index just past the trigger: the iterator knows what is left.
            end = len(ops) - length_hint(ops_iter)
            if trigger.__class__ is BlockDelta:
                # A block the stop falls inside: retire its ops one stretch
                # at a time, from the pc of the op before it.
                if task is not None:
                    pc = _last_pc(ops, end - 1)
                    if pc:
                        task.set_pc(pc)
                consumed += self.retire_batch(trigger.ops, None, task)
                remainder = self._cycle_remainder
                continue
            self.overflow_splits += 1
            if task is not None:
                pc = _last_pc(ops, end)
                if pc:
                    task.set_pc(pc)
            for event, amount in trigger:
                publish(event, amount)

    # -- event publication ------------------------------------------------------

    def _publish(self, op: MachineOp, mem: Optional[AccessResult],
                 mispredicted: bool, cycles: int, frontend: float,
                 backend: float, publish: Callable[[HwEvent, int], None]) -> None:
        """Pass the pulses retiring *op* produces to *publish* (the bus's,
        or a collector), in per-op order."""
        if cycles:
            publish(HwEvent.CYCLES, cycles)
            publish(_MODE_CYCLE_EVENT[self.privilege_mode], cycles)
        publish(HwEvent.INSTRUCTIONS, 1)

        if op.is_load:
            publish(HwEvent.LOADS_RETIRED, 1)
            publish(HwEvent.L1D_LOADS, 1)
        elif op.is_store:
            publish(HwEvent.STORES_RETIRED, 1)
            publish(HwEvent.L1D_STORES, 1)
        if op.is_memory:
            publish(HwEvent.CACHE_REFERENCES, 1)
            if mem is not None:
                if mem.l1_miss:
                    publish(
                        HwEvent.L1D_LOAD_MISSES if op.is_load else HwEvent.L1D_STORE_MISSES,
                        1,
                    )
                if mem.llc_miss:
                    publish(HwEvent.CACHE_MISSES, 1)
                if mem.dram_bytes:
                    if op.is_store:
                        publish(HwEvent.DRAM_WRITE_BYTES, mem.dram_bytes)
                    else:
                        publish(HwEvent.DRAM_READ_BYTES, mem.dram_bytes)

        if op.is_branch:
            publish(HwEvent.BRANCH_INSTRUCTIONS, 1)
            if mispredicted:
                publish(HwEvent.BRANCH_MISSES, 1)

        flops = op.flop_count
        if flops:
            publish(HwEvent.FP_OPS_RETIRED, flops)
        int_ops = op.int_op_count
        if int_ops:
            publish(HwEvent.INT_OPS_RETIRED, int_ops)
        if op.is_vector:
            publish(HwEvent.VECTOR_OPS_RETIRED, 1)

        if frontend >= 1.0:
            publish(HwEvent.STALLED_CYCLES_FRONTEND, int(frontend))
        if backend >= 1.0:
            publish(HwEvent.STALLED_CYCLES_BACKEND, int(backend))

    # -- misc -------------------------------------------------------------------

    def set_privilege_mode(self, mode: PrivilegeMode) -> None:
        self.privilege_mode = mode

    def stats(self) -> Dict[str, float]:
        return {
            "instructions": self.retired_instructions,
            "cycles": self.total_cycles,
            "ipc": self.ipc,
            "frontend_stall_cycles": self.frontend_stall_cycles,
            "backend_stall_cycles": self.backend_stall_cycles,
            "branch_miss_rate": self.predictor.miss_rate,
        }


class InOrderCore(CoreTimingModel):
    """Dual-issue in-order pipeline: stalls are exposed at retire."""

    def _op_cost(self, op: MachineOp, mem: Optional[AccessResult],
                 mispredicted: bool) -> Tuple[float, float, float]:
        cfg = self.config
        base = 1.0 / cfg.issue_width
        frontend = 0.0
        backend = 0.0

        latency = cfg.latency_of(op.opclass)
        if op.is_memory:
            if mem is not None:
                # The first hit-latency cycle overlaps with issue; the rest is
                # exposed according to the core's (limited) MLP.
                backend += max(0, mem.latency - 1) * cfg.memory_exposure
            else:
                backend += max(0, latency - 1) * cfg.memory_exposure
        else:
            backend += max(0, latency - 1) * cfg.dependency_exposure

        if op.is_control:
            if mispredicted:
                frontend += cfg.mispredict_penalty
            elif op.taken or op.opclass in (OpClass.JUMP, OpClass.CALL, OpClass.RET):
                frontend += cfg.taken_branch_bubble

        return base, frontend, backend


class OutOfOrderCore(CoreTimingModel):
    """Wide out-of-order machine: most latency is hidden by the scheduler."""

    #: How much of the *exposed* stall an OoO core still pays relative to the
    #: in-order formula.  The scheduler and deep MLP hide the rest.
    HIDE_FACTOR = 0.10

    def _op_cost(self, op: MachineOp, mem: Optional[AccessResult],
                 mispredicted: bool) -> Tuple[float, float, float]:
        cfg = self.config
        base = 1.0 / cfg.issue_width
        frontend = 0.0
        backend = 0.0

        latency = cfg.latency_of(op.opclass)
        if op.is_memory:
            if mem is not None:
                exposed = max(0, mem.latency - 1) * cfg.memory_exposure
            else:
                exposed = max(0, latency - 1) * cfg.memory_exposure
            backend += exposed * self.HIDE_FACTOR
        elif op.opclass in (OpClass.INT_DIV, OpClass.FP_DIV):
            # Divides are unpipelined even on big cores.
            backend += max(0, latency - 1) * cfg.dependency_exposure
        else:
            backend += max(0, latency - 1) * cfg.dependency_exposure * self.HIDE_FACTOR

        if op.is_branch and mispredicted:
            frontend += cfg.mispredict_penalty

        return base, frontend, backend
