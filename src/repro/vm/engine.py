"""The IR execution engine.

Semantics and timing are computed together, instruction by instruction:

* the *interpreter* part computes real values (loads/stores go through the
  :class:`~repro.vm.memory.Memory`), so workload results can be checked
  against numpy references in tests;
* the *accounting* part lowers each executed instruction through the target
  lowering into machine ops and retires them on the platform's core timing
  model, which updates caches, the branch predictor and every PMU counter --
  and therefore can raise sampling interrupts mid-run.

External calls (the ``mperf_roofline_internal_*`` runtime and a small libm
subset) are dispatched to registered Python handlers.

Dispatch architecture
---------------------

The engine has exactly two executors over the same semantics:

* **Generated** (``fast_dispatch=True``, the default): on first entry each
  function is compiled to the source of one Python generator function
  (:mod:`repro.vm.codegen`) -- SSA values as locals, blocks in one loop
  dispatched on a block index, integer wraps and struct-method memory
  accesses inline, and accounting as ``extend`` calls of pre-lowered op
  tuples (:meth:`~repro.compiler.targets.base.TargetLowering.lower_cached`)
  with memory ops address-patched.  Retired ops accumulate in a pending
  buffer flushed through :meth:`~repro.platforms.machine.Machine.
  execute_batch` before calls, at a size threshold at block ends and at
  frame exit; ``execute_batch`` retires op by op whenever a sampling
  counter is armed, so counters, bus totals and sample streams are
  bit-identical to per-op retirement.  Memory-free, branch-free, call-free
  blocks retire through one precomputed :class:`~repro.cpu.core.
  BlockDelta` sentinel per execution (see ``block_delta`` below), and a
  flush's addressed accesses go to the hierarchy in one batched
  ``access_lines`` call on the non-sampling path.  Generated code is cached
  per process; each engine binds its own state to it.

* **Reference** (``fast_dispatch=False``): the instruction-at-a-time
  interpreter, the executable specification.  Differential suites run both
  executors on the same workload and assert identical results, PMU counter
  values and sample streams.

Preemptible execution
---------------------

Both executors are generators that decrement one shared fuel cell at
basic-block boundaries and yield when it runs out.
:meth:`ExecutionEngine.run_yielding` sets the fuel to a *quantum* of IR
instructions -- the SMP scheduler's time slice -- so both executors are
preempted after exactly the same dynamic instruction and a multi-hart
schedule (and every per-hart sample stream) is bit-identical across them;
:meth:`ExecutionEngine.run` parks the fuel where no run exhausts it.
Pending batched machine ops are flushed *before* yielding: once another
hart runs, the shared LLC and the contended memory controller must have
observed every access this hart already executed, in program order.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.compiler.ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CompareOp,
    GetElementPtr,
    Instruction,
    Jump,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from repro.analysis.blockdelta import STATIC_DELTA_KEY
from repro.analysis.blockdelta import target_key as _static_target_key
from repro.compiler.ir.module import BasicBlock, Function, Module
from repro.compiler.ir.types import FloatType, IntType
from repro.compiler.ir.values import Constant, UndefValue, Value
from repro.compiler.targets.base import TargetLowering
from repro.compiler.transforms.vectorize import VECTOR_WIDTH_KEY
from repro.isa.machine_ops import MachineOp
from repro.kernel.task import Task
from repro.platforms.machine import Machine
from repro.vm import codegen as _codegen
from repro.vm.memory import Memory


class ExternalCallError(Exception):
    """Raised when a call to an undefined external function cannot be dispatched."""


@dataclass
class ExecutionStats:
    """What one engine has executed so far."""

    ir_instructions: int = 0
    machine_ops: int = 0
    calls: int = 0
    external_calls: int = 0
    per_function_instructions: Dict[str, int] = field(default_factory=dict)


def _libm_fminf(a: float, b: float) -> float:
    """``fminf`` with libm NaN semantics: a NaN operand loses."""
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    return min(a, b)


def _libm_fmaxf(a: float, b: float) -> float:
    """``fmaxf`` with libm NaN semantics: a NaN operand loses."""
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    return max(a, b)


#: Builtin math externals (a tiny libm) available to KernelC programs.
_BUILTIN_MATH: Dict[str, Callable] = {
    "sqrtf": lambda x: math.sqrt(x) if x >= 0 else float("nan"),
    "fabsf": abs,
    "expf": math.exp,
    "logf": lambda x: math.log(x) if x > 0 else float("-inf"),
    "fminf": _libm_fminf,
    "fmaxf": _libm_fmaxf,
}

def _fdiv(a: float, b: float) -> float:
    """IEEE-754 division: x/0 is signed infinity, but 0/0 and NaN/0 are NaN."""
    if b != 0.0:
        return a / b
    if a == 0.0 or math.isnan(a):
        return float("nan")
    return math.copysign(float("inf"), a)


#: Float binary opcodes -> semantics (both executors share these).
_FLOAT_BINOPS: Dict[str, Callable[[float, float], float]] = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
    "fdiv": _fdiv,
    "frem": lambda a, b: math.fmod(a, b) if b != 0.0 else float("nan"),
}

def _signed_quotient(a: int, b: int) -> int:
    """C-style (truncating) quotient for a nonzero *b*."""
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _unsigned(opcode: str, a: int, b: int, type_: IntType) -> int:
    """udiv/urem on the masked (unsigned) values, not the wrapped signed
    representation."""
    mask = (1 << type_.bits) - 1
    if not b & mask:
        return 0
    if opcode == "udiv":
        return type_.wrap((a & mask) // (b & mask))
    return type_.wrap((a & mask) % (b & mask))


#: Integer division opcodes -> semantics over the int operands and the IR
#: type (both executors share these); division by zero yields 0.
_INT_DIVISION: Dict[str, Callable[[int, int, IntType], int]] = {
    "sdiv": lambda a, b, t: t.wrap(_signed_quotient(a, b)) if b else 0,
    "srem": lambda a, b, t: t.wrap(a - b * _signed_quotient(a, b)) if b else 0,
    "udiv": lambda a, b, t: _unsigned("udiv", a, b, t),
    "urem": lambda a, b, t: _unsigned("urem", a, b, t),
}

#: fcmp ordered predicates -> semantics: ordered comparisons are false
#: whenever an operand is NaN, which Python's operators already give us for
#: every predicate except inequality ("one" is ordered-AND-unequal, so the
#: naive `a != b` would wrongly return true on NaN).
_FCMP_PREDICATES: Dict[str, Callable[[float, float], bool]] = {
    "oeq": lambda a, b: a == b,
    "one": lambda a, b: a < b or a > b,
    "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
}

_F32_STRUCT = struct.Struct("<f")


def callee_function(inst: Call, module: Optional[Module]) -> Optional[Function]:
    """The defined function *inst* calls, or None for an external call."""
    callee = inst.callee
    if isinstance(callee, str):
        if module is None or not module.has_function(callee):
            return None
        callee = module.get_function(callee)
    return None if callee.is_declaration else callee


def _batch_flusher(machine: Optional[Machine], task: Optional[Task],
                   pending: List[MachineOp], pending_mem: List[tuple]) -> Callable[[], None]:
    """``flush()`` retires all pending machine ops on the machine.

    A closure rather than a method: generated executors hold it, and an
    executor that referenced its engine would keep the engine -- and its
    memory's stack -- alive until a cyclic garbage collection.
    """
    def flush() -> None:
        if pending:
            machine.execute_batch(pending, task, pending_mem if pending_mem else None)
            del pending[:]
            if pending_mem:
                del pending_mem[:]
    return flush


class _Frame:
    """One activation record."""

    __slots__ = ("function", "values")

    def __init__(self, function: Function):
        self.function = function
        self.values: Dict[Value, object] = {}


class ExecutionEngine:
    """Interprets a module on (optionally) a modelled machine.

    Parameters
    ----------
    module:
        The IR module to execute.
    machine:
        Platform model that accounts time and PMU events.  ``None`` runs the
        program functionally only (fast path for semantics tests).
    target:
        Target lowering; required when *machine* is given.
    task:
        The profiled task whose call stack samples should attribute to.
    memory:
        Shared memory object (one is created if not supplied), so callers can
        pre-allocate and later inspect arrays.
    external_handlers:
        Objects with ``handles(name) -> bool`` and ``call(name, args)``
        methods consulted (in order) for calls to declared-only functions.
        The roofline runtime registers itself this way.
    fast_dispatch:
        Run functions on their generated executors (default); ``False``
        selects the reference interpreter used by equivalence tests.
    block_delta:
        Retire memory-free, branch-free, call-free basic blocks through
        precomputed :class:`~repro.cpu.core.BlockDelta` signatures (default;
        generated executor only).  Such a block's retirement cost and event
        pulses are constants of the core config, so one sentinel replaces
        the block's per-op account stream.  Counters, cycles and -- because
        the machine expands sentinels back to per-op retirement whenever a
        sampling counter is armed -- sample streams are bit-identical with
        the flag off; the switch exists for differential suites.
    """

    #: Pending machine ops are flushed to the machine once the buffer reaches
    #: this size (and always at call/return boundaries).
    _FLUSH_THRESHOLD = 2048

    #: Default preemption quantum of :meth:`run_yielding`, in executed IR
    #: instructions.
    DEFAULT_QUANTUM = 20_000

    def __init__(
        self,
        module: Module,
        machine: Optional[Machine] = None,
        target: Optional[TargetLowering] = None,
        task: Optional[Task] = None,
        memory: Optional[Memory] = None,
        external_handlers: Optional[Sequence[object]] = None,
        fast_dispatch: bool = True,
        block_delta: bool = True,
    ):
        if machine is not None and target is None:
            raise ValueError("a target lowering is required when a machine is given")
        self.module = module
        self.machine = machine
        self.target = target
        self.task = task
        self.memory = memory if memory is not None else Memory()
        self.external_handlers: List[object] = list(external_handlers or [])
        self.stats = ExecutionStats()
        self._vector_counters: Dict[int, int] = {}
        self._pc_of: Dict[int, int] = {}
        self._assign_pcs()
        self.fast_dispatch = fast_dispatch
        self.block_delta = block_delta
        # Generated-executor state: the pending retired-op buffer (plus the
        # stream-ordered addressed memory accesses it contains, handed to the
        # hierarchy's batched access_lines) and each function's executor,
        # bound to this engine on first entry.
        self._pending: List[MachineOp] = []
        self._pending_mem: List[tuple] = []
        self._flush = _batch_flusher(machine, task, self._pending, self._pending_mem)
        self._executors: Dict[Function, Callable] = {}
        # The preemption fuel both executors decrement at block ends.
        self._fuel: List[int] = [0]

    # -- setup -----------------------------------------------------------------------------

    def _assign_pcs(self) -> None:
        pc = 0x0040_0000
        for function in self.module:
            for block in function.blocks:
                for inst in block.instructions:
                    self._pc_of[id(inst)] = pc  # repro-lint: allow[no-id] -- per-engine pc map key; pcs come from a deterministic module walk, ids never order or escape
                    pc += 4

    def register_external_handler(self, handler: object) -> None:
        self.external_handlers.append(handler)

    # -- public API -------------------------------------------------------------------------

    def run(self, function_name: str, args: Sequence[object] = ()) -> object:
        """Execute *function_name* with *args*; returns its return value."""
        function = self._entry_function(function_name, args)
        fuel = self._fuel
        saved_fuel = fuel[0]
        # A run() never wants quantum yields: park the fuel where no run
        # exhausts it.  Restoring it afterwards keeps a run() made while a
        # run_yielding() generator is suspended from shifting that run's
        # quantum boundaries.
        fuel[0] = 1 << 62
        try:
            calls = self._call_function_gen(function, list(args))
            while True:
                try:
                    next(calls)
                except StopIteration as stop:
                    return stop.value
        finally:
            fuel[0] = saved_fuel

    def run_yielding(self, function_name: str, args: Sequence[object] = (),
                     quantum: Optional[int] = None):
        """Execute *function_name* as a preemptible generator.

        Yields ``None`` after every *quantum* executed IR instructions (at
        the next basic-block boundary, wherever that is in the call stack)
        and returns the function's return value when it finishes, so a
        scheduler can drive it with ``yield from``.  Pending batched machine
        ops are flushed before every yield; both executors yield after the
        same dynamic instruction, which keeps multi-hart interleavings (and
        therefore shared-cache state, DRAM contention and sample streams)
        bit-identical between ``fast_dispatch=True`` and ``False``.

        Validation happens here, eagerly -- a bad function name, argument
        count or quantum raises at the call site, not at the scheduler's
        first ``next()``.
        """
        if quantum is None:
            quantum = self.DEFAULT_QUANTUM
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1 (got {quantum})")
        function = self._entry_function(function_name, args)
        return self._drive_yielding(function, list(args), quantum)

    def _entry_function(self, function_name: str, args: Sequence[object]) -> Function:
        function = self.module.get_function(function_name)
        if function.is_declaration:
            raise ValueError(f"cannot run declaration @{function_name}")
        if len(args) != len(function.args):
            raise ValueError(
                f"@{function_name} expects {len(function.args)} arguments, "
                f"got {len(args)}"
            )
        return function

    def _drive_yielding(self, function: Function, args: List[object],
                        quantum: int):
        """The generator behind :meth:`run_yielding` (already validated)."""
        fuel = self._fuel
        fuel[0] = quantum
        calls = self._call_function_gen(function, args)
        while True:
            try:
                next(calls)
            except StopIteration as stop:
                return stop.value
            yield
            fuel[0] = quantum

    # -- call machinery -----------------------------------------------------------------------

    def _call_function_gen(self, function: Function, args: List[object]):
        """Run one activation of *function* on the selected executor.

        The frame discipline both executors share: push the stack frame and
        the task's call-stack frame, and on exit retire anything still
        pending *before* the frames pop, so any sampling interrupt
        attributes to the call stack that executed the ops.
        """
        stack_token = self.memory.push_stack_frame()
        task = self.task
        if task is not None:
            entry_pc = 0
            if function.blocks and function.entry_block.instructions:
                entry_pc = self._pc_of[id(function.entry_block.instructions[0])]  # repro-lint: allow[no-id] -- per-engine pc map key; pcs come from a deterministic module walk, ids never order or escape
            task.push_frame(function.name, pc=entry_pc,
                            source_file=function.source_file)
        self.stats.calls += 1
        try:
            if self.fast_dispatch:
                executor = self._executors.get(function)
                if executor is None:
                    executor = self._executors[function] = _codegen.bind(self, function)
                return (yield from executor(*args))
            frame = _Frame(function)
            for formal, actual in zip(function.args, args):
                frame.values[formal] = actual
            return (yield from self._run_frame_slow_gen(frame))
        finally:
            if self._pending:
                self._flush()
            self.memory.pop_stack_frame(stack_token)
            if task is not None:
                task.pop_frame()

    # -- reference dispatch ---------------------------------------------------------------------

    def _run_frame_slow_gen(self, frame: _Frame):
        """The reference interpreter's dispatch loop.

        Retires ops one at a time (nothing is ever pending), so a quantum
        boundary is just a yield; it lands after exactly the same executed
        IR instruction as in the generated executor because both decrement
        the one fuel cell per block they complete.
        """
        function = frame.function
        per_fn = self.stats.per_function_instructions
        fuel = self._fuel
        block = function.entry_block
        prev_block: Optional[BasicBlock] = None
        while True:
            phis = block.phis()
            if phis:
                incoming = [
                    self._eval(frame, phi.incoming_for(prev_block)) for phi in phis
                ]
                for phi, value in zip(phis, incoming):
                    frame.values[phi] = value
                    self._account(phi, frame)

            next_block: Optional[BasicBlock] = None
            return_value: object = None
            returned = False
            executed = 0
            for inst in block.instructions:
                if isinstance(inst, Phi):
                    continue
                self.stats.ir_instructions += 1
                per_fn[function.name] = per_fn.get(function.name, 0) + 1
                executed += 1

                if isinstance(inst, Branch):
                    condition = bool(self._eval(frame, inst.condition))
                    self._account(inst, frame, taken=condition)
                    next_block = inst.then_block if condition else inst.else_block
                    break
                if isinstance(inst, Jump):
                    self._account(inst, frame, taken=True)
                    next_block = inst.target
                    break
                if isinstance(inst, Ret):
                    self._account(inst, frame, taken=True)
                    return_value = (
                        self._eval(frame, inst.value) if inst.value is not None else None
                    )
                    returned = True
                    break

                if isinstance(inst, Call):
                    result = yield from self._execute_call_gen(frame, inst)
                else:
                    result = self._execute(frame, inst)
                if not inst.type.is_void:
                    frame.values[inst] = result

            if returned:
                return return_value
            if next_block is None:
                raise RuntimeError(
                    f"block {block.name} in @{function.name} fell through without "
                    "a terminator"
                )
            fuel[0] -= executed
            if fuel[0] <= 0:
                yield
            prev_block, block = block, next_block

    def _execute_call_gen(self, frame: _Frame, inst: Call):
        """Evaluate a call instruction on the reference path (generator)."""
        args = [self._eval(frame, a) for a in inst.operands]
        self._account(inst, frame)
        callee_fn = callee_function(inst, self.module)
        if callee_fn is not None:
            result = yield from self._call_function_gen(callee_fn, args)
            return result
        callee = inst.callee
        name = callee if isinstance(callee, str) else callee.name
        return self._dispatch_external(name, args)

    # -- block-delta classification ---------------------------------------------------------

    def _classify_block_delta(self, block: BasicBlock, body: List[Instruction],
                              terminator: Optional[Instruction]):
        """The block's :class:`~repro.cpu.core.BlockDelta`, or None.

        A block qualifies when every op it retires has a cost that is a
        constant of the core config: no addressed memory ops (register-
        promoted accesses lower to nothing and are fine), no conditional
        branch terminator (predictor state feeds the cost), no calls (they
        flush at frame boundaries and run other blocks), and no
        vector-annotated instructions (their accounts fire on every
        ``width``-th execution, so the per-execution delta is not constant).
        Signatures are cached per (block, core config) on the machine.

        Modules that went through the compile pipeline carry static
        eligibility verdicts (:mod:`repro.analysis.blockdelta`); this method
        cross-checks its decision against them and raises on divergence, so
        a drift between the static model and the engine fails loudly.
        """
        if self.machine is None or not self.block_delta:
            return None
        delta = self._classify_block_delta_runtime(block, body, terminator)
        stats = self.machine.delta_stats
        stats["eligible" if delta is not None else "ineligible"] += 1
        self._cross_check_static_delta(block, delta is not None)
        return delta

    def _classify_block_delta_runtime(self, block: BasicBlock,
                                      body: List[Instruction],
                                      terminator: Optional[Instruction]):
        """The runtime eligibility decision (machine/flag gates already passed)."""
        if terminator is None or isinstance(terminator, Branch):
            return None
        cache = self.machine.block_deltas
        cached = cache.get(block)
        if cached is not None:
            self.machine.delta_stats["cache_hits"] += 1
            return cached
        lower = self.target.lower_cached
        pc_of = self._pc_of
        ops: List[MachineOp] = []
        for inst in body:
            if isinstance(inst, Call) or self._effective_vector_width(inst):
                return None
            lowered = lower(inst, pc=pc_of.get(id(inst), 0))  # repro-lint: allow[no-id] -- per-engine pc map key; pcs come from a deterministic module walk, ids never order or escape
            for op in lowered:
                if op.is_memory:
                    return None
            ops.extend(lowered)
        if self._effective_vector_width(terminator):
            return None
        ops.extend(lower(terminator, taken=True,
                         pc=pc_of.get(id(terminator), 0)))  # repro-lint: allow[no-id] -- per-engine pc map key; pcs come from a deterministic module walk, ids never order or escape
        if not ops:
            return None
        delta = self.machine.core.block_delta_for(ops)
        cache[block] = delta
        self.machine.delta_stats["cache_misses"] += 1
        return delta

    def _cross_check_static_delta(self, block: BasicBlock,
                                  runtime_eligible: bool) -> None:
        """Compare the runtime decision with the certified static verdict.

        Uncertified modules (hand-built IR in tests, modules that bypassed
        ``compile_source_cached``) carry no verdicts and are skipped; for
        certified ones a disagreement is a bug in either the engine or the
        static classifier, never acceptable drift.
        """
        function = block.parent
        if function is None:
            return
        per_target = function.metadata.get(STATIC_DELTA_KEY)
        if not isinstance(per_target, dict):
            return
        verdicts = per_target.get(_static_target_key(self.target))
        if verdicts is None:
            return
        verdict = verdicts.get(block.name)
        if verdict is None:
            return
        if verdict.eligible != runtime_eligible:
            raise RuntimeError(
                f"static block-delta verdict diverges from the engine for "
                f"block {block.name!r} in @{function.name} on target "
                f"{_static_target_key(self.target)}: static says "
                f"{'eligible' if verdict.eligible else f'ineligible ({verdict.reason})'}, "
                f"engine says {'eligible' if runtime_eligible else 'ineligible'}"
            )

    def _effective_vector_width(self, inst: Instruction) -> int:
        """The vector group size the accounting path uses for *inst* (0 = scalar)."""
        annotated = inst.metadata.get(VECTOR_WIDTH_KEY, 0)
        if annotated and self.target.supports_vector:
            width = min(int(annotated), self.target.vector_sp_lanes)
            if width > 1:
                return width
        return 0

    # -- instruction execution (reference path) -------------------------------------------------

    def _eval(self, frame: _Frame, value: Optional[Value]) -> object:
        if value is None:
            return None
        if isinstance(value, Constant):
            return value.value
        if isinstance(value, UndefValue):
            return 0
        if isinstance(value, Function):
            return value
        try:
            return frame.values[value]
        except KeyError:
            raise RuntimeError(
                f"value %{value.name} used before definition in @{frame.function.name}"
            )

    def _execute(self, frame: _Frame, inst: Instruction) -> object:
        if isinstance(inst, BinaryOp):
            result = self._execute_binary(frame, inst)
            self._account(inst, frame)
            return result
        if isinstance(inst, CompareOp):
            result = self._execute_compare(frame, inst)
            self._account(inst, frame)
            return result
        if isinstance(inst, Load):
            address = int(self._eval(frame, inst.pointer))
            value = self.memory.load_typed(address, inst.type)
            self._account(inst, frame, address=address)
            return value
        if isinstance(inst, Store):
            address = int(self._eval(frame, inst.pointer))
            self.memory.store_typed(address, inst.value.type,
                                    self._eval(frame, inst.value))
            self._account(inst, frame, address=address)
            return None
        if isinstance(inst, Alloca):
            address = self.memory.stack_alloc(max(1, inst.allocated_bytes))
            self._account(inst, frame)
            return address
        if isinstance(inst, GetElementPtr):
            base = int(self._eval(frame, inst.base))
            index = int(self._eval(frame, inst.index))
            self._account(inst, frame)
            return base + index * inst.element_bytes
        if isinstance(inst, Cast):
            result = self._execute_cast(frame, inst)
            self._account(inst, frame)
            return result
        if isinstance(inst, Select):
            condition = bool(self._eval(frame, inst.condition))
            result = self._eval(frame, inst.true_value if condition else inst.false_value)
            self._account(inst, frame)
            return result
        raise RuntimeError(f"cannot execute instruction {inst.opcode}")

    def _execute_binary(self, frame: _Frame, inst: BinaryOp) -> object:
        lhs = self._eval(frame, inst.lhs)
        rhs = self._eval(frame, inst.rhs)
        opcode = inst.opcode
        if inst.is_float_op:
            fn = _FLOAT_BINOPS.get(opcode)
            if fn is None:
                raise RuntimeError(f"unhandled binary opcode {opcode}")
            return fn(float(lhs), float(rhs))
        a, b = int(lhs), int(rhs)
        type_ = inst.type
        assert isinstance(type_, IntType)
        if opcode == "add":
            return type_.wrap(a + b)
        if opcode == "sub":
            return type_.wrap(a - b)
        if opcode == "mul":
            return type_.wrap(a * b)
        division = _INT_DIVISION.get(opcode)
        if division is not None:
            return division(a, b, type_)
        if opcode == "and":
            return type_.wrap(a & b)
        if opcode == "or":
            return type_.wrap(a | b)
        if opcode == "xor":
            return type_.wrap(a ^ b)
        if opcode == "shl":
            return type_.wrap(a << (b % type_.bits))
        if opcode == "lshr":
            mask = (1 << type_.bits) - 1
            return type_.wrap((a & mask) >> (b % type_.bits))
        if opcode == "ashr":
            return type_.wrap(a >> (b % type_.bits))
        raise RuntimeError(f"unhandled binary opcode {opcode}")

    def _execute_compare(self, frame: _Frame, inst: CompareOp) -> int:
        lhs = self._eval(frame, inst.lhs)
        rhs = self._eval(frame, inst.rhs)
        predicate = inst.predicate
        if inst.opcode == "fcmp":
            return int(_FCMP_PREDICATES[predicate](float(lhs), float(rhs)))
        a, b = int(lhs), int(rhs)
        if predicate.startswith("u"):
            bits = inst.lhs.type.bits if isinstance(inst.lhs.type, IntType) else 64
            mask = (1 << bits) - 1
            a &= mask
            b &= mask
        table = {
            "eq": a == b, "ne": a != b,
            "slt": a < b, "sle": a <= b, "sgt": a > b, "sge": a >= b,
            "ult": a < b, "ule": a <= b, "ugt": a > b, "uge": a >= b,
        }
        return int(table[predicate])

    def _execute_cast(self, frame: _Frame, inst: Cast) -> object:
        value = self._eval(frame, inst.value)
        opcode = inst.opcode
        to_type = inst.type
        if opcode in ("sext", "zext", "trunc"):
            assert isinstance(to_type, IntType)
            return to_type.wrap(int(value))
        if opcode in ("fpext", "fptrunc"):
            if isinstance(to_type, FloatType) and to_type.bits == 32:
                return _F32_STRUCT.unpack(_F32_STRUCT.pack(float(value)))[0]
            return float(value)
        if opcode == "sitofp":
            return float(int(value))
        if opcode == "fptosi":
            assert isinstance(to_type, IntType)
            return to_type.wrap(int(value))
        if opcode in ("bitcast", "inttoptr", "ptrtoint"):
            return value
        raise RuntimeError(f"unhandled cast opcode {opcode}")

    def _dispatch_external(self, name: str, args: List[object]) -> object:
        self.stats.external_calls += 1
        for handler in self.external_handlers:
            if handler.handles(name):
                return handler.call(name, args)
        builtin = _BUILTIN_MATH.get(name)
        if builtin is not None:
            return builtin(*[float(a) for a in args])
        raise ExternalCallError(
            f"no handler registered for external function @{name}"
        )

    # -- accounting (reference path) -------------------------------------------------------------

    def _account(self, inst: Instruction, frame: _Frame,
                 address: Optional[int] = None, taken: bool = False) -> None:
        if self.machine is None:
            return
        vector_width = 0
        annotated = inst.metadata.get(VECTOR_WIDTH_KEY, 0)
        if annotated and self.target.supports_vector:
            # One vector machine op is retired every `width` executions of the
            # annotated instruction; the other executions are lanes of it.
            width = min(int(annotated), self.target.vector_sp_lanes)
            if width > 1:
                key = id(inst)  # repro-lint: allow[no-id] -- per-engine lane counter key; ids never order or escape
                count = self._vector_counters.get(key, 0) + 1
                self._vector_counters[key] = count
                if count % width != 0:
                    return
                vector_width = width
        pc = self._pc_of.get(id(inst), 0)  # repro-lint: allow[no-id] -- per-engine pc map key; pcs come from a deterministic module walk, ids never order or escape
        ops = self.target.lower(inst, address=address, taken=taken, pc=pc,
                                vector_width=vector_width)
        task = self.task
        for op in ops:
            self.stats.machine_ops += 1
            self.machine.execute(op, task)
