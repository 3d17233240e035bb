"""Compile IR functions to Python source: the engine's generated executor.

Each IR function becomes one Python generator function.  SSA values are
locals; blocks sit in one ``while True`` loop dispatched on a block index,
deepest loops first, and a block whose only predecessor edge is another
block's terminator is emitted inline at that edge.  Phis are parallel
assignments on the edges.  Integer results wrap inline and compares yield
the ints 0/1; every value carries a *kind* (wrapped int, int, float,
unknown) so the ``int()``/``float()`` conversions the reference applies are
emitted only for values that may need them.  Loads and stores call bound
``struct`` methods; an access whose pointer is an ``alloca`` uses the stack
offset computed at the alloca, others test the heap bounds inline and fall
back to :meth:`~repro.vm.memory.Memory.load_typed`/``store_typed``.

Accounting extends the engine's pending list with pre-lowered op tuples,
merged across runs of instructions that cannot raise, so an exception
leaves the retired machine state of the reference interpreter; memory ops
append the address-patched op.  Vector-annotated ops fire on ``k % width
== 0`` of one execution counter per call-free stretch of a block (its gated
instructions execute in lockstep).  Block-delta sentinels, the flush
threshold at block ends and the flush before calls keep the positions they
have in the reference stream.  The preemption fuel is checked at block
ends, so ``run`` and ``run_yielding`` share one generator form.  Tallies
live in locals and fold into the engine's stats at yields, before internal
calls and at frame exit.

Generated code is cached per process, keyed by function, target,
``block_delta`` and machine/no-machine; :func:`bind` gives each engine its
own pending lists, memory, deltas and counters through the cached factory.
"""

from __future__ import annotations

import math
import re
import struct
import time
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.analysis.blockdelta import split_block
from repro.compiler.analysis.dominators import DominatorTree
from repro.compiler.analysis.loops import LoopInfo
from repro.compiler.ir.instructions import (
    Alloca, BinaryOp, Branch, Call, Cast, CompareOp, GetElementPtr, Instruction,
    Load, Phi, Ret, Select, Store,
)
from repro.compiler.ir.module import BasicBlock, Function
from repro.compiler.ir.types import FloatType, IntType, PointerType, Type
from repro.compiler.ir.values import Constant, UndefValue, Value
from repro.isa.machine_ops import MachineOp
from repro.vm import engine as _engine
from repro.vm.memory import Memory

# Value kinds: what the generated code knows about a local's Python value.
_WRAPPED, _INT, _FLOAT, _UNKNOWN = "w", "i", "f", "u"

_ICMP = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">",
         "sge": ">=", "ult": "<", "ule": "<=", "ugt": ">", "uge": ">="}
_FCMP = {"oeq": "==", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">="}
_ARITH = {"add": "+", "sub": "-", "mul": "*", "and": "&", "or": "|",
          "xor": "^", "fadd": "+", "fsub": "-", "fmul": "*"}
_FORMATS = {8: "<b", 16: "<h", 32: "<i", 64: "<q"}
_STRUCTS = {fmt: struct.Struct(fmt) for fmt in ("<b", "<h", "<i", "<q", "<f", "<d")}
_UNPACK = {fmt: packer.unpack_from for fmt, packer in _STRUCTS.items()}
_PACK = {fmt: packer.pack_into for fmt, packer in _STRUCTS.items()}

def _round_f32(value: float) -> float:
    """Round a double to f32 precision (raises on f32 overflow)."""
    return _STRUCTS["<f"].unpack(_STRUCTS["<f"].pack(value))[0]


#: Deepest chain of blocks inlined at their predecessor's edge (the
#: tokenizer caps indentation at 100 levels).
_MAX_INLINE_DEPTH = 48

#: Function -> {(target, block_delta, accounting, entry pc): _Compiled}.
_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class _Compiled:
    """One cached compilation: the closure factory and what binding needs."""

    factory: Callable
    consts: tuple
    #: Per-engine bindings in factory order: ``("delta", block index)``,
    #: ``("callee", block index, instruction index)`` or ``("value", name)``.
    plan: tuple
    #: Block index -> op count of the BlockDelta the block retires through.
    deltas: Dict[int, int]
    counters: int
    filename: str
    #: Local name -> IR value name, for use-before-definition errors.
    names: Dict[str, str]


def _wrap(expr: str, bits: int) -> str:
    if bits == 1:
        return f"({expr}) & 1"
    half = 1 << (bits - 1)
    return f"(({expr}) + {half} & {(1 << bits) - 1}) - {half}"


def _format(type_: Type) -> Optional[str]:
    """The struct format of a loadable type (None for i1, a single byte)."""
    if isinstance(type_, IntType):
        return _FORMATS.get(type_.bits)
    if isinstance(type_, FloatType):
        return "<f" if type_.bits == 32 else "<d"
    return "<q" if isinstance(type_, PointerType) else None


class _Segment:
    """A call-free stretch of a block being emitted."""

    def __init__(self, suppress: bool):
        self.lines: List[str] = []
        self.run: List[Tuple[int, tuple]] = []   # unemitted (width, ops) items
        self.count = 0                           # IR instructions executed
        self.static_ops = 0                      # ungated ops retired
        self.counter: Optional[int] = None       # vector counter index
        self.suppress = suppress                 # a block-delta block


class _Compiler:
    """Builds the source of one function's executor."""

    def __init__(self, engine, function: Function, deltas: Dict[BasicBlock, object]):
        self.engine = engine
        self.function = function
        self.accounting = engine.machine is not None
        self.deltas = deltas
        self.consts: List[object] = []
        self.const_names: Dict[int, str] = {}
        self.plan: List[tuple] = []
        self.names: Dict[str, str] = {}
        self.counters = 0
        self.inlined: set = set()
        self.index = {block: i for i, block in enumerate(function.blocks)}
        self.split = {block: (block.phis(),) + split_block(block)
                      for block in function.blocks}
        # The CFG as the executor runs it: edges of each block's first terminator.
        self.preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in function.blocks}
        self.reachable, stack = set(), [function.entry_block]
        while stack:
            block = stack.pop()
            if block not in self.reachable:
                self.reachable.add(block)
                terminator = self.split[block][2]
                for succ in terminator.successors() if terminator is not None else ():
                    self.preds.setdefault(succ, []).append(block)
                    stack.append(succ)
        self.domtree = DominatorTree(function)
        self.local: Dict[Value, str] = {arg: f"a{i}" for i, arg in enumerate(function.args)}
        self.position: Dict[Value, Tuple[BasicBlock, int]] = {}
        for block in function.blocks:
            for pos, inst in enumerate(block.instructions):
                name = self.local[inst] = f"v{len(self.position)}"
                self.position[inst] = (block, pos)
                self.names[name] = self.names["s" + name[1:]] = inst.name
        self.kinds: Dict[Value, str] = {}
        self._infer_kinds()
        # Allocas some load/store addresses directly: their accesses use the
        # stack offset computed at the alloca.
        self.direct = {inst.pointer for inst in self.position
                       if isinstance(inst, (Load, Store)) and isinstance(inst.pointer, Alloca)
                       and inst.pointer in self.position
                       and _format(inst.type if isinstance(inst, Load) else inst.value.type)}

    # -- names ---------------------------------------------------------------------------------

    def const(self, obj: object) -> str:
        key = id(obj)  # repro-lint: allow[no-id] -- dedupe key of objects the constant list keeps alive; never ordered or emitted
        if key not in self.const_names:
            self.const_names[key] = f"k{len(self.consts)}"
            self.consts.append(obj)
        return self.const_names[key]

    def bound(self, entry: tuple) -> str:
        if entry not in self.plan:
            self.plan.append(entry)
        return f"e{self.plan.index(entry)}"

    def expr(self, value: Optional[Value]) -> str:
        """The Python expression of *value* as the reference reads it."""
        if value is None:
            return "None"
        if isinstance(value, Constant):
            literal = value.value
            if isinstance(literal, int) and not isinstance(literal, bool) \
                    or isinstance(literal, float) and math.isfinite(literal):
                return f"({literal!r})"
            return self.const(literal)
        if isinstance(value, UndefValue):
            return "0"
        if isinstance(value, Function):
            return self.bound(("value", value.name))
        if value not in self.local:
            # A value of another function: never bound here, so a use raises
            # the reference interpreter's use-before-definition error.
            self.local[value] = f"x{len(self.names)}"
            self.names[self.local[value]] = value.name
        return self.local[value]

    # -- value kinds ---------------------------------------------------------------------------

    def kind(self, value: Optional[Value]) -> str:
        if isinstance(value, Constant):
            if isinstance(value.type, IntType):
                return _WRAPPED
            if isinstance(value.type, FloatType):
                return _FLOAT
            return _INT if isinstance(value.value, int) else _UNKNOWN
        if isinstance(value, UndefValue):
            return _WRAPPED if isinstance(value.type, IntType) else _UNKNOWN
        return self.kinds.get(value) or _UNKNOWN  # arguments, functions, None

    def _infer_kinds(self) -> None:
        """Kinds of every result, to a fixpoint: a value not yet given a kind
        is neutral in a phi or select meet (loop-carried phis)."""
        changed = True
        while changed:
            changed = False
            for inst in self.position:
                kind = self._result_kind(inst)
                if kind is not None and self.kinds.get(inst) != kind:
                    self.kinds[inst] = kind
                    changed = True

    def _meet(self, values: List[Value]) -> Optional[str]:
        known = {self.kinds.get(value) if value in self.position else self.kind(value)
                 for value in values} - {None}
        if len(known) <= 1:
            return known.pop() if known else None
        return _INT if known <= {_WRAPPED, _INT} else _UNKNOWN

    def _result_kind(self, inst: Instruction) -> Optional[str]:
        if isinstance(inst, BinaryOp):
            return _FLOAT if inst.is_float_op else _WRAPPED
        if isinstance(inst, CompareOp):
            return _WRAPPED
        if isinstance(inst, (Load, Alloca, GetElementPtr)):
            if isinstance(inst.type, FloatType):
                return _FLOAT
            return _WRAPPED if isinstance(inst.type, IntType) else _INT
        if isinstance(inst, Select):
            return self._meet([inst.true_value, inst.false_value])
        if isinstance(inst, Phi):
            block = self.position[inst][0]
            incoming = [inst.incoming_for(pred) for pred in self.preds[block]]
            if block is self.function.entry_block or not incoming or None in incoming:
                return _UNKNOWN                  # some entry edge assigns None
            return self._meet(incoming)
        if isinstance(inst, Cast):
            if inst.opcode in ("sext", "zext", "trunc", "fptosi"):
                return _WRAPPED
            if inst.opcode in ("fpext", "fptrunc", "sitofp"):
                return _FLOAT
            source = self.kind(inst.value)       # bitcast/inttoptr/ptrtoint
            if isinstance(inst.type, FloatType):
                return source if source == _FLOAT else _UNKNOWN
            return _INT if source in (_WRAPPED, _INT) else _UNKNOWN
        return _UNKNOWN

    def as_int(self, value: Value) -> str:
        return self.expr(value) if self.kind(value) in (_WRAPPED, _INT) \
            else f"int({self.expr(value)})"

    def as_float(self, value: Value) -> str:
        return self.expr(value) if self.kind(value) == _FLOAT \
            else f"float({self.expr(value)})"

    def risky(self, to_int: bool, *values: Value) -> bool:
        """True when the ``int()`` (or ``float()``) conversion of a value may
        raise: an unknown value, or a float (infinity, NaN) read as an int."""
        safe = (_WRAPPED, _INT) if to_int else (_WRAPPED, _INT, _FLOAT)
        return any(self.kind(value) not in safe for value in values)

    def defined_at(self, value: Optional[Value], block: BasicBlock, pos: int) -> bool:
        """True when *value* is certainly bound before index *pos* of *block*."""
        if not isinstance(value, Instruction):
            return True
        if value not in self.position:
            return False
        def_block, def_pos = self.position[value]
        if def_block is block:
            return isinstance(value, Phi) or def_pos < pos
        return self.domtree.strictly_dominates(def_block, block)

    # -- accounting ----------------------------------------------------------------------------

    def lowered(self, inst: Instruction, taken: bool = False) -> Tuple[int, tuple]:
        engine = self.engine
        width = engine._effective_vector_width(inst)
        pc = engine._pc_of.get(id(inst), 0)  # repro-lint: allow[no-id] -- per-engine pc map key; pcs come from a deterministic module walk, ids never order or escape
        return width, engine.target.lower_cached(inst, taken=taken, pc=pc,
                                                 vector_width=width)

    def account(self, seg: _Segment, inst: Instruction, taken: bool = False) -> None:
        """Queue *inst*'s address-free ops on the current run."""
        if not self.accounting or seg.suppress:
            return
        width, ops = self.lowered(inst, taken)
        if ops:
            self.gate(seg, width, len(ops))
            seg.run.append((width, ops))

    def gate(self, seg: _Segment, width: int, count: int) -> None:
        if not width:
            seg.static_ops += count
        elif seg.counter is None:
            seg.counter = self.counters
            self.counters += 1

    def run_lines(self, items: List[Tuple[int, tuple]], ind: str) -> List[str]:
        """Code retiring *items*: ungated ops always, gated ones on fire."""
        widths = {width for width, _ops in items if width}
        if len(widths) > 1:
            return [line for item in items for line in self.run_lines([item], ind)]
        always = tuple(op for width, ops in items if not width for op in ops)
        if not widths:
            return [f"{ind}pext({self.const(always)})"] if always else []
        width = widths.pop()
        fired = tuple(op for _width, ops in items for op in ops)
        fire = [f"{ind}    pext({self.const(fired)})",
                f"{ind}    m += {len(fired) - len(always)}"]
        if not always:
            return [f"{ind}if k % {width} == 0:"] + fire
        return [f"{ind}if k % {width}:", f"{ind}    pext({self.const(always)})",
                f"{ind}else:"] + fire

    def flush_run(self, seg: _Segment, ind: str) -> None:
        seg.lines += self.run_lines(seg.run, ind)
        seg.run = []

    def memory_account(self, seg: _Segment, inst: Instruction, address: str,
                       ind: str) -> None:
        """Retire a completed load/store with its effective address."""
        if not self.accounting or seg.suppress:
            return
        width, ops = self.lowered(inst)
        if not ops:
            return                               # register-promoted: nothing retires
        if len(ops) != 1 or not ops[0].is_memory:
            raise RuntimeError(f"unsupported lowering of {inst.opcode}: {ops}")
        template = ops[0]
        self.flush_run(seg, ind)                 # earlier ops retire first
        self.gate(seg, width, 1)
        inner = ind + "    " if width else ind
        if width:
            seg.lines.append(f"{ind}if k % {width} == 0:")
        # Built without __init__: the template was validated when lowered.
        seg.lines += [f"{inner}q = new(MO)",
                      f"{inner}q.__dict__.update({self.const(dict(template.__dict__))}, "
                      f"address={address})",
                      f"{inner}papp(q)"]
        if template.size_bytes > 0:
            seg.lines.append(f"{inner}mapp(({address}, {template.size_bytes}, "
                             f"{template.is_store}))")
        if width:
            seg.lines.append(f"{inner}m += 1")

    # -- instructions --------------------------------------------------------------------------

    def instruction(self, seg: _Segment, inst: Instruction, block: BasicBlock,
                    pos: int, ind: str) -> None:
        """Emit one non-call, non-terminator instruction and its accounting."""
        out: List[str] = []
        target = self.local[inst]
        unbound = not all(self.defined_at(op, block, pos) for op in inst.operands)
        if isinstance(inst, (Load, Store)):
            address = self.memory(inst, out, ind)
            if unbound or address is not None:
                self.flush_run(seg, ind)
            seg.lines += out
            self.memory_account(seg, inst, address or self.local[inst.pointer], ind)
            return
        if isinstance(inst, BinaryOp):
            raises = self.binary(inst, target, out, ind)
        elif isinstance(inst, CompareOp):
            raises = self.compare(inst, target, out, ind)
        elif isinstance(inst, Cast):
            raises = self.cast(inst, target, out, ind)
        elif isinstance(inst, GetElementPtr):
            scaled = f"{self.as_int(inst.index)} * {inst.element_bytes}"
            out.append(f"{ind}{target} = {self.as_int(inst.base)} + {scaled}")
            raises = self.risky(True, inst.base, inst.index)
        elif isinstance(inst, Select):
            out.append(f"{ind}{target} = {self.expr(inst.true_value)} if "
                       f"{self.expr(inst.condition)} else {self.expr(inst.false_value)}")
            raises = False
        elif isinstance(inst, Alloca):
            out.append(f"{ind}{target} = salloc({max(1, inst.allocated_bytes)})")
            if inst in self.direct:
                out.append(f"{ind}s{target[1:]} = {target} - {Memory.STACK_BASE}")
            raises = True                        # stack overflow
        else:
            out.append(f"{ind}raise RuntimeError("
                       f"{f'cannot execute instruction {inst.opcode}'!r})")
            raises = True
        if raises or unbound:
            self.flush_run(seg, ind)
        seg.lines += out
        self.account(seg, inst)

    def binary(self, inst: BinaryOp, target: str, out: List[str], ind: str) -> bool:
        opcode = inst.opcode
        if inst.is_float_op:
            a, b = self.as_float(inst.lhs), self.as_float(inst.rhs)
            raises = self.risky(False, inst.lhs, inst.rhs)
            if opcode in _ARITH:
                out.append(f"{ind}{target} = {a} {_ARITH[opcode]} {b}")
                return raises
            semantics = self.const(_engine._FLOAT_BINOPS[opcode])
            out += [f"{ind}t0 = {a}", f"{ind}t1 = {b}"]
            if opcode == "fdiv":
                out.append(f"{ind}{target} = t0 / t1 if t1 != 0.0 else {semantics}(t0, t1)")
                return raises
            out.append(f"{ind}{target} = {semantics}(t0, t1)")
            return True                          # frem: fmod of an infinity
        if not isinstance(inst.type, IntType):
            raise RuntimeError(f"integer binary op {opcode} on {inst.type}")
        bits = inst.type.bits
        a, b = self.as_int(inst.lhs), self.as_int(inst.rhs)
        wrapped = self.kind(inst.lhs) == self.kind(inst.rhs) == _WRAPPED
        if opcode in _engine._INT_DIVISION:
            semantics = self.const(_engine._INT_DIVISION[opcode])
            result = f"{semantics}({a}, {b}, {self.const(inst.type)})"
        elif opcode in _ARITH:
            result = f"{a} {_ARITH[opcode]} {b}"
            # Bitwise ops keep sign-extended in-range operands in range.
            if not (wrapped and opcode in ("and", "or", "xor")):
                result = _wrap(result, bits)
        else:
            if isinstance(inst.rhs, Constant):
                shift = str(int(inst.rhs.value) % bits)
            else:
                shift = f"({b} % {bits})"
            if opcode == "shl":
                result = _wrap(f"{a} << {shift}", bits)
            elif opcode == "lshr":
                result = _wrap(f"({a} & {(1 << bits) - 1}) >> {shift}", bits)
            else:
                result = f"{a} >> {shift}" if wrapped else _wrap(f"{a} >> {shift}", bits)
        out.append(f"{ind}{target} = {result}")
        return self.risky(True, inst.lhs, inst.rhs)

    def compare(self, inst: CompareOp, target: str, out: List[str], ind: str) -> bool:
        predicate = inst.predicate
        if inst.opcode == "fcmp":
            a, b = self.as_float(inst.lhs), self.as_float(inst.rhs)
            if predicate == "one":
                # Ordered-and-unequal: false whenever an operand is NaN.
                out += [f"{ind}t0 = {a}", f"{ind}t1 = {b}"]
                test = "t0 < t1 or t0 > t1"
            else:
                test = f"{a} {_FCMP[predicate]} {b}"
        else:
            a, b = self.as_int(inst.lhs), self.as_int(inst.rhs)
            if predicate.startswith("u"):
                bits = inst.lhs.type.bits if isinstance(inst.lhs.type, IntType) else 64
                a, b = f"({a} & {(1 << bits) - 1})", f"({b} & {(1 << bits) - 1})"
            test = f"{a} {_ICMP[predicate]} {b}"
        out.append(f"{ind}{target} = 1 if {test} else 0")
        return self.risky(inst.opcode == "icmp", inst.lhs, inst.rhs)

    def cast(self, inst: Cast, target: str, out: List[str], ind: str) -> bool:
        opcode, to_type, value = inst.opcode, inst.type, inst.value
        source, raises = self.expr(value), self.risky(opcode not in ("fpext", "fptrunc"), value)
        if opcode in ("sext", "zext", "trunc", "fptosi"):
            if not isinstance(to_type, IntType):
                raise RuntimeError(f"{opcode} to non-integer type {to_type}")
            widening = isinstance(value.type, IntType) and value.type.bits <= to_type.bits
            if opcode == "fptosi":
                source, raises = _wrap(f"int({source})", to_type.bits), True
            elif not (widening and self.kind(value) == _WRAPPED):
                source = _wrap(self.as_int(value), to_type.bits)
        elif opcode in ("fpext", "fptrunc") and isinstance(to_type, FloatType) \
                and to_type.bits == 32:
            source = f"{self.const(_round_f32)}({self.as_float(value)})"
            raises = True                        # f32 overflow
        elif opcode in ("fpext", "fptrunc"):
            source = self.as_float(value)
        elif opcode == "sitofp":
            source = f"float({self.as_int(value)})"
        elif opcode not in ("bitcast", "inttoptr", "ptrtoint"):
            raise RuntimeError(f"unhandled cast opcode {opcode}")
        else:
            raises = False
        out.append(f"{ind}{target} = {source}")
        return raises

    def memory(self, inst, out: List[str], ind: str) -> Optional[str]:
        """Emit a load/store; returns the address expression of an access
        that may raise (None for a stack-slot access that cannot)."""
        is_load = isinstance(inst, Load)
        type_ = inst.type if is_load else inst.value.type
        fmt = _format(type_)
        if fmt is None and not isinstance(type_, IntType):
            raise RuntimeError(f"cannot {inst.opcode} value of type {type_}")
        target, raw, value, raises = self.local[inst], "", "", False
        if not is_load:
            kind, raw = self.kind(inst.value), self.expr(inst.value)
            if isinstance(type_, IntType):
                value = raw if kind == _WRAPPED else _wrap(self.as_int(inst.value), type_.bits)
            elif isinstance(type_, FloatType):
                value = self.as_float(inst.value)
            else:
                value = self.as_int(inst.value)
            # An unknown value's conversion, an out-of-range int and an f32
            # pack overflow raise.
            raises = kind != _WRAPPED and not (kind == _FLOAT and fmt == "<d") \
                and not (kind == _INT and isinstance(type_, PointerType))
        if inst.pointer in self.direct and fmt is not None:
            slot = "s" + self.local[inst.pointer][1:]
            if is_load:
                out.append(f"{ind}{target} = {self.const(_UNPACK[fmt])}(stack, {slot})[0]")
            else:
                out.append(f"{ind}{self.const(_PACK[fmt])}(stack, {slot}, {value})")
            return self.local[inst.pointer] if raises else None
        address = self.as_int(inst.pointer)
        if not address.isidentifier():
            out.append(f"{ind}t0 = {address}")
            address = "t0"
        type_name = self.const(type_)
        fallback = f"{target} = load({address}, {type_name})" if is_load \
            else f"store({address}, {type_name}, {raw})"
        if fmt is None:                          # i1: the reference path
            out.append(f"{ind}{fallback}")
            return address
        access = f"{target} = {self.const(_UNPACK[fmt])}(heap, o)[0]" if is_load \
            else f"{self.const(_PACK[fmt])}(heap, o, {value})"
        out += [f"{ind}o = {address} - {Memory.HEAP_BASE}",
                f"{ind}if 0 <= o <= len(heap) - {struct.calcsize(fmt)}:", f"{ind}    {access}",
                f"{ind}else:", f"{ind}    {fallback}"]
        return address

    def call(self, seg: _Segment, inst: Call, block: BasicBlock, pos: int,
             ind: str) -> None:
        args = f"[{', '.join(self.expr(arg) for arg in inst.operands)}]"
        if not all(self.defined_at(arg, block, pos) for arg in inst.operands):
            # The reference evaluates the arguments before retiring the call.
            self.flush_run(seg, ind)
            seg.lines.append(f"{ind}t0 = {args}")
            args = "t0"
        self.account(seg, inst)
        self.flush_run(seg, ind)
        if self.accounting:
            seg.lines += [f"{ind}if pend:", f"{ind}    flush()"]
        result = "" if inst.type.is_void else f"{self.local[inst]} = "
        if _engine.callee_function(inst, self.function.parent) is not None:
            callee = self.bound(("callee", self.index[block], pos))
            seg.lines += [f"{ind}fold(n, m)", f"{ind}n = m = 0", f"{ind}F[0] = fuel",
                          f"{ind}{result}yield from call()({callee}, {args})",
                          f"{ind}fuel = F[0]"]
        else:
            name = inst.callee if isinstance(inst.callee, str) else inst.callee.name
            seg.lines.append(f"{ind}{result}ext()({name!r}, {args})")

    # -- blocks --------------------------------------------------------------------------------

    def boundary_lines(self, count: int, ind: str) -> List[str]:
        """Block end: spend fuel; ``boundary`` yields a spent quantum or
        flushes at the size threshold."""
        test = "fuel <= 0"
        if self.accounting:
            test += f" or len(pend) >= {self.engine._FLUSH_THRESHOLD}"
        return [f"{ind}fuel -= {count}", f"{ind}if {test}:",
                f"{ind}    fuel, n, m = yield from boundary(fuel, n, m)"]

    def transfer(self, block: BasicBlock, succ: BasicBlock, count: int, ind: str,
                 depth: int) -> List[str]:
        """Edge *block* -> *succ*: phis, block boundary, then *succ* inline
        (when this is its only predecessor edge) or a dispatch."""
        lines = self.boundary_lines(count, ind)
        phis = self.split[succ][0]
        if phis:
            lines.insert(0, f"{ind}{', '.join(self.local[p] for p in phis)} = "
                            f"{', '.join(self.expr(p.incoming_for(block)) for p in phis)}")
        if succ is not self.function.entry_block and self.preds[succ] == [block] \
                and depth < _MAX_INLINE_DEPTH:
            self.inlined.add(succ)
            return lines + self.block_lines(succ, ind, depth + 1)
        return lines + [f"{ind}b = {self.index[succ]}"]

    def close_segment(self, seg: _Segment, ind: str) -> List[str]:
        head = [f"{ind}n += {seg.count}"]
        if seg.static_ops:
            head.append(f"{ind}m += {seg.static_ops}")
        if seg.counter is not None:
            head += [f"{ind}k = vc[{seg.counter}] + 1", f"{ind}vc[{seg.counter}] = k"]
        return head + seg.lines

    def block_lines(self, block: BasicBlock, ind: str, depth: int) -> List[str]:
        phis, body, terminator = self.split[block]
        count = len(body) + (terminator is not None)
        delta = self.deltas.get(block)
        out: List[str] = []
        seg = _Segment(suppress=delta is not None)
        for phi in phis:
            self.account(seg, phi)
        for pos, inst in enumerate(block.instructions):
            if inst is terminator:
                break
            if isinstance(inst, Phi):
                continue
            seg.count += 1
            if isinstance(inst, Call):
                self.call(seg, inst, block, pos, ind)
                out += self.close_segment(seg, ind)
                seg = _Segment(suppress=delta is not None)
            else:
                self.instruction(seg, inst, block, pos, ind)
        if terminator is None:
            self.flush_run(seg, ind)
            message = (f"block {block.name} in @{self.function.name} fell through "
                       "without a terminator")
            seg.lines.append(f"{ind}raise RuntimeError({message!r})")
            return out + self.close_segment(seg, ind)
        seg.count += 1
        if delta is not None:
            seg.static_ops += delta.instructions
            sentinel = [f"{ind}papp({self.bound(('delta', self.index[block]))})"]
        else:
            sentinel = []
        if not isinstance(terminator, Branch):
            self.account(seg, terminator, taken=True)
            self.flush_run(seg, ind)
            seg.lines += sentinel
            if isinstance(terminator, Ret):
                seg.lines.append(f"{ind}return {self.expr(terminator.value)}")
            else:
                seg.lines += self.transfer(block, terminator.target, count, ind, depth)
            return out + self.close_segment(seg, ind)
        if not self.defined_at(terminator.condition, block,
                               block.instructions.index(terminator)):
            self.flush_run(seg, ind)
        arms = []
        for taken, succ in ((True, terminator.then_block), (False, terminator.else_block)):
            width, ops = self.lowered(terminator, taken) if self.accounting \
                and not seg.suppress else (0, ())
            if ops:
                self.gate(seg, width, 0)
            arms.append((succ, seg.run + [(width, ops)] if ops else seg.run,
                         0 if width else len(ops)))
        seg.run = []
        if arms[0][2] == arms[1][2]:
            seg.static_ops += arms[0][2]
        for (succ, items, static), head in zip(arms, (
                f"if {self.expr(terminator.condition)}:", "else:")):
            seg.lines.append(f"{ind}{head}")
            seg.lines += self.run_lines(items, ind + "    ")
            if arms[0][2] != arms[1][2]:
                seg.lines.append(f"{ind}    m += {static}")
            seg.lines += self.transfer(block, succ, count, ind + "    ", depth + 1)
        return out + self.close_segment(seg, ind)

    # -- function ------------------------------------------------------------------------------

    def source(self) -> str:
        function = self.function
        loops = LoopInfo(function, self.domtree)
        order = sorted(self.reachable,
                       key=lambda block: (-loops.loop_depth(block), self.index[block]))
        chain: List[str] = []
        for block in order:
            if block not in self.inlined:
                body = self.block_lines(block, " " * 20, 0)
                chain += [f"{' ' * 16}{'elif' if chain else 'if'} b == {self.index[block]}:"]
                chain += body
        env = ["papp", "pext", "mapp", "pend", "flush", "F", "fold", "boundary", "heap",
               "stack", "salloc", "load", "store", "call", "ext", "new", "MO", "vc",
               "unbound"] + [f"e{i}" for i in range(len(self.plan))]
        consts = "".join(f"k{i}, " for i in range(len(self.consts)))
        lines = ["def factory(K, E):", f"    {consts or '_ '}= K",
                 f"    {', '.join(env)}, = E",
                 f"    def run({', '.join(self.local[arg] for arg in function.args)}):",
                 "        if False:",
                 "            yield  # a generator even with no block boundary",
                 "        n = m = 0",
                 "        fuel = F[0]"]
        lines += [f"        {self.local[phi]} = None"
                  for phi in self.split[function.entry_block][0]]
        lines += [f"        b = {self.index[function.entry_block]}",
                  "        try:",
                  "            while True:"] + chain + [
                  "        except NameError as exc:",
                  "            error = unbound(exc)",
                  "            if error is None:",
                  "                raise",
                  "            raise error from None",
                  "        finally:",
                  "            F[0] = fuel",
                  "            fold(n, m)"] + [
                  "    return run"]
        return "\n".join(lines) + "\n"


def _tallies(engine, function_name: str):
    """``fold(n, m)`` adds an executor's local tallies to the engine's stats;
    ``boundary(fuel, n, m)`` handles a block end that spent the quantum
    (flush, fold, yield; returns the refilled fuel) or filled the pending
    buffer (flush).  Neither holds the engine itself (see
    :func:`~repro.vm.engine._batch_flusher`)."""
    stats, fuel_cell = engine.stats, engine._fuel
    per_function, flush = stats.per_function_instructions, engine._flush

    def fold(executed: int, retired: int) -> None:
        if executed:
            stats.ir_instructions += executed
            per_function[function_name] = per_function.get(function_name, 0) + executed
        stats.machine_ops += retired

    def boundary(fuel: int, executed: int, retired: int):
        flush()
        if fuel > 0:
            return fuel, executed, retired
        fold(executed, retired)
        yield
        return fuel_cell[0], 0, 0
    return fold, boundary


def _unbound_handler(filename: str, names: Dict[str, str], function_name: str):
    """Map a NameError raised in generated code to the reference's error."""
    def unbound(exc: NameError) -> Optional[RuntimeError]:
        tb = exc.__traceback__
        while tb is not None and tb.tb_next is not None:
            tb = tb.tb_next
        if tb is None or tb.tb_frame.f_code.co_filename != filename:
            return None
        match = re.search(r"'(\w+)'", str(exc))
        if match is None or match.group(1) not in names:
            return None
        return RuntimeError(f"value %{names[match.group(1)]} used before "
                            f"definition in @{function_name}")
    return unbound


def bind(engine, function: Function):
    """The generated executor of *function*, bound to *engine*'s state.

    Looks the closure factory up in the process cache, generating it on a
    miss, and calls it with this engine's pending lists, memory, deltas and
    vector counters.  Every lookup records a ``codegen`` span and
    ``repro_codegen_total{outcome}``; generation records
    ``repro_codegen_seconds``.
    """
    accounting = engine.machine is not None
    first = function.entry_block.instructions
    key = (engine.target if accounting else None, accounting and engine.block_delta,
           accounting, engine._pc_of.get(id(first[0]), 0) if first else 0)  # repro-lint: allow[no-id] -- per-engine pc map key; pcs come from a deterministic module walk, ids never order or escape
    per_function = _CACHE.setdefault(function, {})
    compiled = per_function.get(key)
    outcome = "miss" if compiled is None else "hit"
    with telemetry.span("codegen", cat="engine", function=function.name,
                        blocks=len(function.blocks), outcome=outcome):
        # Classified on every bind, as the engine's block-delta tallies and
        # its static-verdict cross-check expect.
        deltas = {}
        for block in function.blocks:
            body, terminator = split_block(block)
            delta = engine._classify_block_delta(block, body, terminator)
            if delta is not None:
                deltas[block] = delta
        counts = {function.blocks.index(block): delta.instructions
                  for block, delta in deltas.items()}
        if compiled is None:
            start = time.perf_counter()  # repro-lint: allow[wall-clock] -- telemetry only: codegen seconds never feed modelled time or outputs
            compiler = _Compiler(engine, function, deltas)
            filename = f"<codegen @{function.name}>"
            namespace: dict = {}
            exec(compile(compiler.source(), filename, "exec"), namespace)
            compiled = per_function[key] = _Compiled(
                namespace["factory"], tuple(compiler.consts), tuple(compiler.plan),
                counts, compiler.counters, filename, compiler.names)
            telemetry.REGISTRY.histogram(
                "repro_codegen_seconds", "Seconds generating one function's executor",
            ).observe(time.perf_counter() - start)  # repro-lint: allow[wall-clock] -- telemetry only: codegen seconds never feed modelled time or outputs
        elif counts != compiled.deltas:
            raise RuntimeError(f"block-delta classification of @{function.name} "
                               "changed since its executor was generated")
        telemetry.REGISTRY.counter(
            "repro_codegen_total", "Generated-executor cache lookups by outcome",
        ).inc(outcome=outcome)
    bindings = []
    for entry in compiled.plan:
        if entry[0] == "delta":
            bindings.append(deltas[function.blocks[entry[1]]])
        elif entry[0] == "callee":
            inst = function.blocks[entry[1]].instructions[entry[2]]
            bindings.append(_engine.callee_function(inst, function.parent))
        else:
            bindings.append(engine.module.get_function(entry[1]))
    pending, memory = engine._pending, engine.memory
    env = (pending.append, pending.extend, engine._pending_mem.append, pending,
           engine._flush, engine._fuel, *_tallies(engine, function.name),
           memory._heap, memory._stack, memory.stack_alloc, memory.load_typed,
           memory.store_typed, weakref.WeakMethod(engine._call_function_gen),
           weakref.WeakMethod(engine._dispatch_external),
           object.__new__, MachineOp, [0] * compiled.counters,
           _unbound_handler(compiled.filename, compiled.names, function.name),
           *bindings)
    return compiled.factory(compiled.consts, env)
