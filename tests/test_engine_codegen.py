"""Differential suite: the generated executor vs. the reference interpreter.

``fast_dispatch=True`` runs each IR function as generated Python source
(:mod:`repro.vm.codegen`); ``fast_dispatch=False`` is the instruction-at-a-
time reference.  This suite pins down that the two are indistinguishable:

* every registry kernel on every platform, in counting, sampling and
  multiplexed mode, on one and two harts: the whole run export, the sample
  streams and the ``ScheduleTrace``;
* hand-built IR corner cases: unsigned division on negative
  representations, IEEE division by zero, ordered ``fcmp one`` with NaN,
  ``fptosi``, an i1 return value, external calls that read the clock, an
  f32 store overflow (same exception, same retired machine state), a use
  before definition (same error text), and ``run()`` while a
  ``run_yielding()`` generator is suspended.
"""

import pytest

from repro import telemetry
from repro.api import ProfileSpec, Session
from repro.api.workload import CompiledKernelWorkload
from repro.compiler.ir import F32, F64, I1, I32, I64, FunctionType, IRBuilder, Module
from repro.compiler.ir.types import pointer_to
from repro.compiler.targets import target_for_platform
from repro.cpu.events import HwEvent
from repro.miniperf.stat import DEFAULT_STAT_EVENTS
from repro.platforms import Machine, spacemit_x60
from repro.vm import ExecutionEngine, Memory
from repro.workloads import registry
from repro.workloads.parallel import ParallelWorkload

PLATFORMS = ("SpacemiT X60", "SiFive U74", "T-Head C910", "Intel Core i5-1135G7")

#: Differential sizes: small, but every loop still runs several vector
#: groups and several scheduler quanta.
SMALL_PARAMS = {
    "matmul-tiled": {"n": 8},
    "matmul-naive": {"n": 8},
    "dot-product": {"n": 200},
    "stream-triad": {"n": 200},
    "stencil3": {"n": 200},
    "memset": {"n": 300},
    "matmul-parallel": {"n": 8},
    "stream-triad-mt": {"n": 128},
    "forkjoin-calltree": {"scale": 1},
}

KERNELS = sorted(
    name for name in registry
    if isinstance(registry[name], (CompiledKernelWorkload, ParallelWorkload))
)

MODES = {
    "counting": ProfileSpec(analyses=("stat",), events=DEFAULT_STAT_EVENTS),
    "sampling": ProfileSpec(sample_period=500,
                            analyses=("hotspots", "flamegraph")),
    # More events than any platform has counters: the PMU rotates them.
    "multiplexed": ProfileSpec(analyses=("stat",), events=tuple(HwEvent)),
}


def _comparable(run) -> dict:
    payload = run.to_dict()
    payload.pop("spec")
    payload.pop("timings", None)
    return payload


def _samples(recording):
    return [(s.cpu, s.ip, s.time, s.period, s.event, tuple(s.callchain),
             dict(s.group_values)) for s in recording.samples]


def test_covers_every_compiled_registry_kernel():
    assert set(KERNELS) == set(SMALL_PARAMS)


@pytest.mark.parametrize("cpus", (1, 2))
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("name", KERNELS)
def test_registry_kernel_bit_identical(name, platform, mode, cpus):
    spec = MODES[mode].with_cpus(cpus)
    runs = [Session(platform).run(registry.create(name, **SMALL_PARAMS[name]),
                                  spec.replace(fast_dispatch=fast))
            for fast in (True, False)]
    generated, reference = runs
    assert generated.errors == reference.errors
    assert _comparable(generated) == _comparable(reference)
    if generated.recording is not None:
        assert _samples(generated.recording) == _samples(reference.recording)
    if generated.schedule is not None:
        assert generated.schedule.quanta == reference.schedule.quanta
        assert generated.schedule.threads_per_hart == \
            reference.schedule.threads_per_hart


# -- hand-built IR ---------------------------------------------------------------------------


def _both(module, function, args):
    """Run *function* functionally on both executors: [generated, reference]."""
    return [ExecutionEngine(module, fast_dispatch=fast).run(function, list(args))
            for fast in (True, False)]


def _binary_module(opcode, type_):
    module = Module("m")
    function = module.create_function("f", FunctionType(type_, [type_, type_]),
                                      ["a", "b"])
    builder = IRBuilder(function.add_block("entry"))
    builder.ret(builder.binary(opcode, function.args[0], function.args[1]))
    return module


@pytest.mark.parametrize("opcode", ["udiv", "urem", "sdiv", "srem", "lshr",
                                    "ashr", "shl"])
@pytest.mark.parametrize("type_", [I32, I64], ids=["i32", "i64"])
@pytest.mark.parametrize("a,b", [(-8, 3), (10, -1), (-1, 1), (7, 0),
                                 (-2 ** 31, -1), (5, 65)])
def test_integer_ops_on_negative_representations(opcode, type_, a, b):
    generated, reference = _both(_binary_module(opcode, type_), "f", [a, b])
    assert generated == reference
    assert type(generated) is int


@pytest.mark.parametrize("a,b", [(1.0, 0.0), (-1.0, 0.0), (0.0, 0.0),
                                 (float("nan"), 0.0), (1.0, -0.0),
                                 (3.0, 2.0)])
def test_fdiv_by_zero(a, b):
    generated, reference = _both(_binary_module("fdiv", F32), "f", [a, b])
    assert repr(generated) == repr(reference)


def test_fcmp_one_with_nan_and_i1_return_stays_int():
    module = Module("m")
    function = module.create_function("f", FunctionType(I1, [F64, F64]),
                                      ["a", "b"])
    builder = IRBuilder(function.add_block("entry"))
    builder.ret(builder.fcmp("one", function.args[0], function.args[1]))
    nan = float("nan")
    for args in ([nan, 1.0], [nan, nan], [1.0, 2.0], [1.0, 1.0]):
        generated, reference = _both(module, "f", args)
        assert generated == reference
        assert type(generated) is int and type(reference) is int


def test_fptosi_truncates_and_wraps():
    module = Module("m")
    function = module.create_function("f", FunctionType(I32, [F64]), ["x"])
    builder = IRBuilder(function.add_block("entry"))
    builder.ret(builder.cast("fptosi", function.args[0], I32))
    for value in (2.9, -2.9, 0.0, 3e9, -3e9):
        generated, reference = _both(module, "f", [value])
        assert generated == reference
    for bad in (float("inf"), float("nan")):
        errors = []
        for fast in (True, False):
            with pytest.raises((OverflowError, ValueError)) as excinfo:
                ExecutionEngine(module, fast_dispatch=fast).run("f", [bad])
            errors.append((type(excinfo.value), str(excinfo.value)))
        assert errors[0] == errors[1]


class _ClockReader:
    """An external handler that observes the machine clock at each call."""

    def __init__(self):
        self.machine = None
        self.seen = []

    def handles(self, name):
        return name == "read_clock"

    def call(self, name, args):
        self.seen.append(self.machine.clock())
        return len(self.seen)


def _clock_module():
    """A loop of adds with an external clock read every iteration."""
    module = Module("m")
    function = module.create_function("f", FunctionType(I64, [I64]), ["n"])
    module.declare_function("read_clock", FunctionType(I64, []))
    entry = function.add_block("entry")
    header = function.add_block("header")
    body = function.add_block("body")
    done = function.add_block("done")
    builder = IRBuilder(entry)
    builder.jmp(header)
    builder = IRBuilder(header)
    i = builder.phi(I64)
    acc = builder.phi(I64)
    builder.br(builder.icmp("slt", i, function.args[0]), body, done)
    builder = IRBuilder(body)
    tick = builder.call("read_clock", [], I64)
    next_acc = builder.binary("add", acc, tick)
    next_i = builder.binary("add", i, builder.const(I64, 1))
    builder.jmp(header)
    i.add_incoming(builder.const(I64, 0), entry)
    i.add_incoming(next_i, body)
    acc.add_incoming(builder.const(I64, 0), entry)
    acc.add_incoming(next_acc, body)
    IRBuilder(done).ret(acc)
    return module


def test_external_calls_see_the_same_clock():
    observed = []
    for fast in (True, False):
        machine = Machine(spacemit_x60())
        reader = _ClockReader()
        reader.machine = machine
        engine = ExecutionEngine(_clock_module(), machine,
                                 target_for_platform(machine.descriptor),
                                 external_handlers=[reader], fast_dispatch=fast)
        result = engine.run("f", [20])
        observed.append((result, reader.seen, machine.cycles,
                         machine.event_totals(), engine.stats))
    assert observed[0] == observed[1]
    assert len(observed[0][1]) == 20


def _f32_store_module():
    """Store a[0] = x * 2, then a[1] = x * y: the second can overflow f32."""
    module = Module("m")
    function = module.create_function(
        "f", FunctionType(F32, [pointer_to(F32), F64, F64]), ["a", "x", "y"])
    builder = IRBuilder(function.add_block("entry"))
    a, x, y = function.args
    small = builder.cast("fptrunc", x, F32)
    builder.store(small, builder.gep(a, builder.const(I64, 0)))
    big = builder.binary("fmul", x, y)
    wide = builder.cast("fpext", small, F64)
    sum_ = builder.binary("fadd", big, wide)
    builder.store(builder.cast("bitcast", sum_, F32),
                  builder.gep(a, builder.const(I64, 1)))
    builder.ret(small)
    return module


def test_f32_store_overflow_same_exception_and_retired_state():
    outcomes = []
    for fast in (True, False):
        machine = Machine(spacemit_x60())
        memory = Memory()
        array = memory.alloc_float_array([0.0, 0.0])
        engine = ExecutionEngine(_f32_store_module(), machine,
                                 target_for_platform(machine.descriptor),
                                 memory=memory, fast_dispatch=fast)
        with pytest.raises(OverflowError) as excinfo:
            engine.run("f", [array, 1.5, 1e300])
        outcomes.append((str(excinfo.value), machine.cycles,
                         machine.instructions, machine.event_totals(),
                         memory.read_float_array(array, 2)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][4] == [1.5, 0.0]


def test_use_before_definition_same_error_text():
    module = Module("m")
    function = module.create_function("f", FunctionType(I32, [I1]), ["c"])
    entry = function.add_block("entry")
    left = function.add_block("left")
    join = function.add_block("join")
    builder = IRBuilder(entry)
    builder.br(function.args[0], left, join)
    builder = IRBuilder(left)
    defined = builder.binary("add", builder.const(I32, 1),
                             builder.const(I32, 2))
    builder.jmp(join)
    builder = IRBuilder(join)
    builder.ret(builder.binary("mul", defined, builder.const(I32, 3)))
    assert _both(module, "f", [1]) == [9, 9]
    messages = []
    for fast in (True, False):
        with pytest.raises(RuntimeError) as excinfo:
            ExecutionEngine(module, fast_dispatch=fast).run("f", [0])
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    assert messages[0] == f"value %{defined.name} used before definition in @f"


def test_run_while_run_yielding_is_suspended():
    results = []
    for fast in (True, False):
        machine = Machine(spacemit_x60())
        reader = _ClockReader()
        reader.machine = machine
        engine = ExecutionEngine(_clock_module(), machine,
                                 target_for_platform(machine.descriptor),
                                 external_handlers=[reader], fast_dispatch=fast)
        suspended = engine.run_yielding("f", [40], quantum=7)
        next(suspended)
        inner = engine.run("f", [3])
        yields = sum(1 for _ in suspended)
        results.append((inner, yields, reader.seen, machine.cycles,
                        engine.stats))
    assert results[0] == results[1]


def test_codegen_cache_hits_on_a_second_engine_and_is_observable():
    module = _binary_module("add", I32)
    family = telemetry.REGISTRY.counter("repro_codegen_total")
    before = family.value(outcome="hit")
    assert ExecutionEngine(module).run("f", [1, 2]) == 3
    assert ExecutionEngine(module).run("f", [2, 2]) == 4
    assert family.value(outcome="hit") == before + 1
    mark = len(telemetry.TRACER.roots)
    telemetry.enable()
    try:
        ExecutionEngine(module).run("f", [3, 2])
        names = [span.name for span in telemetry.TRACER.roots[mark:]]
    finally:
        telemetry.disable()
        del telemetry.TRACER.roots[mark:]
    assert "codegen" in names
