"""Differential suite: static block-delta certification vs the engine.

``certify_module`` decides block-delta eligibility at compile time; the
engine re-derives the same property when it binds an executor and *raises* if the
two ever disagree (``ExecutionEngine._cross_check_static_delta``).  So
every run below is a differential test by construction:

* the registry sweep runs all 11 workloads on all 4 modelled platforms
  with the cross-check armed -- a divergence anywhere fails the run;
* direct-engine tests additionally assert the positive direction (every
  cached delta's block carries an ``eligible`` verdict, verdicts exist for
  every block of every executed function);
* property tests throw ~20 seeded random loop/branch kernels at the pair
  -- shapes no registry workload exercises.
"""

import random

import pytest

from repro.analysis.blockdelta import verdicts_for
from repro.api import ProfileSpec, Session
from repro.compiler.cache import compile_source_cached
from repro.compiler.targets import target_for_platform
from repro.platforms import Machine, all_platforms, platform_by_name, spacemit_x60
from repro.vm import ExecutionEngine, Memory
from repro.workloads import registry

PLATFORMS = [descriptor.name for descriptor in all_platforms()]

SMALL_PARAMS = {
    "sqlite3-like": {"scale": 1},
    "micro-calltree": {"scale": 1},
    "forkjoin-calltree": {"scale": 1},
    "matmul-tiled": {"n": 12},
    "matmul-naive": {"n": 12},
    "matmul-parallel": {"n": 12},
    "dot-product": {"n": 256},
    "stream-triad": {"n": 256},
    "stream-triad-mt": {"n": 256},
    "stencil3": {"n": 256},
    "memset": {"n": 256},
}

COUNTING_SPEC = ProfileSpec().counting()


# -- registry sweep (cross-check armed inside the engine) -------------------------------


@pytest.mark.parametrize("platform", PLATFORMS)
def test_all_registry_workloads_agree_with_engine(platform):
    """11 workloads x 4 platforms under the armed cross-check: any static
    verdict diverging from the runtime classifier raises mid-run."""
    session = Session(platform)
    for name in sorted(registry):
        workload = registry.create(name, **SMALL_PARAMS.get(name, {}))
        run = session.run(workload, COUNTING_SPEC)
        assert run.stat is not None and not run.errors, name


# -- direct engine: both directions, explicitly -----------------------------------------


def _run_engine(source: str, function: str, args_builder,
                platform: str = "SpacemiT X60"):
    descriptor = platform_by_name(platform)
    module = compile_source_cached(source, "static_delta.c", descriptor, True)
    target = target_for_platform(descriptor)
    machine = Machine(descriptor)
    task = machine.create_task("static-delta")
    memory = Memory()
    engine = ExecutionEngine(module, machine, target, task=task,
                             memory=memory, block_delta=True)
    result = engine.run(function, list(args_builder(memory)))
    return result, machine, module, target


TRIAD = """
void triad(float* a, float* b, float* c, float scalar, long n) {
  for (long i = 0; i < n; i++) {
    a[i] = b[i] + scalar * c[i];
  }
}
"""


def test_cached_deltas_all_have_eligible_verdicts():
    n = 64

    def args(memory):
        a = memory.alloc_float_array([0.0] * n)
        b = memory.alloc_float_array([1.0] * n)
        c = memory.alloc_float_array([2.0] * n)
        return [a, b, c, 3.0, n]

    _, machine, module, target = _run_engine(TRIAD, "triad", args)
    assert machine.block_deltas, "triad retired no block deltas"
    for block in machine.block_deltas:
        verdicts = verdicts_for(block.parent, target)
        assert verdicts is not None
        assert verdicts[block.name].eligible, block.name
    # Every defined function is certified, with one verdict per block.
    for function in module.defined_functions():
        verdicts = verdicts_for(function, target)
        assert verdicts is not None
        assert sorted(verdicts) == sorted(b.name for b in function.blocks)


def test_triad_verdict_reasons_name_the_disqualifier():
    descriptor = spacemit_x60()
    module = compile_source_cached(TRIAD, "static_delta.c", descriptor, True)
    target = target_for_platform(descriptor)
    verdicts = verdicts_for(module.get_function("triad"), target)
    reasons = {verdicts[name].reason for name in verdicts}
    # The loop body touches memory, the loop header branches conditionally,
    # and at least one block (entry or exit) is pure.
    assert "memory" in reasons or "vector" in reasons
    assert "conditional-branch" in reasons
    assert "pure" in reasons


def test_divergent_verdict_raises_at_runtime():
    """Corrupt a stored verdict and the engine's cross-check must name the
    block -- proof the differential is actually armed."""
    from repro.analysis.blockdelta import STATIC_DELTA_KEY, BlockVerdict

    descriptor = spacemit_x60()
    source = TRIAD.replace("triad", "triad_poison")
    module = compile_source_cached(source, "static_delta.c", descriptor, True)
    target = target_for_platform(descriptor)
    function = module.get_function("triad_poison")
    verdicts = dict(verdicts_for(function, target))
    flipped = {name: BlockVerdict(not v.eligible, "poisoned")
               for name, v in verdicts.items()}
    per_target = function.metadata[STATIC_DELTA_KEY]
    from repro.analysis.blockdelta import target_key
    original = per_target[target_key(target)]
    per_target[target_key(target)] = flipped
    try:
        machine = Machine(descriptor)
        task = machine.create_task("poison")
        engine = ExecutionEngine(module, machine, target, task=task,
                                 memory=Memory(), block_delta=True)
        memory = engine.memory
        n = 8
        a = memory.alloc_float_array([0.0] * n)
        b = memory.alloc_float_array([1.0] * n)
        c = memory.alloc_float_array([2.0] * n)
        with pytest.raises(RuntimeError, match="diverges"):
            engine.run("triad_poison", [a, b, c, 3.0, n])
    finally:
        per_target[target_key(target)] = original


# -- property tests: seeded random loop/branch kernels ----------------------------------


def _random_loop_source(seed: int) -> str:
    """A random scalar kernel: a counted loop whose body mixes float/int
    arithmetic with optional if-branches -- blocks of every eligibility
    class (pure jumps, conditional branches, promoted-slot arithmetic)."""
    rng = random.Random(seed)
    lines = []
    for index in range(rng.randint(2, 6)):
        op = rng.choice(["+", "-", "*"])
        lines.append(f"    acc = acc {op} t;")
        roll = rng.random()
        if roll < 0.4:
            bound = rng.choice(["4.0f", "64.0f", "1024.0f"])
            fix = rng.choice(["+", "-"])
            lines.append(f"    if (acc > {bound}) {{ acc = acc {fix} b; }}")
        elif roll < 0.6:
            lines.append(f"    k = k * 3 + {rng.randint(1, 5)};")
        if rng.random() < 0.3:
            lines.append("    t = t * 0.5f + 1.0f;")
    body = "\n".join(lines)
    return (
        "float kernel(float a, float b, long n) {\n"
        "  float acc = a;\n"
        "  float t = b;\n"
        "  long k = 1;\n"
        "  for (long i = 0; i < n; i++) {\n"
        f"{body}\n"
        "  }\n"
        "  return acc + t + (float)k;\n"
        "}\n"
    )


def _check_property(seed: int, platform: str):
    source = _random_loop_source(seed)
    # The run itself is the differential: the cross-check raises on any
    # static/runtime disagreement over every decoded block.
    _, machine, module, target = _run_engine(source, "kernel",
                                             lambda memory: [1.5, -0.75, 37],
                                             platform)
    function = module.get_function("kernel")
    verdicts = verdicts_for(function, target)
    assert verdicts is not None
    assert sorted(verdicts) == sorted(b.name for b in function.blocks)
    for block in machine.block_deltas:
        if block.parent is function:
            assert verdicts[block.name].eligible, (seed, block.name)


@pytest.mark.parametrize("seed", range(20))
def test_random_kernels_agree_on_x60(seed):
    _check_property(seed, "SpacemiT X60")


@pytest.mark.parametrize("platform",
                         [p for p in PLATFORMS if p != "SpacemiT X60"])
@pytest.mark.parametrize("seed", range(20, 26))
def test_random_kernels_agree_cross_platform(seed, platform):
    _check_property(seed, platform)
