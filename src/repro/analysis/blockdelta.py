"""Static block-delta certification.

The execution engine's fast path retires whole basic blocks as one
precomputed :class:`~repro.cpu.core.BlockDelta` when every op the block
retires has a cost that is constant in the core configuration
(``ExecutionEngine._classify_block_delta``).  That eligibility test is a
*static* property of the lowered block -- nothing about it depends on run
state -- so this module proves it at compile time and attaches the verdict
to the IR, turning the runtime classifier into a cross-check.

``certify_module`` walks every defined function and records, per target
lowering configuration, a :class:`BlockVerdict` for each block in
``function.metadata[STATIC_DELTA_KEY]``.  The engine compares its runtime
decision against the stored verdict on every block it decodes and raises on
divergence (see ``vm/engine.py``), and the differential test suite asserts
agreement across all registry workloads x platforms.

The classifier mirrors the engine rule for rule, with one deliberate
difference: it lowers through the *uncached* ``target.lower(...)`` with a
neutral pc.  ``target.lower_cached`` memoizes per ``(taken, vector_width)``
with the pc baked into the cached ops, so certifying through it would
poison the engine's pc-bearing templates (branch predictor indexing is
derived from op pc).  Eligibility only depends on op class and count, never
on pc, so the uncached neutral-pc lowering decides identically.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.compiler.ir.instructions import (
    Branch,
    Call,
    Instruction,
    Jump,
    Phi,
    Ret,
)
from repro.compiler.ir.module import BasicBlock, Function, Module
from repro.compiler.targets.base import TargetLowering
from repro.compiler.transforms.vectorize import VECTOR_WIDTH_KEY

#: Function metadata key holding ``{target_key: {block_name: BlockVerdict}}``.
STATIC_DELTA_KEY = "mperf.static_block_delta"


@dataclass(frozen=True)
class BlockVerdict:
    """The static eligibility verdict for one basic block."""

    eligible: bool
    reason: str  # 'pure' | 'no-terminator' | 'conditional-branch' | 'call'
    #              | 'vector' | 'memory' | 'empty'


def target_key(target: TargetLowering) -> str:
    """The verdict-map key for one lowering configuration.

    March alone is not enough: two rv64gcv platforms with different VLEN
    have different ``vector_sp_lanes`` and can classify a vector-annotated
    block differently.
    """
    return f"{target.march}/v{target.vector_sp_lanes}"


def _effective_vector_width(inst: Instruction, target: TargetLowering) -> int:
    """Mirror of ``ExecutionEngine._effective_vector_width``."""
    annotated = inst.metadata.get(VECTOR_WIDTH_KEY, 0)
    if annotated and target.supports_vector:
        width = min(int(annotated), target.vector_sp_lanes)
        if width > 1:
            return width
    return 0


def split_block(block: BasicBlock):
    """The (body, terminator) pair as the engine's executors see the block.

    Phis are skipped (they lower to nothing; their accounting rides on the
    predecessor edge), and decoding stops at the first terminator --
    instructions after an early ``ret`` are dead and never retire.
    """
    body: List[Instruction] = []
    terminator: Optional[Instruction] = None
    for inst in block.instructions:
        if isinstance(inst, Phi):
            continue
        if isinstance(inst, (Branch, Jump, Ret)):
            terminator = inst
            break
        body.append(inst)
    return body, terminator


def classify_block(block: BasicBlock, target: TargetLowering) -> BlockVerdict:
    """Statically decide block-delta eligibility for one block.

    Rule-for-rule mirror of ``ExecutionEngine._classify_block_delta`` minus
    the run-state gates (machine present, ``block_delta`` enabled) that are
    properties of the run, not of the block.
    """
    body, terminator = split_block(block)
    if terminator is None:
        return BlockVerdict(False, "no-terminator")
    if isinstance(terminator, Branch):
        return BlockVerdict(False, "conditional-branch")
    ops = 0
    for inst in body:
        if isinstance(inst, Call):
            return BlockVerdict(False, "call")
        if _effective_vector_width(inst, target):
            return BlockVerdict(False, "vector")
        lowered = target.lower(inst, address=None, taken=False, pc=0)
        if any(op.is_memory for op in lowered):
            return BlockVerdict(False, "memory")
        ops += len(lowered)
    if _effective_vector_width(terminator, target):
        return BlockVerdict(False, "vector")
    ops += len(target.lower(terminator, address=None, taken=True, pc=0))
    if ops == 0:
        return BlockVerdict(False, "empty")
    return BlockVerdict(True, "pure")


def certify_function(function: Function,
                     target: TargetLowering) -> Dict[str, BlockVerdict]:
    """Classify every block of *function* and store the verdicts.

    Verdicts live under ``function.metadata[STATIC_DELTA_KEY]``, keyed by
    :func:`target_key` then block name.  Re-certifying for the same target
    overwrites (the module is immutable after the pipeline, so verdicts are
    stable anyway).
    """
    verdicts = {block.name: classify_block(block, target)
                for block in function.blocks}
    per_target = function.metadata.setdefault(STATIC_DELTA_KEY, {})
    per_target[target_key(target)] = verdicts
    return verdicts


def certify_module(module: Module, target: TargetLowering) -> None:
    """Attach static block-delta verdicts to every defined function."""
    for function in module.defined_functions():
        certify_function(function, target)


def certify_module_cached(module: Module, target: TargetLowering,
                          module_digest: Optional[str] = None,
                          store=None) -> None:
    """Certify *module*, serving the verdict maps from the disk store.

    Verdicts are a pure function of (module content, target lowering), so
    they are content-addressed by the module's digest (the compile cache's
    :func:`~repro.compiler.cache.module_cache_key`) plus :func:`target_key`.
    A stored map that fails to load, has an unexpected shape, or does not
    cover exactly this module's functions and blocks is ignored and the
    verdicts are recomputed -- the classifier is the source of truth; the
    store only skips re-deriving it.  Without a store (or a digest) this is
    plain :func:`certify_module`.
    """
    if store is None:
        from repro.cache.store import default_store
        store = default_store()
    if store is None or module_digest is None:
        certify_module(module, target)
        return
    from repro.cache.keys import cache_key
    key = cache_key("verdicts", {"module": module_digest,
                                 "target": target_key(target)})
    payload = store.get("verdicts", key)
    if payload is not None and _install_verdicts(module, target, payload):
        return
    certify_module(module, target)
    shipped = {function.name: verdicts_for(function, target)
               for function in module.defined_functions()}
    store.put("verdicts", key, pickle.dumps(shipped, protocol=4))


def _install_verdicts(module: Module, target: TargetLowering,
                      payload: bytes) -> bool:
    """Attach a shipped verdict map if it exactly covers *module*."""
    try:
        shipped = pickle.loads(payload)
    except Exception:
        return False
    if not isinstance(shipped, dict):
        return False
    functions = list(module.defined_functions())
    for function in functions:
        verdict_map = shipped.get(function.name)
        if not isinstance(verdict_map, dict):
            return False
        if set(verdict_map) != {block.name for block in function.blocks}:
            return False
        if not all(isinstance(verdict, BlockVerdict)
                   for verdict in verdict_map.values()):
            return False
    for function in functions:
        per_target = function.metadata.setdefault(STATIC_DELTA_KEY, {})
        per_target[target_key(target)] = dict(shipped[function.name])
    return True


def is_certified(module: Module, target: TargetLowering) -> bool:
    """Whether every defined function already carries verdicts for *target*."""
    return all(verdicts_for(function, target) is not None
               for function in module.defined_functions())


def verdicts_for(function: Function,
                 target: TargetLowering) -> Optional[Dict[str, BlockVerdict]]:
    """The stored verdict map for *function* under *target*, if certified."""
    per_target = function.metadata.get(STATIC_DELTA_KEY)
    if not isinstance(per_target, dict):
        return None
    return per_target.get(target_key(target))
