"""Plan safety, derived statically from the program alone.

Two fused-engine decisions become provable-before-execution facts here:

- the fused engine's **reduce folding** (:func:`reduce_fus`, which
  :class:`repro.sim.progplan.ImageKernel` takes its folded units from) —
  which feedback units only ever deliver their final value, so one
  reduction replaces their element loop;
- the batch engine's **static declines** (:func:`fusion_eligibility`,
  which :func:`repro.sim.batchplan.check_batchable` asks for its first
  reason) — control-script shapes a slab refuses up front.

The engine asks this module for both, so the analyzer and the engine
cannot disagree; a cross-check test additionally pins :func:`reduce_fus`
against the units compiled kernels fold on the compiled corpus.
"""

from __future__ import annotations

import math
from typing import FrozenSet, List, Sequence, Tuple

from repro.arch.funcunit import Opcode
from repro.arch.switch import DeviceKind
from repro.codegen.generator import MachineProgram, PipelineImage
from repro.diagram.program import ExecPipeline, Halt, LoopUntil, Repeat

#: Feedback opcodes whose final stream element equals a whole-stream
#: reduction (exactly associative min/max families) — candidates for the
#: fused engine's reduce folding when nothing consumes the full stream.
REDUCIBLE_OPS: FrozenSet[Opcode] = frozenset(
    {Opcode.MAX, Opcode.MIN, Opcode.MAXABS, Opcode.MINABS}
)

#: Input kinds that read another unit's output stream.
_FU_KINDS = ("fu", "internal")
#: the enum member, looked up once (a class attribute read is slow)
_FU = DeviceKind.FU


def consumed_fus(image: PipelineImage) -> FrozenSet[int]:
    """Units whose output stream another unit or a write-back consumes.

    Operand inputs of kind ``fu``/``internal`` — every wired port,
    including a ``b`` input a one-operand unit ignores — plus FU-driven
    write programs.  A consumed feedback unit never folds to a
    reduction.
    """
    used = {resolved.src_fu for resolved in image.inputs.values()
            if resolved.kind in _FU_KINDS}
    for driver, _sink, _prog in image.write_programs:
        if driver.kind is _FU:
            used.add(driver.device)
    return frozenset(used)


def reduce_fus(image: PipelineImage) -> FrozenSet[int]:
    """The feedback units of *image* the fused engine folds to a single
    reduction: a :data:`REDUCIBLE_OPS` unit with a finite seed whose
    stream nothing consumes (only its final value, the condition's, is
    ever read).

    Computed from the :class:`PipelineImage` wiring alone — no plan
    compilation; the analysis test suite checks compiled kernels against
    it.
    """
    consumed = consumed_fus(image)
    inputs = image.inputs
    folded = set()
    for fu, (opcode, _constant) in image.fu_ops.items():
        if opcode not in REDUCIBLE_OPS or fu in consumed:
            continue
        # the reference interpreter's port resolution: a both-feedback
        # unit (an execution fault) reports as feedback on ``a`` here —
        # the hazard pass flags the conflict separately
        in_a = inputs.get((fu, "a"))
        fb = in_a if in_a is not None and in_a.kind == "feedback" \
            else inputs.get((fu, "b"))
        if fb is not None and fb.kind == "feedback" \
                and fb.value is not None and math.isfinite(float(fb.value)):
            folded.add(fu)
    return frozenset(folded)


# ----------------------------------------------------------------------
# batch-fusion eligibility (the rulebook check_batchable raises from)
# ----------------------------------------------------------------------
def _body_watches(
    images: Sequence[PipelineImage], ops: Tuple[object, ...], key: int
) -> bool:
    """Does this loop body issue pipeline number *key* with a condition?"""
    for op in ops:
        if isinstance(op, ExecPipeline):
            index = op.pipeline
            if 0 <= index < len(images):
                image = images[index]
                if image.number == key and image.condition is not None:
                    return True
        elif isinstance(op, Repeat):
            if _body_watches(images, op.body, key):
                return True
    return False


def _scan_control(
    images: Sequence[PipelineImage],
    ops: Tuple[object, ...],
    in_loop: bool,
    reasons: List[str],
) -> None:
    """Collect every static batch decline in *ops* (executor order).

    The executor raises the first of them
    (:func:`repro.sim.batchplan.check_batchable`).
    """
    for op in ops:
        if isinstance(op, ExecPipeline):
            if not (0 <= op.pipeline < len(images)):
                reasons.append("invalid pipeline issue in script")
        elif isinstance(op, Halt):
            if in_loop:
                reasons.append("Halt inside LoopUntil body")
        elif isinstance(op, Repeat):
            _scan_control(images, op.body, in_loop, reasons)
        elif isinstance(op, LoopUntil):
            if in_loop:
                reasons.append("nested LoopUntil")
                continue
            if not _body_watches(images, op.body, op.condition_pipeline):
                reasons.append(
                    f"loop watch pipeline {op.condition_pipeline} "
                    "raises no condition"
                )
            _scan_control(images, op.body, True, reasons)


def fusion_eligibility(
    program: MachineProgram,
) -> Tuple[bool, Tuple[str, ...]]:
    """Can *program* run as a batch slab?  ``(eligible, decline reasons)``.

    The batch engine's rulebook, computed from the control script and
    image list alone — no plan compilation, no machine.  It collects
    *every* reason, in script order;
    :func:`repro.sim.batchplan.check_batchable` raises the first.
    """
    reasons: List[str] = []
    # MachineProgram.control is already the effective (resolved) script —
    # the generator stores ``VisualProgram.effective_control()``.
    _scan_control(program.images, tuple(program.control), False, reasons)
    ordered: List[str] = []
    for reason in reasons:
        if reason not in ordered:
            ordered.append(reason)
    return (not ordered, tuple(ordered))


__all__ = [
    "REDUCIBLE_OPS",
    "consumed_fus",
    "reduce_fus",
    "fusion_eligibility",
]
