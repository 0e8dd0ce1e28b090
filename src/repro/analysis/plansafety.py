"""Plan safety, derived statically from the program alone.

Two runtime gates become provable-before-execution facts here:

- the fused engine's **non-finite exception screen**
  (:func:`screen_coverage`, which :class:`repro.sim.progplan.ImageKernel`
  takes its screened and folded units from) — which FU rows must be
  finiteness-tested directly, because no downstream consumer provably
  propagates their non-finite elements;
- the batch engine's **static declines**
  (:func:`repro.sim.batchplan.check_batchable`) — control-script shapes
  a slab refuses up front.

The propagation sets live *here* and the fused engine asks this module
for its screen, so the analyzer and the engine cannot disagree; the
cross-check tests additionally pin :func:`screen_coverage` against the
slots compiled kernels screen and :func:`fusion_eligibility` against
the executor's own answers on the compiled corpus.
"""

from __future__ import annotations

import math
from typing import FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from repro.arch.funcunit import Opcode
from repro.arch.switch import DeviceKind
from repro.codegen.generator import MachineProgram, PipelineImage, ResolvedInput
from repro.diagram.program import ExecPipeline, Halt, LoopUntil, Repeat

#: Elementwise opcodes through which a non-finite operand element always
#: yields a non-finite result element, via either input position
#: (IEEE: inf/nan survive add/sub/mul).
PROP_BOTH: FrozenSet[Opcode] = frozenset(
    {Opcode.FADD, Opcode.FSUB, Opcode.FMUL}
)

#: Same, but only through the ``a`` position (the ``b`` position is a
#: divisor/ignored/absent).
PROP_A: FrozenSet[Opcode] = frozenset({
    Opcode.FSCALE, Opcode.FADDC, Opcode.FNEG, Opcode.FABS,
    Opcode.PASS, Opcode.FDIV, Opcode.FSQRT,
})

#: Feedback opcodes whose running value latches non-finite inputs: the
#: sticky accumulators (FADD, FMUL) and MAXABS (|±inf| = inf wins, nan
#: propagates).  MIN/MAX variants can silently absorb an extreme of the
#: wrong sign, so they do not cover their input.
PROP_FEEDBACK: FrozenSet[Opcode] = frozenset(
    {Opcode.FADD, Opcode.FMUL, Opcode.MAXABS}
)

#: Feedback opcodes whose final stream element equals a whole-stream
#: reduction (exactly associative min/max families) — candidates for the
#: fused engine's reduce folding when nothing consumes the full stream.
REDUCIBLE_OPS: FrozenSet[Opcode] = frozenset(
    {Opcode.MAX, Opcode.MIN, Opcode.MAXABS, Opcode.MINABS}
)

#: Input kinds that read another unit's output stream.
_FU_KINDS = ("fu", "internal")


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
        if driver.kind is DeviceKind.FU:
            used.add(driver.device)
    return frozenset(used)


class ScreenReport(NamedTuple):
    """Which FU rows the fused exception screen must test directly.

    ``reduce_fus`` fold to a single reduction (never screened row-wise,
    their finite final value is always tested); ``covered_fus`` have a
    consumer that provably propagates non-finite elements downstream;
    ``checked_fus`` is everything else — the direct-screen set.
    """

    reduce_fus: FrozenSet[int]
    covered_fus: FrozenSet[int]
    checked_fus: FrozenSet[int]


def screen_coverage(image: PipelineImage) -> ScreenReport:
    """The fused engine's exception-screen planning for *image*.

    Computed from the :class:`PipelineImage` wiring alone — no plan
    compilation.  :class:`repro.sim.progplan.ImageKernel` folds
    ``reduce_fus`` to reductions and pins ``checked_fus`` to its leading
    row slots; the analysis test suite checks compiled kernels against
    this report.
    """
    consumed = consumed_fus(image)
    inputs = image.inputs
    reduce_fus = set()
    covered = set()
    for fu, (opcode, _constant) in image.fu_ops.items():
        # the reference interpreter's port resolution: a both-feedback
        # unit (an execution fault) reports as feedback on ``a`` here —
        # the hazard pass flags the conflict separately
        in_a = inputs.get((fu, "a"))
        in_b = inputs.get((fu, "b"))
        if in_a is not None and in_a.kind == "feedback":
            fb, data = in_a, in_b
        elif in_b is not None and in_b.kind == "feedback":
            fb, data = in_b, in_a
        else:
            fb = None
        if fb is not None:
            if (
                opcode in REDUCIBLE_OPS
                and fu not in consumed
                and fb.value is not None
                and math.isfinite(float(fb.value))
            ):
                reduce_fus.add(fu)
            # A skewed position never covers: the shift can push the
            # offending element out of the window (zero fill).
            if opcode in PROP_FEEDBACK and data is not None \
                    and data.kind in _FU_KINDS and data.skew == 0:
                covered.add(data.src_fu)
            continue
        if opcode in PROP_BOTH:
            positions: Tuple[Optional[ResolvedInput], ...] = (in_a, in_b)
        elif opcode in PROP_A:
            positions = (in_a,)
        else:
            continue
        for resolved in positions:
            if resolved is not None and resolved.kind in _FU_KINDS \
                    and resolved.skew == 0:
                covered.add(resolved.src_fu)

    return ScreenReport(
        frozenset(reduce_fus),
        frozenset(covered),
        frozenset(image.fu_ops.keys() - reduce_fus - covered),
    )


# ----------------------------------------------------------------------
# batch-fusion eligibility (static mirror of check_batchable)
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

    Message strings must match :func:`repro.sim.batchplan._scan_ops`
    verbatim — the cross-check test asserts equality against the
    executor's first decline.
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

    The static mirror of :func:`repro.sim.batchplan.check_batchable`,
    computed from the control script and image list alone — no plan
    compilation, no machine.  Unlike the executor (which raises on the
    first decline), this collects *every* reason, with the executor's
    first decline always listed first.
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
    "PROP_BOTH",
    "PROP_A",
    "PROP_FEEDBACK",
    "REDUCIBLE_OPS",
    "ScreenReport",
    "consumed_fus",
    "screen_coverage",
    "fusion_eligibility",
]
