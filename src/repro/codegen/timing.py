"""Stream-timing model and automatic delay balancing.

Paper §5: "Timing delays, needed for proper alignment of vector streams, may
be introduced by routing input data into a circular queue in a register file
and then retrieving the value a number of clock cycles later."  The paper
leaves insertion to the programmer; our generator computes the skew between
the two operand streams at every functional unit and inserts the balancing
delays automatically (the DESIGN.md ablation disables this to show the
consequences — misaligned elements meeting at a unit).

Model: every stream source starts emitting element 0 at a start-up time
(memory/cache latency plus DMA start-up); each switch traversal costs one
cycle; each functional unit adds its operation latency; an explicit or
auto-inserted delay of *d* cycles adds *d*.  A unit combines element *i* of
both operands correctly only when both arrive at the same cycle.

The analysis itself runs inside the code generator's one walk per image
(:func:`repro.codegen.generator.walk_pipeline`): in dataflow order it
times each FU input, balances it, counts the unit's register-file words,
resolves the input and places its microword fields, so no port is
visited twice.  :func:`balance_pipeline` is that walk, and the
:class:`TimingPlan` it returns carries every per-port fact it derived.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.arch.params import NSCParameters
from repro.arch.switch import DeviceKind, Endpoint
from repro.checker.knowledge import MachineKnowledge
from repro.diagram.pipeline import DiagramView, PipelineDiagram

_MEMORY = DeviceKind.MEMORY
_CACHE = DeviceKind.CACHE
_SHIFT_DELAY = DeviceKind.SHIFT_DELAY


class TimingError(Exception):
    """Timing cannot be balanced (missing sources, capacity overflow...)."""


class TimingPlan(NamedTuple):
    """Everything one walk over a pipeline derives, port by port."""

    #: active FUs in the dataflow order they were scheduled in.
    order: List[int]
    #: auto-inserted balancing delay per FU input (cycles).
    auto_delay: Dict[Tuple[int, str], int]
    #: cycle at which each FU consumes element 0 / emits its first result.
    fu_start: Dict[int, int]
    fu_output: Dict[int, int]
    #: pipeline fill time: cycle at which the last sink sees element 0.
    fill_cycles: int
    #: each connected FU input's ``ResolvedInput`` (:mod:`.generator`);
    #: its skew is the residual element skew.
    inputs: Dict[Tuple[int, str], Any]
    #: one problem per unit whose register file overflows, in unit order.
    overfull: List[str]
    #: the units' microword fields (opcodes, constant selectors, input
    #: selectors, routing flags and delays), packed into the word's bits,
    unit_bits: int
    #: and the first of them that failed its check.
    field_error: Optional[Exception]

    @property
    def max_skew(self) -> int:
        return max((abs(ri.skew) for ri in self.inputs.values()), default=0)

    @property
    def is_aligned(self) -> bool:
        return self.max_skew == 0


def stream_starts(p: NSCParameters) -> Dict[DeviceKind, int]:
    """Cycle at which element 0 of a memory or cache stream reaches the
    other end of one switch traversal, by device kind."""
    dma = p.dma_startup_cycles + p.switch_latency
    return {_MEMORY: dma + p.memory_latency, _CACHE: dma + p.cache_latency}


def source_start(ep: Endpoint, starts: Dict[DeviceKind, int],
                 view: DiagramView, hop: int) -> int:
    """Cycle at which element 0 leaving *ep* reaches the other end of one
    switch traversal (*starts*: :func:`stream_starts`; *hop*: the switch
    latency)."""
    start = starts.get(ep.kind)
    if start is not None:
        return start
    if ep.kind is _SHIFT_DELAY:
        feeder = view.sd_feeder.get(ep.device)
        if feeder is None:
            raise TimingError(f"shift/delay unit {ep.device} has no input stream")
        # feeder -> sd (one hop), sd transit, sd -> consumer (one hop)
        return source_start(feeder, starts, view, hop) + 1 + hop
    raise TimingError(f"cannot compute start time for {ep}")


def balance_pipeline(
    diagram: Union[PipelineDiagram, DiagramView],
    kb: MachineKnowledge,
    auto_balance: bool = True,
) -> TimingPlan:
    """Compute arrival times and (optionally) balancing delays.

    Runs the generator's walk (imported here: its module imports this
    one) over the pipeline's frozen view; a live diagram is frozen here.
    With ``auto_balance=False`` the plan records the residual skew at
    every input instead of removing it — the ablation configuration.
    """
    from repro.codegen.generator import walk_pipeline
    from repro.codegen.microword import layout_for

    return walk_pipeline(
        diagram.freeze(), kb, layout_for(kb.params), auto_balance)


def pipeline_cycles(
    plan: TimingPlan, vector_length: int, kb: MachineKnowledge
) -> int:
    """Total cycles for one pipeline instruction: reconfiguration, fill,
    then one element per cycle."""
    return (
        kb.params.instruction_reconfig_cycles
        + plan.fill_cycles
        + max(vector_length - 1, 0)
        + 1
    )


def instruction_cycles(compute_cycles: int, dma_cycles: int, params) -> int:
    """Issue-to-completion makespan of one instruction.

    Reconfiguration is serial; after it, the remaining compute time and the
    instruction's DMA work overlap (the paper's compute/DMA concurrency), so
    the instruction completes when the slower of the two drains.  Both the
    per-stream reference interpreter and the vectorized fast path derive
    their cycle counts from this one formula, which is what keeps their
    timing bit-identical.
    """
    reconfig = params.instruction_reconfig_cycles
    return reconfig + max(compute_cycles - reconfig, dma_cycles)


__all__ = [
    "TimingPlan",
    "TimingError",
    "balance_pipeline",
    "pipeline_cycles",
    "instruction_cycles",
]
