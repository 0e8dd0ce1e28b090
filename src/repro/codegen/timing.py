"""Stream-timing analysis and automatic delay balancing.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.funcunit import OPCODES
from repro.arch.switch import DeviceKind, Endpoint, sd_in
from repro.checker.knowledge import MachineKnowledge
from repro.diagram.pipeline import InputModKind, PipelineDiagram


class TimingError(Exception):
    """Timing cannot be balanced (missing sources, capacity overflow...)."""


@dataclass
class TimingPlan:
    """The outcome of timing analysis for one pipeline."""

    #: element-0 arrival cycle at each FU input, after explicit user delays
    #: but before auto-balancing (None for constant/feedback inputs).
    raw_arrival: Dict[Tuple[int, str], Optional[int]] = field(default_factory=dict)
    #: auto-inserted balancing delay per FU input (cycles).
    auto_delay: Dict[Tuple[int, str], int] = field(default_factory=dict)
    #: cycle at which each FU consumes element 0 / emits its first result.
    fu_start: Dict[int, int] = field(default_factory=dict)
    fu_output: Dict[int, int] = field(default_factory=dict)
    #: residual element skew at each FU input (0 when balanced).
    skew: Dict[Tuple[int, str], int] = field(default_factory=dict)
    #: pipeline fill time: cycle at which the last sink sees element 0.
    fill_cycles: int = 0
    #: active FUs in the dataflow order they were scheduled in.
    order: List[int] = field(default_factory=list)

    def total_delay(self, fu: int, port: str, explicit: int = 0) -> int:
        return explicit + self.auto_delay.get((fu, port), 0)

    @property
    def max_skew(self) -> int:
        return max((abs(s) for s in self.skew.values()), default=0)

    @property
    def is_aligned(self) -> bool:
        return self.max_skew == 0


def _source_start(ep: Endpoint, kb: MachineKnowledge, diagram: PipelineDiagram,
                  switch_hops: int = 1) -> int:
    """Cycle at which element 0 leaving *ep* reaches the other end of one
    switch traversal."""
    p = kb.params
    if ep.kind is DeviceKind.MEMORY:
        return p.dma_startup_cycles + p.memory_latency + switch_hops * p.switch_latency
    if ep.kind is DeviceKind.CACHE:
        return p.dma_startup_cycles + p.cache_latency + switch_hops * p.switch_latency
    if ep.kind is DeviceKind.SHIFT_DELAY:
        feeder = diagram.driver_of(sd_in(ep.device))
        if feeder is None:
            raise TimingError(f"shift/delay unit {ep.device} has no input stream")
        # feeder -> sd (one hop), sd transit, sd -> consumer (one hop)
        return (
            _source_start(feeder, kb, diagram)
            + 1  # shift/delay transit
            + switch_hops * p.switch_latency
        )
    raise TimingError(f"cannot compute start time for {ep}")


def _fu_latency(fu: int, diagram: PipelineDiagram, kb: MachineKnowledge) -> int:
    assign = diagram.fu_ops.get(fu)
    if assign is None:
        raise TimingError(f"fu{fu} has no operation assigned")
    key = OPCODES[assign.opcode].latency_key
    return int(getattr(kb.params, key))


def balance_pipeline(
    diagram: PipelineDiagram,
    kb: MachineKnowledge,
    auto_balance: bool = True,
) -> TimingPlan:
    """Compute arrival times and (optionally) balancing delays.

    With ``auto_balance=False`` the plan records the residual skew at every
    input instead of removing it — the ablation configuration.
    """
    p = kb.params
    order = diagram.topological_order()
    plan = TimingPlan(order=order)

    for fu in order:
        arrivals: Dict[str, Optional[int]] = {}
        for port in ("a", "b"):
            src = diagram.input_source(fu, port)
            if src is None:
                arrivals[port] = None
                continue
            kind, payload = src
            if kind == "mod":
                mod = payload
                if mod.kind in (InputModKind.CONSTANT, InputModKind.FEEDBACK):
                    arrivals[port] = None  # always available
                    continue
                # INTERNAL: hardwired, no switch hop
                use = diagram.als_use_of_fu(fu)
                src_fu = use.first_fu + mod.src_slot  # type: ignore[union-attr]
                if src_fu not in plan.fu_output:
                    raise TimingError(
                        f"internal route source fu{src_fu} not yet scheduled "
                        f"(cycle in diagram?)"
                    )
                t = plan.fu_output[src_fu]
            else:
                ep: Endpoint = payload  # type: ignore[assignment]
                if ep.kind is DeviceKind.FU:
                    if ep.device not in plan.fu_output:
                        raise TimingError(
                            f"fu{ep.device} feeds fu{fu} but is not scheduled "
                            f"before it"
                        )
                    t = plan.fu_output[ep.device] + p.switch_latency
                else:
                    t = _source_start(ep, kb, diagram)
            t += diagram.delays.get((fu, port), 0)
            arrivals[port] = t
            plan.raw_arrival[(fu, port)] = t

        constrained = {k: v for k, v in arrivals.items() if v is not None}
        if constrained:
            t_fu = max(constrained.values())
            for port, t in constrained.items():
                lag = t_fu - t
                if lag > 0 and auto_balance:
                    plan.auto_delay[(fu, port)] = lag
                    plan.skew[(fu, port)] = 0
                else:
                    plan.skew[(fu, port)] = lag
        else:
            t_fu = 0
        plan.fu_start[fu] = t_fu
        plan.fu_output[fu] = t_fu + _fu_latency(fu, diagram, kb)

    # fill time: when element 0 lands at the final sinks
    fill = 0
    for src, sink in diagram.connections:
        if sink.kind in (DeviceKind.MEMORY, DeviceKind.CACHE):
            if src.kind is DeviceKind.FU:
                if src.device not in plan.fu_output:
                    raise TimingError(
                        f"{src} writes to {sink} but fu{src.device} is not "
                        f"programmed"
                    )
                t = plan.fu_output[src.device] + p.switch_latency
            else:
                t = _source_start(src, kb, diagram)
            fill = max(fill, t)
    if fill == 0 and plan.fu_output:
        fill = max(plan.fu_output.values()) + p.switch_latency
    plan.fill_cycles = fill
    return plan


def validate_delays_fit(
    diagram: PipelineDiagram, plan: TimingPlan, kb: MachineKnowledge
) -> List[str]:
    """Check that explicit + auto delays (plus constants) fit each register
    file; returns human-readable problems (empty list when fine)."""
    problems: List[str] = []
    for fu in diagram.active_fus():
        words = 0
        assign = diagram.fu_ops[fu]
        if OPCODES[assign.opcode].uses_constant:
            words += 1
        for port in ("a", "b"):
            mod = diagram.input_mods.get((fu, port))
            if mod is not None and mod.kind in (
                InputModKind.CONSTANT,
                InputModKind.FEEDBACK,
            ):
                words += 1
            words += plan.total_delay(fu, port, diagram.delays.get((fu, port), 0))
        if words > kb.regfile_words:
            problems.append(
                f"fu{fu}: {words} register-file words needed "
                f"(limit {kb.regfile_words}); the streams are too skewed to "
                f"balance with circular queues"
            )
    return problems


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
    "validate_delays_fit",
    "pipeline_cycles",
    "instruction_cycles",
]
