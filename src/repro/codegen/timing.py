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
from typing import Dict, List, Optional, Tuple, Union

from repro.arch.params import NSCParameters
from repro.arch.switch import DeviceKind, Endpoint
from repro.checker.knowledge import MachineKnowledge
from repro.diagram.pipeline import DiagramView, InputModKind, PipelineDiagram

_FU = DeviceKind.FU
_MEMORY = DeviceKind.MEMORY
_CACHE = DeviceKind.CACHE


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

    @property
    def max_skew(self) -> int:
        return max((abs(s) for s in self.skew.values()), default=0)

    @property
    def is_aligned(self) -> bool:
        return self.max_skew == 0


def _source_start(ep: Endpoint, p: NSCParameters, view: DiagramView) -> int:
    """Cycle at which element 0 leaving *ep* reaches the other end of one
    switch traversal."""
    kind = ep.kind
    if kind is _MEMORY:
        return p.dma_startup_cycles + p.memory_latency + p.switch_latency
    if kind is _CACHE:
        return p.dma_startup_cycles + p.cache_latency + p.switch_latency
    if kind is DeviceKind.SHIFT_DELAY:
        feeder = view.sd_feeder.get(ep.device)
        if feeder is None:
            raise TimingError(f"shift/delay unit {ep.device} has no input stream")
        # feeder -> sd (one hop), sd transit, sd -> consumer (one hop)
        return (
            _source_start(feeder, p, view)
            + 1  # shift/delay transit
            + p.switch_latency
        )
    raise TimingError(f"cannot compute start time for {ep}")


def balance_pipeline(
    diagram: Union[PipelineDiagram, DiagramView],
    kb: MachineKnowledge,
    auto_balance: bool = True,
) -> TimingPlan:
    """Compute arrival times and (optionally) balancing delays.

    Reads the pipeline's frozen view (a live diagram is frozen here).
    With ``auto_balance=False`` the plan records the residual skew at every
    input instead of removing it — the ablation configuration.
    """
    view = diagram.freeze()
    p = kb.params
    hop = p.switch_latency
    order = view.topological_order()
    plan = TimingPlan(order=order)
    feeds = view.feeds
    delays = view.delays
    op_info = view.op_info
    raw_arrival = plan.raw_arrival
    auto_delay = plan.auto_delay
    skew = plan.skew
    fu_start = plan.fu_start
    fu_output = plan.fu_output

    for fu in order:
        arrivals: List[Tuple[str, int]] = []
        for port in ("a", "b"):
            key = (fu, port)
            feed = feeds.get(key)
            if feed is None:
                continue
            if type(feed) is Endpoint:
                if feed.kind is _FU:
                    if feed.device not in fu_output:
                        raise TimingError(
                            f"fu{feed.device} feeds fu{fu} but is not scheduled "
                            f"before it"
                        )
                    t = fu_output[feed.device] + hop
                else:
                    t = _source_start(feed, p, view)
            elif feed.kind is InputModKind.INTERNAL:
                # hardwired, no switch hop
                src_fu = view.fu_als[fu].first_fu + feed.src_slot
                if src_fu not in fu_output:
                    raise TimingError(
                        f"internal route source fu{src_fu} not yet scheduled "
                        f"(cycle in diagram?)"
                    )
                t = fu_output[src_fu]
            else:
                continue  # constant / feedback: always available
            if delays:
                t += delays.get(key, 0)
            arrivals.append((port, t))
            raw_arrival[key] = t

        if arrivals:
            t_fu = max(t for _port, t in arrivals)
            for port, t in arrivals:
                lag = t_fu - t
                if lag > 0 and auto_balance:
                    auto_delay[(fu, port)] = lag
                    skew[(fu, port)] = 0
                else:
                    skew[(fu, port)] = lag
        else:
            t_fu = 0
        fu_start[fu] = t_fu
        info = op_info.get(fu)
        if info is None:
            raise TimingError(f"fu{fu} has no operation assigned")
        fu_output[fu] = t_fu + int(getattr(p, info.latency_key))

    # fill time: when element 0 lands at the final sinks
    fill = 0
    for src, sink in view.pad_wires:
        if src.kind is _FU:
            if src.device not in fu_output:
                raise TimingError(
                    f"{src} writes to {sink} but fu{src.device} is not "
                    f"programmed"
                )
            t = fu_output[src.device] + hop
        else:
            t = _source_start(src, p, view)
        fill = max(fill, t)
    if fill == 0 and fu_output:
        fill = max(fu_output.values()) + hop
    plan.fill_cycles = fill
    return plan


def validate_delays_fit(
    diagram: Union[PipelineDiagram, DiagramView],
    plan: TimingPlan,
    kb: MachineKnowledge,
) -> List[str]:
    """Check that explicit + auto delays (plus constants) fit each register
    file; returns human-readable problems (empty list when fine)."""
    view = diagram.freeze()
    problems: List[str] = []
    limit = kb.regfile_words
    mod_words = view.mod_words
    delays = view.delays
    auto = plan.auto_delay
    for fu in view.active:
        words = mod_words.get(fu, 0)
        for key in ((fu, "a"), (fu, "b")):
            words += delays.get(key, 0) + auto.get(key, 0)
        if words > limit:
            problems.append(
                f"fu{fu}: {words} register-file words needed "
                f"(limit {limit}); the streams are too skewed to "
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
