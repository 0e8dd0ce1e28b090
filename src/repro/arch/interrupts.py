"""The interrupt scheme: pipeline completion, conditions, and exceptions.

Paper §2: "An elaborate interrupt scheme is used to signal pipeline
completions, evaluate conditional expressions, and trap exceptions."  The
sequencer (see :mod:`repro.sim.sequencer`) blocks on completion interrupts
between instructions and uses condition interrupts to implement the
residual-convergence loop of the Jacobi example.
"""

from __future__ import annotations

import enum
import heapq
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional


class InterruptKind(enum.Enum):
    PIPELINE_COMPLETE = "pipeline_complete"  # a pipeline drained its streams
    CONDITION_TRUE = "condition_true"        # a monitored comparison fired
    CONDITION_FALSE = "condition_false"
    FP_OVERFLOW = "fp_overflow"
    FP_DIVIDE_BY_ZERO = "fp_divide_by_zero"
    FP_INVALID = "fp_invalid"
    DMA_FAULT = "dma_fault"

    # members are singletons: hash by identity in C (see Opcode)
    __hash__ = object.__hash__


#: The controller's construction-time armed set: completions and
#: conditions delivered, exceptions masked (recorded in ``dropped``).
DEFAULT_ARMED_KINDS: FrozenSet[InterruptKind] = frozenset(
    {
        InterruptKind.PIPELINE_COMPLETE,
        InterruptKind.CONDITION_TRUE,
        InterruptKind.CONDITION_FALSE,
    }
)


class Interrupt(NamedTuple):
    """One posted interrupt, ordered by the cycle at which it fires.

    Equality, order and hash read the cycle alone, so interrupts that
    fire together leave the queue in the order they were posted."""

    cycle: int
    kind: InterruptKind
    source: str = ""
    payload: float = 0.0

    def __eq__(self, other: object) -> bool:
        return type(other) is Interrupt and self.cycle == other.cycle

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __lt__(self, other: "Interrupt") -> bool:
        if type(other) is not Interrupt:
            return NotImplemented
        return self.cycle < other.cycle

    def __le__(self, other: "Interrupt") -> bool:
        if type(other) is not Interrupt:
            return NotImplemented
        return self.cycle <= other.cycle

    def __gt__(self, other: "Interrupt") -> bool:
        if type(other) is not Interrupt:
            return NotImplemented
        return self.cycle > other.cycle

    def __ge__(self, other: "Interrupt") -> bool:
        if type(other) is not Interrupt:
            return NotImplemented
        return self.cycle >= other.cycle

    def __hash__(self) -> int:
        return hash((self.cycle,))


class InterruptController:
    """Arms, queues, and delivers interrupts in cycle order.

    Only armed kinds are delivered; unarmed exceptions are recorded in
    ``dropped`` so tests can assert on masking behaviour.
    """

    def __init__(self, latency_cycles: int = 0) -> None:
        self.latency_cycles = latency_cycles
        self._armed: set[InterruptKind] = set(DEFAULT_ARMED_KINDS)
        self._queue: List[Interrupt] = []
        self._handlers: Dict[InterruptKind, Callable[[Interrupt], None]] = {}
        self.delivered: List[Interrupt] = []
        self.dropped: List[Interrupt] = []

    def arm(self, kind: InterruptKind) -> None:
        self._armed.add(kind)

    def disarm(self, kind: InterruptKind) -> None:
        self._armed.discard(kind)

    def is_armed(self, kind: InterruptKind) -> bool:
        return kind in self._armed

    def on(self, kind: InterruptKind, handler: Callable[[Interrupt], None]) -> None:
        """Register *handler* to run when *kind* is delivered."""
        self._handlers[kind] = handler

    def post(
        self,
        kind: InterruptKind,
        cycle: int,
        source: str = "",
        payload: float = 0.0,
    ) -> Optional[Interrupt]:
        """Post an interrupt to fire ``latency_cycles`` after *cycle*."""
        irq = Interrupt(
            cycle=cycle + self.latency_cycles,
            kind=kind,
            source=source,
            payload=payload,
        )
        if kind not in self._armed:
            self.dropped.append(irq)
            return None
        heapq.heappush(self._queue, irq)
        return irq

    def pending(self) -> int:
        return len(self._queue)

    def next_pending(self) -> Optional[Interrupt]:
        return self._queue[0] if self._queue else None

    def deliver_until(self, cycle: int) -> List[Interrupt]:
        """Deliver every queued interrupt with fire-cycle <= *cycle*."""
        out: List[Interrupt] = []
        while self._queue and self._queue[0].cycle <= cycle:
            irq = heapq.heappop(self._queue)
            handler = self._handlers.get(irq.kind)
            if handler is not None:
                handler(irq)
            self.delivered.append(irq)
            out.append(irq)
        return out

    def drain(self) -> List[Interrupt]:
        """Deliver everything regardless of cycle (end of program)."""
        out: List[Interrupt] = []
        while self._queue:
            irq = heapq.heappop(self._queue)
            handler = self._handlers.get(irq.kind)
            if handler is not None:
                handler(irq)
            self.delivered.append(irq)
            out.append(irq)
        return out

    def reset(self) -> None:
        self._queue.clear()
        self.delivered.clear()
        self.dropped.clear()


__all__ = [
    "InterruptKind",
    "Interrupt",
    "InterruptController",
    "DEFAULT_ARMED_KINDS",
]
