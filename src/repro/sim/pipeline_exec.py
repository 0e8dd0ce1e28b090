"""Execution of one pipeline image: streams through the configured datapath.

The execution model follows the paper's machine description: DMA engines
pump vector streams from planes/caches through the switch network into the
functional units; results stream back out; the instruction completes when
the streams drain, raising a completion interrupt.  Compute and DMA overlap;
transfers contending for the same plane serialize (the §3 contention
problem), which is visible in the cycle count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

import numpy as np

from repro.arch.funcunit import OPCODES
from repro.arch.interrupts import InterruptKind
from repro.arch.shift_delay import shift_stream
from repro.arch.switch import DeviceKind, Endpoint
from repro.codegen.generator import PipelineImage, ResolvedInput
from repro.codegen.timing import instruction_cycles
from repro.sim.streams import (
    apply_skew,
    detect_exceptions,
    eval_feedback,
    eval_plain,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import NSCMachine


class ExecutionError(Exception):
    """The image is not executable against this machine state."""


@dataclass
class PipelineResult:
    """Outcome of one instruction issue."""

    number: int
    cycles: int
    compute_cycles: int
    dma_cycles: int
    flops: int
    vector_length: int
    active_fus: int
    condition_result: Optional[bool] = None
    condition_value: Optional[float] = None
    exceptions: List[str] = field(default_factory=list)
    fu_outputs: Dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def condition_fired(self) -> bool:
        return bool(self.condition_result)


def _gather_source_streams(
    image: PipelineImage, machine: "NSCMachine"
) -> Dict[Endpoint, np.ndarray]:
    """Run every read DMA program once; memoize by endpoint."""
    streams: Dict[Endpoint, np.ndarray] = {}
    for ep, prog in image.read_programs.items():
        streams[ep] = machine.dma.read_stream(prog)
    return streams


def _sd_tap_stream(
    image: PipelineImage,
    unit: int,
    tap: int,
    source_streams: Dict[Endpoint, np.ndarray],
) -> np.ndarray:
    feeder = image.sd_feeders.get(unit)
    if feeder is None:
        raise ExecutionError(f"shift/delay unit {unit} has no input stream")
    base = source_streams.get(feeder)
    if base is None:
        raise ExecutionError(
            f"shift/delay unit {unit} fed by {feeder}, which was not read"
        )
    shift = image.sd_shifts.get((unit, tap))
    if shift is None:
        raise ExecutionError(f"sd[{unit}].tap{tap} used but not configured")
    return shift_stream(base, shift)


def _operand(
    resolved: ResolvedInput,
    image: PipelineImage,
    outputs: Dict[int, np.ndarray],
    source_streams: Dict[Endpoint, np.ndarray],
    n: int,
) -> np.ndarray:
    if resolved.kind == "const":
        return np.full(n, resolved.value, dtype=np.float64)
    if resolved.kind in ("fu", "internal"):
        if resolved.src_fu not in outputs:
            raise ExecutionError(
                f"fu{resolved.src_fu} output needed before it was produced"
            )
        return apply_skew(outputs[resolved.src_fu], resolved.skew)
    if resolved.kind in ("mem", "cache"):
        ep = resolved.endpoint
        if ep is None or ep not in source_streams:
            raise ExecutionError(f"stream for {ep} was not read")
        return apply_skew(source_streams[ep], resolved.skew)
    if resolved.kind == "sd":
        ep = resolved.endpoint
        assert ep is not None
        tap = int(ep.port[3:])
        return apply_skew(
            _sd_tap_stream(image, ep.device, tap, source_streams),
            resolved.skew,
        )
    raise ExecutionError(f"unresolvable input kind {resolved.kind!r}")


def execute_image(
    image: PipelineImage,
    machine: "NSCMachine",
    keep_outputs: bool = False,
) -> PipelineResult:
    """Issue one instruction against *machine* and return its result."""
    n = image.vector_length
    machine.dma.begin_instruction()
    source_streams = _gather_source_streams(image, machine)

    outputs: Dict[int, np.ndarray] = {}
    exceptions: List[str] = []
    for fu in image.fu_order:
        opcode, constant = image.fu_ops[fu]
        info = OPCODES[opcode]
        in_a = image.inputs.get((fu, "a"))
        in_b = image.inputs.get((fu, "b"))

        fb_port: Optional[str] = None
        if in_a is not None and in_a.kind == "feedback":
            fb_port = "a"
        if in_b is not None and in_b.kind == "feedback":
            if fb_port is not None:
                raise ExecutionError(f"fu{fu}: both inputs are feedback loops")
            fb_port = "b"

        if fb_port is not None:
            other = in_b if fb_port == "a" else in_a
            fb = in_a if fb_port == "a" else in_b
            if other is None:
                raise ExecutionError(
                    f"fu{fu}: feedback loop with no data input"
                )
            x = _operand(other, image, outputs, source_streams, n)
            result = eval_feedback(opcode, x, fb_port, init=fb.value)
        else:
            if in_a is None:
                raise ExecutionError(f"fu{fu}: input a unconnected")
            a = _operand(in_a, image, outputs, source_streams, n)
            b = None
            if info.arity == 2:
                if in_b is None:
                    raise ExecutionError(f"fu{fu}: input b unconnected")
                b = _operand(in_b, image, outputs, source_streams, n)
            result = eval_plain(opcode, a, b, constant)
        outputs[fu] = result
        for flag in detect_exceptions(result):
            exceptions.append(f"fu{fu}:{flag}")
            kind = (
                InterruptKind.FP_OVERFLOW
                if flag == "overflow"
                else InterruptKind.FP_INVALID
            )
            machine.interrupts.post(kind, machine.cycle, source=f"fu{fu}")

    # write-back
    for driver, _sink, prog in image.write_programs:
        if driver.kind is DeviceKind.FU:
            values = outputs.get(driver.device)
            if values is None:
                raise ExecutionError(
                    f"write-back from fu{driver.device}, which produced nothing"
                )
        elif driver.kind is DeviceKind.SHIFT_DELAY:
            tap = int(driver.port[3:])
            values = _sd_tap_stream(image, driver.device, tap, source_streams)
        else:
            values = source_streams.get(driver)
            if values is None:
                raise ExecutionError(f"write-back from unread stream {driver}")
        machine.dma.write_stream(prog, values)

    # condition evaluation on the final stream element
    condition_result: Optional[bool] = None
    condition_value: Optional[float] = None
    if image.condition is not None:
        cond = image.condition
        stream = outputs.get(cond.fu)
        if stream is None or stream.size == 0:
            raise ExecutionError(
                f"condition watches fu{cond.fu}, which produced no stream"
            )
        condition_value = float(stream[-1])
        condition_result = cond.evaluate(condition_value)

    compute_cycles = image.total_cycles
    dma_cycles = machine.dma.instruction_dma_cycles()
    cycles = instruction_cycles(compute_cycles, dma_cycles, machine.node.params)

    machine.interrupts.post(
        InterruptKind.PIPELINE_COMPLETE,
        machine.cycle + cycles,
        source=f"pipeline{image.number}",
    )
    if condition_result is not None:
        machine.interrupts.post(
            InterruptKind.CONDITION_TRUE
            if condition_result
            else InterruptKind.CONDITION_FALSE,
            machine.cycle + cycles,
            source=f"pipeline{image.number}",
            payload=float(outputs[image.condition.fu][-1]),
        )

    return PipelineResult(
        number=image.number,
        cycles=cycles,
        compute_cycles=compute_cycles,
        dma_cycles=dma_cycles,
        flops=image.total_flops,
        vector_length=n,
        active_fus=len(image.fu_ops),
        condition_result=condition_result,
        condition_value=condition_value,
        exceptions=exceptions,
        fu_outputs=dict(outputs) if keep_outputs else {},
    )


__all__ = ["PipelineResult", "ExecutionError", "execute_image"]
