"""The central sequencer: high-level control flow over pipeline issues.

Paper §2: "A central sequencer provides high-level control flow" while DMA
engines pump the data and interrupts signal completions and conditions.  The
sequencer walks the program's control script, issuing pipeline images,
blocking on completion interrupts, and steering loops with the condition
interrupts (the residual convergence check of the Jacobi example).

This walk is the reference interpreter, the one way an
:class:`~repro.sim.machine.NSCMachine` runs.  The fast backend compiles
the same script into one fused schedule
(:mod:`repro.sim.progplan`, walked by
:class:`~repro.sim.batchplan.BatchProgramRun` over stacked storage)
and never reaches this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.codegen.generator import MachineProgram
from repro.obs import tracer as obs
from repro.diagram.program import (
    CacheSwap,
    ControlOp,
    ExecPipeline,
    Halt,
    LoopUntil,
    Repeat,
    SwapVars,
)
from repro.sim.pipeline_exec import PipelineResult, execute_image

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import NSCMachine


class SequencerError(Exception):
    """Control-flow fault at run time."""


@dataclass
class SequencerResult:
    """Aggregate outcome of one program run."""

    total_cycles: int = 0
    instructions_issued: int = 0
    loop_iterations: Dict[int, int] = field(default_factory=dict)
    pipeline_results: List[PipelineResult] = field(default_factory=list)
    halted: bool = False
    converged: Optional[bool] = None
    issue_trace: List[int] = field(default_factory=list)

    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.pipeline_results)

    def last_result_for(self, pipeline: int) -> Optional[PipelineResult]:
        for r in reversed(self.pipeline_results):
            if r.number == pipeline:
                return r
        return None


class Sequencer:
    """Executes a :class:`MachineProgram`'s control script on a machine,
    issuing one image at a time."""

    #: Safety bound on issue-trace retention (traces are for debugging).
    MAX_TRACE = 100_000

    def __init__(self, machine: "NSCMachine") -> None:
        self.machine = machine

    def run(
        self,
        program: MachineProgram,
        keep_outputs: bool = False,
        max_instructions: int = 1_000_000,
    ) -> SequencerResult:
        obs.count("tier.reference")
        obs.annotate("tier", "reference")
        result = SequencerResult()
        self._run_block(
            program, program.control, result, keep_outputs, max_instructions
        )
        self.machine.interrupts.drain()
        return result

    # ------------------------------------------------------------------
    def _run_block(
        self,
        program: MachineProgram,
        ops: Sequence[ControlOp],
        result: SequencerResult,
        keep_outputs: bool,
        max_instructions: int,
    ) -> None:
        for op in ops:
            if result.halted:
                return
            if isinstance(op, ExecPipeline):
                self._issue(program, op.pipeline, result, keep_outputs,
                            max_instructions)
            elif isinstance(op, Repeat):
                for _ in range(op.times):
                    if result.halted:
                        return
                    self._run_block(
                        program, op.body, result, keep_outputs, max_instructions
                    )
            elif isinstance(op, LoopUntil):
                self._loop_until(
                    program, op, result, keep_outputs, max_instructions
                )
            elif isinstance(op, SwapVars):
                cost = self.machine.swap_vars(op.a, op.b)
                result.total_cycles += cost
                self.machine.cycle = result.total_cycles
            elif isinstance(op, CacheSwap):
                for c in op.caches:
                    self.machine.caches[c].swap()
                result.total_cycles += 1
                self.machine.cycle = result.total_cycles
            elif isinstance(op, Halt):
                result.halted = True
                return
            else:  # pragma: no cover - defensive
                raise SequencerError(f"unknown control op {op!r}")

    def _issue(
        self,
        program: MachineProgram,
        index: int,
        result: SequencerResult,
        keep_outputs: bool,
        max_instructions: int,
    ) -> PipelineResult:
        if result.instructions_issued >= max_instructions:
            raise SequencerError(
                f"instruction budget of {max_instructions} exhausted "
                f"(runaway loop?)"
            )
        if not (0 <= index < len(program.images)):
            raise SequencerError(f"no pipeline {index} in this program")
        image = program.images[index]
        res = execute_image(image, self.machine, keep_outputs=keep_outputs)
        result.pipeline_results.append(res)
        result.instructions_issued += 1
        if len(result.issue_trace) < self.MAX_TRACE:
            result.issue_trace.append(index)
        result.total_cycles += res.cycles
        self.machine.cycle = result.total_cycles
        # block on the completion interrupt (and any condition interrupt)
        self.machine.interrupts.deliver_until(self.machine.cycle)
        return res

    def _loop_until(
        self,
        program: MachineProgram,
        op: LoopUntil,
        result: SequencerResult,
        keep_outputs: bool,
        max_instructions: int,
    ) -> None:
        key = op.condition_pipeline
        iterations = 0
        converged = False
        while iterations < op.max_iterations:
            self._run_block(
                program, op.body, result, keep_outputs, max_instructions
            )
            iterations += 1
            if result.halted:
                break
            last = result.last_result_for(key)
            if last is None:
                raise SequencerError(
                    f"LoopUntil watches pipeline {key}, which never executed "
                    f"in the loop body"
                )
            if last.condition_result is None:
                raise SequencerError(
                    f"pipeline {key} raised no condition interrupt"
                )
            if last.condition_result:
                converged = True
                break
        result.loop_iterations[key] = (
            result.loop_iterations.get(key, 0) + iterations
        )
        result.converged = converged


__all__ = ["Sequencer", "SequencerResult", "SequencerError"]
