"""NSCMachine: one simulated node, ready to load and run machine programs.

Brings together plane memory, double-buffered caches, shift/delay units,
DMA engines, the interrupt controller, and the sequencer.  The typical
session::

    node = NodeConfig()
    machine = NSCMachine(node)
    machine.load_program(machine_program)     # from MicrocodeGenerator
    machine.set_variable("u", initial_grid)
    result = machine.run()
    metrics = machine.metrics(result)

A machine runs the reference interpreter: the sequencer steps its
control script one issue at a time, so everything a stepped node shows —
per-issue ``fu_outputs``, the issue trace, interrupt handlers, armed
sets — is observable here, and the parity tests use it as the oracle.
The fast backend runs jobs on the fused engine over stacked storage,
with no machine behind them (:func:`repro.service.slab.run_slab`; the
matrix of engines and fallbacks is in ``docs/BACKENDS.md``).  For
running many jobs as cacheable batch jobs, see :mod:`repro.service` and
``docs/SERVICE.md``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.arch.memsys import DoubleBufferedCache, PlaneMemory
from repro.arch.interrupts import InterruptController
from repro.arch.node import NodeConfig
from repro.arch.shift_delay import ShiftDelayUnit, make_units
from repro.codegen.generator import MachineProgram
from repro.sim.dma_engine import DMAEngine
from repro.sim.metrics import RunMetrics, collect_metrics
from repro.sim.sequencer import Sequencer, SequencerResult


class MachineError(Exception):
    """Machine misuse: running without a program, unknown variable..."""


class NSCMachine:
    """A simulated NSC node, run by the reference interpreter."""

    def __init__(self, node: Optional[NodeConfig] = None) -> None:
        self.node = node if node is not None else NodeConfig()
        params = self.node.params
        self.memory = PlaneMemory(params)
        self.caches: List[DoubleBufferedCache] = [
            DoubleBufferedCache(i, params.cache_buffer_words)
            for i in range(params.n_caches)
        ]
        self.sd_units: List[ShiftDelayUnit] = make_units(params)
        self.interrupts = InterruptController(params.interrupt_latency_cycles)
        self.dma = DMAEngine(params, self.memory, self.caches)
        self.cycle = 0
        self.program: Optional[MachineProgram] = None

    # ------------------------------------------------------------------
    # program loading
    # ------------------------------------------------------------------
    def load_program(self, program: MachineProgram) -> None:
        """Load microcode and allocate declared variables.

        Variable placement uses the same deterministic layout the code
        generator used (:func:`repro.codegen.generator.layout_variables`),
        so symbolic DMA addresses resolve to the right words.
        """
        self.program = program
        for name, decl in program.declarations.items():
            plane, offset = program.variable_layout[name]
            if name not in self.memory.variables:
                self.memory.declare(name, plane, decl.length, offset=offset)

    def reset(self) -> None:
        """Clear run state but keep loaded program and memory contents."""
        self.cycle = 0
        self.interrupts.reset()

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def set_variable(self, name: str, values: np.ndarray) -> None:
        flat = np.asarray(values, dtype=np.float64).reshape(-1)
        self.memory.write_var(name, flat)

    def get_variable(self, name: str) -> np.ndarray:
        return self.memory.read_var(name)

    def swap_vars(self, a: str, b: str) -> int:
        """Exchange the *contents* of two equal-length variables.

        The paper (§3) notes arrays sometimes must be "relocated between
        phases of the computation".  Pipelines are wired to fixed memory
        planes, so relocation cannot be a rename: it is a plane-to-plane
        DMA exchange.  Returns the cycle cost (the two transfers run on
        different planes and overlap)."""
        va = self.memory.lookup(a)
        vb = self.memory.lookup(b)
        if va.length != vb.length:
            raise MachineError(
                f"cannot swap {a!r} ({va.length} words) with {b!r} "
                f"({vb.length} words)"
            )
        data_a = self.memory.read_var(a)
        data_b = self.memory.read_var(b)
        self.memory.write_var(a, data_b)
        self.memory.write_var(b, data_a)
        params = self.node.params
        cost = params.dma_startup_cycles + params.memory_latency + va.length
        if va.plane == vb.plane:
            cost += va.length  # same-plane exchange serializes
        self.dma.stats.words_read += 2 * va.length
        self.dma.stats.words_written += 2 * va.length
        self.dma.stats.transfers += 2
        return cost

    def swap_caches(self, *cache_ids: int) -> None:
        """Flip the named caches' double buffers (hosts driving pipelines
        manually use this where a program would issue a CacheSwap)."""
        for cache_id in cache_ids:
            self.caches[cache_id].swap()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        program: Optional[MachineProgram] = None,
        keep_outputs: bool = False,
        max_instructions: int = 1_000_000,
    ) -> SequencerResult:
        """Run the loaded program (or load *program* first)."""
        if program is not None:
            self.load_program(program)
        if self.program is None:
            raise MachineError("no program loaded")
        self.reset()
        return Sequencer(self).run(
            self.program,
            keep_outputs=keep_outputs,
            max_instructions=max_instructions,
        )

    def metrics(self, result: SequencerResult) -> RunMetrics:
        return collect_metrics(self, result)

    def __repr__(self) -> str:
        loaded = self.program.name if self.program else "none"
        return f"NSCMachine({self.node!r}, program={loaded!r})"


__all__ = ["NSCMachine", "MachineError"]
