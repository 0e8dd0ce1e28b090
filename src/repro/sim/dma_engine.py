"""DMA execution: streaming plane/cache data into and out of pipelines.

Runtime counterpart of :mod:`repro.arch.dma`.  Symbolic programs are
re-resolved against the machine's *current* variable table at issue time, so
sequencer-level relocation (:class:`~repro.diagram.program.SwapVars` — the
paper's "relocate them between phases" workaround) affects subsequent
instructions without regenerating microcode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.arch.dma import DMAProgram, DMASpecError
from repro.arch.memsys import DoubleBufferedCache, PlaneMemory
from repro.arch.switch import DeviceKind
from repro.arch.params import NSCParameters


@dataclass
class DMAStats:
    transfers: int = 0
    words_read: int = 0
    words_written: int = 0
    busy_cycles: int = 0

    @property
    def words_moved(self) -> int:
        return self.words_read + self.words_written


class DMAEngine:
    """Executes DMA programs against one node's storage."""

    def __init__(
        self,
        params: NSCParameters,
        memory: PlaneMemory,
        caches: List[DoubleBufferedCache],
    ) -> None:
        self.params = params
        self.memory = memory
        self.caches = caches
        self.stats = DMAStats()
        #: per-device busy cycles this instruction, for contention accounting
        self.device_busy: Dict[tuple, int] = {}

    def _resolve_base(self, program: DMAProgram) -> int:
        spec = program.spec
        if spec.is_symbolic:
            var = self.memory.variables.get(spec.variable or "")
            if var is None:
                raise DMASpecError(
                    f"variable {spec.variable!r} is not loaded on this node"
                )
            return var.offset + spec.offset
        return program.base_offset

    def _charge(self, program: DMAProgram) -> None:
        cycles = program.cycles(self.params)
        self.stats.busy_cycles += cycles
        key = (program.spec.device_kind, program.spec.device)
        self.device_busy[key] = self.device_busy.get(key, 0) + cycles

    def read_stream(self, program: DMAProgram) -> np.ndarray:
        base = self._resolve_base(program)
        spec = program.spec
        if spec.device_kind is DeviceKind.MEMORY:
            data = self.memory.plane(spec.device).read(
                base, program.count, spec.stride
            )
        else:
            data = self.caches[spec.device].read_front(
                base, program.count, spec.stride
            )
        self.stats.transfers += 1
        self.stats.words_read += int(data.size)
        self._charge(program)
        return data

    def write_stream(self, program: DMAProgram, values: np.ndarray) -> None:
        base = self._resolve_base(program)
        spec = program.spec
        values = np.asarray(values, dtype=np.float64)
        if values.size > program.count:
            values = values[: program.count]
        if spec.device_kind is DeviceKind.MEMORY:
            self.memory.plane(spec.device).write(base, values, spec.stride)
        else:
            # double-buffer protocol: DMA fills the back buffer while the
            # pipeline sees the front; a sequencer CacheSwap exposes it
            self.caches[spec.device].load_back(values, base, spec.stride)
        self.stats.transfers += 1
        self.stats.words_written += int(values.size)
        self._charge(program)

    def begin_instruction(self) -> None:
        self.device_busy.clear()

    def instruction_dma_cycles(self) -> int:
        """Makespan of this instruction's DMA work: controllers run in
        parallel, transfers on the *same* device serialize."""
        return max(self.device_busy.values(), default=0)


__all__ = ["DMAEngine", "DMAStats"]
