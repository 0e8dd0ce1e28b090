"""DMA controllers: the independent engines that pump data through pipelines.

Paper §2: "independent DMA controllers associated with each memory and cache
plane pump data through the pipelines."  The Fig. 9 pop-up subwindow is the
visual interface to exactly this module: "the cache or memory plane number,
variable name or starting address, stride, etc. are specified."

A :class:`DMASpec` is the semantic record the editor stores for a memory or
cache connection; the microcode generator compiles it into a DMA program and
the simulator's :mod:`repro.sim.dma_engine` executes it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro._records import slotted_state
from repro.arch.params import NSCParameters
from repro.arch.switch import DeviceKind


class Direction(enum.Enum):
    READ = "read"    # device -> pipeline (a stream source)
    WRITE = "write"  # pipeline -> device (a stream sink)

    # members are singletons: hash by identity in C (see Opcode)
    __hash__ = object.__hash__


class DMASpecError(Exception):
    """An ill-formed DMA specification (bad plane, stride, addressing...)."""


@dataclass(frozen=True)
class DMASpec:
    """One DMA program: which device, which direction, and the address walk.

    Addressing is either symbolic (*variable* plus word *offset* into it) or
    absolute (*offset* from the start of the device).  *count* is the number
    of elements; ``None`` means "the pipeline's vector length", resolved at
    code-generation time.
    """

    device_kind: DeviceKind
    device: int
    direction: Direction
    variable: Optional[str] = None
    offset: int = 0
    stride: int = 1
    count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.device_kind not in (DeviceKind.MEMORY, DeviceKind.CACHE):
            raise DMASpecError(
                f"DMA programs apply to memory planes and caches, "
                f"not {self.device_kind.value}"
            )
        if self.device < 0:
            raise DMASpecError("device index must be non-negative")
        if self.stride == 0:
            raise DMASpecError("stride must be non-zero")
        if self.variable is None and self.offset < 0:
            raise DMASpecError("absolute offset must be non-negative")
        if self.count is not None and self.count < 0:
            raise DMASpecError("count must be non-negative")

    def validate_against(self, params: NSCParameters) -> None:
        """Device-range checks against a machine description."""
        if self.device_kind is DeviceKind.MEMORY:
            if self.device >= params.n_memory_planes:
                raise DMASpecError(
                    f"memory plane {self.device} out of range "
                    f"(machine has {params.n_memory_planes})"
                )
        else:
            if self.device >= params.n_caches:
                raise DMASpecError(
                    f"cache {self.device} out of range "
                    f"(machine has {params.n_caches})"
                )

    @property
    def is_symbolic(self) -> bool:
        return self.variable is not None

    def describe(self) -> str:
        where = (
            f"{self.variable}+{self.offset}" if self.is_symbolic else f"@{self.offset}"
        )
        return (
            f"{self.device_kind.value}[{self.device}] {self.direction.value} "
            f"{where} stride {self.stride}"
            + (f" count {self.count}" if self.count is not None else "")
        )


@slotted_state
@dataclass(frozen=True, slots=True)
class DMAProgram:
    """A fully resolved DMA program as loaded into a controller.

    Produced by the microcode generator once variables are bound and the
    vector length is known.
    """

    spec: DMASpec
    base_offset: int  # absolute word offset within the device
    count: int

    def cycles(self, params: NSCParameters) -> int:
        """Cost model: start-up plus one element per cycle."""
        startup = params.dma_startup_cycles + (
            params.memory_latency
            if self.spec.device_kind is DeviceKind.MEMORY
            else params.cache_latency
        )
        return startup + self.count


class DMAController:
    """One controller per memory plane / cache; holds the loaded program."""

    def __init__(self, device_kind: DeviceKind, device: int) -> None:
        self.device_kind = device_kind
        self.device = device
        self.program: Optional[DMAProgram] = None
        self.transfers_completed = 0
        self.words_moved = 0

    def load(self, program: DMAProgram) -> None:
        if (
            program.spec.device_kind is not self.device_kind
            or program.spec.device != self.device
        ):
            raise DMASpecError(
                f"program for {program.spec.device_kind.value}[{program.spec.device}] "
                f"loaded into controller {self.device_kind.value}[{self.device}]"
            )
        self.program = program

    def complete(self, words: int) -> None:
        self.transfers_completed += 1
        self.words_moved += words
        self.program = None


__all__ = [
    "Direction",
    "DMASpec",
    "DMASpecError",
    "DMAProgram",
    "DMAController",
]
