"""PipelineBuilder: programmatic construction of pipeline diagrams.

The builder performs the same steps a user performs in the graphical editor
— place ALSs, wire pads, fill in DMA pop-ups, program units — but driven by
an API.  It makes the greedy resource decisions a human makes at the screen:
pick the least-capable free unit that can do the job (don't burn the one
integer unit on an add), and use an ALS's hardwired internal route instead
of the switch network when the producing unit sits in the same ALS.
"""

from __future__ import annotations

import functools
from typing import (
    Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.arch.als import ALS_CLASSES, ALSInstance
from repro.arch.dma import DMASpec, Direction
from repro.arch.funcunit import FUCapability, OPCODES, Opcode
from repro.arch.node import MACHINE_TABLES_SIZE, NodeConfig, node_config
from repro.arch.params import NSCParameters
from repro.arch.switch import (
    DeviceKind,
    Endpoint,
    cache_read,
    cache_write,
    fu_in,
    fu_out,
    mem_read,
    mem_write,
    sd_in,
    sd_tap,
)
from repro.diagram.pipeline import (
    ConditionSpec,
    InputMod,
    InputModKind,
    PipelineDiagram,
)
from repro.diagram.program import VisualProgram

# enum members, looked up once (a class attribute read of a member is slow)
_MEMORY = DeviceKind.MEMORY
_CACHE = DeviceKind.CACHE
_READ = Direction.READ
_WRITE = Direction.WRITE
_CONSTANT = InputModKind.CONSTANT
_FEEDBACK = InputModKind.FEEDBACK
_INTERNAL = InputModKind.INTERNAL


class BuilderError(Exception):
    """Resource exhaustion or inconsistent builder requests."""


class MemSource(NamedTuple):
    """A stream read from a memory plane (symbolic variable addressing)."""

    variable: str
    plane: int
    offset: int
    stride: int
    endpoint: Endpoint


class CacheSource(NamedTuple):
    cache: int
    offset: int
    stride: int
    endpoint: Endpoint


class TapSource(NamedTuple):
    unit: int
    tap: int
    shift: int
    endpoint: Endpoint


class FURef(NamedTuple):
    fu: int
    endpoint: Endpoint


class ConstOperand(NamedTuple):
    value: float


class FeedbackOperand(NamedTuple):
    init: float


Operand = Union[MemSource, CacheSource, TapSource, FURef, ConstOperand, FeedbackOperand]


#: Operations whose operands may be swapped to exploit a hardwired route.
COMMUTATIVE_OPS = {
    Opcode.FADD,
    Opcode.FMUL,
    Opcode.MAX,
    Opcode.MIN,
    Opcode.MAXABS,
    Opcode.MINABS,
    Opcode.IADD,
    Opcode.IMUL,
    Opcode.IAND,
    Opcode.IOR,
    Opcode.IXOR,
}


def _capability_richness(cap: FUCapability) -> int:
    return sum(
        1
        for flag in (FUCapability.FP, FUCapability.INT_LOGICAL, FUCapability.MINMAX)
        if flag in cap
    )


class _FUTable:
    """The allocator's view of one machine, shared per parameter set.

    Every fact the builder consults per placed unit is fixed by the
    parameters, so each is one lookup here:

    * ``als_of[fu]`` is the :class:`ALSInstance` holding unit *fu*;
    * ``routes`` holds ``(src_fu, dst_fu, port)`` for every hardwired
      route inside an ALS (the ``internal_routes_into`` facts of each
      placed ALS class, in global unit indices);
    * ``colocate[src][fu]`` counts the routes from unit *src* into unit
      *fu* (absent when zero);
    * ``ranked[capability]`` lists the units able to do an opcode's
      capability, least capable first, ties by index.
    """

    def __init__(self, node: NodeConfig) -> None:
        self.caps = [node.fu_capability(fu) for fu in range(node.n_fus)]
        self.richness = [_capability_richness(cap) for cap in self.caps]
        self.als_of: Tuple[ALSInstance, ...] = tuple(
            node.als_of_fu(fu) for fu in range(node.n_fus)
        )
        self.routes: FrozenSet[Tuple[int, int, str]] = frozenset(
            (als.first_fu + edge.src_slot, als.first_fu + edge.dst_slot,
             edge.dst_port)
            for als in node.als_instances
            for edge in ALS_CLASSES[als.kind].internal_edges
        )
        self.colocate: Dict[int, Dict[int, int]] = {}
        for src, dst, _port in self.routes:
            row = self.colocate.setdefault(src, {})
            row[dst] = row.get(dst, 0) + 1
        by_rank = sorted(range(node.n_fus), key=lambda fu: (self.richness[fu], fu))
        self.ranked: Dict[FUCapability, Tuple[int, ...]] = {
            need: tuple(fu for fu in by_rank if need in self.caps[fu])
            for need in {info.capability for info in OPCODES.values()}
        }


@functools.lru_cache(maxsize=MACHINE_TABLES_SIZE)
def _fu_table(params: NSCParameters) -> _FUTable:
    return _FUTable(node_config(params))


class PipelineBuilder:
    """Builds one :class:`PipelineDiagram` against a node and a program.

    The *program* supplies variable declarations (for symbolic DMA) and
    receives the finished diagram on :meth:`build`.
    """

    def __init__(
        self,
        node: NodeConfig,
        program: VisualProgram,
        label: str = "",
        vector_length: Optional[int] = None,
    ) -> None:
        self.node = node
        self.program = program
        self.diagram = PipelineDiagram(number=len(program.pipelines), label=label)
        self.diagram.vector_length = vector_length
        self._fu_table = _fu_table(node.params)
        self._used_fus: set[int] = set()
        self._used_sd_units: set[int] = set()
        self._next_tap: Dict[int, int] = {}
        self._mem_reads: Dict[int, MemSource] = {}  # plane -> source in use

    # ------------------------------------------------------------------
    # sources
    # ------------------------------------------------------------------
    def read_var(
        self, name: str, offset: int = 0, stride: int = 1,
        count: Optional[int] = None,
    ) -> MemSource:
        """Stream a declared variable in from its memory plane."""
        decl = self.program.declarations.get(name)
        if decl is None:
            raise BuilderError(f"variable {name!r} is not declared")
        plane = decl.plane
        existing = self._mem_reads.get(plane)
        if existing is not None:
            if (existing.variable, existing.offset, existing.stride) != (
                name, offset, stride,
            ):
                raise BuilderError(
                    f"memory plane {plane} read port already streams "
                    f"{existing.variable!r}; cannot also stream {name!r} in the "
                    f"same instruction"
                )
            return existing
        ep = mem_read(plane)
        self.diagram.set_dma(
            ep,
            DMASpec(
                device_kind=_MEMORY,
                device=plane,
                direction=_READ,
                variable=name,
                offset=offset,
                stride=stride,
                count=count,
            ),
        )
        src = MemSource(
            variable=name, plane=plane, offset=offset, stride=stride, endpoint=ep
        )
        self._mem_reads[plane] = src
        return src

    def read_cache(
        self, cache: int, offset: int = 0, stride: int = 1,
        count: Optional[int] = None,
    ) -> CacheSource:
        ep = cache_read(cache)
        if ep not in self.diagram.dma:
            self.diagram.set_dma(
                ep,
                DMASpec(
                    device_kind=_CACHE,
                    device=cache,
                    direction=_READ,
                    offset=offset,
                    stride=stride,
                    count=count,
                ),
            )
        return CacheSource(cache=cache, offset=offset, stride=stride, endpoint=ep)

    def constant(self, value: float) -> ConstOperand:
        return ConstOperand(value=value)

    def feedback(self, init: float = 0.0) -> FeedbackOperand:
        return FeedbackOperand(init=init)

    # ------------------------------------------------------------------
    # shift/delay
    # ------------------------------------------------------------------
    def through_sd(
        self, source: MemSource | CacheSource, shifts: Sequence[int],
        unit: Optional[int] = None,
    ) -> List[TapSource]:
        """Route *source* through a shift/delay unit; one tap per shift."""
        if unit is None:
            for candidate in range(self.node.params.n_shift_delay_units):
                if candidate not in self._used_sd_units:
                    unit = candidate
                    break
            else:
                raise BuilderError("no free shift/delay unit")
        if len(shifts) > self.node.params.shift_delay_taps:
            raise BuilderError(
                f"{len(shifts)} taps requested; unit has "
                f"{self.node.params.shift_delay_taps}"
            )
        self._used_sd_units.add(unit)
        self.diagram.connect(source.endpoint, sd_in(unit))
        taps: List[TapSource] = []
        base = self._next_tap.get(unit, 0)
        for i, shift in enumerate(shifts):
            tap = base + i
            self.diagram.set_sd_tap(unit, tap, shift)
            taps.append(
                TapSource(unit=unit, tap=tap, shift=shift, endpoint=sd_tap(unit, tap))
            )
        self._next_tap[unit] = base + len(shifts)
        return taps

    # ------------------------------------------------------------------
    # functional units
    # ------------------------------------------------------------------
    def _choose_fu(
        self, capability: FUCapability, operands: Sequence[Operand]
    ) -> int:
        """Pick a free unit: prefer internal-route colocation, then the
        least-capable unit that suffices.

        The minimum of ``(-colocate, richness, fu)`` over the free capable
        units: a unit an operand feeds by hardwired route wins if there is
        one, otherwise the first free unit of the pre-ranked list.
        """
        table, used = self._fu_table, self._used_fus
        colocate: Dict[int, int] = {}
        for src in {op.fu for op in operands if isinstance(op, FURef)}:
            for fu, routes in table.colocate.get(src, {}).items():
                colocate[fu] = colocate.get(fu, 0) + routes
        routed = [
            (-routes, table.richness[fu], fu)
            for fu, routes in colocate.items()
            if fu not in used and capability in table.caps[fu]
        ]
        if routed:
            return min(routed)[2]
        for fu in table.ranked[capability]:
            if fu not in used:
                return fu
        raise BuilderError(
            f"no free functional unit with capability {capability.label}"
        )

    def _ensure_als_placed(self, fu: int) -> None:
        als = self._fu_table.als_of[fu]
        if als.als_id not in self.diagram.als_uses:
            self.diagram.add_als(als.als_id, als.kind, als.first_fu)

    def _wire_input(self, fu: int, port: str, operand: Operand) -> None:
        if isinstance(operand, ConstOperand):
            self.diagram.set_input_mod(
                fu, port, InputMod(kind=_CONSTANT, value=operand.value)
            )
            return
        if isinstance(operand, FeedbackOperand):
            self.diagram.set_input_mod(
                fu, port, InputMod(kind=_FEEDBACK, value=operand.init)
            )
            return
        if self._internal_usable(fu, port, operand):
            src_slot = operand.fu - self._fu_table.als_of[fu].first_fu
            self.diagram.set_input_mod(
                fu, port, InputMod(kind=_INTERNAL, src_slot=src_slot)
            )
            return
        self.diagram.connect(operand.endpoint, fu_in(fu, port))

    def apply(
        self,
        opcode: Opcode,
        a: Operand,
        b: Optional[Operand] = None,
        constant: float = 0.0,
    ) -> FURef:
        """Program a fresh unit with *opcode* and wire its operands."""
        info = OPCODES[opcode]
        if info.arity == 2 and b is None:
            raise BuilderError(f"{opcode.value} needs two operands")
        if info.arity == 1 and b is not None:
            raise BuilderError(f"{opcode.value} takes one operand")
        operands = [op for op in (a, b) if op is not None]
        fu = self._choose_fu(info.capability, operands)
        self._used_fus.add(fu)
        self._ensure_als_placed(fu)
        self.diagram.set_fu_op(fu, opcode, constant)
        if b is not None and opcode in COMMUTATIVE_OPS:
            # swap operands when that turns a switch hop into a hardwired
            # internal route (ports are asymmetric inside an ALS)
            straight = self._internal_usable(fu, "a", a) + self._internal_usable(
                fu, "b", b
            )
            swapped = self._internal_usable(fu, "a", b) + self._internal_usable(
                fu, "b", a
            )
            if swapped > straight:
                a, b = b, a
        self._wire_input(fu, "a", a)
        if b is not None:
            self._wire_input(fu, "b", b)
        return FURef(fu=fu, endpoint=fu_out(fu))

    def _internal_usable(self, fu: int, port: str, operand: Operand) -> int:
        """1 when *operand* can reach ``(fu, port)`` by hardwired route."""
        return int(
            type(operand) is FURef
            and (operand.fu, fu, port) in self._fu_table.routes
        )

    # ------------------------------------------------------------------
    # sinks
    # ------------------------------------------------------------------
    def write_var(
        self,
        source: FURef | TapSource | MemSource | CacheSource,
        name: str,
        offset: int = 0,
        stride: int = 1,
        count: Optional[int] = None,
    ) -> None:
        decl = self.program.declarations.get(name)
        if decl is None:
            raise BuilderError(f"variable {name!r} is not declared")
        ep = mem_write(decl.plane)
        self.diagram.connect(source.endpoint, ep)
        self.diagram.set_dma(
            ep,
            DMASpec(
                device_kind=_MEMORY,
                device=decl.plane,
                direction=_WRITE,
                variable=name,
                offset=offset,
                stride=stride,
                count=count,
            ),
        )

    def write_cache(
        self,
        source: FURef | TapSource | MemSource | CacheSource,
        cache: int,
        offset: int = 0,
        stride: int = 1,
        count: Optional[int] = None,
    ) -> None:
        ep = cache_write(cache)
        self.diagram.connect(source.endpoint, ep)
        self.diagram.set_dma(
            ep,
            DMASpec(
                device_kind=_CACHE,
                device=cache,
                direction=_WRITE,
                offset=offset,
                stride=stride,
                count=count,
            ),
        )

    def condition(self, source: FURef, comparison: str, threshold: float) -> None:
        """Monitor *source*'s final stream element (condition interrupt)."""
        self.diagram.set_condition(
            ConditionSpec(fu=source.fu, comparison=comparison, threshold=threshold)
        )

    # ------------------------------------------------------------------
    def build(self, append: bool = True) -> PipelineDiagram:
        """Finish the diagram; by default append it to the program."""
        if append:
            self.program.insert_pipeline(self.diagram)
        return self.diagram


__all__ = [
    "PipelineBuilder",
    "BuilderError",
    "MemSource",
    "CacheSource",
    "TapSource",
    "FURef",
    "ConstOperand",
    "FeedbackOperand",
    "Operand",
]
