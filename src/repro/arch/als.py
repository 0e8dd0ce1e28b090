"""Arithmetic-logic structures (ALSs): singlets, doublets, triplets.

Paper §2: functional units "are hardwired into three types of
arithmetic-logic structures (ALSs), called singlets, doublets, and triplets,
which contain respectively 1, 2, or 3 floating-point units".  Fig. 4 shows
the corresponding icons, including the second doublet form in which one unit
is bypassed so the doublet operates as a singlet.

Within an ALS the units are *not* identical (§3): one unit has
integer/logical circuitry (drawn as a "double box"), another has max/min
circuitry.  The hardwired internal routes (e.g. the first unit of a doublet
feeding the second) are modelled as optional internal edges; anything not
internal must travel through the FLONET switch network.
"""

from __future__ import annotations

import enum
import functools
from typing import Dict, NamedTuple, Tuple

from repro._records import checked
from repro.arch.funcunit import FUCapability


class ALSKind(enum.Enum):
    SINGLET = "singlet"
    DOUBLET = "doublet"
    TRIPLET = "triplet"

    # members are singletons: hash by identity in C (see Opcode)
    __hash__ = object.__hash__

    @functools.cached_property
    def n_units(self) -> int:
        # cached on the member: diagram indexing reads it per placed ALS
        return {"singlet": 1, "doublet": 2, "triplet": 3}[self.value]


#: Input-port names on a functional unit.  Every unit is two-input/one-output;
#: unary operations leave ``b`` unused.
FU_INPUT_PORTS: Tuple[str, str] = ("a", "b")
FU_OUTPUT_PORT: str = "out"


class FUSlot(NamedTuple):
    """One functional-unit position within an ALS class."""

    position: int
    capability: FUCapability

    @property
    def is_double_box(self) -> bool:
        """Drawn with a double border in Fig. 4 (integer/logical capable)."""
        return FUCapability.INT_LOGICAL in self.capability


class InternalEdge(NamedTuple):
    """A hardwired route inside an ALS: output of one slot into an input
    port of a later slot.  Usable optionally; bypassed when not selected."""

    src_slot: int
    dst_slot: int
    dst_port: str


@checked
class ALSClass(NamedTuple):
    """Static description of an ALS shape shared by all instances."""

    kind: ALSKind
    slots: Tuple[FUSlot, ...]
    internal_edges: Tuple[InternalEdge, ...]

    def _checked(self) -> "ALSClass":
        if len(self.slots) != self.kind.n_units:
            raise ValueError(
                f"{self.kind.value} must have {self.kind.n_units} slots, "
                f"got {len(self.slots)}"
            )
        for edge in self.internal_edges:
            if not (0 <= edge.src_slot < len(self.slots)):
                raise ValueError(f"internal edge source slot {edge.src_slot} out of range")
            if not (0 <= edge.dst_slot < len(self.slots)):
                raise ValueError(f"internal edge dest slot {edge.dst_slot} out of range")
            if edge.src_slot >= edge.dst_slot:
                raise ValueError("internal edges must flow forward (no cycles)")
            if edge.dst_port not in FU_INPUT_PORTS:
                raise ValueError(f"unknown input port {edge.dst_port!r}")
        return self

    def internal_routes_into(self, slot: int, port: str) -> Tuple[InternalEdge, ...]:
        """Internal edges that can feed ``(slot, port)``."""
        return tuple(
            e for e in self.internal_edges if e.dst_slot == slot and e.dst_port == port
        )

    def slot_with_capability(self, capability: FUCapability) -> int | None:
        """Position of the first slot providing *capability*, if any."""
        for s in self.slots:
            if capability in s.capability:
                return s.position
        return None


def _slot(pos: int, cap: FUCapability) -> FUSlot:
    return FUSlot(position=pos, capability=cap)


_FP = FUCapability.FP
_INT = FUCapability.FP | FUCapability.INT_LOGICAL
_MM = FUCapability.FP | FUCapability.MINMAX

#: Class descriptions.  Capability placement follows §3: one integer-capable
#: unit and one min/max-capable unit per ALS (the singlet's lone unit gets
#: integer circuitry — it is drawn as a double box in Fig. 4).
ALS_CLASSES: Dict[ALSKind, ALSClass] = {
    ALSKind.SINGLET: ALSClass(
        kind=ALSKind.SINGLET,
        slots=(_slot(0, _INT),),
        internal_edges=(),
    ),
    ALSKind.DOUBLET: ALSClass(
        kind=ALSKind.DOUBLET,
        slots=(_slot(0, _INT), _slot(1, _MM)),
        internal_edges=(InternalEdge(0, 1, "a"),),
    ),
    ALSKind.TRIPLET: ALSClass(
        kind=ALSKind.TRIPLET,
        slots=(_slot(0, _INT), _slot(1, _FP), _slot(2, _MM)),
        internal_edges=(InternalEdge(0, 2, "a"), InternalEdge(1, 2, "b")),
    ),
}


class ALSInstance(NamedTuple):
    """A concrete ALS in a node: an id, a shape, and its global FU indices."""

    als_id: int
    kind: ALSKind
    first_fu: int  # global index of slot 0's functional unit

    @property
    def als_class(self) -> ALSClass:
        return ALS_CLASSES[self.kind]

    @property
    def n_units(self) -> int:
        return self.kind.n_units

    @property
    def name(self) -> str:
        prefix = {"singlet": "S", "doublet": "D", "triplet": "T"}[self.kind.value]
        return f"{prefix}{self.als_id}"

    def fu_index(self, slot: int) -> int:
        """Global functional-unit index of *slot* within this ALS."""
        if not (0 <= slot < self.n_units):
            raise IndexError(f"slot {slot} out of range for {self.kind.value}")
        return self.first_fu + slot

    def slots(self) -> Tuple[FUSlot, ...]:
        return self.als_class.slots

    def capability(self, slot: int) -> FUCapability:
        return self.als_class.slots[slot].capability


__all__ = [
    "ALSKind",
    "ALSClass",
    "ALSInstance",
    "ALS_CLASSES",
    "FUSlot",
    "InternalEdge",
    "FU_INPUT_PORTS",
    "FU_OUTPUT_PORT",
]
