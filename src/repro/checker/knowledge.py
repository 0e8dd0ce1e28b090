"""The machine knowledge base consulted by every checker rule.

Paper §4 argues the knowledge-base organization "helps to make the whole
visual environment more robust in the face of changes to the machine
design.  Some changes can be handled merely by updating the knowledge base"
— here that means constructing :class:`MachineKnowledge` from a different
:class:`~repro.arch.params.NSCParameters` (e.g. :data:`SUBSET_PARAMS`),
with no rule-code changes.
"""

from __future__ import annotations

import functools
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.arch.als import ALS_CLASSES, ALSClass, ALSKind, InternalEdge
from repro.arch.funcunit import FUCapability, Opcode, ops_for_capability
from repro.arch.node import MACHINE_TABLES_SIZE, NodeConfig
from repro.arch.params import NSCParameters
from repro.arch.switch import Endpoint

#: ALS kind -> ``(slot, port)`` -> source slots of the hardwired routes
#: into that input (the same for every machine)
INTERNAL_SOURCES: Dict[ALSKind, Dict[Tuple[int, str], FrozenSet[int]]] = {
    kind: {
        (slot, port): frozenset(
            e.src_slot for e in cls.internal_routes_into(slot, port)
        )
        for slot in range(kind.n_units)
        for port in ("a", "b")
    }
    for kind, cls in ALS_CLASSES.items()
}


@functools.lru_cache(maxsize=MACHINE_TABLES_SIZE)
def _machine_tables(
    node: NodeConfig,
) -> Tuple[Tuple[FrozenSet[Opcode], ...], Dict[int, Tuple[ALSKind, int]]]:
    """Per-FU legal opcodes and per-ALS ``(kind, first_fu)`` of *node*,
    derived once per machine description."""
    caps = [node.fu_capability(fu) for fu in range(node.n_fus)]
    ops_of = {cap: frozenset(ops_for_capability(cap)) for cap in set(caps)}
    legal_ops = tuple(ops_of[cap] for cap in caps)
    shapes = {a.als_id: (a.kind, a.first_fu) for a in node.als_instances}
    return legal_ops, shapes


class MachineKnowledge:
    """Query layer over a :class:`~repro.arch.node.NodeConfig`.

    The predicates the checker's rules run per wire, per unit and per
    ALS are also kept as plain per-machine tables (built once per node,
    shared by every knowledge base over it), which the rules read
    directly: ``switch_sources`` / ``switch_sinks`` (endpoint sets),
    ``legal_ops`` (per-FU opcode sets) and ``als_shapes`` (ALS id ->
    ``(kind, first_fu)``); :data:`INTERNAL_SOURCES` holds the hardwired
    routes."""

    def __init__(self, node: NodeConfig) -> None:
        self.node = node
        self.params: NSCParameters = node.params
        self.switch_sources: FrozenSet[Endpoint] = node.switch.sources
        self.switch_sinks: FrozenSet[Endpoint] = node.switch.sinks
        self.legal_ops, self.als_shapes = _machine_tables(node)

    # ------------------------------------------------------------------
    # functional units and ALSs
    # ------------------------------------------------------------------
    def fu_exists(self, fu: int) -> bool:
        return 0 <= fu < self.node.n_fus

    def fu_capability(self, fu: int) -> FUCapability:
        return self.node.fu_capability(fu)

    def fu_supports(self, fu: int, opcode: Opcode) -> bool:
        return self.fu_exists(fu) and opcode in self.legal_ops[fu]

    def legal_ops_for_fu(self, fu: int) -> List[Opcode]:
        """The entries shown in the Fig. 10 pop-up menu for this unit."""
        if not self.fu_exists(fu):
            return []
        return ops_for_capability(self.fu_capability(fu))

    def als_class(self, kind: ALSKind) -> ALSClass:
        return ALS_CLASSES[kind]

    def als_matches(self, als_id: int, kind: ALSKind, first_fu: int) -> bool:
        """Does the node really have this ALS with these FU indices?"""
        return self.als_shapes.get(als_id) == (kind, first_fu)

    def internal_routes_into(
        self, kind: ALSKind, slot: int, port: str
    ) -> Tuple[InternalEdge, ...]:
        return ALS_CLASSES[kind].internal_routes_into(slot, port)

    # ------------------------------------------------------------------
    # devices
    # ------------------------------------------------------------------
    def plane_exists(self, plane: int) -> bool:
        return 0 <= plane < self.params.n_memory_planes

    def cache_exists(self, cache: int) -> bool:
        return 0 <= cache < self.params.n_caches

    def sd_unit_exists(self, unit: int) -> bool:
        return 0 <= unit < self.params.n_shift_delay_units

    def sd_tap_exists(self, unit: int, tap: int) -> bool:
        return self.sd_unit_exists(unit) and 0 <= tap < self.params.shift_delay_taps

    def sd_shift_legal(self, shift: int) -> bool:
        return abs(shift) <= self.params.shift_delay_max_shift

    # ------------------------------------------------------------------
    # switch network
    # ------------------------------------------------------------------
    def is_switch_source(self, ep: Endpoint) -> bool:
        return ep in self.switch_sources

    def is_switch_sink(self, ep: Endpoint) -> bool:
        return ep in self.switch_sinks

    @property
    def max_fanout(self) -> int:
        return self.params.switch_max_fanout

    @property
    def regfile_words(self) -> int:
        return self.params.regfile_words

    def all_sources(self) -> Set[Endpoint]:
        return set(self.node.switch.sources)

    def all_sinks(self) -> Set[Endpoint]:
        return set(self.node.switch.sinks)

    def describe(self) -> str:
        inv = self.node.inventory()
        return (
            f"NSC node: {inv['functional_units']} FUs "
            f"({inv['als']['singlets']}S/{inv['als']['doublets']}D/"
            f"{inv['als']['triplets']}T), {inv['memory_planes']} planes x "
            f"{inv['memory_plane_mbytes']} MB, {inv['caches']} caches, "
            f"{inv['shift_delay_units']} shift/delay units, "
            f"peak {inv['peak_mflops']:.0f} MFLOPS"
        )


__all__ = ["MachineKnowledge", "INTERNAL_SOURCES"]
