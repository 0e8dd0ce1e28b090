"""Pipeline diagrams: one diagram per machine instruction.

Paper §5: "To construct a program, a user defines a series of pipeline
diagrams.  Each pipeline corresponds to a single instruction, or one line of
code, in a more conventional language."  A diagram records which ALSs are
used (and how doublets are bypassed), what operation each functional unit
performs, how pads are wired through the switch network, the DMA
specification behind every memory/cache pad, shift/delay tap settings, and
any explicit timing delays routed through register-file circular queues.

Function-unit inputs may alternatively be fed by *non-switch* sources —
"internal connections for feedback loops or register file data" (§5) —
recorded as :class:`InputMod` entries:

- ``CONSTANT``: the input reads a register-file constant every cycle;
- ``INTERNAL``: the input uses the hardwired route from an earlier unit in
  the same ALS;
- ``FEEDBACK``: the input re-reads the unit's own previous output (the
  idiom for running reductions such as the Jacobi residual maximum).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.arch.als import ALSKind
from repro.arch.dma import DMASpec
from repro.arch.funcunit import Opcode
from repro.arch.switch import DeviceKind, Endpoint, fu_in, fu_out, sd_in


class DiagramError(Exception):
    """Structural misuse of a diagram (duplicate ALS, unknown FU...)."""


class InputModKind(enum.Enum):
    CONSTANT = "constant"
    INTERNAL = "internal"
    FEEDBACK = "feedback"


@dataclass(frozen=True)
class InputMod:
    """A non-switch source for one FU input port."""

    kind: InputModKind
    value: float = 0.0   # constant value, or feedback initial value
    src_slot: int = -1   # INTERNAL: which slot's output feeds this input


@dataclass(frozen=True)
class FUOpAssignment:
    """The operation programmed into one functional unit (Fig. 10 menu)."""

    fu: int
    opcode: Opcode
    constant: float = 0.0  # used by FSCALE / FADDC


@dataclass(frozen=True)
class ConditionSpec:
    """A monitored condition: compare the *final* element of a unit's output
    stream against a threshold, raising a condition interrupt.  This is how
    the Jacobi example's "residual convergence check" terminates its loop."""

    fu: int
    comparison: str  # 'lt' | 'le' | 'gt' | 'ge'
    threshold: float

    _OPS = {"lt", "le", "gt", "ge"}

    def __post_init__(self) -> None:
        if self.comparison not in self._OPS:
            raise DiagramError(
                f"unknown comparison {self.comparison!r}; use one of {sorted(self._OPS)}"
            )

    def evaluate(self, value: float) -> bool:
        return {
            "lt": value < self.threshold,
            "le": value <= self.threshold,
            "gt": value > self.threshold,
            "ge": value >= self.threshold,
        }[self.comparison]


@dataclass(frozen=True)
class ALSUse:
    """One ALS included in a diagram, with optional bypassed slots."""

    als_id: int
    kind: ALSKind
    first_fu: int
    bypassed_slots: Tuple[int, ...] = ()

    @property
    def active_fus(self) -> Tuple[int, ...]:
        return tuple(
            self.first_fu + s
            for s in range(self.kind.n_units)
            if s not in self.bypassed_slots
        )

    def slot_of(self, fu: int) -> int:
        slot = fu - self.first_fu
        if not (0 <= slot < self.kind.n_units):
            raise DiagramError(f"fu{fu} is not in ALS {self.als_id}")
        return slot


class PipelineDiagram:
    """The semantic content of one drawn pipeline (one NSC instruction)."""

    def __init__(self, number: int = 0, label: str = "") -> None:
        self.number = number
        self.label = label
        self.als_uses: Dict[int, ALSUse] = {}
        self.fu_ops: Dict[int, FUOpAssignment] = {}
        self.connections: List[Tuple[Endpoint, Endpoint]] = []
        self.input_mods: Dict[Tuple[int, str], InputMod] = {}
        self.delays: Dict[Tuple[int, str], int] = {}
        self.dma: Dict[Endpoint, DMASpec] = {}
        self.sd_taps: Dict[Tuple[int, int], int] = {}
        self.vector_length: Optional[int] = None
        self.condition: Optional[ConditionSpec] = None
        # lazily built query indices; _wire_index_len == -1 means stale.
        # The length guard additionally catches code appending to
        # `connections` directly instead of going through connect().
        self._wire_index_len: int = -1
        self._driver_index: Dict[Endpoint, Endpoint] = {}
        self._sink_index: Dict[Endpoint, List[Endpoint]] = {}
        self._fu_als_len: int = 0
        self._fu_als_index: Dict[int, ALSUse] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_als(
        self,
        als_id: int,
        kind: ALSKind,
        first_fu: int,
        bypassed_slots: Tuple[int, ...] = (),
    ) -> ALSUse:
        if als_id in self.als_uses:
            raise DiagramError(f"ALS {als_id} already placed in this diagram")
        for s in bypassed_slots:
            if not (0 <= s < kind.n_units):
                raise DiagramError(
                    f"bypassed slot {s} out of range for {kind.value}"
                )
        use = ALSUse(
            als_id=als_id,
            kind=kind,
            first_fu=first_fu,
            bypassed_slots=tuple(sorted(bypassed_slots)),
        )
        self.als_uses[als_id] = use
        # extend a fresh FU->ALS index in place, as connect() does the
        # wiring index; a stale one stays stale and is rebuilt on use
        if self._fu_als_len == len(self.als_uses) - 1:
            for slot in range(kind.n_units):
                self._fu_als_index[first_fu + slot] = use
            self._fu_als_len += 1
        return use

    def remove_als(self, als_id: int) -> None:
        """Delete an ALS and every reference to its functional units."""
        use = self.als_uses.pop(als_id, None)
        if use is None:
            raise DiagramError(f"ALS {als_id} is not in this diagram")
        self._fu_als_len = -1
        self._wire_index_len = -1
        fus = set(range(use.first_fu, use.first_fu + use.kind.n_units))
        for fu in fus:
            self.fu_ops.pop(fu, None)
        self.connections = [
            (s, k)
            for (s, k) in self.connections
            if not (
                (s.kind is DeviceKind.FU and s.device in fus)
                or (k.kind is DeviceKind.FU and k.device in fus)
            )
        ]
        for key in [k for k in self.input_mods if k[0] in fus]:
            del self.input_mods[key]
        for key in [k for k in self.delays if k[0] in fus]:
            del self.delays[key]

    def set_fu_op(self, fu: int, opcode: Opcode, constant: float = 0.0) -> None:
        self._require_active_fu(fu)
        self.fu_ops[fu] = FUOpAssignment(fu=fu, opcode=opcode, constant=constant)

    def clear_fu_op(self, fu: int) -> None:
        self.fu_ops.pop(fu, None)

    def connect(self, source: Endpoint, sink: Endpoint) -> None:
        """Record a switch-routed connection (the rubber-band wire)."""
        if self._wire_index_len != len(self.connections):
            self._wire_index()
        # the wiring index answers the duplicate check from the source's
        # few sinks instead of a scan over every drawn connection, and is
        # extended in place rather than rebuilt
        sinks = self._sink_index.setdefault(source, [])
        if sink in sinks:
            raise DiagramError(f"connection {source} -> {sink} already drawn")
        self.connections.append((source, sink))
        sinks.append(sink)
        self._driver_index.setdefault(sink, source)
        self._wire_index_len += 1

    def disconnect(self, source: Endpoint, sink: Endpoint) -> None:
        try:
            self.connections.remove((source, sink))
        except ValueError:
            raise DiagramError(f"no connection {source} -> {sink}") from None
        self._wire_index_len = -1

    def set_input_mod(self, fu: int, port: str, mod: InputMod) -> None:
        self._require_active_fu(fu)
        if port not in ("a", "b"):
            raise DiagramError(f"FU input port must be 'a' or 'b', got {port!r}")
        self.input_mods[(fu, port)] = mod

    def set_delay(self, fu: int, port: str, cycles: int) -> None:
        """Explicit user-requested delay on an input (Fig. 8 discussion)."""
        self._require_active_fu(fu)
        if cycles < 0:
            raise DiagramError("delay must be non-negative")
        if cycles == 0:
            self.delays.pop((fu, port), None)
        else:
            self.delays[(fu, port)] = cycles

    def set_dma(self, endpoint: Endpoint, spec: DMASpec) -> None:
        """Attach the Fig. 9 pop-up's DMA details to a memory/cache pad."""
        if endpoint.kind not in (DeviceKind.MEMORY, DeviceKind.CACHE):
            raise DiagramError(f"{endpoint} takes no DMA specification")
        self.dma[endpoint] = spec

    def set_sd_tap(self, unit: int, tap: int, shift: int) -> None:
        self.sd_taps[(unit, tap)] = shift

    def set_condition(self, spec: Optional[ConditionSpec]) -> None:
        self.condition = spec

    def _require_active_fu(self, fu: int) -> ALSUse:
        use = self.als_use_of_fu(fu)
        if use is None:
            raise DiagramError(f"fu{fu} belongs to no ALS placed in this diagram")
        if fu not in use.active_fus:
            raise DiagramError(f"fu{fu} is bypassed in ALS {use.als_id}")
        return use

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def als_use_of_fu(self, fu: int) -> Optional[ALSUse]:
        if self._fu_als_len != len(self.als_uses):
            self._fu_als_index = {
                use.first_fu + slot: use
                for use in self.als_uses.values()
                for slot in range(use.kind.n_units)
            }
            self._fu_als_len = len(self.als_uses)
        return self._fu_als_index.get(fu)

    def active_fus(self) -> List[int]:
        """Functional units with an operation assigned, ascending."""
        return sorted(self.fu_ops)

    def _wire_index(self) -> None:
        """(Re)build the sink->driver and source->sinks maps.

        Code generation and the checker query wiring thousands of times
        per program; a linear scan over the connection list dominated
        their profiles.  ``driver_of`` keeps its first-drawn-wins
        semantics via ``setdefault``."""
        driver: Dict[Endpoint, Endpoint] = {}
        sinks: Dict[Endpoint, List[Endpoint]] = {}
        for s, k in self.connections:
            driver.setdefault(k, s)
            sinks.setdefault(s, []).append(k)
        self._driver_index = driver
        self._sink_index = sinks
        self._wire_index_len = len(self.connections)

    def driver_of(self, sink: Endpoint) -> Optional[Endpoint]:
        """The switch source driving *sink*, if one is drawn."""
        if self._wire_index_len != len(self.connections):
            self._wire_index()
        return self._driver_index.get(sink)

    def sinks_of(self, source: Endpoint) -> List[Endpoint]:
        if self._wire_index_len != len(self.connections):
            self._wire_index()
        return list(self._sink_index.get(source, ()))

    def input_source(
        self, fu: int, port: str
    ) -> Tuple[str, object] | None:
        """Resolve what feeds ``(fu, port)``.

        Returns ``("switch", endpoint)``, ``("mod", InputMod)``, or ``None``
        when the port is unconnected.
        """
        mod = self.input_mods.get((fu, port))
        if mod is not None:
            return ("mod", mod)
        drv = self.driver_of(fu_in(fu, port))
        if drv is not None:
            return ("switch", drv)
        return None

    def used_endpoints(self) -> Set[Endpoint]:
        eps: Set[Endpoint] = set()
        for s, k in self.connections:
            eps.add(s)
            eps.add(k)
        eps.update(self.dma)
        return eps

    def memory_endpoints(self) -> List[Endpoint]:
        return sorted(
            (e for e in self.used_endpoints() if e.kind is DeviceKind.MEMORY),
            key=lambda e: e.key,
        )

    def cache_endpoints(self) -> List[Endpoint]:
        return sorted(
            (e for e in self.used_endpoints() if e.kind is DeviceKind.CACHE),
            key=lambda e: e.key,
        )

    def planes_touched_by_fu(self, fu: int) -> Set[int]:
        """Memory planes this unit reads from or writes to (directly or
        through a shift/delay unit fed by a plane).  Used by the §3 rule
        that a unit may touch only one plane per instruction."""
        planes: Set[int] = set()
        for port in ("a", "b"):
            src = self.driver_of(fu_in(fu, port))
            if src is None:
                continue
            if src.kind is DeviceKind.MEMORY:
                planes.add(src.device)
            elif src.kind is DeviceKind.SHIFT_DELAY:
                feeder = self.driver_of(sd_in(src.device))
                if feeder is not None and feeder.kind is DeviceKind.MEMORY:
                    planes.add(feeder.device)
        for sink in self.sinks_of(fu_out(fu)):
            if sink.kind is DeviceKind.MEMORY:
                planes.add(sink.device)
        return planes

    def plane_writers(self) -> Dict[int, List[Endpoint]]:
        """plane -> switch sources writing it (the Fig. 8 contention rule)."""
        writers: Dict[int, List[Endpoint]] = {}
        for s, k in self.connections:
            if k.kind is DeviceKind.MEMORY and k.port == "write":
                writers.setdefault(k.device, []).append(s)
        return writers

    def fu_dependency_edges(self) -> List[Tuple[int, int]]:
        """(producer_fu, consumer_fu) edges, excluding feedback self-loops."""
        edges: List[Tuple[int, int]] = []
        for s, k in self.connections:
            if s.kind is DeviceKind.FU and k.kind is DeviceKind.FU:
                edges.append((s.device, k.device))
        for (fu, _port), mod in self.input_mods.items():
            if mod.kind is InputModKind.INTERNAL:
                use = self.als_use_of_fu(fu)
                if use is not None:
                    edges.append((use.first_fu + mod.src_slot, fu))
        return edges

    def topological_order(self) -> List[int]:
        """Active FUs in dataflow order; raises on a combinational cycle."""
        fus = set(self.active_fus())
        indeg = {fu: 0 for fu in fus}
        adj: Dict[int, List[int]] = {fu: [] for fu in fus}
        for u, v in self.fu_dependency_edges():
            if u in fus and v in fus and u != v:
                adj[u].append(v)
                indeg[v] += 1
        ready = sorted(fu for fu, d in indeg.items() if d == 0)
        order: List[int] = []
        while ready:
            fu = ready.pop(0)
            order.append(fu)
            for w in sorted(adj[fu]):
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
            ready.sort()
        if len(order) != len(fus):
            raise DiagramError(
                "pipeline contains a combinational cycle (feedback must use "
                "the FEEDBACK input mod, not a drawn wire loop)"
            )
        return order

    def copy(self, number: Optional[int] = None) -> "PipelineDiagram":
        """Deep-enough copy used by the editor's copy-pipeline operation."""
        dup = PipelineDiagram(
            number=self.number if number is None else number, label=self.label
        )
        dup.als_uses = dict(self.als_uses)
        dup.fu_ops = dict(self.fu_ops)
        dup.connections = list(self.connections)
        dup.input_mods = dict(self.input_mods)
        dup.delays = dict(self.delays)
        dup.dma = dict(self.dma)
        dup.sd_taps = dict(self.sd_taps)
        dup.vector_length = self.vector_length
        dup.condition = self.condition
        return dup

    def stats(self) -> Dict[str, int]:
        return {
            "als": len(self.als_uses),
            "fus": len(self.fu_ops),
            "connections": len(self.connections),
            "input_mods": len(self.input_mods),
            "dma_specs": len(self.dma),
            "sd_taps": len(self.sd_taps),
            "delays": len(self.delays),
        }

    def __repr__(self) -> str:
        return (
            f"PipelineDiagram(#{self.number} {self.label!r}: "
            f"{len(self.als_uses)} ALSs, {len(self.connections)} wires)"
        )


__all__ = [
    "PipelineDiagram",
    "DiagramError",
    "ALSUse",
    "FUOpAssignment",
    "InputMod",
    "InputModKind",
    "ConditionSpec",
]
