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

A diagram is the editor's mutable record.  :meth:`PipelineDiagram.freeze`
turns it into a :class:`DiagramView`, a read-only snapshot whose tables
(driver and sinks, per-port feeds, FU->ALS, planes, topological order...)
are built in one pass; the checker, the timing analysis and the code
generator all read one view per pipeline instead of re-deriving the
same facts from the diagram, and the diagram's own queries answer from a
fresh view.
"""

from __future__ import annotations

import enum
import heapq
from typing import Dict, List, NamedTuple, Optional, Set, Tuple, Union

from repro._records import checked
from repro.arch.als import ALSKind
from repro.arch.dma import DMASpec
from repro.arch.funcunit import OPCODES, Opcode, OpInfo
from repro.arch.switch import DeviceKind, Endpoint


class DiagramError(Exception):
    """Structural misuse of a diagram (duplicate ALS, unknown FU...)."""


class InputModKind(enum.Enum):
    CONSTANT = "constant"
    INTERNAL = "internal"
    FEEDBACK = "feedback"

    # members are singletons: hash by identity in C (see Opcode)
    __hash__ = object.__hash__


class InputMod(NamedTuple):
    """A non-switch source for one FU input port."""

    kind: InputModKind
    value: float = 0.0   # constant value, or feedback initial value
    src_slot: int = -1   # INTERNAL: which slot's output feeds this input


class FUOpAssignment(NamedTuple):
    """The operation programmed into one functional unit (Fig. 10 menu)."""

    fu: int
    opcode: Opcode
    constant: float = 0.0  # used by FSCALE / FADDC


@checked
class ConditionSpec(NamedTuple):
    """A monitored condition: compare the *final* element of a unit's output
    stream against a threshold, raising a condition interrupt.  This is how
    the Jacobi example's "residual convergence check" terminates its loop."""

    fu: int
    comparison: str  # 'lt' | 'le' | 'gt' | 'ge'
    threshold: float

    _OPS = {"lt", "le", "gt", "ge"}

    def _checked(self) -> "ConditionSpec":
        if self.comparison not in self._OPS:
            raise DiagramError(
                f"unknown comparison {self.comparison!r}; use one of {sorted(self._OPS)}"
            )
        return self

    def evaluate(self, value: float) -> bool:
        return {
            "lt": value < self.threshold,
            "le": value <= self.threshold,
            "gt": value > self.threshold,
            "ge": value >= self.threshold,
        }[self.comparison]


class ALSUse(NamedTuple):
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
        # what the mutators need: the drawn wires as a set for connect()'s
        # duplicate check, and the FU->ALS map for set_fu_op() & co.  A
        # count mismatch with `connections` / `als_uses` means they were
        # edited directly; the set or map is then rebuilt on use.
        self._wires: Set[Tuple[Endpoint, Endpoint]] = set()
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
        wire = (source, sink)
        wires = self._wires
        if len(wires) != len(self.connections):
            wires = self._wires = set(self.connections)
        drawn = len(wires)
        wires.add(wire)  # hashes the wire once; a duplicate leaves no trace
        if len(wires) == drawn:
            raise DiagramError(f"connection {source} -> {sink} already drawn")
        self.connections.append(wire)

    def disconnect(self, source: Endpoint, sink: Endpoint) -> None:
        try:
            self.connections.remove((source, sink))
        except ValueError:
            raise DiagramError(f"no connection {source} -> {sink}") from None
        self._wires.discard((source, sink))

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
        if fu - use.first_fu in use.bypassed_slots:
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

    def freeze(self) -> "DiagramView":
        """A read-only, indexed snapshot of the diagram as it is now."""
        return DiagramView(self)

    # read-side queries: each answers from a fresh view, so direct edits
    # of the containers can never leave them stale
    def driver_of(self, sink: Endpoint) -> Optional[Endpoint]:
        """The switch source driving *sink*, if one is drawn."""
        return self.freeze().driver_of(sink)

    def sinks_of(self, source: Endpoint) -> List[Endpoint]:
        return self.freeze().sinks_of(source)

    def input_source(
        self, fu: int, port: str
    ) -> Tuple[str, object] | None:
        """Resolve what feeds ``(fu, port)``: see :meth:`DiagramView.input_source`."""
        return self.freeze().input_source(fu, port)

    def used_endpoints(self) -> Set[Endpoint]:
        return self.freeze().used_endpoints()

    def memory_endpoints(self) -> List[Endpoint]:
        return [e for e in self.freeze().pads if e.kind is DeviceKind.MEMORY]

    def cache_endpoints(self) -> List[Endpoint]:
        return [e for e in self.freeze().pads if e.kind is DeviceKind.CACHE]

    def planes_touched_by_fu(self, fu: int) -> Set[int]:
        return self.freeze().planes_touched_by_fu(fu)

    def plane_writers(self) -> Dict[int, List[Endpoint]]:
        return self.freeze().plane_writers()

    def topological_order(self) -> List[int]:
        return self.freeze().topological_order()

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


_CYCLE = (
    "pipeline contains a combinational cycle (feedback must use "
    "the FEEDBACK input mod, not a drawn wire loop)"
)

_FU = DeviceKind.FU
_MEMORY = DeviceKind.MEMORY
_CACHE = DeviceKind.CACHE
_SHIFT_DELAY = DeviceKind.SHIFT_DELAY
_INTERNAL = InputModKind.INTERNAL
_FEEDBACK = InputModKind.FEEDBACK

#: what feeds one FU input port: a drawn wire's source, or an input mod
Feed = Union[Endpoint, InputMod]


class DiagramView:
    """A read-only snapshot of one :class:`PipelineDiagram`, indexed once.

    Built by :meth:`PipelineDiagram.freeze` in one pass over the
    diagram's connections, input mods and FU operations, it holds every
    table the checker rules, the timing analysis and the code generator
    query.  The containers (``connections``, ``fu_ops``, ...) are copies
    taken at the freeze, so later edits of the diagram never reach the
    view.  Code reads the tables directly; treat them as read-only.

    Tables, each under first-drawn-wins wiring semantics:

    - ``driver``: sink -> the switch source driving it;
    - ``sinks``: source -> the sinks it drives, in drawing order (its
      length is the source's fan-out);
    - ``wired_ports``: ``(fu, port)`` -> the source of the wire into that
      FU input, and ``feeds``: the same with input mods taking
      precedence (what :meth:`input_source` answers).  Both are keyed by
      int/str tuples;
    - ``fu_als``: FU -> its :class:`ALSUse`; ``op_info``: FU ->
      :class:`OpInfo` of its operation; ``active``: programmed FUs,
      ascending;
    - ``planes``: FU -> memory planes it touches (directly or through a
      shift/delay unit); ``plane_writers_of``: plane -> sources wired
      to its write pad; ``sd_feeder``: shift/delay unit -> the source
      driving its input;
    - ``wired_fus`` (FUs at either end of a wire), ``driving_fus`` (FUs
      whose output drives a sink), ``pads`` (memory/cache endpoints in
      use, wired or carrying a DMA spec, sorted), ``pad_wires`` (wires
      into a memory/cache pad), ``tap_wires`` (shift/delay tap sources
      of every wire, in drawing order);
    - ``internal_mods`` / ``feedback_mods``: those input mods as sorted
      ``((fu, port), mod)`` pairs; ``mod_words``: FU -> register-file
      words its constant/feedback mods and constant operand take;
    - ``order``: the FUs in dataflow order, or None when the wiring has a
      combinational cycle (:meth:`topological_order` then raises).
    """

    __slots__ = (
        "number", "label", "vector_length", "condition", "als_uses",
        "fu_ops", "connections", "input_mods", "delays", "dma", "sd_taps",
        "driver", "sinks", "wired_ports", "feeds", "fu_als", "op_info",
        "active", "planes", "plane_writers_of", "sd_feeder", "wired_fus",
        "driving_fus", "pads", "pad_wires", "tap_wires", "internal_mods",
        "feedback_mods", "mod_words", "order",
    )

    def __init__(self, diagram: PipelineDiagram) -> None:
        self.number = diagram.number
        self.label = diagram.label
        self.vector_length = diagram.vector_length
        self.condition = diagram.condition
        self.als_uses = dict(diagram.als_uses)
        self.fu_ops = fu_ops = dict(diagram.fu_ops)
        self.connections = connections = tuple(diagram.connections)
        self.input_mods = input_mods = dict(diagram.input_mods)
        self.delays = dict(diagram.delays)
        self.dma = dma = dict(diagram.dma)
        self.sd_taps = dict(diagram.sd_taps)

        fu_als: Dict[int, ALSUse] = {}
        for use in self.als_uses.values():
            first = use.first_fu
            for fu in range(first, first + use.kind.n_units):
                fu_als[fu] = use
        self.fu_als = fu_als

        # the wires, in one pass
        driver: Dict[Endpoint, Endpoint] = {}
        sinks: Dict[Endpoint, List[Endpoint]] = {}
        wired_ports: Dict[Tuple[int, str], Endpoint] = {}
        writers: Dict[int, List[Endpoint]] = {}
        sd_feeder: Dict[int, Endpoint] = {}
        planes: Dict[int, Set[int]] = {}
        wired_fus: Set[int] = set()
        driving_fus: Set[int] = set()
        pads = {e for e in dma if e.kind is _MEMORY or e.kind is _CACHE}
        edges: List[Tuple[int, int]] = []
        pad_wires: List[Tuple[Endpoint, Endpoint]] = []
        tap_wires: List[Endpoint] = []
        sd_fed: List[Tuple[int, int]] = []  # (fu, unit): input from a tap
        for wire in connections:
            src, sink = wire
            sinks.setdefault(src, []).append(sink)
            drv = driver.setdefault(sink, src)
            src_kind = src.kind
            sink_kind = sink.kind
            if sink_kind is _FU:
                fu = sink.device
                port = sink.port
                wired_fus.add(fu)
                wired_ports[(fu, port)] = drv
                if src_kind is _FU:
                    edges.append((src.device, fu))
                elif drv is src and (port == "a" or port == "b"):
                    # the input's (first-drawn) driver: a plane or a tap
                    if src_kind is _MEMORY:
                        planes.setdefault(fu, set()).add(src.device)
                    elif src_kind is _SHIFT_DELAY:
                        sd_fed.append((fu, src.device))
            elif sink_kind is _MEMORY or sink_kind is _CACHE:
                pads.add(sink)
                pad_wires.append(wire)
                if sink_kind is _MEMORY and sink.port == "write":
                    writers.setdefault(sink.device, []).append(src)
            elif sink.port == "in":
                sd_feeder[sink.device] = drv
            if src_kind is _FU:
                wired_fus.add(src.device)
                if src.port == "out":
                    driving_fus.add(src.device)
                    if sink_kind is _MEMORY:
                        planes.setdefault(src.device, set()).add(sink.device)
            elif src_kind is _MEMORY or src_kind is _CACHE:
                pads.add(src)
            elif src_kind is _SHIFT_DELAY and src.port.startswith("tap"):
                tap_wires.append(src)
        for fu, unit in sd_fed:
            feeder = sd_feeder.get(unit)
            if feeder is not None and feeder.kind is _MEMORY:
                planes.setdefault(fu, set()).add(feeder.device)
        self.driver = driver
        self.sinks = sinks
        self.wired_ports = wired_ports
        self.plane_writers_of = writers
        self.sd_feeder = sd_feeder
        self.planes = planes
        self.wired_fus = wired_fus
        self.driving_fus = driving_fus
        # sorted by key: caches ("cache") before planes ("mem")
        self.pads = tuple(sorted(pads, key=_pad_key))
        self.pad_wires = tuple(pad_wires)
        self.tap_wires = tuple(tap_wires)

        # the input mods, in one sorted pass
        feeds: Dict[Tuple[int, str], Feed] = dict(wired_ports)
        feeds.update(input_mods)
        self.feeds = feeds
        mod_words: Dict[int, int] = {}
        internal_mods = []
        feedback_mods = []
        for item in sorted(input_mods.items()):
            (fu, port), mod = item
            kind = mod.kind
            if kind is _INTERNAL:
                internal_mods.append(item)
                use = fu_als.get(fu)
                if use is not None:
                    edges.append((use.first_fu + mod.src_slot, fu))
                continue
            if kind is _FEEDBACK:
                feedback_mods.append(item)
            if port == "a" or port == "b":
                mod_words[fu] = mod_words.get(fu, 0) + 1
        self.internal_mods = tuple(internal_mods)
        self.feedback_mods = tuple(feedback_mods)

        # the operations
        op_info: Dict[int, OpInfo] = {}
        for fu, assign in fu_ops.items():
            info = op_info[fu] = OPCODES[assign.opcode]
            if info.uses_constant:
                mod_words[fu] = mod_words.get(fu, 0) + 1
        self.op_info = op_info
        self.mod_words = mod_words
        self.active = active = tuple(sorted(fu_ops))
        self.order = _dataflow_order(active, edges)

    def freeze(self) -> "DiagramView":
        """A view is already frozen: consumers call ``freeze()`` on
        whatever they are handed, diagram or view."""
        return self

    # the diagram's query API, answered from the tables
    def driver_of(self, sink: Endpoint) -> Optional[Endpoint]:
        return self.driver.get(sink)

    def sinks_of(self, source: Endpoint) -> List[Endpoint]:
        return list(self.sinks.get(source, ()))

    def input_source(self, fu: int, port: str) -> Tuple[str, object] | None:
        """Resolve what feeds ``(fu, port)``.

        Returns ``("switch", endpoint)``, ``("mod", InputMod)``, or ``None``
        when the port is unconnected.
        """
        feed = self.feeds.get((fu, port))
        if feed is None:
            return None
        return ("switch", feed) if type(feed) is Endpoint else ("mod", feed)

    def used_endpoints(self) -> Set[Endpoint]:
        used = set(self.sinks)
        used.update(self.driver)
        used.update(self.dma)
        return used

    def planes_touched_by_fu(self, fu: int) -> Set[int]:
        """Memory planes this unit reads from or writes to (directly or
        through a shift/delay unit fed by a plane).  Used by the §3 rule
        that a unit may touch only one plane per instruction."""
        return set(self.planes.get(fu, ()))

    def plane_writers(self) -> Dict[int, List[Endpoint]]:
        """plane -> switch sources writing it (the Fig. 8 contention rule)."""
        return {plane: list(w) for plane, w in self.plane_writers_of.items()}

    def topological_order(self) -> List[int]:
        """Active FUs in dataflow order; raises on a combinational cycle."""
        if self.order is None:
            raise DiagramError(_CYCLE)
        return list(self.order)

    def __repr__(self) -> str:
        return (
            f"DiagramView(#{self.number} {self.label!r}: "
            f"{len(self.als_uses)} ALSs, {len(self.connections)} wires)"
        )


def _pad_key(ep: Endpoint) -> Tuple[bool, int, str]:
    """``ep.key``'s order over memory and cache endpoints, without the
    enum value lookup."""
    return (ep.kind is _MEMORY, ep.device, ep.port)


def _dataflow_order(
    active: Tuple[int, ...], edges: List[Tuple[int, int]]
) -> Optional[Tuple[int, ...]]:
    """Kahn's sort of *active* over the producer->consumer *edges*,
    smallest ready unit first; None on a cycle.  Self-loops and edges to
    or from unprogrammed units are ignored (feedback is not a cycle)."""
    indeg = dict.fromkeys(active, 0)
    adj: Dict[int, List[int]] = {}
    for u, v in edges:
        if u != v and u in indeg and v in indeg:
            adj.setdefault(u, []).append(v)
            indeg[v] += 1
    ready = [fu for fu, d in indeg.items() if d == 0]  # ascending already
    order: List[int] = []
    pop, push = heapq.heappop, heapq.heappush
    while ready:
        fu = pop(ready)
        order.append(fu)
        for w in adj.get(fu, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                push(ready, w)
    if len(order) != len(active):
        return None
    return tuple(order)


__all__ = [
    "PipelineDiagram",
    "DiagramView",
    "DiagramError",
    "ALSUse",
    "FUOpAssignment",
    "InputMod",
    "InputModKind",
    "ConditionSpec",
]
