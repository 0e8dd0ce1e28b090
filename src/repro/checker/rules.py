"""Constraint rules: "conflicts, constraints, asymmetries and other
restrictions in the NSC architecture" (§4).

Each rule inspects one pipeline diagram against the machine knowledge base
and reports diagnostics.  Rules are deliberately independent so the set can
evolve with the machine design; :data:`ALL_RULES` is the production set run
by :meth:`Checker.check_pipeline`.

Rules directly traceable to the paper:

- ``plane-single-fu`` — §3: "a function unit can read or write in only a
  single memory plane" per instruction;
- ``plane-one-writer`` — §4's worked example: "if the user has routed the
  output from one function unit to a particular memory plane, the graphical
  editor will not let him send the output of a second unit to the same
  plane";
- ``fu-capability`` — §3: only one unit per ALS has integer circuitry,
  another has min/max;
- ``regfile-capacity`` — §2/§5: constants and circular delay queues share
  the finite register file;
- ``dma-spec`` — Fig. 9: every memory/cache pad needs plane/address/stride
  details for its DMA controller.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.arch.dma import DMASpecError, Direction
from repro.arch.funcunit import OPCODES
from repro.arch.switch import DeviceKind, Endpoint, fu_in, fu_out, sd_in
from repro.checker.diagnostics import Diagnostic, error, warning
from repro.checker.knowledge import MachineKnowledge
from repro.diagram.pipeline import DiagramError, InputModKind, PipelineDiagram
from repro.diagram.program import Declaration

Declarations = Optional[Dict[str, Declaration]]


class Rule:
    """Base class: subclasses set ``rule_id``/``description`` and implement
    :meth:`check`."""

    rule_id: str = "abstract"
    description: str = ""

    def check(
        self,
        diagram: PipelineDiagram,
        kb: MachineKnowledge,
        declarations: Declarations = None,
    ) -> List[Diagnostic]:  # pragma: no cover - interface
        raise NotImplementedError

    def _e(self, message: str, subject: str = "", pipeline: int = -1) -> Diagnostic:
        return error(self.rule_id, message, subject, pipeline)

    def _w(self, message: str, subject: str = "", pipeline: int = -1) -> Diagnostic:
        return warning(self.rule_id, message, subject, pipeline)


class ALSPlacementRule(Rule):
    """Placed ALS icons must correspond to real ALSs of the node."""

    rule_id = "als-placement"
    description = "placed ALSs exist in the machine with matching shape"

    def check(self, diagram, kb, declarations=None):
        out: List[Diagnostic] = []
        for use in diagram.als_uses.values():
            if not kb.als_matches(use.als_id, use.kind, use.first_fu):
                out.append(
                    self._e(
                        f"no {use.kind.value} with id {use.als_id} at fu{use.first_fu} "
                        f"in this machine",
                        subject=f"als{use.als_id}",
                        pipeline=diagram.number,
                    )
                )
        return out


class FUCapabilityRule(Rule):
    """Assigned operations must match the unit's circuitry (§3 asymmetry)."""

    rule_id = "fu-capability"
    description = "operation selectable only on capable functional units"

    def check(self, diagram, kb, declarations=None):
        out: List[Diagnostic] = []
        for fu, assign in diagram.fu_ops.items():
            if not kb.fu_exists(fu):
                out.append(
                    self._e(f"fu{fu} does not exist", subject=f"fu{fu}",
                            pipeline=diagram.number)
                )
                continue
            if not kb.fu_supports(fu, assign.opcode):
                cap = kb.fu_capability(fu).label
                out.append(
                    self._e(
                        f"fu{fu} ({cap}) cannot perform {assign.opcode.value}",
                        subject=f"fu{fu}",
                        pipeline=diagram.number,
                    )
                )
        return out


class ConnectionEndpointRule(Rule):
    """Wires must join a real switch source to a real switch sink."""

    rule_id = "conn-endpoints"
    description = "connections reference existing device ports"

    def check(self, diagram, kb, declarations=None):
        out: List[Diagnostic] = []
        for src, sink in diagram.connections:
            if not kb.is_switch_source(src):
                out.append(
                    self._e(f"{src} is not a data source on this machine",
                            subject=str(src), pipeline=diagram.number)
                )
            if not kb.is_switch_sink(sink):
                out.append(
                    self._e(f"{sink} is not a data sink on this machine",
                            subject=str(sink), pipeline=diagram.number)
                )
        return out


class SinkUniquenessRule(Rule):
    """Every sink is driven by at most one source — including the case where
    a FU input has both a drawn wire and a register-file/internal source."""

    rule_id = "sink-unique"
    description = "each input pad is fed exactly once"

    def check(self, diagram, kb, declarations=None):
        out: List[Diagnostic] = []
        seen: Dict[Endpoint, Endpoint] = {}
        for src, sink in diagram.connections:
            if sink in seen:
                out.append(
                    self._e(
                        f"{sink} is driven by both {seen[sink]} and {src}",
                        subject=str(sink),
                        pipeline=diagram.number,
                    )
                )
            else:
                seen[sink] = src
        for (fu, port), mod in diagram.input_mods.items():
            ep = fu_in(fu, port)
            if ep in seen:
                out.append(
                    self._e(
                        f"{ep} has both a wired connection from {seen[ep]} and a "
                        f"{mod.kind.value} source",
                        subject=str(ep),
                        pipeline=diagram.number,
                    )
                )
        return out


class FanoutRule(Rule):
    """Switch sources may drive a bounded number of sinks."""

    rule_id = "switch-fanout"
    description = "source fan-out within the switch network's limit"

    def check(self, diagram, kb, declarations=None):
        out: List[Diagnostic] = []
        counts: Dict[Endpoint, int] = {}
        for src, _sink in diagram.connections:
            counts[src] = counts.get(src, 0) + 1
        for src, n in counts.items():
            if n > kb.max_fanout:
                out.append(
                    self._e(
                        f"{src} drives {n} sinks; the switch network allows "
                        f"{kb.max_fanout}",
                        subject=str(src),
                        pipeline=diagram.number,
                    )
                )
        return out


class SinglePlanePerFURule(Rule):
    """§3: during one instruction a unit touches at most one memory plane."""

    rule_id = "plane-single-fu"
    description = "one memory plane per functional unit per instruction"

    def check(self, diagram, kb, declarations=None):
        out: List[Diagnostic] = []
        for fu in diagram.active_fus():
            planes = diagram.planes_touched_by_fu(fu)
            if len(planes) > 1:
                out.append(
                    self._e(
                        f"fu{fu} touches memory planes {sorted(planes)}; only one "
                        f"plane per unit per instruction is allowed",
                        subject=f"fu{fu}",
                        pipeline=diagram.number,
                    )
                )
        return out


class OneWriterPerPlaneRule(Rule):
    """§4's example: at most one stream may write a given plane."""

    rule_id = "plane-one-writer"
    description = "at most one writer per memory plane per instruction"

    def check(self, diagram, kb, declarations=None):
        out: List[Diagnostic] = []
        for plane, writers in diagram.plane_writers().items():
            if len(writers) > 1:
                srcs = ", ".join(str(w) for w in writers)
                out.append(
                    self._e(
                        f"memory plane {plane} is written by {len(writers)} "
                        f"sources ({srcs})",
                        subject=f"mem[{plane}].write",
                        pipeline=diagram.number,
                    )
                )
        return out


class DMASpecRule(Rule):
    """Fig. 9: every memory/cache pad in use needs a consistent DMA spec."""

    rule_id = "dma-spec"
    description = "memory and cache connections carry valid DMA programs"

    def check(self, diagram, kb, declarations=None):
        out: List[Diagnostic] = []
        used = [
            e
            for e in diagram.used_endpoints()
            if e.kind in (DeviceKind.MEMORY, DeviceKind.CACHE)
        ]
        for ep in sorted(used, key=lambda e: e.key):
            spec = diagram.dma.get(ep)
            if spec is None:
                out.append(
                    self._e(
                        f"{ep} is connected but has no DMA specification "
                        f"(fill in the pop-up subwindow)",
                        subject=str(ep),
                        pipeline=diagram.number,
                    )
                )
                continue
            if spec.device_kind is not ep.kind or spec.device != ep.device:
                out.append(
                    self._e(
                        f"DMA spec names {spec.device_kind.value}[{spec.device}] but "
                        f"is attached to {ep}",
                        subject=str(ep),
                        pipeline=diagram.number,
                    )
                )
            expected = Direction.READ if ep.port == "read" else Direction.WRITE
            if spec.direction is not expected:
                out.append(
                    self._e(
                        f"DMA spec direction {spec.direction.value} does not match "
                        f"{ep.port} pad",
                        subject=str(ep),
                        pipeline=diagram.number,
                    )
                )
            try:
                spec.validate_against(kb.params)
            except DMASpecError as exc:
                out.append(
                    self._e(str(exc), subject=str(ep), pipeline=diagram.number)
                )
            if spec.is_symbolic and declarations is not None:
                decl = declarations.get(spec.variable or "")
                if decl is None:
                    out.append(
                        self._e(
                            f"DMA spec references undeclared variable "
                            f"{spec.variable!r}",
                            subject=str(ep),
                            pipeline=diagram.number,
                        )
                    )
                elif ep.kind is DeviceKind.MEMORY and decl.plane != ep.device:
                    out.append(
                        self._e(
                            f"variable {spec.variable!r} lives on plane "
                            f"{decl.plane}, not plane {ep.device}",
                            subject=str(ep),
                            pipeline=diagram.number,
                        )
                    )
        return out


class OneDMAProgramPerDeviceRule(Rule):
    """Each memory plane / cache has one DMA controller (§2), so one DMA
    program — a plane cannot both stream in and stream out of the same
    instruction (the microword holds a single program per device)."""

    rule_id = "dma-one-program"
    description = "one DMA program per memory plane / cache per instruction"

    def check(self, diagram, kb, declarations=None):
        out: List[Diagnostic] = []
        seen: Dict[Tuple[DeviceKind, int], Endpoint] = {}
        for ep in sorted(diagram.dma, key=lambda e: e.key):
            key = (ep.kind, ep.device)
            if key in seen:
                out.append(
                    self._e(
                        f"{ep.kind.value}[{ep.device}] already runs a DMA "
                        f"program for {seen[key]}; its single controller "
                        f"cannot also serve {ep}",
                        subject=str(ep),
                        pipeline=diagram.number,
                    )
                )
            else:
                seen[key] = ep
        return out


class InputsFedRule(Rule):
    """Programmed units must have every required input fed, and units with
    wiring should carry an operation."""

    rule_id = "inputs-fed"
    description = "operation arity matches the fed input pads"

    def check(self, diagram, kb, declarations=None):
        out: List[Diagnostic] = []
        for fu, assign in sorted(diagram.fu_ops.items()):
            arity = OPCODES[assign.opcode].arity
            fed = {
                port: diagram.input_source(fu, port) for port in ("a", "b")
            }
            if fed["a"] is None:
                out.append(
                    self._e(
                        f"fu{fu} performs {assign.opcode.value} but input a is "
                        f"unconnected",
                        subject=f"fu{fu}.a",
                        pipeline=diagram.number,
                    )
                )
            if arity == 2 and fed["b"] is None:
                out.append(
                    self._e(
                        f"fu{fu} performs {assign.opcode.value} (two inputs) but "
                        f"input b is unconnected",
                        subject=f"fu{fu}.b",
                        pipeline=diagram.number,
                    )
                )
            if arity == 1 and fed["b"] is not None:
                out.append(
                    self._w(
                        f"fu{fu} performs unary {assign.opcode.value}; input b is "
                        f"fed but ignored",
                        subject=f"fu{fu}.b",
                        pipeline=diagram.number,
                    )
                )
        # wired-but-unprogrammed units
        wired: set[int] = set()
        for src, sink in diagram.connections:
            if sink.kind is DeviceKind.FU:
                wired.add(sink.device)
            if src.kind is DeviceKind.FU:
                wired.add(src.device)
        for fu in sorted(wired - set(diagram.fu_ops)):
            out.append(
                self._e(
                    f"fu{fu} is wired into the pipeline but has no operation "
                    f"assigned (use the function-unit menu)",
                    subject=f"fu{fu}",
                    pipeline=diagram.number,
                )
            )
        return out


class InternalRouteRule(Rule):
    """INTERNAL input mods must use a hardwired route that exists in the
    ALS shape and whose source slot is active and programmed."""

    rule_id = "internal-route"
    description = "internal connections follow the ALS's hardwired edges"

    def check(self, diagram, kb, declarations=None):
        out: List[Diagnostic] = []
        for (fu, port), mod in sorted(diagram.input_mods.items()):
            if mod.kind is not InputModKind.INTERNAL:
                continue
            use = diagram.als_use_of_fu(fu)
            if use is None:
                out.append(
                    self._e(
                        f"fu{fu} uses an internal route but belongs to no placed ALS",
                        subject=f"fu{fu}.{port}",
                        pipeline=diagram.number,
                    )
                )
                continue
            slot = use.slot_of(fu)
            routes = kb.internal_routes_into(use.kind, slot, port)
            if not any(r.src_slot == mod.src_slot for r in routes):
                out.append(
                    self._e(
                        f"{use.kind.value} has no hardwired route from slot "
                        f"{mod.src_slot} into slot {slot} port {port}",
                        subject=f"fu{fu}.{port}",
                        pipeline=diagram.number,
                    )
                )
                continue
            src_fu = use.first_fu + mod.src_slot
            if mod.src_slot in use.bypassed_slots:
                out.append(
                    self._e(
                        f"internal route source slot {mod.src_slot} is bypassed",
                        subject=f"fu{fu}.{port}",
                        pipeline=diagram.number,
                    )
                )
            elif src_fu not in diagram.fu_ops:
                out.append(
                    self._e(
                        f"internal route source fu{src_fu} has no operation",
                        subject=f"fu{fu}.{port}",
                        pipeline=diagram.number,
                    )
                )
        return out


class FeedbackRule(Rule):
    """FEEDBACK input mods require a two-input operation on that unit."""

    rule_id = "feedback"
    description = "feedback loops feed a binary operation's second input"

    def check(self, diagram, kb, declarations=None):
        out: List[Diagnostic] = []
        for (fu, port), mod in sorted(diagram.input_mods.items()):
            if mod.kind is not InputModKind.FEEDBACK:
                continue
            assign = diagram.fu_ops.get(fu)
            if assign is None:
                out.append(
                    self._e(
                        f"fu{fu} has a feedback loop but no operation",
                        subject=f"fu{fu}.{port}",
                        pipeline=diagram.number,
                    )
                )
                continue
            if OPCODES[assign.opcode].arity != 2:
                out.append(
                    self._e(
                        f"feedback into unary {assign.opcode.value} on fu{fu} has "
                        f"no effect",
                        subject=f"fu{fu}.{port}",
                        pipeline=diagram.number,
                    )
                )
        return out


class RegfileCapacityRule(Rule):
    """Constants plus delay queues must fit the register file (§2/§5)."""

    rule_id = "regfile-capacity"
    description = "register-file words cover constants and delay queues"

    def check(self, diagram, kb, declarations=None):
        out: List[Diagnostic] = []
        for fu in diagram.active_fus():
            words = 0
            assign = diagram.fu_ops[fu]
            if OPCODES[assign.opcode].uses_constant:
                words += 1
            for port in ("a", "b"):
                mod = diagram.input_mods.get((fu, port))
                if mod is not None and mod.kind is InputModKind.CONSTANT:
                    words += 1
                if mod is not None and mod.kind is InputModKind.FEEDBACK:
                    words += 1  # feedback initial value
                words += diagram.delays.get((fu, port), 0)
            if words > kb.regfile_words:
                out.append(
                    self._e(
                        f"fu{fu} needs {words} register-file words (constants + "
                        f"delays) but only {kb.regfile_words} exist",
                        subject=f"fu{fu}",
                        pipeline=diagram.number,
                    )
                )
        return out


class ShiftDelayRule(Rule):
    """Shift/delay units: taps in range, shifts bounded, input fed."""

    rule_id = "shift-delay"
    description = "shift/delay tap configuration is realizable"

    def check(self, diagram, kb, declarations=None):
        out: List[Diagnostic] = []
        for (unit, tap), shift in sorted(diagram.sd_taps.items()):
            if not kb.sd_tap_exists(unit, tap):
                out.append(
                    self._e(
                        f"shift/delay unit {unit} tap {tap} does not exist",
                        subject=f"sd[{unit}].tap{tap}",
                        pipeline=diagram.number,
                    )
                )
            elif not kb.sd_shift_legal(shift):
                out.append(
                    self._e(
                        f"shift {shift} exceeds the unit's range "
                        f"+-{kb.params.shift_delay_max_shift}",
                        subject=f"sd[{unit}].tap{tap}",
                        pipeline=diagram.number,
                    )
                )
        # taps used in wiring must be configured; unit inputs must be fed
        for src, _sink in diagram.connections:
            if src.kind is DeviceKind.SHIFT_DELAY and src.port.startswith("tap"):
                unit = src.device
                tap = int(src.port[3:])
                if (unit, tap) not in diagram.sd_taps:
                    out.append(
                        self._e(
                            f"{src} is wired but its shift is not configured",
                            subject=str(src),
                            pipeline=diagram.number,
                        )
                    )
                feeder = diagram.driver_of(sd_in(unit))
                if feeder is None:
                    out.append(
                        self._e(
                            f"shift/delay unit {unit} emits streams but its input "
                            f"is unconnected",
                            subject=f"sd[{unit}].in",
                            pipeline=diagram.number,
                        )
                    )
        return out


class UnusedOutputRule(Rule):
    """A programmed unit whose output feeds nothing is probably a mistake."""

    rule_id = "unused-output"
    description = "programmed units should drive something"

    def check(self, diagram, kb, declarations=None):
        out: List[Diagnostic] = []
        condition_fu = diagram.condition.fu if diagram.condition else None
        # units feeding a hardwired route inside their own ALS, in one pass
        used_internally = set()
        for (consumer, _p), mod in diagram.input_mods.items():
            if mod.kind is InputModKind.INTERNAL:
                use = diagram.als_use_of_fu(consumer)
                if use is not None:
                    src = use.first_fu + mod.src_slot
                    if diagram.als_use_of_fu(src) is use:
                        used_internally.add(src)
        for fu in diagram.active_fus():
            if (not diagram.sinks_of(fu_out(fu)) and fu not in used_internally
                    and fu != condition_fu):
                out.append(
                    self._w(
                        f"fu{fu} output drives nothing",
                        subject=f"fu{fu}.out",
                        pipeline=diagram.number,
                    )
                )
        return out


class ConditionRule(Rule):
    """Condition monitors must watch a programmed unit."""

    rule_id = "condition"
    description = "condition interrupts watch an active functional unit"

    def check(self, diagram, kb, declarations=None):
        out: List[Diagnostic] = []
        cond = diagram.condition
        if cond is None:
            return out
        if cond.fu not in diagram.fu_ops:
            out.append(
                self._e(
                    f"condition watches fu{cond.fu}, which performs no operation",
                    subject=f"fu{cond.fu}",
                    pipeline=diagram.number,
                )
            )
        return out


class AcyclicityRule(Rule):
    """Drawn wiring must be a DAG; loops must use the FEEDBACK mod."""

    rule_id = "acyclic"
    description = "pipelines are acyclic (feedback via register file only)"

    def check(self, diagram, kb, declarations=None):
        try:
            diagram.topological_order()
        except DiagramError as exc:
            return [self._e(str(exc), pipeline=diagram.number)]
        return []


class VectorLengthRule(Rule):
    """Explicit DMA counts must agree with each other and any explicit
    vector length (they all pace the same pipeline)."""

    rule_id = "vector-length"
    description = "stream lengths are mutually consistent"

    def check(self, diagram, kb, declarations=None):
        out: List[Diagnostic] = []
        lengths: Dict[int, List[str]] = {}
        if diagram.vector_length is not None:
            lengths.setdefault(diagram.vector_length, []).append("pipeline")
        for ep, spec in diagram.dma.items():
            if spec.count is not None:
                lengths.setdefault(spec.count, []).append(str(ep))
        if len(lengths) > 1:
            desc = "; ".join(
                f"{n} ({', '.join(who)})" for n, who in sorted(lengths.items())
            )
            out.append(
                self._e(
                    f"inconsistent stream lengths: {desc}",
                    pipeline=diagram.number,
                )
            )
        return out


#: The production rule set, in the order diagnostics are reported.
ALL_RULES: Tuple[Rule, ...] = (
    ALSPlacementRule(),
    FUCapabilityRule(),
    ConnectionEndpointRule(),
    SinkUniquenessRule(),
    FanoutRule(),
    SinglePlanePerFURule(),
    OneWriterPerPlaneRule(),
    DMASpecRule(),
    OneDMAProgramPerDeviceRule(),
    InputsFedRule(),
    InternalRouteRule(),
    FeedbackRule(),
    RegfileCapacityRule(),
    ShiftDelayRule(),
    UnusedOutputRule(),
    ConditionRule(),
    AcyclicityRule(),
    VectorLengthRule(),
)


__all__ = ["Rule", "ALL_RULES"] + [r.__class__.__name__ for r in ALL_RULES]
