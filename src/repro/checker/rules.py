"""Constraint rules: "conflicts, constraints, asymmetries and other
restrictions in the NSC architecture" (§4).

Each rule inspects one pipeline against the machine knowledge base and
reports diagnostics.  Rules are deliberately independent so the set can
evolve with the machine design; :data:`ALL_RULES` is the production set run
by :meth:`Checker.check_pipeline`.

Rules read a frozen :class:`~repro.diagram.pipeline.DiagramView`, never
the live diagram: :meth:`Rule.check` freezes whatever it is handed (a
view freezes to itself) and :meth:`Rule.check_view` is a tight read of
the view's tables and the knowledge base's per-machine sets.  The
checker freezes each pipeline once for all rules.

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

from typing import Dict, List, Optional, Tuple, Union

from repro.arch.dma import DMASpecError, Direction
from repro.arch.switch import DeviceKind, Endpoint, fu_in
from repro.checker.diagnostics import Diagnostic, error, warning
from repro.checker.knowledge import INTERNAL_SOURCES, MachineKnowledge
from repro.diagram.pipeline import DiagramError, DiagramView, PipelineDiagram
from repro.diagram.program import Declaration

Declarations = Optional[Dict[str, Declaration]]

_MEMORY = DeviceKind.MEMORY


def _endpoint_key(ep: Endpoint) -> Tuple[str, int, str]:
    return ep.key


class Rule:
    """Base class: subclasses set ``rule_id``/``description`` and implement
    :meth:`check_view`."""

    rule_id: str = "abstract"
    description: str = ""

    def check(
        self,
        diagram: Union[PipelineDiagram, DiagramView],
        kb: MachineKnowledge,
        declarations: Declarations = None,
    ) -> List[Diagnostic]:
        """Diagnostics for one pipeline, live or frozen."""
        return self.check_view(diagram.freeze(), kb, declarations)

    def check_view(
        self,
        view: DiagramView,
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

    def check_view(self, view, kb, declarations=None):
        out: List[Diagnostic] = []
        shapes = kb.als_shapes
        for use in view.als_uses.values():
            if shapes.get(use.als_id) != (use.kind, use.first_fu):
                out.append(
                    self._e(
                        f"no {use.kind.value} with id {use.als_id} at fu{use.first_fu} "
                        f"in this machine",
                        subject=f"als{use.als_id}",
                        pipeline=view.number,
                    )
                )
        return out


class FUCapabilityRule(Rule):
    """Assigned operations must match the unit's circuitry (§3 asymmetry)."""

    rule_id = "fu-capability"
    description = "operation selectable only on capable functional units"

    def check_view(self, view, kb, declarations=None):
        out: List[Diagnostic] = []
        legal = kb.legal_ops
        for fu, assign in view.fu_ops.items():
            if not 0 <= fu < len(legal):
                out.append(
                    self._e(f"fu{fu} does not exist", subject=f"fu{fu}",
                            pipeline=view.number)
                )
            elif assign.opcode not in legal[fu]:
                cap = kb.fu_capability(fu).label
                out.append(
                    self._e(
                        f"fu{fu} ({cap}) cannot perform {assign.opcode.value}",
                        subject=f"fu{fu}",
                        pipeline=view.number,
                    )
                )
        return out


class ConnectionEndpointRule(Rule):
    """Wires must join a real switch source to a real switch sink."""

    rule_id = "conn-endpoints"
    description = "connections reference existing device ports"

    def check_view(self, view, kb, declarations=None):
        out: List[Diagnostic] = []
        sources, sinks = kb.switch_sources, kb.switch_sinks
        # the distinct endpoints, as sets built from the view's dict keys,
        # test against the machine's sets without re-hashing any endpoint
        if set(view.sinks) <= sources and set(view.driver) <= sinks:
            return out
        for src, sink in view.connections:
            if src not in sources:
                out.append(
                    self._e(f"{src} is not a data source on this machine",
                            subject=str(src), pipeline=view.number)
                )
            if sink not in sinks:
                out.append(
                    self._e(f"{sink} is not a data sink on this machine",
                            subject=str(sink), pipeline=view.number)
                )
        return out


class SinkUniquenessRule(Rule):
    """Every sink is driven by at most one source — including the case where
    a FU input has both a drawn wire and a register-file/internal source."""

    rule_id = "sink-unique"
    description = "each input pad is fed exactly once"

    def check_view(self, view, kb, declarations=None):
        out: List[Diagnostic] = []
        driver = view.driver
        if len(driver) != len(view.connections):  # some sink drawn twice
            seen = set()
            for src, sink in view.connections:
                if sink in seen:
                    out.append(
                        self._e(
                            f"{sink} is driven by both {driver[sink]} and {src}",
                            subject=str(sink),
                            pipeline=view.number,
                        )
                    )
                else:
                    seen.add(sink)
        wired = view.wired_ports
        for key, mod in view.input_mods.items():
            src = wired.get(key)
            if src is not None:
                ep = fu_in(*key)
                out.append(
                    self._e(
                        f"{ep} has both a wired connection from {src} and a "
                        f"{mod.kind.value} source",
                        subject=str(ep),
                        pipeline=view.number,
                    )
                )
        return out


class FanoutRule(Rule):
    """Switch sources may drive a bounded number of sinks."""

    rule_id = "switch-fanout"
    description = "source fan-out within the switch network's limit"

    def check_view(self, view, kb, declarations=None):
        out: List[Diagnostic] = []
        limit = kb.max_fanout
        for src, sinks in view.sinks.items():
            if len(sinks) > limit:
                out.append(
                    self._e(
                        f"{src} drives {len(sinks)} sinks; the switch network "
                        f"allows {limit}",
                        subject=str(src),
                        pipeline=view.number,
                    )
                )
        return out


class SinglePlanePerFURule(Rule):
    """§3: during one instruction a unit touches at most one memory plane."""

    rule_id = "plane-single-fu"
    description = "one memory plane per functional unit per instruction"

    def check_view(self, view, kb, declarations=None):
        out: List[Diagnostic] = []
        planes = view.planes
        for fu in view.active:
            touched = planes.get(fu)
            if touched is not None and len(touched) > 1:
                out.append(
                    self._e(
                        f"fu{fu} touches memory planes {sorted(touched)}; only "
                        f"one plane per unit per instruction is allowed",
                        subject=f"fu{fu}",
                        pipeline=view.number,
                    )
                )
        return out


class OneWriterPerPlaneRule(Rule):
    """§4's example: at most one stream may write a given plane."""

    rule_id = "plane-one-writer"
    description = "at most one writer per memory plane per instruction"

    def check_view(self, view, kb, declarations=None):
        out: List[Diagnostic] = []
        for plane, writers in view.plane_writers_of.items():
            if len(writers) > 1:
                srcs = ", ".join(str(w) for w in writers)
                out.append(
                    self._e(
                        f"memory plane {plane} is written by {len(writers)} "
                        f"sources ({srcs})",
                        subject=f"mem[{plane}].write",
                        pipeline=view.number,
                    )
                )
        return out


class DMASpecRule(Rule):
    """Fig. 9: every memory/cache pad in use needs a consistent DMA spec."""

    rule_id = "dma-spec"
    description = "memory and cache connections carry valid DMA programs"

    def check_view(self, view, kb, declarations=None):
        out: List[Diagnostic] = []
        dma = view.dma
        params = kb.params
        for ep in view.pads:
            spec = dma.get(ep)
            if spec is None:
                out.append(
                    self._e(
                        f"{ep} is connected but has no DMA specification "
                        f"(fill in the pop-up subwindow)",
                        subject=str(ep),
                        pipeline=view.number,
                    )
                )
                continue
            if spec.device_kind is not ep.kind or spec.device != ep.device:
                out.append(
                    self._e(
                        f"DMA spec names {spec.device_kind.value}[{spec.device}] but "
                        f"is attached to {ep}",
                        subject=str(ep),
                        pipeline=view.number,
                    )
                )
            expected = Direction.READ if ep.port == "read" else Direction.WRITE
            if spec.direction is not expected:
                out.append(
                    self._e(
                        f"DMA spec direction {spec.direction.value} does not match "
                        f"{ep.port} pad",
                        subject=str(ep),
                        pipeline=view.number,
                    )
                )
            try:
                spec.validate_against(params)
            except DMASpecError as exc:
                out.append(
                    self._e(str(exc), subject=str(ep), pipeline=view.number)
                )
            if spec.variable is not None and declarations is not None:
                decl = declarations.get(spec.variable)
                if decl is None:
                    out.append(
                        self._e(
                            f"DMA spec references undeclared variable "
                            f"{spec.variable!r}",
                            subject=str(ep),
                            pipeline=view.number,
                        )
                    )
                elif ep.kind is _MEMORY and decl.plane != ep.device:
                    out.append(
                        self._e(
                            f"variable {spec.variable!r} lives on plane "
                            f"{decl.plane}, not plane {ep.device}",
                            subject=str(ep),
                            pipeline=view.number,
                        )
                    )
        return out


class OneDMAProgramPerDeviceRule(Rule):
    """Each memory plane / cache has one DMA controller (§2), so one DMA
    program — a plane cannot both stream in and stream out of the same
    instruction (the microword holds a single program per device)."""

    rule_id = "dma-one-program"
    description = "one DMA program per memory plane / cache per instruction"

    def check_view(self, view, kb, declarations=None):
        out: List[Diagnostic] = []
        seen: Dict[Tuple[DeviceKind, int], Endpoint] = {}
        for ep in sorted(view.dma, key=_endpoint_key):
            key = (ep.kind, ep.device)
            if key in seen:
                out.append(
                    self._e(
                        f"{ep.kind.value}[{ep.device}] already runs a DMA "
                        f"program for {seen[key]}; its single controller "
                        f"cannot also serve {ep}",
                        subject=str(ep),
                        pipeline=view.number,
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

    def check_view(self, view, kb, declarations=None):
        out: List[Diagnostic] = []
        feeds = view.feeds
        op_info = view.op_info
        for fu in view.active:
            info = op_info[fu]
            arity = info.arity
            if (fu, "a") not in feeds:
                out.append(
                    self._e(
                        f"fu{fu} performs {info.opcode.value} but input a is "
                        f"unconnected",
                        subject=f"fu{fu}.a",
                        pipeline=view.number,
                    )
                )
            fed_b = (fu, "b") in feeds
            if arity == 2 and not fed_b:
                out.append(
                    self._e(
                        f"fu{fu} performs {info.opcode.value} (two inputs) but "
                        f"input b is unconnected",
                        subject=f"fu{fu}.b",
                        pipeline=view.number,
                    )
                )
            if arity == 1 and fed_b:
                out.append(
                    self._w(
                        f"fu{fu} performs unary {info.opcode.value}; input b is "
                        f"fed but ignored",
                        subject=f"fu{fu}.b",
                        pipeline=view.number,
                    )
                )
        # wired-but-unprogrammed units
        for fu in sorted(view.wired_fus.difference(view.fu_ops)):
            out.append(
                self._e(
                    f"fu{fu} is wired into the pipeline but has no operation "
                    f"assigned (use the function-unit menu)",
                    subject=f"fu{fu}",
                    pipeline=view.number,
                )
            )
        return out


class InternalRouteRule(Rule):
    """INTERNAL input mods must use a hardwired route that exists in the
    ALS shape and whose source slot is active and programmed."""

    rule_id = "internal-route"
    description = "internal connections follow the ALS's hardwired edges"

    def check_view(self, view, kb, declarations=None):
        out: List[Diagnostic] = []
        fu_als = view.fu_als
        for (fu, port), mod in view.internal_mods:
            use = fu_als.get(fu)
            if use is None:
                out.append(
                    self._e(
                        f"fu{fu} uses an internal route but belongs to no placed ALS",
                        subject=f"fu{fu}.{port}",
                        pipeline=view.number,
                    )
                )
                continue
            slot = fu - use.first_fu
            routes = INTERNAL_SOURCES[use.kind].get((slot, port), ())
            if mod.src_slot not in routes:
                out.append(
                    self._e(
                        f"{use.kind.value} has no hardwired route from slot "
                        f"{mod.src_slot} into slot {slot} port {port}",
                        subject=f"fu{fu}.{port}",
                        pipeline=view.number,
                    )
                )
                continue
            src_fu = use.first_fu + mod.src_slot
            if mod.src_slot in use.bypassed_slots:
                out.append(
                    self._e(
                        f"internal route source slot {mod.src_slot} is bypassed",
                        subject=f"fu{fu}.{port}",
                        pipeline=view.number,
                    )
                )
            elif src_fu not in view.fu_ops:
                out.append(
                    self._e(
                        f"internal route source fu{src_fu} has no operation",
                        subject=f"fu{fu}.{port}",
                        pipeline=view.number,
                    )
                )
        return out


class FeedbackRule(Rule):
    """FEEDBACK input mods require a two-input operation on that unit."""

    rule_id = "feedback"
    description = "feedback loops feed a binary operation's second input"

    def check_view(self, view, kb, declarations=None):
        out: List[Diagnostic] = []
        op_info = view.op_info
        for (fu, port), _mod in view.feedback_mods:
            info = op_info.get(fu)
            if info is None:
                out.append(
                    self._e(
                        f"fu{fu} has a feedback loop but no operation",
                        subject=f"fu{fu}.{port}",
                        pipeline=view.number,
                    )
                )
            elif info.arity != 2:
                out.append(
                    self._e(
                        f"feedback into unary {info.opcode.value} on fu{fu} has "
                        f"no effect",
                        subject=f"fu{fu}.{port}",
                        pipeline=view.number,
                    )
                )
        return out


class RegfileCapacityRule(Rule):
    """Constants plus delay queues must fit the register file (§2/§5)."""

    rule_id = "regfile-capacity"
    description = "register-file words cover constants and delay queues"

    def check_view(self, view, kb, declarations=None):
        out: List[Diagnostic] = []
        limit = kb.regfile_words
        mod_words = view.mod_words
        delays = view.delays
        for fu in view.active:
            words = mod_words.get(fu, 0)
            if delays:
                words += delays.get((fu, "a"), 0) + delays.get((fu, "b"), 0)
            if words > limit:
                out.append(
                    self._e(
                        f"fu{fu} needs {words} register-file words (constants + "
                        f"delays) but only {limit} exist",
                        subject=f"fu{fu}",
                        pipeline=view.number,
                    )
                )
        return out


class ShiftDelayRule(Rule):
    """Shift/delay units: taps in range, shifts bounded, input fed."""

    rule_id = "shift-delay"
    description = "shift/delay tap configuration is realizable"

    def check_view(self, view, kb, declarations=None):
        out: List[Diagnostic] = []
        params = kb.params
        n_units = params.n_shift_delay_units
        n_taps = params.shift_delay_taps
        max_shift = params.shift_delay_max_shift
        for (unit, tap), shift in sorted(view.sd_taps.items()):
            if not (0 <= unit < n_units and 0 <= tap < n_taps):
                out.append(
                    self._e(
                        f"shift/delay unit {unit} tap {tap} does not exist",
                        subject=f"sd[{unit}].tap{tap}",
                        pipeline=view.number,
                    )
                )
            elif abs(shift) > max_shift:
                out.append(
                    self._e(
                        f"shift {shift} exceeds the unit's range "
                        f"+-{max_shift}",
                        subject=f"sd[{unit}].tap{tap}",
                        pipeline=view.number,
                    )
                )
        # taps used in wiring must be configured; unit inputs must be fed
        sd_taps = view.sd_taps
        sd_feeder = view.sd_feeder
        for src in view.tap_wires:
            unit = src.device
            if (unit, int(src.port[3:])) not in sd_taps:
                out.append(
                    self._e(
                        f"{src} is wired but its shift is not configured",
                        subject=str(src),
                        pipeline=view.number,
                    )
                )
            if unit not in sd_feeder:
                out.append(
                    self._e(
                        f"shift/delay unit {unit} emits streams but its input "
                        f"is unconnected",
                        subject=f"sd[{unit}].in",
                        pipeline=view.number,
                    )
                )
        return out


class UnusedOutputRule(Rule):
    """A programmed unit whose output feeds nothing is probably a mistake."""

    rule_id = "unused-output"
    description = "programmed units should drive something"

    def check_view(self, view, kb, declarations=None):
        out: List[Diagnostic] = []
        # units that drive a wire, feed a hardwired route inside their
        # own ALS, or are watched by the condition monitor
        used = set(view.driving_fus)
        if view.condition is not None:
            used.add(view.condition.fu)
        fu_als = view.fu_als
        for (consumer, _port), mod in view.internal_mods:
            use = fu_als.get(consumer)
            if use is not None:
                src = use.first_fu + mod.src_slot
                if fu_als.get(src) is use:
                    used.add(src)
        for fu in view.active:
            if fu not in used:
                out.append(
                    self._w(
                        f"fu{fu} output drives nothing",
                        subject=f"fu{fu}.out",
                        pipeline=view.number,
                    )
                )
        return out


class ConditionRule(Rule):
    """Condition monitors must watch a programmed unit."""

    rule_id = "condition"
    description = "condition interrupts watch an active functional unit"

    def check_view(self, view, kb, declarations=None):
        cond = view.condition
        if cond is None or cond.fu in view.fu_ops:
            return []
        return [
            self._e(
                f"condition watches fu{cond.fu}, which performs no operation",
                subject=f"fu{cond.fu}",
                pipeline=view.number,
            )
        ]


class AcyclicityRule(Rule):
    """Drawn wiring must be a DAG; loops must use the FEEDBACK mod."""

    rule_id = "acyclic"
    description = "pipelines are acyclic (feedback via register file only)"

    def check_view(self, view, kb, declarations=None):
        try:
            view.topological_order()
        except DiagramError as exc:
            return [self._e(str(exc), pipeline=view.number)]
        return []


class VectorLengthRule(Rule):
    """Explicit DMA counts must agree with each other and any explicit
    vector length (they all pace the same pipeline)."""

    rule_id = "vector-length"
    description = "stream lengths are mutually consistent"

    def check_view(self, view, kb, declarations=None):
        lengths: Dict[int, List[str]] = {}
        if view.vector_length is not None:
            lengths[view.vector_length] = ["pipeline"]
        for ep, spec in view.dma.items():
            if spec.count is not None:
                lengths.setdefault(spec.count, []).append(str(ep))
        if len(lengths) <= 1:
            return []
        desc = "; ".join(
            f"{n} ({', '.join(who)})" for n, who in sorted(lengths.items())
        )
        return [
            self._e(f"inconsistent stream lengths: {desc}", pipeline=view.number)
        ]


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
