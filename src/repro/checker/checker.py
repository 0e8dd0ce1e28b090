"""The checker facade: incremental edit-time checks and global validation.

Paper §4: "The graphical editor calls on the checker at appropriate points
during interaction with the user to validate the information being input.
Any errors are flagged as soon as they are detected.  In addition, the
graphical editor uses the checker's knowledge of the architecture to reduce
the possibilities for making errors" — realized here by
:meth:`Checker.legal_sources_for`, which enumerates exactly the menu entries
the editor may offer for a given input pad.

The microcode generator invokes :meth:`check_program` "to perform a thorough
check of global constraints and other conditions which may not be practical
to check during the editing process".

Every check reads a frozen :class:`~repro.diagram.pipeline.DiagramView`:
:meth:`check_pipeline` freezes the diagram it is handed once for all rules
(a view freezes to itself), and :meth:`check_program` takes the views the
generator froze, so one compile indexes each pipeline once.  The
editor's incremental checks freeze the live diagram per call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.arch.funcunit import Opcode
from repro.arch.node import NodeConfig
from repro.arch.switch import DeviceKind, Endpoint
from repro.checker.diagnostics import CheckReport, error, warning
from repro.checker.knowledge import MachineKnowledge
from repro.checker.rules import ALL_RULES, Rule
from repro.diagram.pipeline import DiagramView, PipelineDiagram
from repro.diagram.program import (
    Declaration,
    ProgramError,
    VisualProgram,
)


class Checker:
    """Validates diagrams and programs against one machine description."""

    def __init__(
        self,
        node: NodeConfig,
        rules: Sequence[Rule] = ALL_RULES,
    ) -> None:
        self.kb = MachineKnowledge(node)
        self.rules: List[Rule] = list(rules)
        self.incremental_checks = 0
        self.full_checks = 0

    # ------------------------------------------------------------------
    # incremental (edit-time) checks
    # ------------------------------------------------------------------
    def check_connection(
        self,
        diagram: Union[PipelineDiagram, DiagramView],
        source: Endpoint,
        sink: Endpoint,
    ) -> CheckReport:
        """Validate a *proposed* connection before the editor commits it.

        This is the rubber-band check of Fig. 8: "The checker is used during
        this operation to ensure that only legal connections are attempted."
        """
        self.incremental_checks += 1
        view = diagram.freeze()
        report = CheckReport()
        kb = self.kb
        if not kb.is_switch_source(source):
            report.add(
                error("conn-endpoints", f"{source} is not a data source",
                      str(source), view.number)
            )
        if not kb.is_switch_sink(sink):
            report.add(
                error("conn-endpoints", f"{sink} is not a data sink",
                      str(sink), view.number)
            )
        if not report.ok:
            return report
        driver = view.driver_of(sink)
        if driver is not None:
            report.add(
                error("sink-unique",
                      f"{sink} is already driven by {driver}",
                      str(sink), view.number)
            )
        if sink.kind is DeviceKind.FU and (sink.device, sink.port) in view.input_mods:
            mod = view.input_mods[(sink.device, sink.port)]
            report.add(
                error("sink-unique",
                      f"{sink} already has a {mod.kind.value} source",
                      str(sink), view.number)
            )
        fanout = len(view.sinks.get(source, ()))
        if fanout + 1 > kb.max_fanout:
            report.add(
                error("switch-fanout",
                      f"{source} already drives {fanout} sinks (limit "
                      f"{kb.max_fanout})", str(source), view.number)
            )
        # the paper's worked example: second writer to a plane is refused
        if sink.kind is DeviceKind.MEMORY and sink.port == "write":
            writers = view.plane_writers_of.get(sink.device)
            if writers:
                report.add(
                    error("plane-one-writer",
                          f"memory plane {sink.device} is already written by "
                          f"{writers[0]}", str(sink), view.number)
                )
        # single plane per FU, evaluated on the hypothetical diagram
        if self._would_violate_single_plane(view, source, sink):
            report.add(
                error("plane-single-fu",
                      "this connection would make a functional unit touch a "
                      "second memory plane in one instruction",
                      str(sink), view.number)
            )
        return report

    @staticmethod
    def _would_violate_single_plane(
        view: DiagramView, source: Endpoint, sink: Endpoint
    ) -> bool:
        """Would a unit at either end of the wire touch more than one
        memory plane once the wire is drawn (last, so a driven sink keeps
        its first-drawn driver)?  A wire already drawn cannot be drawn
        again, so it changes nothing."""
        if sink in view.sinks.get(source, ()):
            return False
        added = None  # the (fu, plane) the new wire makes a unit touch
        if sink.kind is DeviceKind.MEMORY:
            if source.kind is DeviceKind.FU and source.port == "out":
                added = (source.device, sink.device)
        elif sink.kind is DeviceKind.FU and sink.port in ("a", "b") \
                and sink not in view.driver:
            feeder: Optional[Endpoint] = source
            if source.kind is DeviceKind.SHIFT_DELAY:
                feeder = view.sd_feeder.get(source.device)
            if feeder is not None and feeder.kind is DeviceKind.MEMORY:
                added = (sink.device, feeder.device)
        for ep in (source, sink):
            if ep.kind is not DeviceKind.FU:
                continue
            planes = set(view.planes.get(ep.device, ()))
            if added is not None and added[0] == ep.device:
                planes.add(added[1])
            if len(planes) > 1:
                return True
        return False

    def check_fu_op(
        self, diagram: PipelineDiagram, fu: int, opcode: Opcode
    ) -> CheckReport:
        """Validate a proposed operation assignment (the Fig. 10 menu)."""
        self.incremental_checks += 1
        report = CheckReport()
        if not self.kb.fu_exists(fu):
            report.add(
                error("fu-capability", f"fu{fu} does not exist", f"fu{fu}",
                      diagram.number)
            )
            return report
        if not self.kb.fu_supports(fu, opcode):
            report.add(
                error(
                    "fu-capability",
                    f"fu{fu} ({self.kb.fu_capability(fu).label}) cannot perform "
                    f"{opcode.value}",
                    f"fu{fu}",
                    diagram.number,
                )
            )
        use = diagram.als_use_of_fu(fu)
        if use is None:
            report.add(
                error("als-placement",
                      f"fu{fu} belongs to no ALS placed in this diagram",
                      f"fu{fu}", diagram.number)
            )
        elif fu not in use.active_fus:
            report.add(
                error("als-placement", f"fu{fu} is bypassed in ALS {use.als_id}",
                      f"fu{fu}", diagram.number)
            )
        return report

    def legal_sources_for(
        self, diagram: PipelineDiagram, sink: Endpoint
    ) -> List[Endpoint]:
        """Sources that could legally drive *sink* right now.

        The editor builds the pad's pop-up menu from this list, so illegal
        choices are never offered.
        """
        view = diagram.freeze()
        out: List[Endpoint] = []
        for source in sorted(self.kb.all_sources()):
            if source.kind is DeviceKind.FU and source.device == getattr(
                sink, "device", None
            ) and sink.kind is DeviceKind.FU:
                continue  # self-loop is the FEEDBACK mod, not a wire
            if self.check_connection(view, source, sink).ok:
                out.append(source)
        return out

    def legal_ops_for(self, fu: int) -> List[Opcode]:
        """Menu entries for a unit (Fig. 10), filtered by capability."""
        return self.kb.legal_ops_for_fu(fu)

    # ------------------------------------------------------------------
    # full checks
    # ------------------------------------------------------------------
    def check_pipeline(
        self,
        diagram: Union[PipelineDiagram, DiagramView],
        declarations: Optional[Dict[str, Declaration]] = None,
    ) -> CheckReport:
        """Run every rule against one pipeline, frozen once."""
        self.full_checks += 1
        view = diagram.freeze()
        kb = self.kb
        report = CheckReport()
        for rule in self.rules:
            report.extend(rule.check_view(view, kb, declarations))
        return report

    def check_program(
        self,
        program: VisualProgram,
        views: Optional[Sequence[DiagramView]] = None,
    ) -> CheckReport:
        """The thorough pre-codegen pass over a whole program.

        *views* are the program's pipelines already frozen, in order (the
        generator's); without them each pipeline is frozen here."""
        if views is None:
            views = [diagram.freeze() for diagram in program.pipelines]
        report = CheckReport()
        # declarations fit their planes and do not collide
        plane_cursor: Dict[int, int] = {}
        for decl in program.declarations.values():
            if not self.kb.plane_exists(decl.plane):
                report.add(
                    error("declaration",
                          f"variable {decl.name!r} names nonexistent plane "
                          f"{decl.plane}", decl.name)
                )
                continue
            used = plane_cursor.get(decl.plane, 0) + decl.length
            if used > self.kb.params.memory_plane_words:
                report.add(
                    error("declaration",
                          f"plane {decl.plane} overflows: {used} words needed, "
                          f"{self.kb.params.memory_plane_words} available",
                          decl.name)
                )
            plane_cursor[decl.plane] = used
        # each pipeline
        for view in views:
            report.merge(self.check_pipeline(view, program.declarations))
        # DMA windows stay inside their variables
        for view in views:
            n = view.vector_length
            for ep, spec in view.dma.items():
                if not spec.is_symbolic:
                    continue
                decl = program.declarations.get(spec.variable or "")
                if decl is None:
                    continue  # already reported by the dma-spec rule
                count = spec.count if spec.count is not None else n
                if count is None:
                    continue
                last = spec.offset + (count - 1) * spec.stride
                if last < 0 or last >= decl.length or spec.offset < 0:
                    report.add(
                        error(
                            "dma-bounds",
                            f"DMA window [{spec.offset}..{last}] falls outside "
                            f"variable {decl.name!r} of {decl.length} words",
                            str(ep),
                            view.number,
                        )
                    )
        # control flow references
        try:
            for op in program.effective_control():
                program._validate_control(op)
        except ProgramError as exc:
            report.add(error("control-flow", str(exc)))
        if not program.pipelines:
            report.add(warning("program", "program contains no pipelines"))
        return report


__all__ = ["Checker"]
