"""EditorSession: the interactive environment, scriptable.

One session owns a program, a checker, per-pipeline canvases, a control
panel, an undo stack, and the message strip.  Each public method corresponds
to a user-level interaction from §5 (select an icon, drag it, mouse a pad,
pick from a menu, fill a subwindow field), and each increments
``action_count`` — the effort measure benchmark C2 compares against
microassembler tokens.

Errors never mutate state: the checker is consulted first (the
syntax-directed-editor philosophy of §4) and failures land in the message
strip, exactly like the prototype's "informational and error messages ...
displayed in the narrow strip across the top".
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.arch.als import ALSKind
from repro.arch.dma import DMASpecError
from repro.arch.funcunit import Opcode
from repro.arch.node import NodeConfig
from repro.arch.switch import DeviceKind, Endpoint, fu_in
from repro.checker.checker import Checker
from repro.checker.diagnostics import CheckReport, error
from repro.diagram.icons import (
    ALSIcon,
    Icon,
    icon_for_endpoint_device,
    make_als_icon,
)
from repro.diagram.pipeline import (
    ConditionSpec,
    DiagramError,
    InputMod,
    PipelineDiagram,
)
from repro.diagram.program import VisualProgram
from repro.diagram import serialize
from repro.editor.canvas import Canvas, CanvasError
from repro.editor.commands import Command, CommandError, CommandStack
from repro.editor.menus import (
    DMASubwindow,
    MenuError,
    PopupMenu,
    build_fu_op_menu,
    build_pad_menu,
)
from repro.editor.panel import ControlPanel, PaletteIcon, PanelError


class EditorError(Exception):
    """A session-level misuse (distinct from checker rejections, which are
    reported through the message strip and returned as CheckReports)."""


class EditorSession:
    """A scripted stand-in for the prototype's Sun-3 editor."""

    CANVAS_SIZE = (100, 40)

    def __init__(
        self,
        node: Optional[NodeConfig] = None,
        program: Optional[VisualProgram] = None,
    ) -> None:
        self.node = node if node is not None else NodeConfig()
        self.program = program if program is not None else VisualProgram()
        self.checker = Checker(self.node)
        self.panel = ControlPanel()
        self.commands = CommandStack()
        self.canvases: Dict[int, Canvas] = {}
        self.message = ""
        self.action_count = 0
        if not self.program.pipelines:
            self.program.insert_pipeline(PipelineDiagram(label=""))
        self.current = 0

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    @property
    def diagram(self) -> PipelineDiagram:
        return self.program.pipelines[self.current]

    @property
    def canvas(self) -> Canvas:
        if self.current not in self.canvases:
            self.canvases[self.current] = Canvas(*self.CANVAS_SIZE)
        return self.canvases[self.current]

    def _action(self) -> None:
        self.action_count += 1

    def _ok(self, text: str = "") -> None:
        self.message = text

    def _fail(self, report_or_text) -> CheckReport:
        if isinstance(report_or_text, CheckReport):
            self.message = report_or_text.first_error_message()
            return report_or_text
        report = CheckReport()
        report.add(error("editor", str(report_or_text)))
        self.message = report.first_error_message()
        return report

    # ------------------------------------------------------------------
    # icon selection and placement (Figs. 6-7)
    # ------------------------------------------------------------------
    def select_icon(self, name: str) -> PaletteIcon:
        """Mouse press on a control-panel icon button."""
        self._action()
        try:
            icon = self.panel.select_icon(name)
        except PanelError as exc:
            raise EditorError(str(exc)) from exc
        self._ok(f"selected {name}; drag to position")
        return icon

    def _free_als(self, kind: ALSKind) -> Optional[int]:
        for inst in self.node.als_of_kind(kind):
            if inst.als_id not in self.diagram.als_uses:
                return inst.als_id
        return None

    def drag_to(self, x: int, y: int) -> Optional[Icon]:
        """Drop the selected palette icon at (x, y): allocates a concrete
        device and records it both semantically and on the canvas."""
        self._action()
        try:
            palette = self.panel.take_selection()
        except PanelError as exc:
            self._fail(str(exc))
            return None
        kind = palette.als_kind
        if kind is not None:
            als_id = self._free_als(kind)
            if als_id is None:
                self._fail(f"no free {kind.value} left in this machine")
                return None
            inst = self.node.als(als_id)
            icon = make_als_icon(
                als_id, kind, inst.first_fu, palette.bypassed_slots
            )
            diagram, canvas = self.diagram, self.canvas
            bypassed = palette.bypassed_slots

            def do() -> None:
                diagram.add_als(als_id, kind, inst.first_fu, bypassed)
                canvas.place(icon, x, y)

            def undo() -> None:
                diagram.remove_als(als_id)
                canvas.remove(icon.icon_id)

            try:
                self.commands.execute(Command(f"place {icon.icon_id}", do, undo))
            except (CanvasError, DiagramError) as exc:
                self._fail(str(exc))
                return None
            self._ok(f"placed {icon.icon_id} at ({x},{y})")
            return icon
        # device icons (memory plane / cache / shift-delay) need a device id
        self._fail(
            f"{palette.value} icons need a device number; use "
            f"place_device(kind, device, x, y)"
        )
        return None

    def place_device(
        self, kind: DeviceKind, device: int, x: int, y: int
    ) -> Optional[Icon]:
        """Place a memory-plane / cache / shift-delay icon directly."""
        self._action()
        kb = self.checker.kb
        exists = {
            DeviceKind.MEMORY: kb.plane_exists,
            DeviceKind.CACHE: kb.cache_exists,
            DeviceKind.SHIFT_DELAY: kb.sd_unit_exists,
        }.get(kind)
        if exists is None or not exists(device):
            self._fail(f"no {kind.value} numbered {device} in this machine")
            return None
        icon = icon_for_endpoint_device(
            kind, device, n_taps=self.node.params.shift_delay_taps
        )
        canvas = self.canvas

        def do() -> None:
            canvas.place(icon, x, y)

        def undo() -> None:
            canvas.remove(icon.icon_id)

        try:
            self.commands.execute(Command(f"place {icon.icon_id}", do, undo))
        except CanvasError as exc:
            self._fail(str(exc))
            return None
        self._ok(f"placed {icon.icon_id} at ({x},{y})")
        return icon

    def move_icon(self, icon_id: str, x: int, y: int) -> bool:
        self._action()
        canvas = self.canvas
        try:
            old = canvas.placements[icon_id]
        except KeyError:
            self._fail(f"no icon {icon_id!r} on the canvas")
            return False
        ox, oy = old.x, old.y

        def do() -> None:
            canvas.move(icon_id, x, y)

        def undo() -> None:
            canvas.move(icon_id, ox, oy)

        try:
            self.commands.execute(Command(f"move {icon_id}", do, undo))
        except CanvasError as exc:
            self._fail(str(exc))
            return False
        self._ok(f"moved {icon_id} to ({x},{y})")
        return True

    # ------------------------------------------------------------------
    # wiring (Fig. 8)
    # ------------------------------------------------------------------
    def pad_menu(self, sink: Endpoint) -> PopupMenu:
        """Mouse an input pad: the checker-filtered source menu pops up."""
        self._action()
        return build_pad_menu(self.checker, self.diagram, sink)

    def connect(self, source: Endpoint, sink: Endpoint) -> CheckReport:
        """Attempt a connection; commits only when the checker approves."""
        self._action()
        report = self.checker.check_connection(self.diagram, source, sink)
        if not report.ok:
            self.message = report.first_error_message()
            return report
        diagram, canvas = self.diagram, self.canvas

        def do() -> None:
            diagram.connect(source, sink)
            canvas.add_wire(source, sink)

        def undo() -> None:
            diagram.disconnect(source, sink)
            canvas.remove_wire(source, sink)

        self.commands.execute(Command(f"wire {source} -> {sink}", do, undo))
        self._ok(f"connected {source} -> {sink}")
        return report

    def start_connection(self, source: Endpoint) -> None:
        """Anchor the rubber band on an output pad."""
        self._action()
        try:
            self.canvas.start_rubber_band(source)
        except CanvasError as exc:
            self._fail(str(exc))
            raise EditorError(str(exc)) from exc
        self._ok(f"rubber band from {source}")

    def finish_connection(self, sink: Endpoint) -> CheckReport:
        """Release over an input pad; the checker vets the result."""
        self._action()
        try:
            source = self.canvas.finish_rubber_band()
        except CanvasError as exc:
            return self._fail(str(exc))
        return self.connect(source, sink)

    def disconnect(self, source: Endpoint, sink: Endpoint) -> bool:
        self._action()
        diagram, canvas = self.diagram, self.canvas
        if (source, sink) not in diagram.connections:
            self._fail(f"no connection {source} -> {sink}")
            return False

        def do() -> None:
            diagram.disconnect(source, sink)
            if (source, sink) in canvas.wires:
                canvas.remove_wire(source, sink)

        def undo() -> None:
            diagram.connect(source, sink)
            canvas.add_wire(source, sink)

        self.commands.execute(Command(f"unwire {source} -> {sink}", do, undo))
        self._ok(f"removed {source} -> {sink}")
        return True

    def set_input_mod(
        self, fu: int, port: str, mod: InputMod
    ) -> CheckReport:
        """Choose an internal / constant / feedback source for a pad."""
        self._action()
        report = CheckReport()
        if self.diagram.driver_of(fu_in(fu, port)) is not None:
            report.add(
                error(
                    "sink-unique",
                    f"fu{fu}.{port} already has a wired connection",
                    f"fu{fu}.{port}",
                )
            )
            self.message = report.first_error_message()
            return report
        diagram = self.diagram
        previous = diagram.input_mods.get((fu, port))

        def do() -> None:
            diagram.set_input_mod(fu, port, mod)

        def undo() -> None:
            if previous is None:
                diagram.input_mods.pop((fu, port), None)
            else:
                diagram.set_input_mod(fu, port, previous)

        try:
            self.commands.execute(
                Command(f"{mod.kind.value} input fu{fu}.{port}", do, undo)
            )
        except DiagramError as exc:
            return self._fail(str(exc))
        self._ok(f"fu{fu}.{port} takes {mod.kind.value} input")
        return report

    def set_delay(self, fu: int, port: str, cycles: int) -> CheckReport:
        """Route a pad's stream through a register-file circular queue."""
        self._action()
        if cycles > self.node.params.regfile_words:
            return self._fail(
                f"a delay of {cycles} exceeds the register file "
                f"({self.node.params.regfile_words} words)"
            )
        diagram = self.diagram
        previous = diagram.delays.get((fu, port), 0)

        def do() -> None:
            diagram.set_delay(fu, port, cycles)

        def undo() -> None:
            diagram.set_delay(fu, port, previous)

        try:
            self.commands.execute(Command(f"delay fu{fu}.{port}={cycles}", do, undo))
        except DiagramError as exc:
            return self._fail(str(exc))
        self._ok(f"fu{fu}.{port} delayed {cycles} cycles")
        return CheckReport()

    # ------------------------------------------------------------------
    # DMA subwindows (Fig. 9)
    # ------------------------------------------------------------------
    def dma_popup(self, endpoint: Endpoint) -> DMASubwindow:
        """Open the cache/memory subwindow for *endpoint*."""
        self._action()
        if endpoint.kind not in (DeviceKind.MEMORY, DeviceKind.CACHE):
            raise EditorError(f"{endpoint} takes no DMA subwindow")
        return DMASubwindow(endpoint=endpoint)

    def fill_dma_field(
        self, subwindow: DMASubwindow, field_name: str, value: object
    ) -> None:
        """Type into one subwindow field (each fill is one user action)."""
        self._action()
        try:
            subwindow.fill(field_name, value)
        except MenuError as exc:
            self._fail(str(exc))
            raise EditorError(str(exc)) from exc

    def commit_dma(self, subwindow: DMASubwindow) -> CheckReport:
        """Close the subwindow, validating and storing the DMA spec."""
        self._action()
        try:
            spec = subwindow.to_spec()
            spec.validate_against(self.node.params)
        except DMASpecError as exc:
            return self._fail(str(exc))
        if spec.is_symbolic and spec.variable not in self.program.declarations:
            return self._fail(
                f"variable {spec.variable!r} is not declared"
            )
        diagram = self.diagram
        ep = subwindow.endpoint
        previous = diagram.dma.get(ep)

        def do() -> None:
            diagram.set_dma(ep, spec)

        def undo() -> None:
            if previous is None:
                diagram.dma.pop(ep, None)
            else:
                diagram.set_dma(ep, previous)

        self.commands.execute(Command(f"dma {ep}", do, undo))
        self._ok(f"DMA program set for {ep}")
        return CheckReport()

    # ------------------------------------------------------------------
    # function-unit programming (Fig. 10)
    # ------------------------------------------------------------------
    def fu_menu(self, fu: int) -> PopupMenu:
        self._action()
        return build_fu_op_menu(self.checker, fu)

    def assign_op(
        self, fu: int, opcode: Opcode, constant: float = 0.0
    ) -> CheckReport:
        self._action()
        report = self.checker.check_fu_op(self.diagram, fu, opcode)
        if not report.ok:
            self.message = report.first_error_message()
            return report
        diagram = self.diagram
        previous = diagram.fu_ops.get(fu)

        def do() -> None:
            diagram.set_fu_op(fu, opcode, constant)

        def undo() -> None:
            if previous is None:
                diagram.clear_fu_op(fu)
            else:
                diagram.set_fu_op(fu, previous.opcode, previous.constant)

        self.commands.execute(Command(f"op fu{fu}={opcode.value}", do, undo))
        self._ok(f"fu{fu} performs {opcode.value}")
        return report

    def set_sd_tap(self, unit: int, tap: int, shift: int) -> CheckReport:
        self._action()
        kb = self.checker.kb
        if not kb.sd_tap_exists(unit, tap):
            return self._fail(f"no tap {tap} on shift/delay unit {unit}")
        if not kb.sd_shift_legal(shift):
            return self._fail(
                f"shift {shift} exceeds +-{self.node.params.shift_delay_max_shift}"
            )
        diagram = self.diagram
        previous = diagram.sd_taps.get((unit, tap))

        def do() -> None:
            diagram.set_sd_tap(unit, tap, shift)

        def undo() -> None:
            if previous is None:
                diagram.sd_taps.pop((unit, tap), None)
            else:
                diagram.set_sd_tap(unit, tap, previous)

        self.commands.execute(Command(f"sd[{unit}].tap{tap}={shift}", do, undo))
        self._ok(f"sd[{unit}].tap{tap} shifts by {shift}")
        return CheckReport()

    def set_condition(self, fu: int, comparison: str, threshold: float) -> CheckReport:
        self._action()
        diagram = self.diagram
        previous = diagram.condition
        try:
            spec = ConditionSpec(fu=fu, comparison=comparison, threshold=threshold)
        except DiagramError as exc:
            return self._fail(str(exc))

        def do() -> None:
            diagram.set_condition(spec)

        def undo() -> None:
            diagram.set_condition(previous)

        self.commands.execute(Command(f"condition fu{fu}", do, undo))
        self._ok(f"condition: fu{fu} {comparison} {threshold}")
        return CheckReport()

    # ------------------------------------------------------------------
    # declarations (the left region of Fig. 5)
    # ------------------------------------------------------------------
    def declare_variable(
        self, name: str, plane: int, length: int, initializer: str = ""
    ) -> CheckReport:
        self._action()
        if not self.checker.kb.plane_exists(plane):
            return self._fail(f"no memory plane {plane}")
        try:
            self.program.declare(name, plane, length, initializer)
        except Exception as exc:
            return self._fail(str(exc))
        self._ok(f"declared {name}[{length}] on plane {plane}")
        return CheckReport()

    # ------------------------------------------------------------------
    # control-panel pipeline operations (§5)
    # ------------------------------------------------------------------
    def new_pipeline(self, label: str = "", after: Optional[int] = None) -> int:
        self._action()
        at = (self.current + 1) if after is None else after
        index = self.program.insert_pipeline(PipelineDiagram(label=label), at=at)
        # shift canvases at/after the insertion point
        self.canvases = {
            (i + 1 if i >= index else i): c for i, c in self.canvases.items()
        }
        self.current = index
        self._ok(f"pipeline {index} inserted")
        return index

    def delete_pipeline(self, index: Optional[int] = None) -> None:
        self._action()
        target = self.current if index is None else index
        if len(self.program.pipelines) == 1:
            self._fail("cannot delete the only pipeline")
            return
        self.program.delete_pipeline(target)
        self.canvases.pop(target, None)
        self.canvases = {
            (i - 1 if i > target else i): c for i, c in self.canvases.items()
        }
        self.current = min(self.current, len(self.program.pipelines) - 1)
        self._ok(f"pipeline {target} deleted")

    def copy_pipeline(self, index: Optional[int] = None) -> int:
        self._action()
        src = self.current if index is None else index
        dest = self.program.copy_pipeline(src)
        self.canvases = {
            (i + 1 if i >= dest else i): c for i, c in self.canvases.items()
        }
        self.current = dest
        self._ok(f"pipeline {src} copied to {dest}")
        return dest

    def goto(self, index: int) -> None:
        self._action()
        if not (0 <= index < len(self.program.pipelines)):
            self._fail(f"no pipeline {index}")
            return
        self.current = index
        self._ok(f"viewing pipeline {index}")

    def scroll_forward(self) -> None:
        self.goto(min(self.current + 1, len(self.program.pipelines) - 1))

    def scroll_backward(self) -> None:
        self.goto(max(self.current - 1, 0))

    # ------------------------------------------------------------------
    # undo / redo
    # ------------------------------------------------------------------
    def undo(self) -> bool:
        self._action()
        try:
            cmd = self.commands.undo()
        except CommandError as exc:
            self._fail(str(exc))
            return False
        self._ok(f"undid {cmd.name}")
        return True

    def redo(self) -> bool:
        self._action()
        try:
            cmd = self.commands.redo()
        except CommandError as exc:
            self._fail(str(exc))
            return False
        self._ok(f"redid {cmd.name}")
        return True

    # ------------------------------------------------------------------
    # checking and persistence
    # ------------------------------------------------------------------
    def check_current(self) -> CheckReport:
        report = self.checker.check_pipeline(
            self.diagram, self.program.declarations
        )
        self.message = (
            "pipeline checks clean" if report.ok else report.first_error_message()
        )
        return report

    def check_all(self) -> CheckReport:
        report = self.checker.check_program(self.program)
        self.message = (
            "program checks clean" if report.ok else report.first_error_message()
        )
        return report

    def _geometry_dict(self) -> Dict[str, List[dict]]:
        out: Dict[str, List[dict]] = {}
        for idx, canvas in self.canvases.items():
            icons = []
            for placement in canvas.placements.values():
                icon = placement.icon
                record = {
                    "icon_id": icon.icon_id,
                    "device_kind": icon.device_kind.value,
                    "device": icon.device,
                    "x": placement.x,
                    "y": placement.y,
                }
                if isinstance(icon, ALSIcon):
                    record["als_kind"] = icon.kind.value
                    record["first_fu"] = icon.first_fu
                    record["bypassed"] = list(icon.bypassed_slots)
                icons.append(record)
            out[str(idx)] = icons
        return out

    def save(self, path: str) -> None:
        """Persist semantics plus geometry (the two data kinds of §4)."""
        self._action()
        payload = {
            "program": serialize.program_to_dict(self.program),
            "geometry": self._geometry_dict(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        self._ok(f"saved to {path}")

    @classmethod
    def load(cls, path: str, node: Optional[NodeConfig] = None) -> "EditorSession":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        program = serialize.program_from_dict(payload["program"])
        session = cls(node=node, program=program)
        for idx_str, icons in payload.get("geometry", {}).items():
            idx = int(idx_str)
            canvas = Canvas(*cls.CANVAS_SIZE)
            for record in icons:
                kind = DeviceKind(record["device_kind"])
                if kind is DeviceKind.FU:
                    icon: Icon = make_als_icon(
                        record["device"],
                        ALSKind(record["als_kind"]),
                        record["first_fu"],
                        tuple(record.get("bypassed", [])),
                    )
                else:
                    icon = icon_for_endpoint_device(
                        kind,
                        record["device"],
                        n_taps=session.node.params.shift_delay_taps,
                    )
                canvas.place(icon, record["x"], record["y"])
            session.canvases[idx] = canvas
        return session

    def render(self) -> str:
        """The full display window (Fig. 5) as text."""
        from repro.editor.render_ascii import render_window

        return render_window(self)

    def __repr__(self) -> str:
        return (
            f"EditorSession(pipeline {self.current + 1}/"
            f"{len(self.program.pipelines)}, {self.action_count} actions)"
        )


__all__ = ["EditorSession", "EditorError"]
