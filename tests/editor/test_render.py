"""Renderers: the regenerated figures must be deterministic and faithful."""

import numpy as np
import pytest

from repro.arch.node import NodeConfig
from repro.codegen.generator import MicrocodeGenerator
from repro.compose.jacobi import build_jacobi_program, load_jacobi_inputs
from repro.editor.render_ascii import (
    auto_layout,
    render_datapath,
    render_execution,
    render_icon_catalog,
    render_pipeline_diagram,
)
from repro.editor.render_svg import render_pipeline_svg
from repro.editor.session import EditorSession
from repro.sim.machine import NSCMachine
from repro.sim.pipeline_exec import execute_image


@pytest.fixture(scope="module")
def jacobi():
    node = NodeConfig()
    setup = build_jacobi_program(node, (5, 5, 5))
    return node, setup


class TestFigureRenders:
    def test_fig4_icon_catalog(self):
        text = render_icon_catalog()
        for name in ("singlet", "doublet", "doublet*", "triplet"):
            assert name in text
        assert "bypass" in text  # the second doublet form
        assert "H" in text       # heavy border: the double box

    def test_fig1_datapath(self):
        text = render_datapath(NodeConfig())
        assert "Hyperspace Router" in text
        assert "FLONET" in text
        assert "16 x 128 MB" in text
        assert "640 MFLOPS" in text
        assert "Shift/Delay x 2" in text

    def test_fig11_jacobi_pipeline(self, jacobi):
        _node, setup = jacobi
        text = render_pipeline_diagram(setup.program.pipelines[1])
        assert "point Jacobi update" in text
        assert "maxabs" in text          # the residual unit
        assert "condition: fu" in text   # the convergence check
        assert "sd[0].tap" in text       # neighbour taps
        assert "dma: mem[0] read u" in text

    def test_fig5_window(self):
        session = EditorSession()
        session.declare_variable("u", 0, 64)
        text = session.render()
        assert "CONTROL PANEL" in text
        assert "DECLARATIONS" in text
        assert "CONTROL FLOW" in text
        assert "[ " in text  # message strip

    def test_render_is_deterministic(self, jacobi):
        _node, setup = jacobi
        a = render_pipeline_diagram(setup.program.pipelines[1])
        b = render_pipeline_diagram(setup.program.pipelines[1])
        assert a == b

    def test_rubber_band_visible(self):
        from repro.arch.switch import fu_out
        from repro.editor.render_ascii import render_canvas

        session = EditorSession()
        session.select_icon("doublet")
        icon = session.drag_to(40, 2)
        session.start_connection(fu_out(icon.first_fu))
        session.canvas.drag_rubber_band(70, 10)
        text = render_canvas(session.canvas, session.diagram)
        assert "*" in text and "<- from" in text


class TestAutoLayout:
    def test_no_overlapping_als_icons(self, jacobi):
        _node, setup = jacobi
        canvas = auto_layout(setup.program.pipelines[1])
        boxes = [
            (p.x, p.y, p.width, p.height) for p in canvas.placements.values()
        ]
        for i, (x1, y1, w1, h1) in enumerate(boxes):
            for x2, y2, w2, h2 in boxes[i + 1 :]:
                overlap = not (
                    x1 + w1 <= x2 or x2 + w2 <= x1
                    or y1 + h1 <= y2 or y2 + h2 <= y1
                )
                assert not overlap, "icons overlap in the auto layout"

    def test_many_als_wrap_to_rows(self):
        from repro.diagram.pipeline import PipelineDiagram

        d = PipelineDiagram()
        node = NodeConfig()
        for inst in node.als_instances[:10]:
            d.add_als(inst.als_id, inst.kind, inst.first_fu)
        canvas = auto_layout(d)
        ys = {p.y for p in canvas.placements.values()}
        assert len(ys) > 1  # wrapped into more than one row


class TestExecutionView:
    def test_debug_annotation_shows_values(self, jacobi):
        """The §6 debugging extension: values flowing through the diagram."""
        node, setup = jacobi
        program = MicrocodeGenerator(node).generate(setup.program)
        machine = NSCMachine(node)
        machine.load_program(program)
        u0 = np.zeros((5, 5, 5))
        u0[2, 2, 2] = 1.0
        load_jacobi_inputs(machine, setup, u0, np.zeros((5, 5, 5)))
        execute_image(program.images[0], machine)
        machine.swap_caches(0, 1)
        res = execute_image(program.images[1], machine, keep_outputs=True)
        text = render_execution(program.images[1], res)
        assert "maxabs" in text
        assert "condition fu" in text
        assert "last=" in text

    def test_uncaptured_streams_flagged(self, jacobi):
        node, setup = jacobi
        program = MicrocodeGenerator(node).generate(setup.program)
        machine = NSCMachine(node)
        machine.load_program(program)
        load_jacobi_inputs(
            machine, setup, np.zeros((5, 5, 5)), np.zeros((5, 5, 5))
        )
        execute_image(program.images[0], machine)
        machine.swap_caches(0, 1)
        res = execute_image(program.images[1], machine)  # no keep_outputs
        text = render_execution(program.images[1], res)
        assert "not captured" in text


class TestSVG:
    def test_svg_well_formed(self, jacobi):
        import xml.etree.ElementTree as ET

        _node, setup = jacobi
        svg = render_pipeline_svg(setup.program.pipelines[1])
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert len(list(root)) > 10

    def test_svg_mentions_ops(self, jacobi):
        _node, setup = jacobi
        svg = render_pipeline_svg(setup.program.pipelines[1])
        assert "maxabs" in svg
        assert "fscale" in svg

    def test_svg_deterministic(self, jacobi):
        _node, setup = jacobi
        a = render_pipeline_svg(setup.program.pipelines[1])
        b = render_pipeline_svg(setup.program.pipelines[1])
        assert a == b
