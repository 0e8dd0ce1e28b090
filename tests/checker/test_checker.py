"""The Checker facade: incremental edit-time checks and global passes."""

import pytest

from repro.arch.als import ALSKind
from repro.arch.dma import DMASpec, Direction
from repro.arch.funcunit import Opcode
from repro.arch.node import NodeConfig
from repro.arch.switch import (
    DeviceKind,
    cache_read,
    fu_in,
    fu_out,
    mem_read,
    mem_write,
    sd_in,
    sd_tap,
)
from repro.checker.checker import Checker
from repro.compose.jacobi import build_jacobi_program
from repro.diagram.pipeline import InputMod, InputModKind, PipelineDiagram
from repro.diagram.program import VisualProgram


@pytest.fixture()
def checker() -> Checker:
    return Checker(NodeConfig())


@pytest.fixture()
def diagram() -> PipelineDiagram:
    d = PipelineDiagram()
    d.add_als(4, ALSKind.DOUBLET, first_fu=4)
    return d


class TestIncrementalConnection:
    """The Fig. 8 rubber-band checks."""

    def test_legal_connection_passes(self, checker, diagram):
        assert checker.check_connection(diagram, mem_read(0), fu_in(4, "a")).ok

    def test_bad_source_rejected(self, checker, diagram):
        report = checker.check_connection(diagram, fu_in(0, "a"), fu_in(4, "a"))
        assert not report.ok

    def test_occupied_sink_rejected(self, checker, diagram):
        diagram.connect(mem_read(0), fu_in(4, "a"))
        report = checker.check_connection(diagram, mem_read(1), fu_in(4, "a"))
        assert not report.ok
        assert "already driven" in report.first_error_message()

    def test_modded_sink_rejected(self, checker, diagram):
        diagram.set_input_mod(4, "a", InputMod(InputModKind.CONSTANT, value=1.0))
        report = checker.check_connection(diagram, mem_read(1), fu_in(4, "a"))
        assert not report.ok

    def test_second_plane_writer_refused(self, checker, diagram):
        """The paper's own example: 'the graphical editor will not let him
        send the output of a second unit to the same plane'."""
        diagram.connect(fu_out(4), mem_write(3))
        report = checker.check_connection(diagram, fu_out(5), mem_write(3))
        assert not report.ok
        assert any(d.rule == "plane-one-writer" for d in report.errors)

    def test_second_plane_for_fu_refused(self, checker, diagram):
        diagram.set_fu_op(4, Opcode.FADD)
        diagram.connect(mem_read(0), fu_in(4, "a"))
        report = checker.check_connection(diagram, mem_read(1), fu_in(4, "b"))
        assert not report.ok
        assert "second memory plane" in report.first_error_message()

    def test_second_plane_through_shift_delay_refused(self, checker, diagram):
        """A tap carries the plane that feeds its shift/delay unit."""
        diagram.set_fu_op(4, Opcode.FADD)
        diagram.connect(mem_read(0), sd_in(0))
        diagram.connect(mem_read(1), fu_in(4, "a"))
        report = checker.check_connection(diagram, sd_tap(0, 1), fu_in(4, "b"))
        assert "second memory plane" in report.first_error_message()
        diagram.disconnect(mem_read(1), fu_in(4, "a"))
        diagram.connect(mem_read(0), fu_in(4, "a"))
        assert checker.check_connection(diagram, sd_tap(0, 1), fu_in(4, "b")).ok

    def test_fanout_enforced_incrementally(self, checker, diagram):
        diagram.add_als(5, ALSKind.DOUBLET, first_fu=6)
        diagram.add_als(6, ALSKind.DOUBLET, first_fu=8)
        for sink in (fu_in(4, "a"), fu_in(4, "b"), fu_in(6, "a"), fu_in(6, "b")):
            diagram.connect(cache_read(0), sink)
        report = checker.check_connection(diagram, cache_read(0), fu_in(8, "a"))
        assert not report.ok

    def test_counter_increments(self, checker, diagram):
        before = checker.incremental_checks
        checker.check_connection(diagram, mem_read(0), fu_in(4, "a"))
        assert checker.incremental_checks == before + 1


class TestIncrementalOps:
    def test_capable_op_passes(self, checker, diagram):
        assert checker.check_fu_op(diagram, 4, Opcode.IADD).ok

    def test_incapable_op_rejected(self, checker, diagram):
        report = checker.check_fu_op(diagram, 4, Opcode.MAX)
        assert not report.ok

    def test_unplaced_als_rejected(self, checker, diagram):
        report = checker.check_fu_op(diagram, 20, Opcode.FADD)
        assert not report.ok
        assert "no ALS placed" in report.first_error_message()

    def test_legal_ops_menu(self, checker):
        ops = checker.legal_ops_for(4)  # integer-capable doublet slot
        assert Opcode.IADD in ops
        assert Opcode.MAX not in ops


class TestMenuFiltering:
    def test_legal_sources_exclude_occupied_planes(self, checker, diagram):
        diagram.set_fu_op(4, Opcode.FADD)
        diagram.connect(mem_read(0), fu_in(4, "a"))
        sources = checker.legal_sources_for(diagram, fu_in(4, "b"))
        # plane 0 is this unit's plane: allowed; other planes are not
        assert mem_read(0) in sources
        assert mem_read(1) not in sources
        assert cache_read(0) in sources

    def test_self_loop_not_offered(self, checker, diagram):
        sources = checker.legal_sources_for(diagram, fu_in(4, "a"))
        assert fu_out(4) not in sources


class TestProgramCheck:
    def test_jacobi_program_is_clean(self, checker):
        setup = build_jacobi_program(NodeConfig(), (5, 5, 5))
        report = checker.check_program(setup.program)
        assert report.ok, report.format()

    def test_plane_overflow_detected(self, checker):
        prog = VisualProgram()
        words = checker.kb.params.memory_plane_words
        prog.declare("a", plane=0, length=words)
        prog.declare("b", plane=0, length=1)
        report = checker.check_program(prog)
        assert any(d.rule == "declaration" for d in report.errors)

    def test_dma_window_outside_variable_detected(self, checker):
        prog = VisualProgram()
        prog.declare("u", plane=0, length=16)
        d = PipelineDiagram()
        d.add_als(4, ALSKind.DOUBLET, first_fu=4)
        d.set_fu_op(4, Opcode.FABS)
        d.vector_length = 32  # longer than the 16-word variable
        d.connect(mem_read(0), fu_in(4, "a"))
        d.connect(fu_out(4), mem_write(1))
        d.set_dma(
            mem_read(0),
            DMASpec(device_kind=DeviceKind.MEMORY, device=0,
                    direction=Direction.READ, variable="u"),
        )
        d.set_dma(
            mem_write(1),
            DMASpec(device_kind=DeviceKind.MEMORY, device=1,
                    direction=Direction.WRITE, variable="u2"),
        )
        prog.declare("u2", plane=1, length=16)
        prog.insert_pipeline(d)
        report = checker.check_program(prog)
        assert any(dg.rule == "dma-bounds" for dg in report.errors)

    def test_empty_program_warns(self, checker):
        report = checker.check_program(VisualProgram())
        assert report.ok  # warning only
        assert report.warnings
