"""Timing analysis and automatic delay balancing."""

import pytest

from repro.arch.als import ALSKind
from repro.arch.funcunit import Opcode
from repro.arch.node import NodeConfig
from repro.arch.switch import cache_read, fu_in, fu_out, mem_read, mem_write, sd_in, sd_tap
from repro.checker.knowledge import MachineKnowledge
from repro.codegen.timing import (
    TimingError,
    balance_pipeline,
    pipeline_cycles,
)
from repro.diagram.pipeline import InputMod, InputModKind, PipelineDiagram


@pytest.fixture(scope="module")
def kb() -> MachineKnowledge:
    return MachineKnowledge(NodeConfig())


def _two_stage() -> PipelineDiagram:
    """mem0 -> fu4(fabs) -> fu5(fadd) <- mem0 again via fu5.b... no: cache."""
    d = PipelineDiagram()
    d.add_als(4, ALSKind.DOUBLET, first_fu=4)
    d.set_fu_op(4, Opcode.FABS)
    d.set_fu_op(5, Opcode.FADD)
    d.connect(mem_read(0), fu_in(4, "a"))
    d.connect(fu_out(4), fu_in(5, "a"))
    d.connect(cache_read(0), fu_in(5, "b"))
    d.connect(fu_out(5), mem_write(1))
    return d


class TestBalancing:
    def test_skewed_join_gets_auto_delay(self, kb):
        d = _two_stage()
        plan = balance_pipeline(d, kb)
        # the cache path is faster than mem->fu4->switch; b must be delayed
        assert plan.auto_delay.get((5, "b"), 0) > 0
        assert plan.is_aligned

    def test_plan_keeps_the_dataflow_order(self, kb):
        d = _two_stage()
        assert balance_pipeline(d, kb).order == d.topological_order() == [4, 5]

    def test_no_balance_leaves_skew(self, kb):
        d = _two_stage()
        plan = balance_pipeline(d, kb, auto_balance=False)
        assert not plan.is_aligned
        assert plan.max_skew > 0

    def test_user_delay_reduces_auto_delay(self, kb):
        d = _two_stage()
        base = balance_pipeline(d, kb).auto_delay[(5, "b")]
        d.set_delay(5, "b", 2)
        plan = balance_pipeline(d, kb)
        assert plan.auto_delay.get((5, "b"), 0) == base - 2

    def test_symmetric_paths_need_no_delay(self, kb):
        d = PipelineDiagram()
        d.add_als(4, ALSKind.DOUBLET, first_fu=4)
        d.set_fu_op(4, Opcode.FADD)
        d.connect(mem_read(0), fu_in(4, "a"))
        d.connect(mem_read(0), fu_in(4, "b"))
        plan = balance_pipeline(d, kb)
        assert plan.auto_delay == {}

    def test_constant_inputs_unconstrained(self, kb):
        d = PipelineDiagram()
        d.add_als(4, ALSKind.DOUBLET, first_fu=4)
        d.set_fu_op(4, Opcode.FADD)
        d.connect(mem_read(0), fu_in(4, "a"))
        d.set_input_mod(4, "b", InputMod(InputModKind.CONSTANT, value=1.0))
        plan = balance_pipeline(d, kb)
        assert plan.auto_delay == {}
        assert plan.is_aligned

    def test_internal_route_skips_switch_hop(self, kb):
        d1 = PipelineDiagram()
        d1.add_als(4, ALSKind.DOUBLET, first_fu=4)
        d1.set_fu_op(4, Opcode.FABS)
        d1.set_fu_op(5, Opcode.FABS)
        d1.connect(mem_read(0), fu_in(4, "a"))
        d1.connect(fu_out(4), fu_in(5, "a"))
        plan_switch = balance_pipeline(d1, kb)

        d2 = PipelineDiagram()
        d2.add_als(4, ALSKind.DOUBLET, first_fu=4)
        d2.set_fu_op(4, Opcode.FABS)
        d2.set_fu_op(5, Opcode.FABS)
        d2.connect(mem_read(0), fu_in(4, "a"))
        d2.set_input_mod(5, "a", InputMod(InputModKind.INTERNAL, src_slot=0))
        plan_internal = balance_pipeline(d2, kb)
        assert plan_internal.fu_start[5] < plan_switch.fu_start[5]

    def test_sd_adds_latency(self, kb):
        d = PipelineDiagram()
        d.add_als(4, ALSKind.DOUBLET, first_fu=4)
        d.set_fu_op(4, Opcode.FADD)
        d.set_sd_tap(0, 0, 0)
        d.connect(mem_read(0), sd_in(0))
        d.connect(sd_tap(0, 0), fu_in(4, "a"))
        d.connect(mem_read(0), fu_in(4, "b"))
        plan = balance_pipeline(d, kb)
        # direct path arrives earlier, so b gets a delay
        assert plan.auto_delay.get((4, "b"), 0) > 0

    def test_unfed_sd_is_an_error(self, kb):
        d = PipelineDiagram()
        d.add_als(4, ALSKind.DOUBLET, first_fu=4)
        d.set_fu_op(4, Opcode.FABS)
        d.set_sd_tap(0, 0, 0)
        d.connect(sd_tap(0, 0), fu_in(4, "a"))
        with pytest.raises(TimingError, match="no input stream"):
            balance_pipeline(d, kb)

    def test_division_lengthens_path(self, kb):
        def plan_for(op):
            d = PipelineDiagram()
            d.add_als(4, ALSKind.DOUBLET, first_fu=4)
            d.set_fu_op(4, op)
            d.connect(mem_read(0), fu_in(4, "a"))
            d.connect(mem_read(0), fu_in(4, "b"))
            d.connect(fu_out(4), mem_write(1))
            return balance_pipeline(d, kb)

        assert plan_for(Opcode.FDIV).fill_cycles > plan_for(Opcode.FADD).fill_cycles


class TestCapacityAndCycles:
    def test_delays_fit_by_default(self, kb):
        d = _two_stage()
        assert balance_pipeline(d, kb).overfull == []

    def test_excessive_explicit_delay_reported(self, kb):
        d = _two_stage()
        d.delays[(5, "b")] = kb.regfile_words + 10
        problems = balance_pipeline(d, kb).overfull
        assert problems and "too skewed" in problems[0]

    def test_pipeline_cycles_scale_with_vector(self, kb):
        d = _two_stage()
        plan = balance_pipeline(d, kb)
        short = pipeline_cycles(plan, 10, kb)
        long = pipeline_cycles(plan, 1000, kb)
        assert long - short == 990

    def test_fill_dominates_tiny_vectors(self, kb):
        """Vectors of length one (scalars, per §2) still pay full fill."""
        d = _two_stage()
        plan = balance_pipeline(d, kb)
        cycles = pipeline_cycles(plan, 1, kb)
        assert cycles > plan.fill_cycles
