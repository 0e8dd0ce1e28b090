"""Each checker rule: the constraint catalog of §3/§4, one rule at a time."""

import pytest

from repro.arch.als import ALSKind
from repro.arch.dma import DMASpec, Direction
from repro.arch.funcunit import Opcode
from repro.arch.node import NodeConfig
from repro.arch.switch import (
    DeviceKind,
    fu_in,
    fu_out,
    mem_read,
    mem_write,
    sd_in,
    sd_tap,
)
from repro.checker.knowledge import MachineKnowledge
from repro.checker import rules as R
from repro.diagram.pipeline import (
    ConditionSpec,
    InputMod,
    InputModKind,
    PipelineDiagram,
)
from repro.diagram.program import Declaration


@pytest.fixture(scope="module")
def kb() -> MachineKnowledge:
    return MachineKnowledge(NodeConfig())


def _diagram_with_doublet() -> PipelineDiagram:
    """ALS 4 is the first doublet in the default node (fus 4 and 5)."""
    d = PipelineDiagram(number=0)
    d.add_als(4, ALSKind.DOUBLET, first_fu=4)
    return d


def _rule_errors(rule, diagram, kb, declarations=None):
    return [d for d in rule.check(diagram, kb, declarations) if d.severity.value == "error"]


class TestALSPlacement:
    def test_real_als_accepted(self, kb):
        d = _diagram_with_doublet()
        assert _rule_errors(R.ALSPlacementRule(), d, kb) == []

    def test_wrong_shape_rejected(self, kb):
        d = PipelineDiagram()
        d.add_als(4, ALSKind.TRIPLET, first_fu=4)  # ALS 4 is a doublet
        errs = _rule_errors(R.ALSPlacementRule(), d, kb)
        assert len(errs) == 1

    def test_wrong_first_fu_rejected(self, kb):
        d = PipelineDiagram()
        d.add_als(4, ALSKind.DOUBLET, first_fu=6)
        assert _rule_errors(R.ALSPlacementRule(), d, kb)


class TestFUCapability:
    def test_fp_on_any_unit(self, kb):
        d = _diagram_with_doublet()
        d.set_fu_op(4, Opcode.FADD)
        assert _rule_errors(R.FUCapabilityRule(), d, kb) == []

    def test_integer_on_minmax_unit_rejected(self, kb):
        """§3: only one unit per ALS has integer circuitry."""
        d = _diagram_with_doublet()
        d.set_fu_op(5, Opcode.IADD)  # fu5 is the min/max slot
        errs = _rule_errors(R.FUCapabilityRule(), d, kb)
        assert errs and "cannot perform iadd" in errs[0].message

    def test_minmax_on_integer_unit_rejected(self, kb):
        d = _diagram_with_doublet()
        d.set_fu_op(4, Opcode.MAX)
        assert _rule_errors(R.FUCapabilityRule(), d, kb)


class TestSinkUniqueness:
    def test_double_drive_rejected(self, kb):
        d = _diagram_with_doublet()
        d.connect(mem_read(0), fu_in(4, "a"))
        d.connect(mem_read(1), fu_in(4, "a"))
        assert _rule_errors(R.SinkUniquenessRule(), d, kb)

    def test_wire_plus_mod_rejected(self, kb):
        d = _diagram_with_doublet()
        d.connect(mem_read(0), fu_in(4, "a"))
        d.set_input_mod(4, "a", InputMod(InputModKind.CONSTANT, value=1.0))
        assert _rule_errors(R.SinkUniquenessRule(), d, kb)


class TestFanout:
    def test_over_limit_rejected(self, kb):
        d = PipelineDiagram()
        d.add_als(4, ALSKind.DOUBLET, first_fu=4)
        d.add_als(5, ALSKind.DOUBLET, first_fu=6)
        d.add_als(6, ALSKind.DOUBLET, first_fu=8)
        sinks = [fu_in(4, "a"), fu_in(4, "b"), fu_in(6, "a"), fu_in(6, "b"),
                 fu_in(8, "a")]
        for sink in sinks:
            d.connect(mem_read(0), sink)
        errs = _rule_errors(R.FanoutRule(), d, kb)
        assert errs and "fan-out" in errs[0].message or "drives" in errs[0].message


class TestPlaneRules:
    def test_single_plane_per_fu(self, kb):
        """§3: one memory plane per functional unit per instruction."""
        d = _diagram_with_doublet()
        d.set_fu_op(4, Opcode.FADD)
        d.connect(mem_read(0), fu_in(4, "a"))
        d.connect(mem_read(1), fu_in(4, "b"))
        errs = _rule_errors(R.SinglePlanePerFURule(), d, kb)
        assert errs and "only one" in errs[0].message

    def test_same_plane_twice_is_fine(self, kb):
        d = _diagram_with_doublet()
        d.set_fu_op(4, Opcode.FADD)
        d.connect(mem_read(0), fu_in(4, "a"))
        d.connect(fu_out(4), mem_write(0))
        assert _rule_errors(R.SinglePlanePerFURule(), d, kb) == []

    def test_one_writer_per_plane(self, kb):
        """The editor's worked example from §4."""
        d = _diagram_with_doublet()
        d.connect(fu_out(4), mem_write(3))
        d.connect(fu_out(5), mem_write(3))
        errs = _rule_errors(R.OneWriterPerPlaneRule(), d, kb)
        assert errs and "written by 2" in errs[0].message


class TestDMARule:
    def test_missing_spec_flagged(self, kb):
        d = _diagram_with_doublet()
        d.connect(mem_read(0), fu_in(4, "a"))
        errs = _rule_errors(R.DMASpecRule(), d, kb)
        assert errs and "no DMA specification" in errs[0].message

    def test_direction_mismatch_flagged(self, kb):
        d = _diagram_with_doublet()
        d.connect(mem_read(0), fu_in(4, "a"))
        d.set_dma(
            mem_read(0),
            DMASpec(device_kind=DeviceKind.MEMORY, device=0,
                    direction=Direction.WRITE, variable="x"),
        )
        errs = _rule_errors(R.DMASpecRule(), d, kb)
        assert any("direction" in e.message for e in errs)

    def test_undeclared_variable_flagged(self, kb):
        d = _diagram_with_doublet()
        d.connect(mem_read(0), fu_in(4, "a"))
        d.set_dma(
            mem_read(0),
            DMASpec(device_kind=DeviceKind.MEMORY, device=0,
                    direction=Direction.READ, variable="ghost"),
        )
        errs = _rule_errors(R.DMASpecRule(), d, kb, declarations={})
        assert any("undeclared" in e.message for e in errs)

    def test_wrong_plane_for_variable_flagged(self, kb):
        d = _diagram_with_doublet()
        d.connect(mem_read(0), fu_in(4, "a"))
        d.set_dma(
            mem_read(0),
            DMASpec(device_kind=DeviceKind.MEMORY, device=0,
                    direction=Direction.READ, variable="u"),
        )
        decls = {"u": Declaration(name="u", plane=5, length=64)}
        errs = _rule_errors(R.DMASpecRule(), d, kb, declarations=decls)
        assert any("plane 5" in e.message for e in errs)

    def test_good_spec_passes(self, kb):
        d = _diagram_with_doublet()
        d.connect(mem_read(0), fu_in(4, "a"))
        d.set_dma(
            mem_read(0),
            DMASpec(device_kind=DeviceKind.MEMORY, device=0,
                    direction=Direction.READ, variable="u"),
        )
        decls = {"u": Declaration(name="u", plane=0, length=64)}
        assert _rule_errors(R.DMASpecRule(), d, kb, declarations=decls) == []


class TestInputsFed:
    def test_missing_input_flagged(self, kb):
        d = _diagram_with_doublet()
        d.set_fu_op(4, Opcode.FADD)
        d.connect(mem_read(0), fu_in(4, "a"))
        errs = _rule_errors(R.InputsFedRule(), d, kb)
        assert errs and "input b is unconnected" in errs[0].message

    def test_wired_but_unprogrammed_flagged(self, kb):
        d = _diagram_with_doublet()
        d.connect(mem_read(0), fu_in(4, "a"))
        errs = _rule_errors(R.InputsFedRule(), d, kb)
        assert any("no operation" in e.message for e in errs)

    def test_unary_with_b_fed_warns(self, kb):
        d = _diagram_with_doublet()
        d.set_fu_op(4, Opcode.FABS)
        d.connect(mem_read(0), fu_in(4, "a"))
        d.connect(mem_read(0), fu_in(4, "b"))
        diags = R.InputsFedRule().check(d, kb)
        assert any(dg.severity.value == "warning" for dg in diags)


class TestInternalAndFeedback:
    def test_valid_internal_route(self, kb):
        d = _diagram_with_doublet()
        d.set_fu_op(4, Opcode.FADD)
        d.set_fu_op(5, Opcode.MAX)
        d.set_input_mod(5, "a", InputMod(InputModKind.INTERNAL, src_slot=0))
        assert _rule_errors(R.InternalRouteRule(), d, kb) == []

    def test_nonexistent_route_rejected(self, kb):
        d = PipelineDiagram()
        d.add_als(12, ALSKind.TRIPLET, first_fu=20)
        d.set_fu_op(20, Opcode.FADD)
        d.set_fu_op(21, Opcode.FMUL)
        # triplet has no internal edge from slot 0 into slot 1
        d.set_input_mod(21, "a", InputMod(InputModKind.INTERNAL, src_slot=0))
        errs = _rule_errors(R.InternalRouteRule(), d, kb)
        assert errs and "no hardwired route" in errs[0].message

    def test_unprogrammed_internal_source_rejected(self, kb):
        d = _diagram_with_doublet()
        d.set_fu_op(5, Opcode.MAX)
        d.set_input_mod(5, "a", InputMod(InputModKind.INTERNAL, src_slot=0))
        errs = _rule_errors(R.InternalRouteRule(), d, kb)
        assert errs and "has no operation" in errs[0].message

    def test_feedback_needs_binary_op(self, kb):
        d = _diagram_with_doublet()
        d.set_fu_op(5, Opcode.FABS)
        d.set_input_mod(5, "b", InputMod(InputModKind.FEEDBACK))
        errs = _rule_errors(R.FeedbackRule(), d, kb)
        assert errs and "unary" in errs[0].message

    def test_feedback_on_binary_ok(self, kb):
        d = _diagram_with_doublet()
        d.set_fu_op(5, Opcode.MAX)
        d.set_input_mod(5, "b", InputMod(InputModKind.FEEDBACK))
        assert _rule_errors(R.FeedbackRule(), d, kb) == []


class TestRegfileCapacity:
    def test_oversized_delay_rejected(self, kb):
        d = _diagram_with_doublet()
        d.set_fu_op(4, Opcode.FADD)
        d.delays[(4, "a")] = kb.regfile_words + 1
        errs = _rule_errors(R.RegfileCapacityRule(), d, kb)
        assert errs and "register-file" in errs[0].message

    def test_constants_count(self, kb):
        d = _diagram_with_doublet()
        d.set_fu_op(4, Opcode.FSCALE, constant=2.0)
        d.delays[(4, "a")] = kb.regfile_words  # + 1 constant word = over
        assert _rule_errors(R.RegfileCapacityRule(), d, kb)


class TestShiftDelayRule:
    def test_unconfigured_tap_wire_rejected(self, kb):
        d = _diagram_with_doublet()
        d.set_fu_op(4, Opcode.FABS)
        d.connect(sd_tap(0, 0), fu_in(4, "a"))
        errs = _rule_errors(R.ShiftDelayRule(), d, kb)
        assert any("not configured" in e.message for e in errs)

    def test_unfed_unit_rejected(self, kb):
        d = _diagram_with_doublet()
        d.set_fu_op(4, Opcode.FABS)
        d.set_sd_tap(0, 0, 1)
        d.connect(sd_tap(0, 0), fu_in(4, "a"))
        errs = _rule_errors(R.ShiftDelayRule(), d, kb)
        assert any("input is unconnected" in e.message for e in errs)

    def test_complete_sd_usage_passes(self, kb):
        d = _diagram_with_doublet()
        d.set_fu_op(4, Opcode.FABS)
        d.set_sd_tap(0, 0, 1)
        d.connect(mem_read(0), sd_in(0))
        d.connect(sd_tap(0, 0), fu_in(4, "a"))
        assert _rule_errors(R.ShiftDelayRule(), d, kb) == []

    def test_out_of_range_shift_rejected(self, kb):
        d = _diagram_with_doublet()
        d.set_sd_tap(0, 0, kb.params.shift_delay_max_shift + 1)
        assert _rule_errors(R.ShiftDelayRule(), d, kb)

    def test_nonexistent_tap_rejected(self, kb):
        d = _diagram_with_doublet()
        d.set_sd_tap(0, 99, 1)
        assert _rule_errors(R.ShiftDelayRule(), d, kb)


class TestMiscRules:
    def test_unused_output_warns(self, kb):
        d = _diagram_with_doublet()
        d.set_fu_op(4, Opcode.FADD)
        diags = R.UnusedOutputRule().check(d, kb)
        assert diags and diags[0].severity.value == "warning"

    def test_condition_fu_exempt_from_unused(self, kb):
        d = _diagram_with_doublet()
        d.set_fu_op(5, Opcode.MAX)
        d.set_condition(ConditionSpec(fu=5, comparison="lt", threshold=1.0))
        assert R.UnusedOutputRule().check(d, kb) == []

    def test_condition_on_unprogrammed_fu_rejected(self, kb):
        d = _diagram_with_doublet()
        d.set_condition(ConditionSpec(fu=4, comparison="lt", threshold=1.0))
        assert _rule_errors(R.ConditionRule(), d, kb)

    def test_cycle_rejected(self, kb):
        d = _diagram_with_doublet()
        d.set_fu_op(4, Opcode.FADD)
        d.set_fu_op(5, Opcode.MAX)
        d.connect(fu_out(4), fu_in(5, "a"))
        d.connect(fu_out(5), fu_in(4, "a"))
        errs = _rule_errors(R.AcyclicityRule(), d, kb)
        assert errs and "cycle" in errs[0].message

    def test_vector_length_conflict_rejected(self, kb):
        d = _diagram_with_doublet()
        d.vector_length = 100
        d.set_dma(
            mem_read(0),
            DMASpec(device_kind=DeviceKind.MEMORY, device=0,
                    direction=Direction.READ, variable="u", count=50),
        )
        errs = _rule_errors(R.VectorLengthRule(), d, kb)
        assert errs and "inconsistent" in errs[0].message

    def test_all_rules_have_unique_ids(self):
        ids = [r.rule_id for r in R.ALL_RULES]
        assert len(ids) == len(set(ids))
