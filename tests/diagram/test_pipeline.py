"""PipelineDiagram: construction, queries, graph structure."""

import pytest

from repro.arch.als import ALSKind
from repro.arch.dma import DMASpec, Direction
from repro.arch.funcunit import Opcode
from repro.arch.switch import (
    DeviceKind,
    fu_in,
    fu_out,
    mem_read,
    mem_write,
    sd_in,
    sd_tap,
)
from repro.diagram.pipeline import (
    ConditionSpec,
    DiagramError,
    InputMod,
    InputModKind,
    PipelineDiagram,
)


@pytest.fixture()
def diagram() -> PipelineDiagram:
    d = PipelineDiagram(number=0, label="test")
    d.add_als(0, ALSKind.DOUBLET, first_fu=4)
    d.add_als(1, ALSKind.SINGLET, first_fu=0)
    return d


class TestALSManagement:
    def test_duplicate_als_rejected(self, diagram):
        with pytest.raises(DiagramError, match="already placed"):
            diagram.add_als(0, ALSKind.DOUBLET, first_fu=4)

    def test_remove_als_scrubs_references(self, diagram):
        diagram.set_fu_op(4, Opcode.FADD)
        diagram.connect(mem_read(0), fu_in(4, "a"))
        diagram.connect(fu_out(4), fu_in(0, "a"))
        diagram.set_delay(4, "b", 3)
        diagram.remove_als(0)
        assert 4 not in diagram.fu_ops
        assert diagram.connections == []
        assert diagram.delays == {}

    def test_remove_missing_als(self, diagram):
        with pytest.raises(DiagramError):
            diagram.remove_als(9)

    def test_bypassed_fu_not_programmable(self):
        d = PipelineDiagram()
        d.add_als(0, ALSKind.DOUBLET, first_fu=0, bypassed_slots=(1,))
        with pytest.raises(DiagramError, match="^fu1 is bypassed in ALS 0$"):
            d.set_fu_op(1, Opcode.FADD)
        # every mutator of a triplet's bypassed middle slot says the same
        d.add_als(3, ALSKind.TRIPLET, first_fu=6, bypassed_slots=(1,))
        message = "^fu7 is bypassed in ALS 3$"
        with pytest.raises(DiagramError, match=message):
            d.set_fu_op(7, Opcode.FADD)
        with pytest.raises(DiagramError, match=message):
            d.set_input_mod(7, "a", InputMod(kind=InputModKind.CONSTANT))
        with pytest.raises(DiagramError, match=message):
            d.set_delay(7, "b", 2)
        # the active slots around it stay programmable
        d.set_fu_op(6, Opcode.FADD)
        d.set_fu_op(8, Opcode.MAX)
        assert sorted(d.fu_ops) == [6, 8]

    def test_active_fus_of_use(self):
        d = PipelineDiagram()
        use = d.add_als(0, ALSKind.TRIPLET, first_fu=6, bypassed_slots=(1,))
        assert use.active_fus == (6, 8)

    def test_fu_index_follows_every_als_change(self, diagram):
        assert diagram.als_use_of_fu(5) is diagram.als_uses[0]
        assert diagram.als_use_of_fu(7) is None
        use = diagram.add_als(2, ALSKind.TRIPLET, first_fu=6)
        assert [diagram.als_use_of_fu(fu) for fu in (6, 7, 8)] == [use] * 3
        diagram.remove_als(2)
        assert diagram.als_use_of_fu(7) is None
        assert diagram.add_als(3, ALSKind.SINGLET, first_fu=7) \
            is diagram.als_use_of_fu(7)

    def test_slot_of(self, diagram):
        use = diagram.als_uses[0]
        assert use.slot_of(5) == 1
        with pytest.raises(DiagramError):
            use.slot_of(9)


class TestOpsAndInputs:
    def test_set_op_requires_placed_als(self, diagram):
        with pytest.raises(DiagramError, match="no ALS"):
            diagram.set_fu_op(20, Opcode.FADD)

    def test_clear_op(self, diagram):
        diagram.set_fu_op(4, Opcode.FADD)
        diagram.clear_fu_op(4)
        assert diagram.active_fus() == []

    def test_input_source_resolution(self, diagram):
        diagram.connect(mem_read(0), fu_in(4, "a"))
        diagram.set_input_mod(4, "b", InputMod(InputModKind.CONSTANT, value=2.0))
        kind, payload = diagram.input_source(4, "a")
        assert kind == "switch" and payload == mem_read(0)
        kind, payload = diagram.input_source(4, "b")
        assert kind == "mod" and payload.value == 2.0
        assert diagram.input_source(0, "a") is None

    def test_bad_port_rejected(self, diagram):
        with pytest.raises(DiagramError):
            diagram.set_input_mod(4, "c", InputMod(InputModKind.CONSTANT))

    def test_delay_bookkeeping(self, diagram):
        diagram.set_delay(4, "a", 5)
        assert diagram.delays[(4, "a")] == 5
        diagram.set_delay(4, "a", 0)  # zero clears
        assert (4, "a") not in diagram.delays
        with pytest.raises(DiagramError):
            diagram.set_delay(4, "a", -1)


class TestConnections:
    def test_duplicate_connection_rejected(self, diagram):
        diagram.connect(mem_read(0), fu_in(4, "a"))
        with pytest.raises(DiagramError, match="already drawn"):
            diagram.connect(mem_read(0), fu_in(4, "a"))

    def test_disconnect(self, diagram):
        diagram.connect(mem_read(0), fu_in(4, "a"))
        diagram.disconnect(mem_read(0), fu_in(4, "a"))
        assert diagram.connections == []
        with pytest.raises(DiagramError):
            diagram.disconnect(mem_read(0), fu_in(4, "a"))

    def test_driver_and_sinks(self, diagram):
        diagram.connect(fu_out(4), fu_in(0, "a"))
        diagram.connect(fu_out(4), mem_write(3))
        assert diagram.driver_of(fu_in(0, "a")) == fu_out(4)
        assert diagram.driver_of(fu_in(0, "b")) is None
        assert len(diagram.sinks_of(fu_out(4))) == 2

    def test_used_endpoints_includes_dma(self, diagram):
        spec = DMASpec(
            device_kind=DeviceKind.MEMORY,
            device=7,
            direction=Direction.READ,
            variable="x",
        )
        diagram.set_dma(mem_read(7), spec)
        assert mem_read(7) in diagram.used_endpoints()

    def test_dma_only_on_memory_or_cache(self, diagram):
        spec = DMASpec(
            device_kind=DeviceKind.MEMORY,
            device=0,
            direction=Direction.READ,
            variable="x",
        )
        with pytest.raises(DiagramError):
            diagram.set_dma(fu_in(4, "a"), spec)


class TestPlaneQueries:
    def test_planes_touched_direct(self, diagram):
        diagram.set_fu_op(4, Opcode.FADD)
        diagram.connect(mem_read(2), fu_in(4, "a"))
        diagram.connect(fu_out(4), mem_write(2))
        assert diagram.planes_touched_by_fu(4) == {2}

    def test_planes_touched_through_sd(self, diagram):
        diagram.set_fu_op(4, Opcode.FABS)
        diagram.connect(mem_read(3), sd_in(0))
        diagram.connect(sd_tap(0, 1), fu_in(4, "a"))
        assert diagram.planes_touched_by_fu(4) == {3}

    def test_plane_writers(self, diagram):
        diagram.connect(fu_out(4), mem_write(1))
        diagram.connect(fu_out(0), mem_write(1))
        writers = diagram.plane_writers()
        assert len(writers[1]) == 2


class TestGraph:
    def test_topological_order(self, diagram):
        diagram.set_fu_op(4, Opcode.FADD)
        diagram.set_fu_op(5, Opcode.FMUL)
        diagram.set_fu_op(0, Opcode.FSUB)
        diagram.connect(fu_out(4), fu_in(5, "a"))
        diagram.connect(fu_out(5), fu_in(0, "a"))
        assert diagram.topological_order() == [4, 5, 0]

    def test_internal_edges_in_graph(self, diagram):
        diagram.set_fu_op(4, Opcode.FADD)
        diagram.set_fu_op(5, Opcode.FMUL)
        diagram.set_input_mod(5, "a", InputMod(InputModKind.INTERNAL, src_slot=0))
        assert diagram.topological_order() == [4, 5]

    def test_cycle_detected(self, diagram):
        diagram.set_fu_op(4, Opcode.FADD)
        diagram.set_fu_op(5, Opcode.FMUL)
        diagram.connect(fu_out(4), fu_in(5, "a"))
        diagram.connect(fu_out(5), fu_in(4, "a"))
        with pytest.raises(DiagramError, match="cycle"):
            diagram.topological_order()

    def test_feedback_is_not_a_cycle(self, diagram):
        diagram.set_fu_op(5, Opcode.MAX)
        diagram.set_input_mod(5, "b", InputMod(InputModKind.FEEDBACK))
        assert diagram.topological_order() == [5]


class TestCopyAndCondition:
    def test_copy_is_independent(self, diagram):
        diagram.set_fu_op(4, Opcode.FADD)
        diagram.connect(mem_read(0), fu_in(4, "a"))
        dup = diagram.copy(number=7)
        dup.connect(mem_read(1), fu_in(4, "b"))
        assert dup.number == 7
        assert len(diagram.connections) == 1
        assert len(dup.connections) == 2

    def test_condition_validation(self):
        with pytest.raises(DiagramError):
            ConditionSpec(fu=0, comparison="!=", threshold=0.0)

    def test_condition_evaluation(self):
        spec = ConditionSpec(fu=0, comparison="lt", threshold=1.0)
        assert spec.evaluate(0.5)
        assert not spec.evaluate(1.5)
        ge = ConditionSpec(fu=0, comparison="ge", threshold=1.0)
        assert ge.evaluate(1.0)

    def test_stats(self, diagram):
        diagram.set_fu_op(4, Opcode.FADD)
        stats = diagram.stats()
        assert stats["als"] == 2
        assert stats["fus"] == 1
