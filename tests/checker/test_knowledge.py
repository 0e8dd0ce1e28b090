"""MachineKnowledge: the query layer and its subset-machine retargeting."""

import pytest

from repro.arch.als import ALS_CLASSES, ALSKind
from repro.arch.funcunit import Opcode, ops_for_capability
from repro.arch.node import NodeConfig
from repro.arch.params import SUBSET_PARAMS
from repro.arch.switch import fu_in, mem_read
from repro.checker.knowledge import INTERNAL_SOURCES, MachineKnowledge


@pytest.fixture(scope="module")
def kb() -> MachineKnowledge:
    return MachineKnowledge(NodeConfig())


@pytest.fixture(scope="module")
def subset_kb() -> MachineKnowledge:
    return MachineKnowledge(NodeConfig(SUBSET_PARAMS))


class TestMachineTables:
    """The per-machine sets the rules read agree with the node itself."""

    @pytest.mark.parametrize("params", [None, SUBSET_PARAMS])
    def test_tables_match_the_node(self, params):
        node = NodeConfig(params)
        kb = MachineKnowledge(node)
        assert len(kb.legal_ops) == node.n_fus
        for fu in range(node.n_fus):
            assert kb.legal_ops[fu] == set(ops_for_capability(
                node.fu_capability(fu)
            ))
        assert kb.als_shapes == {
            a.als_id: (a.kind, a.first_fu) for a in node.als_instances
        }
        assert kb.switch_sources == node.switch.sources
        assert kb.switch_sinks == node.switch.sinks

    def test_tables_are_built_once_per_node(self):
        node = NodeConfig()
        first, second = MachineKnowledge(node), MachineKnowledge(node)
        assert first.legal_ops is second.legal_ops
        assert first.als_shapes is second.als_shapes

    def test_internal_sources_match_the_als_classes(self):
        for kind, cls in ALS_CLASSES.items():
            for slot in range(kind.n_units):
                for port in ("a", "b"):
                    assert INTERNAL_SOURCES[kind][(slot, port)] == {
                        e.src_slot for e in cls.internal_routes_into(slot, port)
                    }


class TestQueries:
    def test_fu_existence(self, kb):
        assert kb.fu_exists(31)
        assert not kb.fu_exists(32)
        assert not kb.fu_exists(-1)

    def test_fu_supports(self, kb):
        assert kb.fu_supports(0, Opcode.IADD)  # singlet: integer capable
        assert not kb.fu_supports(0, Opcode.MAX)
        assert not kb.fu_supports(99, Opcode.FADD)

    def test_legal_ops_for_missing_fu_empty(self, kb):
        assert kb.legal_ops_for_fu(99) == []

    def test_als_matches(self, kb):
        assert kb.als_matches(0, ALSKind.SINGLET, 0)
        assert not kb.als_matches(0, ALSKind.DOUBLET, 0)
        assert not kb.als_matches(99, ALSKind.SINGLET, 0)

    def test_device_existence(self, kb):
        assert kb.plane_exists(15) and not kb.plane_exists(16)
        assert kb.cache_exists(15) and not kb.cache_exists(16)
        assert kb.sd_unit_exists(1) and not kb.sd_unit_exists(2)
        assert kb.sd_tap_exists(0, 7) and not kb.sd_tap_exists(0, 8)

    def test_switch_delegation(self, kb):
        assert kb.is_switch_source(mem_read(0))
        assert kb.is_switch_sink(fu_in(0, "a"))
        assert not kb.is_switch_source(fu_in(0, "a"))

    def test_describe_mentions_peak(self, kb):
        assert "640 MFLOPS" in kb.describe()


class TestSubsetRetargeting:
    """§4: machine-design changes absorbed 'merely by updating the
    knowledge base' — same rule code, different parameters."""

    def test_subset_has_fewer_fus(self, subset_kb):
        assert not subset_kb.fu_exists(16)

    def test_subset_has_fewer_planes(self, subset_kb):
        assert subset_kb.plane_exists(7)
        assert not subset_kb.plane_exists(8)

    def test_subset_has_no_triplets(self, subset_kb):
        assert subset_kb.node.als_of_kind(ALSKind.TRIPLET) == []

    def test_same_rule_objects_work_on_both(self, kb, subset_kb):
        from repro.checker.rules import ALL_RULES
        from repro.diagram.pipeline import PipelineDiagram

        d = PipelineDiagram()
        d.add_als(0, ALSKind.DOUBLET, first_fu=0)
        for rule in ALL_RULES:
            rule.check(d, subset_kb)  # must not raise
        # the full machine's ALS 0 is a singlet, so the same diagram fails
        from repro.checker.rules import ALSPlacementRule

        assert ALSPlacementRule().check(d, kb)
