"""ALS shapes: unit counts, capability placement, internal routes."""

import pytest

from repro.arch.als import (
    ALS_CLASSES,
    ALSClass,
    ALSInstance,
    ALSKind,
    InternalEdge,
)
from repro.arch.funcunit import FUCapability


class TestShapes:
    def test_unit_counts(self):
        assert ALSKind.SINGLET.n_units == 1
        assert ALSKind.DOUBLET.n_units == 2
        assert ALSKind.TRIPLET.n_units == 3

    def test_every_kind_has_a_class(self):
        assert set(ALS_CLASSES) == set(ALSKind)

    def test_every_unit_is_fp_capable(self):
        """§2: every functional unit can perform floating point."""
        for cls in ALS_CLASSES.values():
            for slot in cls.slots:
                assert FUCapability.FP in slot.capability

    def test_one_integer_unit_per_als(self):
        """§3: only a single unit can perform integer operations."""
        for cls in ALS_CLASSES.values():
            ints = [
                s for s in cls.slots if FUCapability.INT_LOGICAL in s.capability
            ]
            assert len(ints) == 1

    def test_minmax_in_doublet_and_triplet(self):
        for kind in (ALSKind.DOUBLET, ALSKind.TRIPLET):
            assert ALS_CLASSES[kind].slot_with_capability(FUCapability.MINMAX) is not None

    def test_integer_unit_is_double_box(self):
        for cls in ALS_CLASSES.values():
            for slot in cls.slots:
                assert slot.is_double_box == (
                    FUCapability.INT_LOGICAL in slot.capability
                )


class TestInternalRoutes:
    def test_singlet_has_no_internal_edges(self):
        assert ALS_CLASSES[ALSKind.SINGLET].internal_edges == ()

    def test_doublet_chains_forward(self):
        edges = ALS_CLASSES[ALSKind.DOUBLET].internal_edges
        assert len(edges) == 1
        assert edges[0].src_slot == 0 and edges[0].dst_slot == 1

    def test_triplet_is_a_reduction_tree(self):
        edges = ALS_CLASSES[ALSKind.TRIPLET].internal_edges
        dests = {(e.dst_slot, e.dst_port) for e in edges}
        assert dests == {(2, "a"), (2, "b")}

    def test_routes_into_query(self):
        cls = ALS_CLASSES[ALSKind.TRIPLET]
        assert len(cls.internal_routes_into(2, "a")) == 1
        assert cls.internal_routes_into(1, "a") == ()

    def test_backward_edge_rejected(self):
        with pytest.raises(ValueError, match="forward"):
            ALSClass(
                kind=ALSKind.DOUBLET,
                slots=ALS_CLASSES[ALSKind.DOUBLET].slots,
                internal_edges=(InternalEdge(1, 0, "a"),),
            )

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError, match="port"):
            ALSClass(
                kind=ALSKind.DOUBLET,
                slots=ALS_CLASSES[ALSKind.DOUBLET].slots,
                internal_edges=(InternalEdge(0, 1, "c"),),
            )

    def test_wrong_slot_count_rejected(self):
        with pytest.raises(ValueError, match="slots"):
            ALSClass(
                kind=ALSKind.TRIPLET,
                slots=ALS_CLASSES[ALSKind.DOUBLET].slots,
                internal_edges=(),
            )


class TestInstances:
    def test_fu_indexing(self):
        inst = ALSInstance(als_id=5, kind=ALSKind.TRIPLET, first_fu=10)
        assert inst.fu_index(0) == 10
        assert inst.fu_index(2) == 12

    def test_fu_index_out_of_range(self):
        inst = ALSInstance(als_id=0, kind=ALSKind.SINGLET, first_fu=0)
        with pytest.raises(IndexError):
            inst.fu_index(1)

    def test_names(self):
        assert ALSInstance(0, ALSKind.SINGLET, 0).name == "S0"
        assert ALSInstance(7, ALSKind.DOUBLET, 8).name == "D7"
        assert ALSInstance(12, ALSKind.TRIPLET, 20).name == "T12"

    def test_capability_delegates_to_class(self):
        inst = ALSInstance(als_id=1, kind=ALSKind.DOUBLET, first_fu=4)
        assert FUCapability.INT_LOGICAL in inst.capability(0)
        assert FUCapability.MINMAX in inst.capability(1)
