"""PipelineBuilder: allocation policy, wiring, resource exhaustion."""

import pytest

from repro.arch.als import ALS_CLASSES, FU_INPUT_PORTS
from repro.arch.funcunit import FUCapability, Opcode
from repro.arch.node import NodeConfig
from repro.arch.params import NSCParameters, SUBSET_PARAMS
from repro.checker.checker import Checker
from repro.compose.builders import BuilderError, PipelineBuilder, _FUTable
from repro.diagram.pipeline import InputModKind
from repro.diagram.program import VisualProgram


@pytest.fixture()
def env():
    node = NodeConfig()
    prog = VisualProgram()
    prog.declare("x", plane=0, length=64)
    prog.declare("y", plane=1, length=64)
    prog.declare("out", plane=2, length=64)
    return node, prog


class TestAllocationPolicy:
    def test_fp_op_prefers_plain_fp_unit(self, env):
        """Don't burn scarce integer/min-max circuitry on an add."""
        node, prog = env
        b = PipelineBuilder(node, prog, vector_length=64)
        x = b.read_var("x")
        ref = b.apply(Opcode.FNEG, x)
        assert node.fu_capability(ref.fu) == FUCapability.FP

    def test_minmax_op_gets_minmax_unit(self, env):
        node, prog = env
        b = PipelineBuilder(node, prog, vector_length=64)
        x = b.read_var("x")
        ref = b.apply(Opcode.MAX, x, b.feedback(0.0))
        assert FUCapability.MINMAX in node.fu_capability(ref.fu)

    def test_colocation_uses_internal_route(self, env):
        node, prog = env
        b = PipelineBuilder(node, prog, vector_length=64)
        x = b.read_var("x")
        first = b.apply(Opcode.FNEG, x)  # lands in a triplet's middle slot
        second = b.apply(Opcode.MAX, first, b.feedback(0.0))
        internal = [
            mod
            for (fu, _p), mod in b.diagram.input_mods.items()
            if fu == second.fu and mod.kind is InputModKind.INTERNAL
        ]
        assert len(internal) == 1 and internal[0].src_slot == 1
        # no switch wire between the two units
        assert all(
            not (s.device == first.fu and k.device == second.fu)
            for s, k in b.diagram.connections
        )

    def test_exhaustion_reported(self, env):
        node, prog = env
        b = PipelineBuilder(node, prog, vector_length=64)
        x = b.read_var("x")
        with pytest.raises(BuilderError, match="no free functional unit"):
            for _ in range(40):
                x = b.apply(Opcode.FADDC, x, constant=1.0)

    def test_arity_enforced(self, env):
        node, prog = env
        b = PipelineBuilder(node, prog, vector_length=64)
        x = b.read_var("x")
        with pytest.raises(BuilderError, match="two operands"):
            b.apply(Opcode.FADD, x)
        with pytest.raises(BuilderError, match="one operand"):
            b.apply(Opcode.FABS, x, x)


class TestStreams:
    def test_read_var_requires_declaration(self, env):
        node, prog = env
        b = PipelineBuilder(node, prog)
        with pytest.raises(BuilderError, match="not declared"):
            b.read_var("ghost")

    def test_plane_read_port_shared_for_same_request(self, env):
        node, prog = env
        b = PipelineBuilder(node, prog, vector_length=64)
        a = b.read_var("x")
        c = b.read_var("x")
        assert a is c
        assert len(b.diagram.dma) == 1

    def test_conflicting_plane_reads_rejected(self, env):
        node, prog = env
        prog.declare("x2", plane=0, length=64)
        b = PipelineBuilder(node, prog, vector_length=64)
        b.read_var("x")
        with pytest.raises(BuilderError, match="read port already streams"):
            b.read_var("x2")

    def test_through_sd_allocates_unit_and_taps(self, env):
        node, prog = env
        b = PipelineBuilder(node, prog, vector_length=64)
        x = b.read_var("x")
        taps = b.through_sd(x, shifts=[0, 1, -1])
        assert [t.shift for t in taps] == [0, 1, -1]
        assert b.diagram.sd_taps == {(0, 0): 0, (0, 1): 1, (0, 2): -1}

    def test_sd_units_exhaust(self, env):
        node, prog = env
        b = PipelineBuilder(node, prog, vector_length=64)
        x = b.read_var("x")
        y = b.read_var("y")
        b.through_sd(x, shifts=[0])
        b.through_sd(y, shifts=[0])
        with pytest.raises(BuilderError, match="no free shift/delay"):
            b.through_sd(x, shifts=[1])

    def test_too_many_taps_rejected(self, env):
        node, prog = env
        b = PipelineBuilder(node, prog, vector_length=64)
        x = b.read_var("x")
        with pytest.raises(BuilderError, match="taps"):
            b.through_sd(x, shifts=list(range(9)))


class TestBuiltDiagramsAreValid:
    def test_builder_output_passes_checker(self, env):
        node, prog = env
        b = PipelineBuilder(node, prog, label="t", vector_length=64)
        x = b.read_var("x")
        y = b.read_var("y")
        # stage x through a unit first: a single unit may not read two planes
        ax = b.apply(Opcode.FABS, x)
        s = b.apply(Opcode.FADD, ax, y)
        out = b.apply(Opcode.PASS, s)
        b.write_var(out, "out")
        diagram = b.build()
        report = Checker(node).check_pipeline(diagram, prog.declarations)
        assert report.ok, report.format()

    def test_build_appends_to_program(self, env):
        node, prog = env
        b = PipelineBuilder(node, prog, vector_length=64)
        x = b.read_var("x")
        out = b.apply(Opcode.PASS, x)
        b.write_var(out, "out")
        b.build()
        assert len(prog.pipelines) == 1

    def test_build_without_append(self, env):
        node, prog = env
        b = PipelineBuilder(node, prog, vector_length=64)
        x = b.read_var("x")
        out = b.apply(Opcode.PASS, x)
        b.write_var(out, "out")
        d = b.build(append=False)
        assert prog.pipelines == []
        assert d.fu_ops


@pytest.mark.parametrize("params", [NSCParameters(), SUBSET_PARAMS],
                         ids=["default", "subset"])
class TestFUTable:
    """The allocator's per-machine table holds exactly the facts a scan
    of the node and its ALS classes derives."""

    def test_per_fu_als_matches_the_node(self, params):
        node = NodeConfig(params)
        table = _FUTable(node)
        assert len(table.als_of) == node.n_fus
        for fu in range(node.n_fus):
            assert table.als_of[fu] is node.als(node.fu(fu).als_id)
            assert table.als_of[fu] is node.als_of_fu(fu)

    def test_routes_match_a_brute_force_scan(self, params):
        node = NodeConfig(params)
        scanned = set()
        for dst in range(node.n_fus):
            als = node.als(node.fu(dst).als_id)
            for port in FU_INPUT_PORTS:
                for edge in ALS_CLASSES[als.kind].internal_routes_into(
                        dst - als.first_fu, port):
                    scanned.add((als.first_fu + edge.src_slot, dst, port))
        table = _FUTable(node)
        assert scanned and table.routes == scanned
        colocate = {}
        for src, dst, _port in scanned:
            colocate.setdefault(src, {}).setdefault(dst, 0)
            colocate[src][dst] += 1
        assert table.colocate == colocate

    def test_als_of_fu_keeps_its_index_error(self, params):
        node = NodeConfig(params)
        for fu in (-1, node.n_fus):
            with pytest.raises(IndexError, match=f"no functional unit {fu}"):
                node.als_of_fu(fu)
