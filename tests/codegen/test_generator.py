"""MicrocodeGenerator: checks, vector lengths, switch settings, microwords."""

import pytest

from repro.arch.als import ALSKind
from repro.arch.dma import DMASpec, Direction
from repro.arch.funcunit import Opcode
from repro.arch.node import NodeConfig
from repro.arch.switch import DeviceKind, fu_in, mem_read, mem_write
from repro.codegen.generator import (
    CodegenError,
    MicrocodeGenerator,
    OP_INDEX,
    layout_variables,
)
from repro.codegen.microword import FieldError
from repro.compose.jacobi import build_jacobi_program
from repro.compose.kernels import build_saxpy_program
from repro.diagram.pipeline import PipelineDiagram
from repro.diagram.program import Declaration, VisualProgram


@pytest.fixture(scope="module")
def node() -> NodeConfig:
    return NodeConfig()


@pytest.fixture(scope="module")
def generator(node) -> MicrocodeGenerator:
    return MicrocodeGenerator(node)


class TestVariableLayout:
    def test_packing_per_plane(self):
        decls = {
            "a": Declaration("a", plane=0, length=10),
            "b": Declaration("b", plane=0, length=20),
            "c": Declaration("c", plane=1, length=5),
        }
        layout = layout_variables(decls)
        assert layout == {"a": (0, 0), "b": (0, 10), "c": (1, 0)}

    def test_deterministic_order(self):
        decls = {
            "x": Declaration("x", plane=2, length=7),
            "y": Declaration("y", plane=2, length=3),
        }
        assert layout_variables(decls)["y"] == (2, 7)


class TestGeneration:
    def test_saxpy_generates(self, node, generator):
        setup = build_saxpy_program(node, 128)
        prog = generator.generate(setup.program)
        assert len(prog.images) == 1
        image = prog.images[0]
        assert image.vector_length == 128
        assert image.flops_per_element == 2

    def test_jacobi_generates_two_images(self, node, generator):
        setup = build_jacobi_program(node, (5, 5, 5))
        prog = generator.generate(setup.program)
        assert len(prog.images) == 2
        assert prog.total_microcode_bits == 2 * prog.layout.total_bits

    def test_invalid_program_refused_with_report(self, node, generator):
        prog = VisualProgram()
        d = PipelineDiagram()
        d.add_als(4, ALSKind.DOUBLET, first_fu=4)
        d.set_fu_op(4, Opcode.MAX)  # wrong capability
        prog.insert_pipeline(d)
        with pytest.raises(CodegenError) as exc_info:
            generator.generate(prog)
        assert exc_info.value.report is not None
        assert not exc_info.value.report.ok

    def test_checker_can_be_bypassed(self, node):
        gen = MicrocodeGenerator(node, run_checker=False)
        prog = VisualProgram()
        d = PipelineDiagram(label="empty")
        d.vector_length = 4
        prog.insert_pipeline(d)
        machine_prog = gen.generate(prog)  # no checking: empty pipeline ok
        assert machine_prog.images[0].fu_order == []


class TestVectorLength:
    def test_explicit_wins(self, generator):
        d = PipelineDiagram()
        d.vector_length = 77
        assert generator.resolve_vector_length(d, {}) == 77

    def test_dma_count_used(self, generator):
        d = PipelineDiagram()
        d.set_dma(
            mem_read(0),
            DMASpec(device_kind=DeviceKind.MEMORY, device=0,
                    direction=Direction.READ, variable="u", count=55),
        )
        assert generator.resolve_vector_length(d, {}) == 55

    def test_variable_length_implied(self, generator):
        d = PipelineDiagram()
        d.set_dma(
            mem_read(0),
            DMASpec(device_kind=DeviceKind.MEMORY, device=0,
                    direction=Direction.READ, variable="u"),
        )
        decls = {"u": Declaration("u", plane=0, length=40)}
        assert generator.resolve_vector_length(d, decls) == 40

    def test_strided_variable_length(self, generator):
        d = PipelineDiagram()
        d.set_dma(
            mem_read(0),
            DMASpec(device_kind=DeviceKind.MEMORY, device=0,
                    direction=Direction.READ, variable="u", stride=3),
        )
        decls = {"u": Declaration("u", plane=0, length=40)}
        assert generator.resolve_vector_length(d, decls) == 14

    def test_unresolvable_is_an_error(self, generator):
        with pytest.raises(CodegenError, match="vector length"):
            generator.resolve_vector_length(PipelineDiagram(), {})


class TestMicrowordContents:
    @pytest.fixture(scope="class")
    def saxpy_image(self, node):
        gen = MicrocodeGenerator(node)
        setup = build_saxpy_program(node, 64, alpha=3.0)
        return gen.generate(setup.program).images[0], gen

    def test_opcode_fields(self, saxpy_image):
        image, gen = saxpy_image
        word = image.microword
        ops = {
            fu: word.get(f"fu{fu}.opcode") for fu in image.fu_order
        }
        expected = {fu: OP_INDEX[op] for fu, (op, _c) in image.fu_ops.items()}
        assert ops == expected

    def test_vector_length_field(self, saxpy_image):
        image, _gen = saxpy_image
        assert image.microword.get("seq.vector_length") == 64

    def test_dma_fields(self, saxpy_image):
        image, _gen = saxpy_image
        word = image.microword
        assert word.get("mem0.dma.enable") == 1
        assert word.get("mem0.dma.dir") == 0  # read
        assert word.get("mem2.dma.dir") == 1  # the output write
        assert word.get("mem0.dma.count") == 64

    def test_source_selectors_resolve(self, saxpy_image):
        """Every switch-routed FU input's selector decodes to the endpoint
        the pipeline image says feeds it."""
        image, gen = saxpy_image
        word = image.microword
        table = gen.layout.source_table
        checked = 0
        for (fu, port), resolved in image.inputs.items():
            if resolved.kind in ("mem", "cache", "sd", "fu"):
                sel = word.get(f"fu{fu}.{port}.src")
                assert table.endpoint_of(sel) == resolved.endpoint
                checked += 1
            elif resolved.kind == "internal":
                assert word.get(f"fu{fu}.{port}.internal") == 1
        assert checked >= 2

    def test_encode_decode_fidelity(self, saxpy_image):
        from repro.codegen.microword import Microword

        image, gen = saxpy_image
        raw = image.microword.encode()
        assert Microword.decode(gen.layout, raw) == image.microword

    def test_condition_fields(self, node):
        gen = MicrocodeGenerator(node)
        setup = build_jacobi_program(node, (5, 5, 5), eps=1e-7)
        image = gen.generate(setup.program).images[1]
        word = image.microword
        assert word.get("seq.cond.enable") == 1
        assert word.get_float("seq.cond.threshold") == 1e-7
        assert word.get("seq.cond.fu") == setup.residual_fu

    def test_delay_fields_emitted(self, node):
        gen = MicrocodeGenerator(node)
        setup = build_jacobi_program(node, (5, 5, 5))
        image = gen.generate(setup.program).images[1]
        word = image.microword
        delays = [
            word.get(f"fu{fu}.{port}.delay")
            for (fu, port) in image.inputs
        ]
        assert any(d > 0 for d in delays)  # balancing inserted queues

    def test_write_without_driver_is_an_error(self, node):
        gen = MicrocodeGenerator(node, run_checker=False)
        prog = VisualProgram()
        prog.declare("out", plane=1, length=8)
        d = PipelineDiagram()
        d.vector_length = 8
        d.set_dma(
            mem_write(1),
            DMASpec(device_kind=DeviceKind.MEMORY, device=1,
                    direction=Direction.WRITE, variable="out"),
        )
        prog.insert_pipeline(d)
        with pytest.raises(CodegenError, match="nothing drives"):
            gen.generate(prog)


class TestErrorOrder:
    """A microword field that fails its check is raised only once the
    pipeline's timing and codegen errors are ruled out, as when the word
    was packed after everything else."""

    @staticmethod
    def _program(vector_length):
        prog = VisualProgram()
        d = PipelineDiagram()
        d.vector_length = vector_length
        d.add_als(4, ALSKind.DOUBLET, first_fu=4)
        d.set_fu_op(4, Opcode.FABS)
        d.connect(mem_read(0), fu_in(4, "a"))
        d.delays[(4, "a")] = -1  # fits no delay field
        prog.insert_pipeline(d)
        return prog

    def test_codegen_error_comes_first(self, node):
        gen = MicrocodeGenerator(node, run_checker=False)
        with pytest.raises(CodegenError, match="vector length cannot be"):
            gen.generate(self._program(None))

    def test_then_the_field_error(self, node):
        gen = MicrocodeGenerator(node, run_checker=False)
        with pytest.raises(FieldError, match=(
                r"^value -1 does not fit field fu4\.a\.delay \(7 bits\)$")):
            gen.generate(self._program(8))
