"""Chunked double-buffered streaming: the §2 cache overlap pattern."""

import numpy as np
import pytest

from repro.arch.node import NodeConfig
from repro.checker.checker import Checker
from repro.codegen.generator import MicrocodeGenerator
from repro.compose.builders import BuilderError
from repro.compose.kernels import build_chunked_scale_program
from repro.sim.machine import NSCMachine


@pytest.fixture(scope="module")
def node() -> NodeConfig:
    return NodeConfig()


def _run(node, setup, x):
    machine = NSCMachine(node)
    machine.load_program(MicrocodeGenerator(node).generate(setup.program))
    machine.set_variable("x", x)
    result = machine.run()
    return machine, result


class TestStructure:
    def test_pipeline_pair_per_chunk(self, node):
        setup = build_chunked_scale_program(node, 256, chunk=64)
        assert len(setup.program.pipelines) == 8  # 4 loads + 4 computes

    def test_checks_clean(self, node):
        setup = build_chunked_scale_program(node, 128, chunk=32)
        report = Checker(node).check_program(setup.program)
        assert report.ok, report.format()

    def test_bad_chunk_rejected(self, node):
        with pytest.raises(BuilderError, match="evenly divide"):
            build_chunked_scale_program(node, 100, chunk=33)
        with pytest.raises(BuilderError, match="cache buffer"):
            build_chunked_scale_program(node, 65536, chunk=65536)


class TestSemantics:
    def test_values_correct_across_chunks(self, node, rng):
        x = rng.random(256)
        setup = build_chunked_scale_program(node, 256, chunk=64, alpha=3.0)
        machine, result = _run(node, setup, x)
        np.testing.assert_allclose(machine.get_variable("out"), 3.0 * x)

    def test_every_chunk_swaps_the_cache(self, node, rng):
        setup = build_chunked_scale_program(node, 128, chunk=32)
        machine, result = _run(node, setup, rng.random(128))
        assert machine.caches[0].swaps == 4

    def test_single_chunk_degenerate(self, node, rng):
        x = rng.random(64)
        setup = build_chunked_scale_program(node, 64, chunk=64)
        machine, _ = _run(node, setup, x)
        np.testing.assert_allclose(machine.get_variable("out"), 2.0 * x)


class TestCostShape:
    def test_chunking_pays_reconfiguration_tax(self, node, rng):
        """Smaller chunks -> more instructions -> more reconfigurations."""
        x = rng.random(512)
        cycles = {}
        for chunk in (512, 64):
            setup = build_chunked_scale_program(node, 512, chunk=chunk)
            _m, result = _run(node, setup, x)
            cycles[chunk] = result.total_cycles
        assert cycles[64] > cycles[512]

    def test_instruction_count_scales_inversely_with_chunk(self, node, rng):
        x = rng.random(512)
        setup = build_chunked_scale_program(node, 512, chunk=64)
        _m, result = _run(node, setup, x)
        assert result.instructions_issued == 16  # 8 loads + 8 computes
