"""Perf suite: per-backend timing of one Jacobi update on one node.

pytest-benchmark runs the same one-sweep control script — mask load,
cache swap, one update issue — through the reference interpreter and the
fused engine, so the single-node overhead gap is tracked over time
alongside the system-level numbers from ``nsc-vpe bench``.
"""

import numpy as np
import pytest

from repro.codegen.generator import MicrocodeGenerator
from repro.compose.jacobi import build_jacobi_program, load_jacobi_inputs
from repro.diagram.program import CacheSwap, ExecPipeline, Halt
from repro.sim.fastpath import BACKENDS
from repro.sim.machine import NSCMachine


@pytest.mark.parametrize("backend", BACKENDS)
def test_perf_jacobi_update_image(benchmark, node, backend):
    shape = (8, 8, 8)
    setup = build_jacobi_program(node, shape, loop=False)
    setup.program.control.clear()
    for op in (ExecPipeline(0), CacheSwap(caches=(0, 1)), ExecPipeline(1),
               Halt()):
        setup.program.add_control(op)
    program = MicrocodeGenerator(node).generate(setup.program)
    machine = NSCMachine(node, backend=backend)
    machine.load_program(program)
    load_jacobi_inputs(machine, setup, np.zeros(shape), np.zeros(shape))
    result = benchmark(machine.run)
    assert result.pipeline_results[-1].vector_length == 512
