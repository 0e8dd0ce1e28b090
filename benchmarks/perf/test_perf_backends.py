"""Perf suite: per-backend timing of one Jacobi update on one node.

pytest-benchmark runs the same one-sweep control script — mask load,
cache swap, one update issue — through the reference interpreter on a
machine and through the fused engine on a slab of one (a stacked row
loaded by the solver loader, as the service runs a lone fast job), so
the single-node overhead gap is tracked over time alongside the
system-level numbers from ``nsc-vpe bench``.
"""

import numpy as np
import pytest

from repro.codegen.generator import MicrocodeGenerator
from repro.compose.jacobi import build_jacobi_program, load_jacobi_inputs
from repro.diagram.program import CacheSwap, ExecPipeline, Halt
from repro.sim import batchplan, progplan
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

    def load(target):
        load_jacobi_inputs(target, setup, np.zeros(shape), np.zeros(shape))

    if backend == "reference":
        machine = NSCMachine(node)
        machine.load_program(program)
        load(machine)
        result = benchmark(machine.run)
        assert result.pipeline_results[-1].vector_length == 512
        return
    plan = batchplan.compiled_plan(program, node.params)

    def run_slab_of_one():
        storage = progplan.stacked_storage(
            plan.variables, 1, plan.plane_extent, plan.cache_extent
        )
        load(storage)
        run = batchplan.BatchProgramRun(plan, storage, 1, 1_000_000)
        run.run()
        return run

    run = benchmark(run_slab_of_one)
    assert run.log[-1][0] == 1
    assert plan.kernels[1].consts.vector_length == 512
