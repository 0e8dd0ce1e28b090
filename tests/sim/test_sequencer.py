"""Sequencer: control scripts, loops, convergence, swap and halt."""

import numpy as np
import pytest

from repro.arch.node import NodeConfig
from repro.codegen.generator import MicrocodeGenerator
from repro.compose.jacobi import build_jacobi_program, load_jacobi_inputs
from repro.compose.kernels import build_heat1d_program, build_saxpy_program
from repro.diagram.program import (
    ExecPipeline,
    Halt,
    LoopUntil,
)
from repro.sim.machine import NSCMachine
from repro.sim.sequencer import Sequencer, SequencerError


@pytest.fixture(scope="module")
def node() -> NodeConfig:
    return NodeConfig()


def _machine_for(node, setup):
    machine = NSCMachine(node)
    program = MicrocodeGenerator(node).generate(setup.program)
    machine.load_program(program)
    return machine, program


class TestStraightLine:
    def test_halt_stops_execution(self, node, rng):
        setup = build_saxpy_program(node, 16)
        machine, program = _machine_for(node, setup)
        machine.set_variable("x", rng.random(16))
        machine.set_variable("y", rng.random(16))
        result = machine.run()
        assert result.halted
        assert result.instructions_issued == 1
        assert result.issue_trace == [0]

    def test_metrics_collected(self, node, rng):
        setup = build_saxpy_program(node, 256)
        machine, program = _machine_for(node, setup)
        machine.set_variable("x", rng.random(256))
        machine.set_variable("y", rng.random(256))
        result = machine.run()
        metrics = machine.metrics(result)
        assert metrics.flops == 512
        assert 0 < metrics.achieved_mflops < metrics.peak_mflops
        assert 0 < metrics.fu_utilization < 1


class TestRepeat:
    def test_repeat_runs_body_n_times(self, node, rng):
        setup = build_heat1d_program(node, 64, steps=5)
        machine, program = _machine_for(node, setup)
        u = rng.random(64)
        u[0] = u[-1] = 0.0

        machine.set_variable("u", u)
        mask = np.zeros(64)
        mask[1:-1] = 1.0
        machine.set_variable("mask", mask)
        machine.set_variable("invmask", 1.0 - mask)
        machine.set_variable("u_new", np.zeros(64))
        result = machine.run()
        # 1 cache load + 5 smoothing sweeps
        assert result.instructions_issued == 6

    def test_heat_smoother_converges_toward_linear(self, node):
        """Physics check: the 1-D heat smoother damps interior bumps."""
        setup = build_heat1d_program(node, 32, r=0.25, steps=200)
        machine, program = _machine_for(node, setup)
        u = np.zeros(32)
        u[10:20] = 1.0
        mask = np.zeros(32)
        mask[1:-1] = 1.0
        machine.set_variable("u", u)
        machine.set_variable("mask", mask)
        machine.set_variable("invmask", 1.0 - mask)
        machine.set_variable("u_new", np.zeros(32))
        machine.run()
        final = machine.get_variable("u")
        assert np.max(final) < 0.5  # bump diffused substantially
        assert final[0] == 0.0 and final[-1] == 0.0  # boundaries pinned


class TestLoopUntil:
    def test_jacobi_converges_and_reports(self, node, grid6):
        setup = build_jacobi_program(node, (6, 6, 6), eps=1e-4)
        machine, program = _machine_for(node, setup)
        load_jacobi_inputs(machine, setup, grid6, np.zeros((6, 6, 6)))
        result = machine.run()
        assert result.converged is True
        assert result.loop_iterations[1] > 1
        # final residual below eps
        last = result.last_result_for(1)
        assert last is not None and last.condition_value < 1e-4

    def test_max_iterations_bound(self, node, grid6):
        setup = build_jacobi_program(node, (6, 6, 6), eps=0.0, max_iterations=7)
        machine, program = _machine_for(node, setup)
        load_jacobi_inputs(machine, setup, grid6, np.zeros((6, 6, 6)))
        result = machine.run()
        assert result.converged is False
        assert result.loop_iterations[1] == 7

    def test_instruction_budget_guards_runaway(self, node, grid6):
        setup = build_jacobi_program(node, (6, 6, 6), eps=0.0, max_iterations=10_000)
        machine, program = _machine_for(node, setup)
        load_jacobi_inputs(machine, setup, grid6, np.zeros((6, 6, 6)))
        with pytest.raises(SequencerError, match="budget"):
            machine.run(max_instructions=50)


class TestErrors:
    def test_bad_pipeline_index(self, node, rng):
        setup = build_saxpy_program(node, 16)
        machine, program = _machine_for(node, setup)
        program.control = [ExecPipeline(5), Halt()]
        machine.set_variable("x", rng.random(16))
        machine.set_variable("y", rng.random(16))
        with pytest.raises(SequencerError, match="no pipeline 5"):
            machine.run()

    def test_loop_watching_unexecuted_pipeline(self, node, grid6):
        setup = build_jacobi_program(node, (6, 6, 6))
        machine, program = _machine_for(node, setup)
        load_jacobi_inputs(machine, setup, grid6, np.zeros((6, 6, 6)))
        program.control = [
            LoopUntil(body=(ExecPipeline(0),), condition_pipeline=1,
                      max_iterations=3),
            Halt(),
        ]
        with pytest.raises(SequencerError, match="never executed"):
            machine.run()
