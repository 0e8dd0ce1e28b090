"""The fast backend: single-node parity with the reference.

The fast backend's contract is bit-identical observable behaviour — grids,
cycle/flop counts, DMA statistics, exception flags, interrupts — so every
test here runs the same program through both backends and compares whole
results, not tolerances.  Per-image cases run as a one-sweep control
script through the fused engine (:func:`repro.sim.batchplan.try_run_fused`)
against the reference interpreter issuing the same images.
"""

import numpy as np
import pytest

from repro.codegen.generator import MicrocodeGenerator
from repro.codegen.timing import instruction_cycles
from repro.compose.jacobi import build_jacobi_program, load_jacobi_inputs
from repro.diagram.program import CacheSwap, ExecPipeline, Halt
from repro.sim.fastpath import BACKENDS, validate_backend
from repro.sim.machine import NSCMachine
from repro.sim.pipeline_exec import execute_image
from repro.sim.batchplan import try_run_fused
from repro.sim.progplan import compiled_plan, pad_extent, pad_window


def _loaded_machine(node, setup, program, u0, f, backend="reference"):
    machine = NSCMachine(node, backend=backend)
    machine.load_program(program)
    load_jacobi_inputs(machine, setup, u0, f)
    return machine


def _one_sweep(node, u0, f, keep_outputs=False):
    """(reference, fused) results of mask load + one update issue.

    The reference issues the two images by hand; the fused engine runs
    the same steps as a control script and must accept it."""
    setup = build_jacobi_program(node, u0.shape, eps=1e-5, loop=False)
    setup.program.control.clear()
    for op in (ExecPipeline(0), CacheSwap(caches=(0, 1)), ExecPipeline(1),
               Halt()):
        setup.program.add_control(op)
    program = MicrocodeGenerator(node).generate(setup.program)
    ref = _loaded_machine(node, setup, program, u0, f)
    execute_image(program.images[0], ref)
    ref.swap_caches(0, 1)
    r_ref = execute_image(program.images[1], ref, keep_outputs=keep_outputs)

    fast = _loaded_machine(node, setup, program, u0, f, "fast")
    result = try_run_fused(fast, program, 1_000_000,
                           keep_outputs=keep_outputs)
    assert result is not None, "the fused engine must accept one sweep"
    return (ref, r_ref), (fast, result.pipeline_results[-1])


@pytest.fixture(scope="module")
def jacobi8(node):
    setup = build_jacobi_program(node, (8, 8, 8), eps=1e-5,
                                 max_iterations=2000)
    program = MicrocodeGenerator(node).generate(setup.program)
    return setup, program


class TestBackendValidation:
    def test_known_backends(self):
        assert BACKENDS == ("reference", "fast")
        for backend in BACKENDS:
            assert validate_backend(backend) == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="turbo"):
            validate_backend("turbo")

    def test_machine_rejects_unknown_backend(self, node):
        with pytest.raises(ValueError, match="unknown execution backend"):
            NSCMachine(node, backend="nope")

    def test_run_override_is_per_run(self, node, jacobi8):
        setup, program = jacobi8
        u0 = np.zeros((8, 8, 8))
        machine = _loaded_machine(node, setup, program, u0, np.zeros((8, 8, 8)))
        assert machine.backend == "reference"
        machine.run(backend="fast", max_instructions=10_000)
        # the override applies to that run only
        assert machine.backend == "reference"
        with pytest.raises(ValueError, match="unknown execution backend"):
            machine.run(backend="warp")
        assert machine.backend == "reference"


def _padded_windows(x, shifts):
    """Every shift of *x* as a window into one zero-padded copy, laid out
    the way the kernel lays out a feeder's taps."""
    n = x.shape[-1]
    left, total = pad_extent(n, list(shifts))
    padded = np.zeros(x.shape[:-1] + (total,))
    pad_window(padded, left, 0, n)[...] = x
    return {s: pad_window(padded, left, s, n) for s in shifts}


class TestPadWindows:
    def test_matches_shift_stream_1d(self, rng):
        from repro.arch.shift_delay import shift_stream

        x = rng.random(37)
        shifts = (-40, -5, -1, 0, 1, 7, 40)
        for shift, view in _padded_windows(x, shifts).items():
            np.testing.assert_array_equal(view, shift_stream(x, shift))

    def test_batched_rows_match_per_row(self, rng):
        x = rng.random((5, 19))
        shifts = (-3, 0, 4)
        batched = _padded_windows(x, shifts)
        for row in range(5):
            per_row = _padded_windows(x[row], shifts)
            for shift in shifts:
                np.testing.assert_array_equal(
                    batched[shift][row], per_row[shift]
                )


class TestSingleNodeParity:
    def test_full_run_bit_identical(self, node, jacobi8, rng):
        setup, program = jacobi8
        shape = (8, 8, 8)
        u0 = rng.random(shape)
        u0[0] = u0[-1] = u0[:, 0] = u0[:, -1] = 0.0
        u0[:, :, 0] = u0[:, :, -1] = 0.0
        f = rng.random(shape)
        machines = {}
        results = {}
        for backend in BACKENDS:
            machine = _loaded_machine(node, setup, program, u0, f, backend)
            results[backend] = machine.run()
            machines[backend] = machine
        ref, fast = results["reference"], results["fast"]
        assert ref.total_cycles == fast.total_cycles
        assert ref.total_flops == fast.total_flops
        assert ref.instructions_issued == fast.instructions_issued
        assert ref.issue_trace == fast.issue_trace
        assert ref.converged == fast.converged
        np.testing.assert_array_equal(
            machines["reference"].get_variable("u"),
            machines["fast"].get_variable("u"),
        )
        m_ref = machines["reference"].metrics(ref)
        m_fast = machines["fast"].metrics(fast)
        assert m_ref.summary() == m_fast.summary()
        assert m_ref.interrupts_delivered == m_fast.interrupts_delivered

    def test_per_image_results_match(self, node):
        shape = (8, 8, 8)
        u0 = np.linspace(0.0, 1.0, 512).reshape(shape)
        f = np.zeros(shape)
        (m_ref, r_ref), (m_fast, r_fast) = _one_sweep(
            node, u0, f, keep_outputs=True
        )
        assert r_ref.cycles == r_fast.cycles
        assert r_ref.compute_cycles == r_fast.compute_cycles
        assert r_ref.dma_cycles == r_fast.dma_cycles
        assert r_ref.condition_value == r_fast.condition_value
        assert r_ref.condition_result == r_fast.condition_result
        assert r_ref.exceptions == r_fast.exceptions
        assert set(r_ref.fu_outputs) == set(r_fast.fu_outputs)
        for fu in r_ref.fu_outputs:
            np.testing.assert_array_equal(
                r_ref.fu_outputs[fu], r_fast.fu_outputs[fu]
            )
        assert m_ref.dma.stats.words_moved == m_fast.dma.stats.words_moved
        assert m_ref.dma.stats.transfers == m_fast.dma.stats.transfers
        assert m_ref.dma.stats.busy_cycles == m_fast.dma.stats.busy_cycles

    def test_exception_flags_match(self, node):
        """Non-finite data must raise the same per-FU flags on both paths."""
        shape = (8, 8, 8)
        u0 = np.zeros(shape)
        u0[3, 3, 3] = np.inf
        u0[4, 4, 4] = np.nan
        f = np.zeros(shape)
        with np.errstate(invalid="ignore", over="ignore"):
            (_, r_ref), (_, r_fast) = _one_sweep(node, u0, f)
        assert r_ref.exceptions == r_fast.exceptions
        assert r_ref.exceptions  # the scenario does produce exceptions


class TestFastPlan:
    def test_plan_cached_per_image(self, node, jacobi8):
        # an image compiles once, into its program plan's kernel
        _setup, program = jacobi8
        kernel_a = compiled_plan(program, node.params).kernels[1]
        kernel_b = compiled_plan(program, node.params).kernels[1]
        assert kernel_a is kernel_b
        assert kernel_a.image is program.images[1]

    def test_plan_dma_cycles_match_engine_accounting(self, node, jacobi8):
        setup, program = jacobi8
        image = program.images[1]
        consts = compiled_plan(program, node.params).kernels[1].consts
        machine = _loaded_machine(
            node, setup, program, np.zeros((8, 8, 8)), np.zeros((8, 8, 8))
        )
        execute_image(program.images[0], machine)
        machine.swap_caches(0, 1)
        res = execute_image(image, machine)
        # the kernel's analytic makespan is the DMA engine's own accounting
        assert machine.dma.instruction_dma_cycles() == consts.dma_cycles
        assert res.cycles == instruction_cycles(
            image.total_cycles, consts.dma_cycles, node.params
        )
