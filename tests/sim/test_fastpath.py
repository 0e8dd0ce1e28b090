"""The fast backend: single-node parity with the reference.

The fast backend's contract is bit-identical observable behaviour — grids,
cycle/flop counts, DMA statistics, condition outcomes, interrupt counts —
so every test here runs the same program through the reference
interpreter on a machine and through the fused engine on a stacked row
fed the same inputs (``helpers_slab.check_parity``), and compares whole
results, not tolerances.  Per-image cases run as a one-sweep control
script.
"""

import numpy as np
import pytest

from helpers_slab import check_parity
from repro.codegen.generator import MicrocodeGenerator
from repro.codegen.timing import instruction_cycles
from repro.compose.jacobi import build_jacobi_program, load_jacobi_inputs
from repro.diagram.program import CacheSwap, ExecPipeline, Halt
from repro.sim.fastpath import BACKENDS, validate_backend
from repro.sim.machine import NSCMachine
from repro.sim.pipeline_exec import execute_image
from repro.sim.progplan import compiled_plan, pad_extent, pad_window


def _loaded_machine(node, setup, program, u0, f):
    machine = NSCMachine(node)
    machine.load_program(program)
    load_jacobi_inputs(machine, setup, u0, f)
    return machine


def _one_sweep(node, u0, f):
    """Mask load + one update issue as a control script, checked by the
    oracle; returns its :class:`helpers_slab.Parity`."""
    setup = build_jacobi_program(node, u0.shape, eps=1e-5, loop=False)
    setup.program.control.clear()
    for op in (ExecPipeline(0), CacheSwap(caches=(0, 1)), ExecPipeline(1),
               Halt()):
        setup.program.add_control(op)
    program = MicrocodeGenerator(node).generate(setup.program)
    return check_parity([_loaded_machine(node, setup, program, u0, f)],
                        program)


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

    def test_machine_rejects_a_backend_argument(self, node):
        """A machine runs the reference interpreter only: the fast path
        is the slab, which binds no machine."""
        with pytest.raises(TypeError):
            NSCMachine(node, backend="fast")
        assert not hasattr(NSCMachine(node), "backend")

    def test_run_rejects_a_backend_override(self, node, jacobi8):
        _setup, program = jacobi8
        with pytest.raises(TypeError):
            NSCMachine(node).run(program, backend="fast")


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
        parity = check_parity(
            [_loaded_machine(node, setup, program, u0, f)], program)
        assert parity.results[0].converged
        np.testing.assert_array_equal(
            parity.machines[0].get_variable("u"), parity.row(0, "u"))

    def test_per_image_results_match(self, node):
        shape = (8, 8, 8)
        u0 = np.linspace(0.0, 1.0, 512).reshape(shape)
        f = np.zeros(shape)
        parity = _one_sweep(node, u0, f)
        r_ref = parity.results[0].pipeline_results[-1]
        index, values, conds, _active = parity.run.log[-1]
        assert index == 1
        assert values == [r_ref.condition_value]
        assert conds == [r_ref.condition_result]

    def test_non_finite_sweep_matches(self, node):
        """Non-finite data runs on: the same rows (NaNs at the same
        places) and charges as the reference."""
        shape = (8, 8, 8)
        u0 = np.zeros(shape)
        u0[3, 3, 3] = np.inf
        u0[4, 4, 4] = np.nan
        f = np.zeros(shape)
        with np.errstate(invalid="ignore", over="ignore"):
            parity = _one_sweep(node, u0, f)
        # the scenario does produce exceptions
        assert parity.results[0].pipeline_results[-1].exceptions
        assert np.isnan(parity.row(0, "u")).any()


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
