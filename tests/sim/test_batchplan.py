"""The whole-batch slab engine: parity with N per-job fused runs.

One :class:`~repro.sim.batchplan.BatchProgramRun` sweeping a stack of
same-program jobs must be observationally indistinguishable from running
each job alone through the same engine as a slab of one — results, variables,
metrics, DMA statistics, and the interrupt stream all bit-identical per
job, including when convergence diverges across the stack.  And a slab
that declines, for any reason at any point, must leave every machine
pristine for the per-job fallback (the commit-point contract).
"""

import copy

import numpy as np
import pytest

from repro.codegen.generator import MicrocodeGenerator
from repro.compose.jacobi import build_jacobi_program, load_jacobi_inputs
from repro.diagram.program import ExecPipeline, Halt, LoopUntil, SwapVars
from repro.sim import batchplan, progplan
from repro.sim.machine import NSCMachine
from repro.sim.sequencer import SequencerError


def _generate(node, shape=(6, 6, 6), eps=1e-4, max_iterations=300):
    setup = build_jacobi_program(
        node, shape, eps=eps, max_iterations=max_iterations
    )
    return setup, MicrocodeGenerator(node).generate(setup.program)


def _machines(node, setup, program, seeds, backend="fast"):
    machines = []
    for seed in seeds:
        machine = NSCMachine(node, backend=backend)
        machine.load_program(program)
        u0 = np.random.default_rng(seed).random(setup.shape)
        f = np.random.default_rng(1000 + seed).standard_normal(setup.shape)
        load_jacobi_inputs(machine, setup, u0, f)
        machines.append(machine)
    return machines


def _irq_stream(machine):
    return [
        (i.cycle, i.kind, i.source, i.payload)
        for i in machine.interrupts.delivered
    ]


def _assert_job_identical(m_ref, r_ref, m_batch, r_batch):
    assert r_ref.total_cycles == r_batch.total_cycles
    assert r_ref.total_flops == r_batch.total_flops
    assert r_ref.instructions_issued == r_batch.instructions_issued
    assert r_ref.loop_iterations == r_batch.loop_iterations
    assert r_ref.converged == r_batch.converged
    assert r_ref.halted == r_batch.halted
    for name in m_ref.memory.variables:
        np.testing.assert_array_equal(
            m_ref.get_variable(name), m_batch.get_variable(name)
        )
    assert m_ref.metrics(r_ref).summary() == m_batch.metrics(r_batch).summary()
    assert m_ref.cycle == m_batch.cycle
    assert m_ref.dma.stats == m_batch.dma.stats
    assert m_ref.dma.device_busy == m_batch.dma.device_busy
    assert _irq_stream(m_ref) == _irq_stream(m_batch)
    assert m_ref.interrupts.pending() == m_batch.interrupts.pending()


def _assert_pristine(machine, before_u, before_stats):
    assert machine.cycle == 0
    assert machine.dma.stats == before_stats
    assert machine.interrupts.pending() == 0
    assert not machine.interrupts.delivered
    np.testing.assert_array_equal(machine.get_variable("u"), before_u)


class TestBatchParity:
    def test_divergent_convergence_bit_identical(self, node):
        """Seeded starts converge at different iteration counts; every
        job's frozen state and accounting must still match its own
        per-job fused run exactly."""
        setup, program = _generate(node)
        seeds = (0, 1, 2, 3)
        per_job = _machines(node, setup, program, seeds)
        results_ref = [m.run() for m in per_job]
        batch = _machines(node, setup, program, seeds)
        results = batchplan.try_run_batch_fused(batch, program)
        assert results is not None
        iteration_counts = {
            sum(r.loop_iterations.values()) for r in results
        }
        assert len(iteration_counts) > 1  # divergence really exercised
        for m_ref, r_ref, m_b, r_b in zip(
            per_job, results_ref, batch, results
        ):
            _assert_job_identical(m_ref, r_ref, m_b, r_b)
        assert all(r.converged for r in results)

    def test_bounded_non_converging_run(self, node):
        setup, program = _generate(node, eps=1e-30, max_iterations=7)
        seeds = (5, 6, 7)
        per_job = _machines(node, setup, program, seeds)
        results_ref = [m.run() for m in per_job]
        batch = _machines(node, setup, program, seeds)
        results = batchplan.try_run_batch_fused(batch, program)
        assert results is not None
        assert all(r.converged is False for r in results)
        for m_ref, r_ref, m_b, r_b in zip(
            per_job, results_ref, batch, results
        ):
            _assert_job_identical(m_ref, r_ref, m_b, r_b)

    def test_single_job_slab(self, node):
        setup, program = _generate(node)
        (ref,) = _machines(node, setup, program, (9,))
        r_ref = ref.run()
        (solo,) = batch = _machines(node, setup, program, (9,))
        results = batchplan.try_run_batch_fused(batch, program)
        assert results is not None
        _assert_job_identical(ref, r_ref, solo, results[0])


class TestBatchDeclines:
    def test_reference_backend_declines(self, node):
        setup, program = _generate(node)
        machines = _machines(node, setup, program, (0, 1))
        machines += _machines(node, setup, program, (2,),
                              backend="reference")
        assert batchplan.try_run_batch_fused(machines, program) is None

    def test_empty_slab_declines(self, node):
        _setup, program = _generate(node)
        assert batchplan.try_run_batch_fused([], program) is None

    def test_non_finite_declines_pristine(self, node):
        """A non-finite value anywhere in the stack declines the whole
        slab (single-machine runs own FP-exception semantics), touching
        no machine — including the finite ones."""
        setup, program = _generate(node, max_iterations=10)
        machines = _machines(node, setup, program, (0, 1, 2))
        poisoned = machines[1].get_variable("u").copy()
        poisoned[3] = np.inf
        machines[1].set_variable("u", poisoned)
        snapshots = [
            (m.get_variable("u").copy(), copy.deepcopy(m.dma.stats))
            for m in machines
        ]
        with np.errstate(invalid="ignore", over="ignore"):
            assert batchplan.try_run_batch_fused(machines, program) is None
        for machine, (before_u, before_stats) in zip(machines, snapshots):
            _assert_pristine(machine, before_u, before_stats)

    def test_budget_fault_pristine_then_reproduced(self, node):
        """Budget exhaustion mid-slab declines with every machine
        pristine; the per-job fallback then faults authoritatively, with
        state committed to the fault point as the reference tier would."""
        setup, program = _generate(node, eps=1e-30, max_iterations=50)
        machines = _machines(node, setup, program, (0, 1))
        snapshots = [
            (m.get_variable("u").copy(), copy.deepcopy(m.dma.stats))
            for m in machines
        ]
        assert batchplan.try_run_batch_fused(
            machines, program, max_instructions=5
        ) is None
        for machine, (before_u, before_stats) in zip(machines, snapshots):
            _assert_pristine(machine, before_u, before_stats)
        with pytest.raises(SequencerError):
            machines[0].run(max_instructions=5)

    def test_mid_run_injection_pristine(self, node, monkeypatch):
        """A FusionUnsupported surfacing mid-execution (injected into the
        shared kernel issue path) unwinds the slab with nothing
        committed."""
        setup, program = _generate(node, max_iterations=15)
        machines = _machines(node, setup, program, (0, 1, 2))
        snapshots = [
            (m.get_variable("u").copy(), copy.deepcopy(m.dma.stats))
            for m in machines
        ]
        calls = {"n": 0}
        real_issue = progplan.BoundImage.issue_compute

        def flaky_issue(self):
            calls["n"] += 1
            if calls["n"] == 3:
                raise progplan.FusionUnsupported("injected mid-slab")
            return real_issue(self)

        monkeypatch.setattr(
            progplan.BoundImage, "issue_compute", flaky_issue
        )
        assert batchplan.try_run_batch_fused(machines, program) is None
        assert calls["n"] >= 3  # the injection really fired mid-run
        for machine, (before_u, before_stats) in zip(machines, snapshots):
            _assert_pristine(machine, before_u, before_stats)


class TestCheckBatchable:
    def _plan_for(self, node, control_ops):
        setup = build_jacobi_program(node, (5, 5, 5), eps=1e-3, loop=False)
        prog = setup.program
        prog.control.clear()
        for op in control_ops:
            prog.add_control(op)
        program = MicrocodeGenerator(node).generate(prog)
        return progplan.compiled_plan(program, node.params)

    def test_plain_convergence_script_is_batchable(self, node):
        setup, program = _generate(node)
        plan = progplan.compiled_plan(program, node.params)
        batchplan.check_batchable(plan)  # must not raise

    def test_keep_outputs_plan_declines(self, node):
        setup, program = _generate(node)
        plan = progplan.compiled_plan(
            program, node.params, keep_outputs=True
        )
        with pytest.raises(progplan.FusionUnsupported,
                           match="keep_outputs"):
            batchplan.check_batchable(plan)

    def test_halt_inside_loop_declines(self, node):
        plan = self._plan_for(node, [
            ExecPipeline(0),
            LoopUntil(
                body=(ExecPipeline(1), Halt(), SwapVars("u", "u_new")),
                condition_pipeline=1,
                max_iterations=4,
            ),
        ])
        with pytest.raises(progplan.FusionUnsupported, match="Halt"):
            batchplan.check_batchable(plan)

    def test_nested_loop_declines(self, node):
        plan = self._plan_for(node, [
            ExecPipeline(0),
            LoopUntil(
                body=(
                    ExecPipeline(1),
                    LoopUntil(
                        body=(ExecPipeline(1),),
                        condition_pipeline=1,
                        max_iterations=2,
                    ),
                ),
                condition_pipeline=1,
                max_iterations=4,
            ),
        ])
        with pytest.raises(progplan.FusionUnsupported, match="nested"):
            batchplan.check_batchable(plan)

    def test_verdict_memoized_on_plan(self, node):
        setup, program = _generate(node)
        plan = progplan.compiled_plan(program, node.params)
        batchplan.check_batchable(plan)
        assert plan.__dict__.get("_batchable") == ""
