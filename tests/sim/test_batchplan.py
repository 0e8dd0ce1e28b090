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
from repro.arch.interrupts import DEFAULT_ARMED_KINDS, InterruptKind
from repro.arch.memsys import AllocationError
from repro.diagram.program import (
    CacheSwap,
    ExecPipeline,
    Halt,
    LoopUntil,
    SwapVars,
)
from repro.sim import batchplan, progplan
from repro.sim.machine import NSCMachine
from repro.sim.sequencer import Sequencer, SequencerError


def _generate(node, shape=(6, 6, 6), eps=1e-4, max_iterations=300):
    setup = build_jacobi_program(
        node, shape, eps=eps, max_iterations=max_iterations
    )
    return setup, MicrocodeGenerator(node).generate(setup.program)


def _inputs(setup, seed):
    u0 = np.random.default_rng(seed).random(setup.shape)
    f = np.random.default_rng(1000 + seed).standard_normal(setup.shape)
    return u0, f


def _machines(node, setup, program, seeds, backend="fast"):
    machines = []
    for seed in seeds:
        machine = NSCMachine(node, backend=backend)
        machine.load_program(program)
        load_jacobi_inputs(machine, setup, *_inputs(setup, seed))
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


def _stacked_run(node, setup, program, seed, poison=False, **kwargs):
    """A one-job slab over stacked ``(1, extent)`` storage built from the
    plan's layout and filled by the solver loader — the service's lone
    fast job — with default ``fallback=True``; *poison* applies
    :func:`_poison_and_rearm`'s edits to the storage and armed set."""
    plan = progplan.compiled_plan(program, node.params)
    storage = progplan.stacked_storage(
        plan.variables, 1, plan.plane_extent, plan.cache_extent
    )
    u0, f = _inputs(setup, seed)
    load_jacobi_inputs(storage, setup, u0, f)
    armed = DEFAULT_ARMED_KINDS
    if poison:
        u = u0.reshape(-1).copy()
        u[3] = np.inf
        storage.set_variable("u", u)
        armed = armed | {InterruptKind.FP_OVERFLOW, InterruptKind.FP_INVALID}
    kwargs.setdefault("max_instructions", 1_000_000)
    run = batchplan.BatchProgramRun(plan, storage, 1, **kwargs)
    return run, plan.variables, armed


def _poison_and_rearm(machine):
    """An inf in ``u`` with both FP kinds armed, so every exception the
    run raises is a delivered interrupt."""
    u = machine.get_variable("u").copy()
    u[3] = np.inf
    machine.set_variable("u", u)
    machine.interrupts.arm(InterruptKind.FP_OVERFLOW)
    machine.interrupts.arm(InterruptKind.FP_INVALID)
    return machine


class TestStackedSlabOfOne:
    """One job over stacked storage is an exact run: it binds
    ``(1, extent)`` rows, matches the machine's fused run bit for bit,
    logs its FP exceptions and raises its faults as a machine does."""

    def test_matches_try_run_fused_bit_for_bit(self, node):
        setup, program = _generate(node)
        (machine,) = _machines(node, setup, program, (9,))
        stats_before = copy.deepcopy(machine.dma.stats)
        result = progplan.try_run_fused(machine, program, 1_000_000)
        assert result is not None
        run, variables, armed = _stacked_run(node, setup, program, 9)
        assert all(b.batch_shape == (1,) for b in run.bound.values())
        run.run()
        job = run.job(0)
        for name, var in variables.items():
            np.testing.assert_array_equal(
                run.storage.planes[var.plane][0, var.offset:var.end],
                machine.get_variable(name),
            )
        assert job.cycles == result.total_cycles == machine.cycle
        assert job.flops == result.total_flops
        assert job.instructions == result.instructions_issued
        assert run.loop_iterations[0] == result.loop_iterations
        assert run.converged[0] is result.converged is True
        stats = machine.dma.stats
        assert (job.transfers, job.words_read, job.words_written,
                job.busy_cycles) == (
            stats.transfers - stats_before.transfers,
            stats.words_read - stats_before.words_read,
            stats.words_written - stats_before.words_written,
            stats.busy_cycles - stats_before.busy_cycles,
        )
        assert job.interrupts_delivered(armed) \
            == len(machine.interrupts.delivered)

    def test_non_finite_runs_exact(self, node):
        """A non-finite value takes the exact path and logs its FP tags;
        the job's fold equals a rearmed reference machine's run."""
        setup, program = _generate(node, max_iterations=10)
        (ref,) = _machines(node, setup, program, (0,), backend="reference")
        _poison_and_rearm(ref)
        run, variables, armed = _stacked_run(
            node, setup, program, 0, poison=True
        )
        with np.errstate(invalid="ignore", over="ignore"):
            r_ref = ref.run()
            run.run()
        assert any(tags for tags, _outputs in run.extras.values())
        job = run.job(0)
        assert job.overflows + job.invalids > 0
        assert job.interrupts_delivered(armed) \
            == ref.metrics(r_ref).interrupts_delivered \
            == len(ref.interrupts.delivered)
        assert job.cycles == r_ref.total_cycles
        u = variables["u"]
        assert np.array_equal(run.storage.planes[u.plane][0, u.offset:u.end],
                              ref.get_variable("u"), equal_nan=True)

    def test_budget_fault_raises(self, node):
        """A lone job's fault is its own: raised as a machine raises it."""
        setup, program = _generate(node, eps=1e-30, max_iterations=50)
        run, _variables, _armed = _stacked_run(
            node, setup, program, 0, max_instructions=5
        )
        with pytest.raises(SequencerError, match="budget"):
            run.run()


def _loop_then_issue(node, shape=(6, 6, 6), eps=1e-4, max_iterations=300):
    """The convergence script plus one more update issue after the loop,
    which every job issues again once the stragglers have converged."""
    setup = build_jacobi_program(
        node, shape, eps=eps, max_iterations=max_iterations
    )
    prog = setup.program
    prog.control.clear()
    for op in (
        ExecPipeline(0),
        CacheSwap(caches=(0, 1)),
        LoopUntil(
            body=(ExecPipeline(1), SwapVars("u", "u_new")),
            condition_pipeline=1,
            max_iterations=max_iterations,
        ),
        ExecPipeline(1),
        Halt(),
    ):
        prog.add_control(op)
    return setup, MicrocodeGenerator(node).generate(prog)


def _disarmed(machines):
    # condition-false posts then land in ``dropped``: both streams count
    for machine in machines:
        machine.interrupts.disarm(InterruptKind.CONDITION_FALSE)
    return machines


class TestIssueLogParity:
    """The slab logs each issue once; every per-job view folded from that
    log must equal the job's own single-machine run."""

    SEEDS = (0, 1, 2, 3)

    def test_every_job_matches_its_single_machine_run(self, node):
        setup, program = _loop_then_issue(node)
        singles = _disarmed(
            _machines(node, setup, program, self.SEEDS, backend="reference")
        )
        results_ref = [m.run() for m in singles]
        slab = _disarmed(_machines(node, setup, program, self.SEEDS))
        results = batchplan.try_run_batch_fused(slab, program)
        assert results is not None
        assert len({r.loop_iterations[1] for r in results}) > 1
        for m_ref, r_ref, m_b, r_b in zip(singles, results_ref, slab, results):
            assert [vars(p) for p in r_ref.pipeline_results] \
                == [vars(p) for p in r_b.pipeline_results]
            assert r_ref.issue_trace == r_b.issue_trace
            assert r_ref.issue_trace[-1] == 1  # the post-loop issue
            assert r_ref.loop_iterations == r_b.loop_iterations
            assert r_ref.converged is r_b.converged is True
            assert r_ref.total_cycles == r_b.total_cycles
            assert r_ref.instructions_issued == r_b.instructions_issued
            assert r_ref.halted == r_b.halted
            assert _irq_stream(m_ref) == _irq_stream(m_b)
            assert m_ref.interrupts.dropped  # the disarmed kind really drops
            assert [(i.cycle, i.kind, i.source, i.payload)
                    for i in m_ref.interrupts.dropped] \
                == [(i.cycle, i.kind, i.source, i.payload)
                    for i in m_b.interrupts.dropped]
            assert m_ref.dma.stats == m_b.dma.stats
            assert m_ref.dma.device_busy == m_b.dma.device_busy
            assert m_ref.cycle == m_b.cycle

    def test_job_totals_match_per_job_metrics(self, node):
        """The counts a machine-less slab record is built from."""
        setup, program = _loop_then_issue(node)
        singles = _disarmed(_machines(node, setup, program, self.SEEDS))
        metrics = [m.metrics(m.run()) for m in singles]
        plan = progplan.compiled_plan(program, node.params)
        sources = _disarmed(_machines(node, setup, program, self.SEEDS))
        armed = batchplan.machine_bindings(plan, sources[0])
        variables = plan.variables
        storage = progplan.stacked_storage(
            variables, len(sources), plan.plane_extent, plan.cache_extent
        )
        for j, machine in enumerate(sources):
            for name, var in variables.items():
                storage.planes[var.plane][j, var.offset:var.end] = \
                    machine.get_variable(name)
        run = batchplan.BatchProgramRun(
            plan, storage, len(sources), max_instructions=1_000_000
        )
        run.run()
        for j, expected in enumerate(metrics):
            job = run.job(j)
            assert job.result is None  # totals only: no per-issue records
            assert job.cycles == expected.cycles
            assert job.instructions == expected.instructions
            assert job.flops == expected.flops
            assert job.active_fu_cycles == expected.active_fu_cycles
            assert job.interrupts_delivered(armed) \
                == expected.interrupts_delivered
            assert job.words_read + job.words_written \
                == expected.words_moved

    def test_trace_truncation_unchanged(self, node, monkeypatch):
        monkeypatch.setattr(Sequencer, "MAX_TRACE", 7)
        monkeypatch.setattr(batchplan.BatchProgramRun, "MAX_TRACE", 7)
        setup, program = _loop_then_issue(node)
        singles = _machines(node, setup, program, self.SEEDS,
                            backend="reference")
        results_ref = [m.run() for m in singles]
        slab = _machines(node, setup, program, self.SEEDS)
        results = batchplan.try_run_batch_fused(slab, program)
        assert results is not None
        for r_ref, r_b in zip(results_ref, results):
            assert r_b.instructions_issued > 7
            assert r_ref.issue_trace == r_b.issue_trace
            assert len(r_b.issue_trace) == 7


class TestStackedStorage:
    """The storage a slab binds, built from the plan's layout alone."""

    def test_zeroed_and_loaded_on_every_row(self, node):
        setup, program = _generate(node)
        plan = progplan.compiled_plan(program, node.params)
        storage = progplan.stacked_storage(
            plan.variables, 3, plan.plane_extent, plan.cache_extent
        )
        assert set(storage.planes) == set(plan.plane_extent)
        for arrays in (storage.planes, storage.cache_front,
                       storage.cache_back):
            assert all(not arr.any() and arr.shape[0] == 3
                       for arr in arrays.values())
        u0, f = _inputs(setup, 4)
        load_jacobi_inputs(storage, setup, u0, f)
        (machine,) = _machines(node, setup, program, (4,))
        for name, var in plan.variables.items():
            for row in storage.planes[var.plane][:, var.offset:var.end]:
                np.testing.assert_array_equal(row, machine.get_variable(name))

    def test_set_variable_errors_match_plane_memory(self, node):
        setup, program = _generate(node)
        plan = progplan.compiled_plan(program, node.params)
        storage = progplan.stacked_storage(
            plan.variables, 1, plan.plane_extent, plan.cache_extent
        )
        (machine,) = _machines(node, setup, program, (0,))
        length = plan.variables["u"].length
        for name, values in (("u", np.zeros(length + 1)),
                             ("u", np.zeros(length - 1)),
                             ("nowhere", np.zeros(3))):
            with pytest.raises(AllocationError) as expected:
                machine.set_variable(name, values)
            with pytest.raises(AllocationError) as raised:
                storage.set_variable(name, values)
            assert str(raised.value) == str(expected.value)
        assert not storage.planes[plan.variables["u"].plane].any()


class TestBufferAlignment:
    def test_engine_buffers_start_on_cache_lines(self, node):
        """Kernel speed must not depend on where malloc lands a buffer:
        stacked storage rows, bound row-slot blocks, the ``SwapVars``
        scratch row and small buffers alike start on 64 bytes."""
        setup, program = _generate(node, shape=(16, 16, 16),
                                   max_iterations=1)
        plan = progplan.compiled_plan(program, node.params)
        for _ in range(8):  # several allocation histories
            storage = progplan.stacked_storage(
                plan.variables, 4, plan.plane_extent, plan.cache_extent
            )
            run = batchplan.BatchProgramRun(plan, storage, 4, 1_000_000)
            # two variables sharing a plane swap through the scratch row
            storage.var_swapper(progplan._HomeVar("a", 0, 0, 24),
                                progplan._HomeVar("b", 0, 24, 24))()
            arrays = list(storage.planes.values())
            arrays += list(storage._scratch.values())
            arrays += [b._block for b in run.bound.values()
                       if b._block is not None]
            assert len(storage._scratch) == 1
            assert any(b._block is not None
                       and b._block.shape[0] == b.kernel.n_slots
                       for b in run.bound.values())
            for arr in arrays:
                assert arr.ctypes.data % 64 == 0
        for shape in ((3, 5), (1,), (2, 4096)):
            arr = progplan.aligned_empty(shape)
            assert arr.shape == shape and arr.ctypes.data % 64 == 0


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
