"""The whole-batch slab engine: parity with N reference machines.

One :class:`~repro.sim.batchplan.BatchProgramRun` sweeping a stack of
same-program jobs must be observationally indistinguishable from running
each job alone on a reference machine — rows, variables, metrics, DMA
statistics and interrupt counts all bit-identical per job, including
when convergence diverges across the stack (``helpers_slab.check_parity``
checks every row).  And a slab that declines, for any reason at any
point, touches nothing outside its own storage, so the per-job fallback
starts from the inputs as they were.
"""

import numpy as np
import pytest

from repro.codegen.generator import MicrocodeGenerator
from repro.compose.jacobi import build_jacobi_program, load_jacobi_inputs
from repro.compose.registry import SOLVERS
from repro.arch.interrupts import InterruptKind
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

from helpers_slab import check_parity, run_stacked


def _generate(node, shape=(6, 6, 6), eps=1e-4, max_iterations=300):
    setup = build_jacobi_program(
        node, shape, eps=eps, max_iterations=max_iterations
    )
    return setup, MicrocodeGenerator(node).generate(setup.program)


def _inputs(setup, seed):
    u0 = np.random.default_rng(seed).random(setup.shape)
    f = np.random.default_rng(1000 + seed).standard_normal(setup.shape)
    return u0, f


def _machines(node, setup, program, seeds):
    machines = []
    for seed in seeds:
        machine = NSCMachine(node)
        machine.load_program(program)
        load_jacobi_inputs(machine, setup, *_inputs(setup, seed))
        machines.append(machine)
    return machines


def _snapshot(machine):
    stats = machine.dma.stats
    return (machine.get_variable("u").copy(),
            (stats.transfers, stats.words_read, stats.words_written,
             stats.busy_cycles))


def _assert_pristine(machine, before):
    assert machine.cycle == 0
    assert machine.interrupts.pending() == 0
    assert not machine.interrupts.delivered
    after = _snapshot(machine)
    np.testing.assert_array_equal(after[0], before[0])
    assert after[1] == before[1]


class TestBatchParity:
    def test_divergent_convergence_bit_identical(self, node):
        """Seeded starts converge at different iteration counts; every
        job's frozen state and accounting must still match its own
        reference run exactly."""
        setup, program = _generate(node)
        parity = check_parity(
            _machines(node, setup, program, (0, 1, 2, 3)), program)
        iteration_counts = {
            sum(r.loop_iterations.values()) for r in parity.results
        }
        assert len(iteration_counts) > 1  # divergence really exercised
        assert all(r.converged for r in parity.results)

    def test_bounded_non_converging_run(self, node):
        setup, program = _generate(node, eps=1e-30, max_iterations=7)
        parity = check_parity(
            _machines(node, setup, program, (5, 6, 7)), program)
        assert all(r.converged is False for r in parity.results)

    def test_single_job_slab(self, node):
        setup, program = _generate(node)
        parity = check_parity(_machines(node, setup, program, (9,)), program)
        assert parity.run.exact
        assert parity.results[0].converged


def _stacked_run(node, setup, program, seed, poison=False, **kwargs):
    """A one-job slab over stacked ``(1, extent)`` storage built from the
    plan's layout and filled by the solver loader — the service's lone
    fast job; *poison* puts an inf in ``u`` as :func:`_poison` does on a
    machine."""
    plan = progplan.compiled_plan(program, node.params)
    storage = progplan.stacked_storage(
        plan.variables, 1, plan.plane_extent, plan.cache_extent
    )
    u0, f = _inputs(setup, seed)
    load_jacobi_inputs(storage, setup, u0, f)
    if poison:
        u = u0.reshape(-1).copy()
        u[3] = np.inf
        storage.set_variable("u", u)
    kwargs.setdefault("max_instructions", 1_000_000)
    run = batchplan.BatchProgramRun(plan, storage, 1, **kwargs)
    return run, plan.variables


def _poison(machine):
    """An inf in ``u``: every later sweep raises FP exceptions."""
    u = machine.get_variable("u").copy()
    u[3] = np.inf
    machine.set_variable("u", u)
    return machine


class TestStackedSlabOfOne:
    """One job over stacked storage is an exact run: it binds
    ``(1, extent)`` rows, matches a reference machine bit for bit, runs
    on through non-finite values and raises its faults as a machine
    does."""

    def test_matches_reference_bit_for_bit(self, node):
        setup, program = _generate(node)
        (machine,) = _machines(node, setup, program, (9,))
        result = machine.run()
        run, variables = _stacked_run(node, setup, program, 9)
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
        assert (job.transfers, job.words_read, job.words_written) == (
            stats.transfers, stats.words_read, stats.words_written)
        assert job.interrupts_delivered() \
            == len(machine.interrupts.delivered)
        assert job.metrics(node) == machine.metrics(result)

    def test_non_finite_runs_exact(self, node):
        """A non-finite value runs on like any other; the job's fold
        equals a reference machine's run (its FP interrupts are masked,
        so no record counts them)."""
        setup, program = _generate(node, max_iterations=10)
        (ref,) = _machines(node, setup, program, (0,))
        _poison(ref)
        run, variables = _stacked_run(node, setup, program, 0, poison=True)
        with np.errstate(invalid="ignore", over="ignore"):
            r_ref = ref.run()
            run.run()
        fp_kinds = {InterruptKind.FP_OVERFLOW, InterruptKind.FP_INVALID}
        assert any(i.kind in fp_kinds for i in ref.interrupts.dropped)
        job = run.job(0)
        assert job.interrupts_delivered() \
            == ref.metrics(r_ref).interrupts_delivered \
            == len(ref.interrupts.delivered)
        assert job.cycles == r_ref.total_cycles
        u = variables["u"]
        assert np.array_equal(run.storage.planes[u.plane][0, u.offset:u.end],
                              ref.get_variable("u"), equal_nan=True)

    def test_budget_fault_raises(self, node):
        """A lone job's fault is its own: raised as a machine raises it."""
        setup, program = _generate(node, eps=1e-30, max_iterations=50)
        run, _variables = _stacked_run(
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


class TestIssueLogParity:
    """The slab logs each issue once; every per-job view folded from that
    log must equal the job's own reference run."""

    SEEDS = (0, 1, 2, 3)

    def test_every_job_matches_its_single_machine_run(self, node):
        setup, program = _loop_then_issue(node)
        parity = check_parity(
            _machines(node, setup, program, self.SEEDS), program)
        assert len({r.loop_iterations[1] for r in parity.results}) > 1
        # the post-loop issue runs on every row
        index, _values, _conds, active = parity.run.log[-1]
        assert (index, active) == (1, None)
        for result in parity.results:
            assert result.issue_trace[-1] == 1
            assert result.converged is True

    def test_job_totals_match_per_job_metrics(self, node):
        """The counts a machine-less slab record is built from, over
        rows filled variable by variable."""
        setup, program = _loop_then_issue(node)
        singles = _machines(node, setup, program, self.SEEDS)
        metrics = [m.metrics(m.run()) for m in singles]
        plan = progplan.compiled_plan(program, node.params)
        sources = _machines(node, setup, program, self.SEEDS)
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
            assert job.metrics(node) == expected
            assert job.words_read + job.words_written \
                == expected.words_moved

    def test_trace_truncation_unchanged(self, node, monkeypatch):
        """The reference keeps at most ``Sequencer.MAX_TRACE`` trace
        entries, the first ones; truncating the trace changes nothing
        else a run reports, so every row still matches the slab."""
        setup, program = _loop_then_issue(node)
        full = [m.run().issue_trace
                for m in _machines(node, setup, program, self.SEEDS)]
        monkeypatch.setattr(Sequencer, "MAX_TRACE", 7)
        parity = check_parity(
            _machines(node, setup, program, self.SEEDS), program)
        for result, trace in zip(parity.results, full):
            assert result.instructions_issued == len(trace) > 7
            assert result.issue_trace == trace[:7]


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


def _solver_machines(node, method, seeds, poison=()):
    """One loaded reference machine per seed for registry solver
    *method* at 6^3, and its program; *poison* is ``(row, variable,
    value)`` triples, each writing *value* into one element of that
    row's input grid before it is loaded."""
    entry = SOLVERS[method]
    setup = entry.build_setup(node, (6, 6, 6), eps=1e-3, max_iterations=60,
                              omega=1.3)
    program = MicrocodeGenerator(node).generate(setup.program)
    machines = []
    for row, seed in enumerate(seeds):
        grids = dict(zip(("u", "f"), _inputs(setup, seed)))
        for target, name, value in poison:
            if target == row:
                grids[name][1 + row % 3, 2, 3] = value
        machine = NSCMachine(node)
        machine.load_program(program)
        entry.load(machine, setup, grids["u"], grids["f"])
        machines.append(machine)
    return machines, program


class TestNonFiniteSlabs:
    """inf, -inf and nan are values: a slab whose rows hold them stays
    one slab, and every row — poisoned or not — matches its own
    reference machine bit for bit."""

    @pytest.mark.parametrize("method", ["jacobi", "rb-gs", "rb-sor"])
    @pytest.mark.parametrize("name,value", [("u", np.inf), ("u", np.nan),
                                            ("f", -np.inf), ("f", np.nan)])
    def test_poisoned_rows_match_their_machines(self, node, method, name,
                                                value):
        machines, program = _solver_machines(
            node, method, (0, 1, 2, 3),
            poison=((1, name, value), (3, name, value)))
        with np.errstate(all="ignore"):
            parity = check_parity(machines, program)
        assert not parity.run.exact
        for row, result in enumerate(parity.results):
            flagged = any(r.exceptions for r in result.pipeline_results)
            # the reference shows which rows really went non-finite
            assert flagged == (row in (1, 3)), row
            assert result.converged == (row not in (1, 3)), row


class TestBatchDeclines:
    def test_budget_fault_pristine_then_reproduced(self, node):
        """Budget exhaustion mid-slab declines with every machine
        pristine; the per-job fallback then faults authoritatively."""
        setup, program = _generate(node, eps=1e-30, max_iterations=50)
        machines = _machines(node, setup, program, (0, 1))
        snapshots = [_snapshot(m) for m in machines]
        with pytest.raises(progplan.FusionUnsupported, match="budget"):
            run_stacked(machines, program, max_instructions=5)
        for machine, before in zip(machines, snapshots):
            _assert_pristine(machine, before)
        with pytest.raises(SequencerError):
            machines[0].run(max_instructions=5)

    def test_mid_run_injection_pristine(self, node, monkeypatch):
        """A FusionUnsupported surfacing mid-execution (injected into the
        shared kernel issue path) unwinds the slab with nothing else
        touched."""
        setup, program = _generate(node, max_iterations=15)
        machines = _machines(node, setup, program, (0, 1, 2))
        snapshots = [_snapshot(m) for m in machines]
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
        with pytest.raises(progplan.FusionUnsupported, match="injected"):
            run_stacked(machines, program)
        assert calls["n"] >= 3  # the injection really fired mid-run
        for machine, before in zip(machines, snapshots):
            _assert_pristine(machine, before)


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
