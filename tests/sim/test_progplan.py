"""The whole-program compiled engine: parity with the reference sequencer.

The compiled schedule's contract is bit-identical observable behaviour,
and it covers the *control script* too: loop iteration counts, issue
traces, relocations, cache swaps, the interrupt stream, and DMA
statistics all have to match a step-by-step reference run exactly.
"""

import numpy as np
import pytest

from repro.arch.funcunit import Opcode
from repro.codegen.generator import MicrocodeGenerator
from repro.compose.builders import ConstOperand, PipelineBuilder
from repro.compose.jacobi import build_jacobi_program, load_jacobi_inputs
from repro.diagram.program import (
    CacheSwap,
    ExecPipeline,
    Halt,
    LoopUntil,
    Repeat,
    SwapVars,
    VisualProgram,
)
from repro.obs import tracer as obs
from repro.sim import batchplan, progplan
from repro.sim.fastpath import PLAN_CACHE
from repro.sim.machine import NSCMachine
from repro.sim.sequencer import SequencerError


def _generate(node, shape=(6, 6, 6), eps=1e-4, max_iterations=300, loop=True):
    setup = build_jacobi_program(
        node, shape, eps=eps, max_iterations=max_iterations, loop=loop
    )
    return setup, MicrocodeGenerator(node).generate(setup.program)


def _scripted(node, control_ops):
    """A 5³ Jacobi build with its control script replaced by *control_ops*."""
    setup = build_jacobi_program(node, (5, 5, 5), eps=1e-3, loop=False)
    prog = setup.program
    prog.control.clear()
    for op in control_ops:
        prog.add_control(op)
    return setup, MicrocodeGenerator(node).generate(prog)


def _loaded(node, setup, program, u0, f, backend):
    machine = NSCMachine(node, backend=backend)
    machine.load_program(program)
    load_jacobi_inputs(machine, setup, u0, f)
    return machine


def _run(node, setup, program, u0, f, backend, **kwargs):
    machine = _loaded(node, setup, program, u0, f, backend)
    return machine, machine.run(**kwargs)


def _irq_stream(machine):
    # repr: NaN condition payloads must compare equal
    return [
        repr((i.cycle, i.kind, i.source, i.payload))
        for i in machine.interrupts.delivered
    ]


def _assert_runs_identical(ref, fused):
    (m_ref, r_ref), (m_fast, r_fast) = ref, fused
    assert r_ref.total_cycles == r_fast.total_cycles
    assert r_ref.total_flops == r_fast.total_flops
    assert r_ref.instructions_issued == r_fast.instructions_issued
    assert r_ref.issue_trace == r_fast.issue_trace
    assert r_ref.loop_iterations == r_fast.loop_iterations
    assert r_ref.converged == r_fast.converged
    assert r_ref.halted == r_fast.halted
    assert len(r_ref.pipeline_results) == len(r_fast.pipeline_results)
    for p_ref, p_fast in zip(r_ref.pipeline_results, r_fast.pipeline_results):
        assert p_ref.cycles == p_fast.cycles
        assert p_ref.condition_result == p_fast.condition_result
        assert repr(p_ref.condition_value) == repr(p_fast.condition_value)
        assert p_ref.exceptions == p_fast.exceptions
        assert set(p_ref.fu_outputs) == set(p_fast.fu_outputs)
        for fu in p_ref.fu_outputs:
            np.testing.assert_array_equal(
                p_ref.fu_outputs[fu], p_fast.fu_outputs[fu]
            )
    for name in m_ref.memory.variables:
        np.testing.assert_array_equal(
            m_ref.get_variable(name), m_fast.get_variable(name)
        )
    assert m_ref.metrics(r_ref).summary() == m_fast.metrics(r_fast).summary()
    assert m_ref.cycle == m_fast.cycle
    assert m_ref.dma.stats == m_fast.dma.stats
    assert m_ref.dma.device_busy == m_fast.dma.device_busy
    # Interrupt.__eq__ compares cycles only; parity means the full
    # (cycle, kind, source, payload) stream matches, dropped ones included
    assert _irq_stream(m_ref) == _irq_stream(m_fast)
    assert [repr((i.cycle, i.kind, i.source)) for i in m_ref.interrupts.dropped] \
        == [repr((i.cycle, i.kind, i.source))
            for i in m_fast.interrupts.dropped]
    assert m_ref.interrupts.pending() == m_fast.interrupts.pending()


class TestFusedRunParity:
    def test_convergence_run_bit_identical(self, node, rng):
        setup, program = _generate(node)
        u0 = rng.random((6, 6, 6))
        f = rng.standard_normal((6, 6, 6))
        ref = _run(node, setup, program, u0, f, "reference")
        fused = _run(node, setup, program, u0, f, "fast")
        _assert_runs_identical(ref, fused)
        assert fused[1].converged

    def test_bounded_run_not_converged(self, node, rng):
        setup, program = _generate(node, eps=1e-30, max_iterations=9)
        u0 = rng.random((6, 6, 6))
        f = rng.standard_normal((6, 6, 6))
        ref = _run(node, setup, program, u0, f, "reference")
        fused = _run(node, setup, program, u0, f, "fast")
        _assert_runs_identical(ref, fused)
        assert not fused[1].converged
        assert fused[1].loop_iterations[setup.update_pipeline] == 9

    def test_exception_flags_and_drops_match(self, node):
        """Non-finite data must route through the exact path with the
        reference's per-FU flags and dropped FP interrupts."""
        setup, program = _generate(node, max_iterations=20)
        shape = (6, 6, 6)
        u0 = np.zeros(shape)
        u0[2, 2, 2] = np.inf
        u0[3, 3, 3] = np.nan
        f = np.zeros(shape)
        m_ref, r_ref = _run(node, setup, program, u0, f, "reference")
        m_fast, r_fast = _run(node, setup, program, u0, f, "fast")
        assert [p.exceptions for p in r_ref.pipeline_results] == [
            p.exceptions for p in r_fast.pipeline_results
        ]
        assert any(p.exceptions for p in r_fast.pipeline_results)
        assert [
            (i.cycle, i.kind, i.source) for i in m_ref.interrupts.dropped
        ] == [
            (i.cycle, i.kind, i.source) for i in m_fast.interrupts.dropped
        ]
        np.testing.assert_array_equal(
            m_ref.get_variable("u"), m_fast.get_variable("u")
        )

    def test_keep_outputs_fused_bit_identical(self, node, rng):
        """keep_outputs now runs through the fused engine: every issue's
        per-FU output streams must match the reference bit for bit."""
        setup, program = _generate(node, max_iterations=5)
        u0 = rng.random((6, 6, 6))
        f = rng.standard_normal((6, 6, 6))
        m_ref, r_ref = _run(
            node, setup, program, u0, f, "reference", keep_outputs=True
        )
        m_fast, r_fast = _run(
            node, setup, program, u0, f, "fast", keep_outputs=True
        )
        assert r_ref.total_cycles == r_fast.total_cycles
        assert _irq_stream(m_ref) == _irq_stream(m_fast)
        assert len(r_ref.pipeline_results) == len(r_fast.pipeline_results)
        for p_ref, p_fast in zip(r_ref.pipeline_results,
                                 r_fast.pipeline_results):
            assert set(p_ref.fu_outputs) == set(p_fast.fu_outputs)
            if p_ref.active_fus:
                assert p_ref.fu_outputs  # retention actually happened
            for fu in p_ref.fu_outputs:
                np.testing.assert_array_equal(
                    p_ref.fu_outputs[fu], p_fast.fu_outputs[fu]
                )
        np.testing.assert_array_equal(
            m_ref.get_variable("u"), m_fast.get_variable("u")
        )

    def test_keep_outputs_uses_fused_engine(self, node, rng):
        """The gap this PR closes: keep_outputs must not skip fusion."""
        setup, program = _generate(node, max_iterations=5)
        machine = NSCMachine(node, backend="fast")
        machine.load_program(program)
        load_jacobi_inputs(
            machine, setup, rng.random((6, 6, 6)),
            rng.standard_normal((6, 6, 6)),
        )
        result = batchplan.try_run_fused(
            machine, program, 1_000_000, keep_outputs=True
        )
        assert result is not None
        assert all(
            p.fu_outputs for p in result.pipeline_results if p.active_fus
        )
        assert any(p.fu_outputs for p in result.pipeline_results)

    def test_keep_outputs_exact_path_does_not_alias_buffers(self, node, rng):
        """Exact-path outputs of a PASS unit are the live tap/stream view
        itself; captured fu_outputs must be copies, or the next issue's
        tap refill silently mutates the record (rb-sor keeps real PASS
        steps, and a NaN forces every issue down the exact path)."""
        from repro.compose.iterative import (
            build_rbsor_program,
            load_rbsor_inputs,
        )

        shape = (5, 5, 5)
        setup = build_rbsor_program(node, shape, omega=1.3, eps=1e-4,
                                    max_iterations=8)
        program = MicrocodeGenerator(node).generate(setup.program)
        u0 = rng.random(shape)
        u0[2, 2, 2] = np.nan
        f = rng.standard_normal(shape)
        runs = {}
        for backend in ("reference", "fast"):
            machine = NSCMachine(node, backend=backend)
            machine.load_program(program)
            load_rbsor_inputs(machine, setup, u0, f)
            runs[backend] = machine.run(keep_outputs=True)
        r_ref, r_fast = runs["reference"], runs["fast"]
        assert len(r_ref.pipeline_results) == len(r_fast.pipeline_results)
        assert any(p.exceptions for p in r_fast.pipeline_results)
        for p_ref, p_fast in zip(r_ref.pipeline_results,
                                 r_fast.pipeline_results):
            assert set(p_ref.fu_outputs) == set(p_fast.fu_outputs)
            for fu in p_ref.fu_outputs:
                np.testing.assert_array_equal(
                    p_ref.fu_outputs[fu], p_fast.fu_outputs[fu]
                )

    def test_instruction_budget_error_matches(self, node, rng):
        setup, program = _generate(node, eps=1e-30, max_iterations=50)
        u0 = rng.random((6, 6, 6))
        f = rng.standard_normal((6, 6, 6))
        for backend in ("reference", "fast"):
            machine = NSCMachine(node, backend=backend)
            machine.load_program(program)
            load_jacobi_inputs(machine, setup, u0, f)
            with pytest.raises(SequencerError, match="instruction budget"):
                machine.run(max_instructions=10)

    def test_negative_feedback_init_reduces_identically(self, node, rng):
        """The folded residual reduction must seed |init| exactly like
        eval_feedback does — a negative register-file init value changes
        the MAXABS running value's floor."""
        import dataclasses

        setup, program = _generate(node, shape=(5, 5, 5), eps=5e-1,
                                   max_iterations=40)
        image = program.images[1]
        fb_key = next(
            key for key, resolved in image.inputs.items()
            if resolved.kind == "feedback"
        )
        image.inputs[fb_key] = dataclasses.replace(
            image.inputs[fb_key], value=-0.75
        )
        u0 = rng.random((5, 5, 5))
        f = rng.standard_normal((5, 5, 5))
        ref = _run(node, setup, program, u0, f, "reference")
        fused = _run(node, setup, program, u0, f, "fast")
        _assert_runs_identical(ref, fused)

    @pytest.mark.parametrize(
        "arm, disarm",
        [
            (("FP_OVERFLOW", "FP_INVALID"), ()),
            ((), ("CONDITION_FALSE",)),
            (("FP_OVERFLOW",), ("PIPELINE_COMPLETE",)),
            ((), ("CONDITION_TRUE", "CONDITION_FALSE")),
        ],
    )
    def test_rearmed_interrupt_configs_fuse_bit_identically(
        self, node, rng, arm, disarm
    ):
        """Armed-set variations fold into the fused heap replay: the
        delivered *and* dropped interrupt streams match the reference,
        including FP exceptions raised by non-finite data."""
        from repro.arch.interrupts import InterruptKind

        setup, program = _generate(node, max_iterations=20)
        u0 = rng.random((6, 6, 6))
        u0[2, 2, 2] = np.inf
        u0[3, 3, 3] = np.nan
        f = rng.standard_normal((6, 6, 6))

        def configured(backend):
            machine = NSCMachine(node, backend=backend)
            machine.load_program(program)
            load_jacobi_inputs(machine, setup, u0, f)
            for name in arm:
                machine.interrupts.arm(InterruptKind[name])
            for name in disarm:
                machine.interrupts.disarm(InterruptKind[name])
            return machine

        fused_probe = configured("fast")
        assert batchplan.try_run_fused(fused_probe, program, 1_000_000) \
            is not None, "armed-set variation must not disable fusion"

        m_ref = configured("reference")
        r_ref = m_ref.run()
        m_fast = configured("fast")
        r_fast = m_fast.run()
        assert r_ref.total_cycles == r_fast.total_cycles

        def streams(machine):
            # repr: NaN condition payloads must compare equal
            return (
                [repr(x) for x in _irq_stream(machine)],
                [
                    repr((i.cycle, i.kind, i.source, i.payload))
                    for i in machine.interrupts.dropped
                ],
            )

        assert streams(m_ref) == streams(m_fast)
        np.testing.assert_array_equal(
            m_ref.get_variable("u"), m_fast.get_variable("u")
        )

    def test_registered_handler_falls_back(self, node, rng):
        """Handlers observe mid-run delivery; the fused engine declines
        (via the public configuration API) and the reference fallback
        produces reference behaviour."""
        from repro.arch.interrupts import InterruptKind

        setup, program = _generate(node, max_iterations=10)
        u0 = rng.random((6, 6, 6))
        f = rng.standard_normal((6, 6, 6))
        seen = []

        def make(backend):
            machine = NSCMachine(node, backend=backend)
            machine.load_program(program)
            load_jacobi_inputs(machine, setup, u0, f)
            machine.interrupts.on(
                InterruptKind.PIPELINE_COMPLETE, seen.append
            )
            return machine

        probe = make("fast")
        assert batchplan.try_run_fused(probe, program, 1_000_000) is None

        m_ref = make("reference")
        r_ref = m_ref.run()
        n_after_ref = len(seen)
        m_fast = make("fast")
        r_fast = m_fast.run()
        assert r_ref.total_cycles == r_fast.total_cycles
        assert len(seen) == 2 * n_after_ref  # handler fired on both runs
        np.testing.assert_array_equal(
            m_ref.get_variable("u"), m_fast.get_variable("u")
        )

    def test_pending_interrupts_fall_back(self, node, rng):
        """A pre-queued interrupt would interleave with the replay; the
        fused engine declines."""
        from repro.arch.interrupts import InterruptKind

        setup, program = _generate(node, max_iterations=5)
        machine = NSCMachine(node, backend="fast")
        machine.load_program(program)
        load_jacobi_inputs(
            machine, setup, rng.random((6, 6, 6)),
            rng.standard_normal((6, 6, 6)),
        )
        machine.interrupts.post(InterruptKind.PIPELINE_COMPLETE, 5,
                                source="host")
        assert batchplan.try_run_fused(machine, program, 1_000_000) is None


class TestResidualSkewFusion:
    """Ablation builds (auto_balance=False: residual stream skew) now
    compile — skewed operands become offset windows into padded copies."""

    def _skewed(self, node, shape=(5, 6, 7), eps=1e-4, max_iterations=40,
                loop=True):
        setup = build_jacobi_program(
            node, shape, eps=eps, max_iterations=max_iterations, loop=loop
        )
        program = MicrocodeGenerator(node, auto_balance=False).generate(
            setup.program
        )
        return setup, program

    def test_skewed_program_compiles(self, node):
        setup, program = self._skewed(node)
        plan = progplan.compiled_plan(program, node.params)
        assert any(
            kernel.row_pads or kernel.tap_pads
            or any(key[0] == "skew:stream"
                   for *_pad, views in kernel.feeder_pads
                   for key, _skew in views)
            for kernel in plan.kernels.values()
        ), "ablation build produced no skew: the test lost its subject"

    def test_skewed_run_bit_identical(self, node, rng):
        setup, program = self._skewed(node)
        u0 = rng.random((5, 6, 7))
        f = rng.standard_normal((5, 6, 7))
        ref = _run(node, setup, program, u0, f, "reference")
        fused = _run(node, setup, program, u0, f, "fast")
        _assert_runs_identical(ref, fused)

    def test_skewed_exception_flags_match(self, node):
        """Skew can shift a non-finite element out of a consumer's
        window, so propagation coverage must not be assumed — per-FU
        flags and dropped FP interrupts still match the reference."""
        setup, program = self._skewed(node, max_iterations=10)
        u0 = np.zeros((5, 6, 7))
        u0[2, 3, 1] = np.inf
        u0[1, 2, 3] = np.nan
        f = np.zeros((5, 6, 7))
        m_ref, r_ref = _run(node, setup, program, u0, f, "reference")
        m_fast, r_fast = _run(node, setup, program, u0, f, "fast")
        assert [p.exceptions for p in r_ref.pipeline_results] == [
            p.exceptions for p in r_fast.pipeline_results
        ]
        assert [
            (i.cycle, i.kind, i.source) for i in m_ref.interrupts.dropped
        ] == [
            (i.cycle, i.kind, i.source) for i in m_fast.interrupts.dropped
        ]
        np.testing.assert_array_equal(
            m_ref.get_variable("u"), m_fast.get_variable("u")
        )


class TestMidRunRejection:
    def test_mid_run_fusion_rejection_falls_back_cleanly(self, node, rng,
                                                         monkeypatch):
        """A FusionUnsupported surfacing after execution has begun must
        not escape as a crash: the machine is untouched up to the commit
        point, so the reference fallback reproduces the reference run."""
        setup, program = _generate(node, max_iterations=15)
        u0 = rng.random((6, 6, 6))
        f = rng.standard_normal((6, 6, 6))
        ref = _run(node, setup, program, u0, f, "reference")

        calls = {"n": 0}
        real_issue = progplan.BoundImage.issue_compute

        def flaky_issue(self):
            calls["n"] += 1
            if calls["n"] == 4:
                raise progplan.FusionUnsupported("injected mid-run")
            return real_issue(self)

        monkeypatch.setattr(progplan.BoundImage, "issue_compute", flaky_issue)
        fused = _run(node, setup, program, u0, f, "fast")
        assert calls["n"] >= 4  # the rejection really fired mid-run
        _assert_runs_identical(ref, fused)

    def test_mid_run_rejection_leaves_machine_unmutated(self, node, rng,
                                                        monkeypatch):
        """Until the commit point nothing lands on the machine: cycle,
        DMA statistics, interrupt queues, and memory stay pristine when a
        fused run aborts."""
        setup, program = _generate(node, max_iterations=15)
        u0 = rng.random((6, 6, 6))
        f = rng.standard_normal((6, 6, 6))
        machine = NSCMachine(node, backend="fast")
        machine.load_program(program)
        load_jacobi_inputs(machine, setup, u0, f)
        import copy

        before_u = machine.get_variable("u").copy()
        before_stats = copy.deepcopy(machine.dma.stats)

        calls = {"n": 0}
        real_issue = progplan.BoundImage.issue_compute

        def flaky_issue(self):
            calls["n"] += 1
            if calls["n"] == 4:
                raise progplan.FusionUnsupported("injected mid-run")
            return real_issue(self)

        monkeypatch.setattr(progplan.BoundImage, "issue_compute", flaky_issue)
        assert batchplan.try_run_fused(machine, program, 1_000_000) is None
        assert machine.cycle == 0
        assert machine.dma.stats == before_stats
        assert machine.interrupts.pending() == 0
        assert not machine.interrupts.delivered
        np.testing.assert_array_equal(machine.get_variable("u"), before_u)


class TestMultiNodeSteppers:
    def _skewed_pair(self, backend):
        from repro.arch.node import NodeConfig
        from repro.sim.multinode import MultiNodeStencil

        node = NodeConfig()
        setup = build_jacobi_program(node, (4, 4, 6), eps=1e-30, loop=False)
        program = MicrocodeGenerator(node, auto_balance=False).generate(
            setup.program
        )
        stencil = MultiNodeStencil(
            hypercube_dim=1,
            shape=(4, 4, 8),
            eps=1e-30,
            precompiled=(setup, program),
            backend=backend,
        )
        return stencil

    def test_skewed_multinode_program_now_fuses(self):
        """The ablation build used to drop to the reference stepper; it
        must now run through the batched fused engine, bit-identically."""
        fast = self._skewed_pair("fast")
        # fused_stepper accepting the program proves the engine engaged
        progplan.fused_stepper(self._skewed_pair("fast"))
        results = {}
        for backend, stencil in (("reference", self._skewed_pair("reference")),
                                 ("fast", fast)):
            results[backend] = (stencil, stencil.run(max_iterations=4))
        (s_ref, r_ref), (s_fast, r_fast) = (
            results["reference"], results["fast"]
        )
        assert r_ref.compute_cycles == r_fast.compute_cycles
        assert r_ref.residual_history == r_fast.residual_history
        np.testing.assert_array_equal(s_ref.gather("u"), s_fast.gather("u"))

    def test_declined_program_falls_back_to_reference(self, monkeypatch):
        """When the whole-system compiler declines, the fast backend runs
        the reference interpreter's node-by-node walk, with identical
        results."""
        import repro.sim.multinode as multinode_mod
        import repro.sim.pipeline_exec as pipeline_exec_mod

        def refuse(stencil):
            raise progplan.FusionUnsupported("forced for the test")

        monkeypatch.setattr(progplan, "fused_stepper", refuse)
        issues = []
        real_execute = pipeline_exec_mod.execute_image

        def spying_execute(image, machine, keep_outputs=False):
            issues.append(image.number)
            return real_execute(image, machine, keep_outputs=keep_outputs)

        monkeypatch.setattr(multinode_mod, "execute_image", spying_execute)
        ref = self._skewed_pair("reference")
        r_ref = ref.run(max_iterations=4)
        n_ref = len(issues)
        fast = self._skewed_pair("fast")
        r_fast = fast.run(max_iterations=4)
        assert n_ref and len(issues) == 2 * n_ref  # the interpreter ran
        assert r_ref.compute_cycles == r_fast.compute_cycles
        assert r_ref.residual_history == r_fast.residual_history
        np.testing.assert_array_equal(ref.gather("u"), fast.gather("u"))


class TestControlScriptShapes:
    """Fused execution of scripts beyond the straight convergence loop."""

    def _parity(self, node, setup, program, rng):
        u0 = rng.random((5, 5, 5))
        f = rng.standard_normal((5, 5, 5))
        ref = _run(node, setup, program, u0, f, "reference")
        fused = _run(node, setup, program, u0, f, "fast")
        _assert_runs_identical(ref, fused)
        return fused

    def test_nested_repeat_with_swaps(self, node, rng):
        ops = [
            ExecPipeline(0),
            CacheSwap(caches=(0, 1)),
            Repeat(
                body=(
                    ExecPipeline(1),
                    SwapVars("u", "u_new"),
                    Repeat(body=(ExecPipeline(1), SwapVars("u", "u_new")), times=2),
                ),
                times=3,
            ),
            Halt(),
        ]
        setup, program = _scripted(node, ops)
        _m, result = self._parity(node, setup, program, rng)
        assert result.instructions_issued == 1 + 3 * 3
        assert result.halted

    def test_halt_inside_repeat_stops_everything(self, node, rng):
        ops = [
            ExecPipeline(0),
            CacheSwap(caches=(0, 1)),
            Repeat(body=(ExecPipeline(1), Halt()), times=5),
            ExecPipeline(1),
        ]
        setup, program = _scripted(node, ops)
        _m, result = self._parity(node, setup, program, rng)
        assert result.instructions_issued == 2
        assert result.halted

    def test_loop_with_multi_op_body(self, node, rng):
        ops = [
            ExecPipeline(0),
            CacheSwap(caches=(0, 1)),
            LoopUntil(
                body=(
                    ExecPipeline(1),
                    SwapVars("u", "u_new"),
                    CacheSwap(caches=(0,)),
                    CacheSwap(caches=(0,)),
                ),
                condition_pipeline=1,
                max_iterations=40,
            ),
            Halt(),
        ]
        setup, program = _scripted(node, ops)
        self._parity(node, setup, program, rng)

    def test_repeat_zero_times_is_noop(self, node, rng):
        ops = [
            ExecPipeline(0),
            CacheSwap(caches=(0, 1)),
            Repeat(body=(ExecPipeline(1),), times=0),
            ExecPipeline(1),
            Halt(),
        ]
        setup, program = _scripted(node, ops)
        _m, result = self._parity(node, setup, program, rng)
        assert result.instructions_issued == 2


class TestReversedCacheStreams:
    """Negative-stride cache walks that end at word 0: the interpreter's
    cache accessors and the fused engine's local slices must agree."""

    N = 8

    def _program(self, node, load_stride, read_stride):
        n = self.N
        prog = VisualProgram(name=f"reverse-{load_stride}-{read_stride}")
        prog.declare("x", plane=0, length=n, initializer="user")
        prog.declare("out", plane=1, length=n)
        load = PipelineBuilder(node, prog, label="load", vector_length=n)
        load.write_cache(
            load.read_var("x", count=n), cache=3, count=n, stride=load_stride,
            offset=n - 1 if load_stride < 0 else 0,
        )
        load.build()
        comp = PipelineBuilder(node, prog, label="scale", vector_length=n)
        data = comp.read_cache(
            3, count=n, stride=read_stride,
            offset=n - 1 if read_stride < 0 else 0,
        )
        comp.write_var(comp.apply(Opcode.FSCALE, data, constant=2.0), "out")
        comp.build()
        for op in (ExecPipeline(0), CacheSwap(caches=(3,)), ExecPipeline(1),
                   Halt()):
            prog.add_control(op)
        return MicrocodeGenerator(node).generate(prog)

    @pytest.mark.parametrize("load_stride, read_stride",
                             [(-1, -1), (-1, 1), (1, -1)])
    def test_reference_matches_fused(self, node, load_stride, read_stride):
        program = self._program(node, load_stride, read_stride)
        x = np.arange(1.0, self.N + 1)

        def loaded(backend):
            machine = NSCMachine(node, backend=backend)
            machine.load_program(program)
            machine.set_variable("x", x)
            return machine

        assert batchplan.try_run_fused(loaded("fast"), program, 100) \
            is not None
        runs = []
        for backend in ("reference", "fast"):
            machine = loaded(backend)
            runs.append((machine, machine.run()))
        _assert_runs_identical(*runs)
        expected = 2.0 * (x if load_stride == read_stride else x[::-1])
        np.testing.assert_array_equal(runs[0][0].get_variable("out"), expected)
        np.testing.assert_array_equal(
            runs[0][0].caches[3].front, runs[1][0].caches[3].front
        )

class TestSignedZeroConstants:
    """``0.0`` and ``-0.0`` constants in one image bind separate rows:
    they compare equal, so a value-keyed row cache once handed both the
    first zero's row and ``x * -0.0`` came out with the wrong signs."""

    def test_reference_matches_fused(self, node):
        n = 6
        prog = VisualProgram(name="signed-zero")
        for plane, name in enumerate(("x", "r", "s")):
            prog.declare(name, plane=plane, length=n)
        b = PipelineBuilder(node, prog, vector_length=n)
        x = b.read_var("x")
        for name, zero in (("r", 0.0), ("s", -0.0)):
            product = b.apply(Opcode.FMUL, x, ConstOperand(zero))
            b.write_var(b.apply(Opcode.PASS, product), name)
        b.build()
        prog.add_control(ExecPipeline(0))
        prog.add_control(Halt())
        program = MicrocodeGenerator(node).generate(prog)
        x_values = np.array([1.0, -2.0, 3.0, -4.0, 5.0, -6.0])

        def loaded(backend):
            machine = NSCMachine(node, backend=backend)
            machine.load_program(program)
            machine.set_variable("x", x_values)
            return machine

        ref = loaded("reference")
        ref_result = ref.run()
        fused = loaded("fast")
        fused_result = batchplan.try_run_fused(fused, program, 100)
        assert fused_result is not None
        _assert_runs_identical((ref, ref_result), (fused, fused_result))
        for name, zero in (("r", 0.0), ("s", -0.0)):
            want = x_values * zero
            assert ref.get_variable(name).tobytes() == want.tobytes()
            assert fused.get_variable(name).tobytes() == want.tobytes()


class TestSlabOfOne:
    """A single machine runs as a slab of one through the one fused
    engine, including the cases a multi-job slab declines: each must be
    *accepted* (``try_run_fused`` is not None) and match the reference."""

    def _accepted(self, node, setup, program, u0, f, keep_outputs=False):
        ref = _run(node, setup, program, u0, f, "reference",
                   keep_outputs=keep_outputs)
        machine = _loaded(node, setup, program, u0, f, "fast")
        result = batchplan.try_run_fused(
            machine, program, 1_000_000, keep_outputs=keep_outputs
        )
        assert result is not None
        _assert_runs_identical(ref, (machine, result))
        return result

    def test_keep_outputs(self, node, rng):
        setup, program = _generate(node, max_iterations=6)
        result = self._accepted(node, setup, program, rng.random((6, 6, 6)),
                                rng.standard_normal((6, 6, 6)),
                                keep_outputs=True)
        assert all(p.fu_outputs for p in result.pipeline_results
                   if p.active_fus)
        assert any(p.fu_outputs for p in result.pipeline_results)

    def test_halt_inside_loop_until(self, node, rng):
        setup, program = _scripted(node, [
            ExecPipeline(0),
            CacheSwap(caches=(0, 1)),
            LoopUntil(
                body=(ExecPipeline(1), SwapVars("u", "u_new"), Halt()),
                condition_pipeline=1,
                max_iterations=4,
            ),
            ExecPipeline(1),
        ])
        result = self._accepted(node, setup, program, rng.random((5, 5, 5)),
                                rng.standard_normal((5, 5, 5)))
        assert result.halted
        assert result.instructions_issued == 2
        assert result.loop_iterations == {1: 1}

    def test_nested_loop_until(self, node, rng):
        setup, program = _scripted(node, [
            ExecPipeline(0),
            CacheSwap(caches=(0, 1)),
            LoopUntil(
                body=(
                    ExecPipeline(1),
                    SwapVars("u", "u_new"),
                    LoopUntil(
                        body=(ExecPipeline(1), SwapVars("u", "u_new")),
                        condition_pipeline=1,
                        max_iterations=2,
                    ),
                ),
                condition_pipeline=1,
                max_iterations=5,
            ),
        ])
        result = self._accepted(node, setup, program, rng.random((5, 5, 5)),
                                rng.standard_normal((5, 5, 5)))
        assert result.loop_iterations[1] > 5  # inner iterations count too

    def test_non_finite_input(self, node, rng):
        setup, program = _generate(node, max_iterations=12)
        u0 = rng.random((6, 6, 6))
        u0[2, 2, 2] = np.inf
        u0[3, 3, 3] = np.nan
        with np.errstate(invalid="ignore", over="ignore"):
            result = self._accepted(node, setup, program, u0,
                                    rng.standard_normal((6, 6, 6)))
        assert any(p.exceptions for p in result.pipeline_results)


class TestPlanCache:
    def test_program_plans_shared_across_machines(self, node, rng):
        setup, program = _generate(node, max_iterations=10)
        plan_a = progplan.compiled_plan(program, node.params)
        plan_b = progplan.compiled_plan(program, node.params)
        assert plan_a is plan_b

    def test_control_script_distinguishes_plans(self, node):
        """Identical microwords, different loop bound: distinct plans."""
        setup_a, prog_a = _generate(node, max_iterations=10)
        setup_b, prog_b = _generate(node, max_iterations=20)
        assert prog_a.fingerprint() == prog_b.fingerprint()  # same microcode
        plan_a = progplan.compiled_plan(prog_a, node.params)
        plan_b = progplan.compiled_plan(prog_b, node.params)
        assert plan_a is not plan_b
        assert plan_a.program is prog_a and plan_b.program is prog_b

    def test_input_constants_distinguish_plans(self, node):
        """Identical microwords, different literal operand: distinct plans.

        A ``const``-kind FU input's value lives in the constant table,
        not the microword bits, so two pipelines differing only in a
        literal share :meth:`MachineProgram.fingerprint`.  The plan key
        must still separate them — the compiled kernels bake the
        constant in, and a collision replays the wrong arithmetic on
        every later program (found by the analysis property suite)."""
        from repro.arch.funcunit import Opcode
        from repro.compose.builders import PipelineBuilder
        from repro.diagram.program import VisualProgram

        def build(const_value):
            prog = VisualProgram(name="const-collision")
            prog.declare("a", plane=0, length=8)
            prog.declare("result", plane=1, length=8)
            b = PipelineBuilder(node, prog, vector_length=8)
            total = b.apply(Opcode.FADD, b.read_var("a"),
                            b.constant(const_value))
            b.write_var(b.apply(Opcode.PASS, total), "result")
            b.build()
            prog.add_control(ExecPipeline(0))
            prog.add_control(Halt())
            return MicrocodeGenerator(node).generate(prog)

        prog_a = build(0.0)
        prog_b = build(1.0)
        assert prog_a.fingerprint() == prog_b.fingerprint()
        for program, constant in ((prog_a, 0.0), (prog_b, 1.0)):
            fast, _reference = _fast_and_reference(node, program)
            want = -np.arange(8.0) + constant
            assert np.array_equal(fast["result"], want.view(np.uint64))

    def test_two_param_sets_on_one_program_do_not_thrash(self, node,
                                                         monkeypatch):
        """Alternating params on one program builds two plans, each reused."""
        setup, program = _generate(node, shape=(4, 4, 4))
        other = node.params.subset(dma_startup_cycles=7)
        builds = []
        real_plan = progplan.ProgramPlan

        def counting_plan(prog, params, **kwargs):
            builds.append(params)
            return real_plan(prog, params, **kwargs)

        monkeypatch.setattr(progplan, "ProgramPlan", counting_plan)
        PLAN_CACHE.clear()
        first = {}
        for _round in range(4):
            for params in (node.params, other):
                plan = progplan.compiled_plan(program, params)
                assert first.setdefault(params, plan) is plan
        assert builds == [node.params, other]  # one compile per params set
        assert first[node.params] is not first[other]
        assert PLAN_CACHE.stats.misses == 2
        assert PLAN_CACHE.stats.hits == 6

    def test_plan_cache_lru_bound(self):
        from repro.sim.fastpath import PlanCache

        cache = PlanCache(maxsize=2)
        for i in range(5):
            cache.get_or_build(("k", i), lambda i=i: i)
        assert len(cache) == 2
        assert ("k", 4) in cache and ("k", 3) in cache


def _one_pipeline(node, body, declare=(("a", 0, 8), ("result", 1, 8))):
    """A one-pipeline program: ``body(builder)`` returns the unit whose
    output streams to ``result`` (through a PASS, so no unit touches two
    planes)."""
    prog = VisualProgram(name="plan-key")
    for name, plane, length in declare:
        prog.declare(name, plane=plane, length=length)
    b = PipelineBuilder(node, prog, vector_length=8)
    b.write_var(b.apply(Opcode.PASS, body(b)), "result")
    b.build()
    prog.add_control(ExecPipeline(0))
    prog.add_control(Halt())
    return MicrocodeGenerator(node).generate(prog)


def _scale_half(b):
    return b.apply(Opcode.FSCALE, b.read_var("a"), constant=0.5)


def _declared_data(machine, program):
    """Distinct data in every declared variable; the first counts down
    from ``-0.0``, so adding ``0.0`` and ``-0.0`` differ too."""
    for k, decl in enumerate(program.declarations.values()):
        machine.set_variable(decl.name, -(100.0 * k + np.arange(decl.length)))


def _fast_and_reference(node, program, load=_declared_data):
    """Every declared variable's final bits after a fast run and after a
    reference run of *program*; the fast run must take the fused tier."""
    finals = []
    for backend, tier in (("fast", "fused"), ("reference", "reference")):
        machine = NSCMachine(node, backend=backend)
        machine.load_program(program)
        load(machine, program)
        tracer = obs.Tracer()
        with obs.use(tracer):
            machine.run()
        assert tracer.counters.get(f"tier.{tier}") == 1
        finals.append({
            name: machine.get_variable(name).view(np.uint64)
            for name in program.declarations
        })
    return finals


class TestPlanKey:
    """Programs whose microwords agree but whose compiled schedules must
    differ each run their own plan: on the fast backend, every program
    of a pair — the second run while the first's plan is cached —
    matches its own reference run bit for bit."""

    @staticmethod
    def _each_runs_its_own(node, prog_a, prog_b, load=_declared_data):
        assert prog_a.fingerprint() == prog_b.fingerprint()  # same bits
        results = []
        for program in (prog_a, prog_b):
            fast, reference = _fast_and_reference(node, program, load)
            for name in reference:
                assert np.array_equal(fast[name], reference[name]), name
            results.append(fast)
        return results

    @pytest.mark.parametrize("opcode", [Opcode.FSCALE, Opcode.FADDC])
    @pytest.mark.parametrize("pair", [(2.0, 3.0), (0.0, -0.0)])
    def test_fu_constant(self, node, opcode, pair):
        def body(constant):
            return lambda b: b.apply(opcode, b.read_var("a"), constant=constant)

        results = self._each_runs_its_own(
            node, *(_one_pipeline(node, body(c)) for c in pair))
        assert not np.array_equal(results[0]["result"], results[1]["result"])

    def test_feedback_initial_value(self, node):
        def body(init):
            return lambda b: b.apply(Opcode.FADD, b.read_var("a"),
                                     b.feedback(init))

        results = self._each_runs_its_own(node, _one_pipeline(node, body(0.0)),
                                          _one_pipeline(node, body(1.0)))
        assert not np.array_equal(results[0]["result"], results[1]["result"])

    def test_variable_length(self, node):
        def body(b):
            return b.apply(Opcode.FNEG, b.read_var("a"))

        short = (("a", 0, 8), ("result", 1, 8))
        long = (("a", 0, 16), ("result", 1, 8))
        self._each_runs_its_own(node, _one_pipeline(node, body, short),
                                _one_pipeline(node, body, long))

    def test_variable_layout(self, node):
        def body(b):
            return b.apply(Opcode.FNEG, b.read_var("a"))

        packed = (("a", 0, 8), ("result", 1, 8))
        shifted = (("pad", 0, 4), ("a", 0, 8), ("result", 1, 8))
        self._each_runs_its_own(node, _one_pipeline(node, body, packed),
                                _one_pipeline(node, body, shifted))

    def test_which_variable_a_read_indexes(self, node):
        """Same plane, same window: only the DMA base tells the reads of
        ``a`` and ``b`` apart, and a shared plan would stream the wrong
        variable."""
        declare = (("a", 0, 8), ("b", 0, 8), ("result", 1, 8))

        def body(name):
            return lambda b: b.apply(Opcode.FNEG, b.read_var(name))

        def load(machine, program):
            machine.set_variable("a", np.arange(8.0))
            machine.set_variable("b", 100.0 + np.arange(8.0))

        results = self._each_runs_its_own(
            node, *(_one_pipeline(node, body(name), declare) for name in "ab"),
            load=load)
        assert np.array_equal(results[0]["result"],
                              (-np.arange(8.0)).view(np.uint64))
        assert np.array_equal(results[1]["result"],
                              (-(100.0 + np.arange(8.0))).view(np.uint64))

    def test_residual_skew(self, node, rng):
        """Ablation builds (``auto_balance=False``) carry a residual skew
        that only the timing plan records."""
        import copy
        import dataclasses

        setup = build_jacobi_program(node, (5, 6, 7), eps=1e-4,
                                     max_iterations=40)
        program = MicrocodeGenerator(node, auto_balance=False).generate(
            setup.program
        )
        twin = copy.deepcopy(program)
        skewed = [
            (image, port)
            for image in twin.images
            for port, resolved in image.inputs.items()
            if resolved.skew
        ]
        assert skewed, "ablation build produced no skew"
        image, port = skewed[0]
        image.inputs[port] = dataclasses.replace(image.inputs[port], skew=0)
        u0 = rng.random((7, 6, 5))
        f = rng.standard_normal((7, 6, 5))

        def load(machine, _program):
            load_jacobi_inputs(machine, setup, u0, f)

        results = self._each_runs_its_own(node, program, twin, load=load)
        assert not np.array_equal(results[0]["u"], results[1]["u"])

    def test_pickled_program_rederives_its_memos(self, node):
        import pickle

        setup, program = _generate(node, shape=(4, 4, 4), max_iterations=5)
        plan = progplan.compiled_plan(program, node.params)
        loaded = pickle.loads(pickle.dumps(program))
        assert all("_fastpath_plan" not in vars(im) for im in loaded.images)
        assert loaded.fingerprint() == program.fingerprint()
        assert progplan.compiled_plan(loaded, node.params) is not plan


class TestPlanIdentity:
    """Plans key by the program object: a lookup hashes no content, and
    no two programs can share a plan."""

    def test_identical_recompile_builds_its_own_plan(self, node):
        prog_a, prog_b = (_one_pipeline(node, _scale_half) for _ in "ab")
        assert prog_a.fingerprint() == prog_b.fingerprint()
        PLAN_CACHE.clear()
        plan_a = progplan.compiled_plan(prog_a, node.params)
        plan_b = progplan.compiled_plan(prog_b, node.params)
        assert plan_a is not plan_b
        assert plan_a.program is prog_a and plan_b.program is prog_b
        assert progplan.compiled_plan(prog_a, node.params) is plan_a
        assert (PLAN_CACHE.stats.misses, PLAN_CACHE.stats.hits) == (2, 1)

    def test_rejection_is_cached_and_pins_its_program(self, node,
                                                      monkeypatch):
        import gc
        import weakref

        builds = []

        def reject(program, params, **kwargs):
            builds.append(id(program))
            raise progplan.FusionUnsupported("declined by the test")

        monkeypatch.setattr(progplan, "ProgramPlan", reject)
        PLAN_CACHE.clear()
        program = _one_pipeline(node, _scale_half)
        for _ in range(3):
            with pytest.raises(progplan.FusionUnsupported,
                               match="declined by the test"):
                progplan.compiled_plan(program, node.params)
        assert builds == [id(program)]
        (entry,) = PLAN_CACHE._data.values()
        assert entry.program is program
        # the entry keeps the program, and with it the id in its key
        alive = weakref.ref(program)
        del program, entry
        gc.collect()
        assert alive() is not None
        PLAN_CACHE.clear()
        gc.collect()
        assert alive() is None

    def test_plan_counters_count_every_lookup(self, node):
        prog_a, prog_b = (_one_pipeline(node, _scale_half) for _ in "ab")
        PLAN_CACHE.clear()
        tracer = obs.Tracer()
        with obs.use(tracer):
            for program in (prog_a, prog_a, prog_b, prog_a, prog_b):
                progplan.compiled_plan(program, node.params)
        assert tracer.counters["plan.miss"] == 2
        assert tracer.counters["plan.hit"] == 3


class TestServicePlanLayer:
    def test_program_cache_exposes_shared_plan_layer(self):
        from repro.service.cache import ProgramCache

        cache = ProgramCache()
        assert cache.plans is PLAN_CACHE

    def test_service_job_binds_from_engine_cache(self):
        from repro.arch.node import node_config
        from repro.service.cache import ProgramCache
        from repro.service.jobs import SimJob
        from repro.service.runner import execute_job

        PLAN_CACHE.clear()
        job = SimJob(method="jacobi", shape=(4, 4, 4), eps=1e-3,
                     max_sweeps=5, backend="fast")
        cache = ProgramCache()
        record = execute_job(job.to_dict(), cache=cache)
        assert record["ok"] and record["tier"] == "fused"
        assert len(PLAN_CACHE) == 1
        _setup, program = cache.get_or_compile(job.cache_key(), None)
        hits = PLAN_CACHE.stats.hits
        progplan.compiled_plan(program, node_config(job.params()).params)
        assert PLAN_CACHE.stats.hits == hits + 1
