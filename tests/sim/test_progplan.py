"""The whole-program compiled engine: parity with the reference sequencer.

The compiled schedule's contract is bit-identical observable behaviour,
and it covers the *control script* too: loop iteration counts, halts,
relocations, cache swaps, interrupt counts and DMA statistics all have
to match a step-by-step reference run exactly.  Every parity case loads
a reference machine and runs it against a stacked row fed the same
inputs (``helpers_slab.check_parity``).
"""

import numpy as np
import pytest

from helpers_slab import check_parity, run_stacked
from repro.arch.funcunit import Opcode
from repro.arch.interrupts import DEFAULT_ARMED_KINDS, InterruptKind
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
from repro.sim import progplan
from repro.sim.fastpath import PLAN_CACHE
from repro.sim.machine import NSCMachine
from repro.sim.sequencer import SequencerError

FP_KINDS = {InterruptKind.FP_OVERFLOW, InterruptKind.FP_INVALID}


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


def _loaded(node, setup, program, u0, f):
    machine = NSCMachine(node)
    machine.load_program(program)
    load_jacobi_inputs(machine, setup, u0, f)
    return machine


def _parity(node, setup, program, u0, f, **kwargs):
    """The oracle on one machine loaded with *u0* and *f*."""
    return check_parity([_loaded(node, setup, program, u0, f)], program,
                        **kwargs)


def _raised_fp(parity):
    """Did the reference run raise FP exceptions (dropped: unarmed)?"""
    result, machine = parity.results[0], parity.machines[0]
    return any(p.exceptions for p in result.pipeline_results) and any(
        i.kind in FP_KINDS for i in machine.interrupts.dropped)


class TestFusedRunParity:
    def test_convergence_run_bit_identical(self, node, rng):
        setup, program = _generate(node)
        u0 = rng.random((6, 6, 6))
        f = rng.standard_normal((6, 6, 6))
        parity = _parity(node, setup, program, u0, f)
        assert parity.results[0].converged

    def test_bounded_run_not_converged(self, node, rng):
        setup, program = _generate(node, eps=1e-30, max_iterations=9)
        u0 = rng.random((6, 6, 6))
        f = rng.standard_normal((6, 6, 6))
        parity = _parity(node, setup, program, u0, f)
        assert not parity.run.converged[0]
        assert parity.run.loop_iterations[0][setup.update_pipeline] == 9

    def test_non_finite_run_matches(self, node):
        """Non-finite data runs on with the reference's values, NaNs at
        the same places."""
        setup, program = _generate(node, max_iterations=20)
        shape = (6, 6, 6)
        u0 = np.zeros(shape)
        u0[2, 2, 2] = np.inf
        u0[3, 3, 3] = np.nan
        f = np.zeros(shape)
        with np.errstate(invalid="ignore", over="ignore"):
            parity = _parity(node, setup, program, u0, f)
        assert _raised_fp(parity)
        assert np.isnan(parity.row(0, "u")).any()

    def test_rbsor_non_finite_matches(self, node, rng):
        """rb-sor forwards its PASS of ``u`` (its readers read the live
        stream); with a NaN in ``u`` every issue raises FP flags on the
        reference, and the rows must still match it."""
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
        machine = NSCMachine(node)
        machine.load_program(program)
        load_rbsor_inputs(machine, setup, u0, f)
        with np.errstate(invalid="ignore", over="ignore"):
            parity = check_parity([machine], program)
        assert any(p.exceptions for p in parity.results[0].pipeline_results)

    def test_instruction_budget_error_matches(self, node, rng):
        setup, program = _generate(node, eps=1e-30, max_iterations=50)
        u0 = rng.random((6, 6, 6))
        f = rng.standard_normal((6, 6, 6))
        machine = _loaded(node, setup, program, u0, f)
        with pytest.raises(SequencerError, match="instruction budget"):
            run_stacked([machine], program, max_instructions=10)
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
        _parity(node, setup, program, u0, f)


def _raised(machine):
    """Every interrupt the last run raised, delivered or dropped, in a
    comparable order (repr: NaN condition payloads compare equal)."""
    irqs = machine.interrupts.delivered + machine.interrupts.dropped
    return sorted(repr((i.cycle, i.kind.value, i.source, i.payload))
                  for i in irqs)


class TestInterruptConfigurations:
    """The reference machine keeps the whole interrupt scheme (armed
    sets, handlers, a host's queue); the engine models none of it and
    counts the default armed set.  A machine's configuration decides how
    raised interrupts are routed, never what the run computes."""

    @pytest.mark.parametrize(
        "arm, disarm",
        [
            (("FP_OVERFLOW", "FP_INVALID"), ()),
            ((), ("CONDITION_FALSE",)),
            (("FP_OVERFLOW",), ("PIPELINE_COMPLETE",)),
            ((), ("CONDITION_TRUE", "CONDITION_FALSE")),
        ],
    )
    def test_rearmed_interrupt_configs_route_but_do_not_change_the_run(
        self, node, rng, arm, disarm
    ):
        """A rearmed machine delivers exactly its armed kinds and drops
        the rest, out of the same raised interrupts (FP exceptions from
        non-finite data included) as a default-armed run; its rows,
        cycles and trace match the stacked run."""
        setup, program = _generate(node, max_iterations=20)
        u0 = rng.random((6, 6, 6))
        u0[2, 2, 2] = np.inf
        u0[3, 3, 3] = np.nan
        f = rng.standard_normal((6, 6, 6))
        rearmed = _loaded(node, setup, program, u0, f)
        for name in arm:
            rearmed.interrupts.arm(InterruptKind[name])
        for name in disarm:
            rearmed.interrupts.disarm(InterruptKind[name])
        with np.errstate(invalid="ignore", over="ignore"):
            parity = _parity(node, setup, program, u0, f)
            result = rearmed.run()
        assert _raised_fp(parity)
        np.testing.assert_array_equal(rearmed.get_variable("u"),
                                      parity.row(0, "u"))
        assert result.total_cycles == parity.run.job(0).cycles
        assert result.issue_trace == parity.results[0].issue_trace
        assert _raised(rearmed) == _raised(parity.machines[0])
        armed = (DEFAULT_ARMED_KINDS | {InterruptKind[n] for n in arm}) \
            - {InterruptKind[n] for n in disarm}
        delivered = {i.kind for i in rearmed.interrupts.delivered}
        dropped = {i.kind for i in rearmed.interrupts.dropped}
        assert delivered <= armed and not dropped & armed
        assert delivered | dropped \
            == {i.kind for i in parity.machines[0].interrupts.delivered
                + parity.machines[0].interrupts.dropped}

    def test_registered_handler_sees_every_delivery_mid_run(self, node,
                                                           rng):
        """A handler runs as its kind is delivered, between issues, and
        leaves the run equal to the stacked one."""
        setup, program = _generate(node, max_iterations=10)
        machine = _loaded(node, setup, program, rng.random((6, 6, 6)),
                          rng.standard_normal((6, 6, 6)))
        seen = []
        machine.interrupts.on(InterruptKind.PIPELINE_COMPLETE,
                              lambda irq: seen.append((irq, machine.cycle)))
        parity = check_parity([machine], program)
        result = parity.results[0]
        assert len(seen) == result.instructions_issued > 1
        assert [irq for irq, _cycle in seen] == [
            i for i in machine.interrupts.delivered
            if i.kind is InterruptKind.PIPELINE_COMPLETE]
        assert all(irq.cycle <= cycle for irq, cycle in seen)
        assert seen[0][1] < result.total_cycles

    def test_pending_interrupts_are_cleared_by_a_run(self, node, rng):
        """A run starts from a reset controller: an interrupt a host
        queued beforehand is never delivered, and the run's delivered
        count is the engine's."""
        setup, program = _generate(node, max_iterations=5)
        machine = _loaded(node, setup, program, rng.random((6, 6, 6)),
                          rng.standard_normal((6, 6, 6)))
        machine.interrupts.post(InterruptKind.PIPELINE_COMPLETE, 5,
                                source="host")
        assert machine.interrupts.pending() == 1
        check_parity([machine], program)
        assert machine.interrupts.delivered
        assert all(i.source != "host" for i in machine.interrupts.delivered)


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
        _parity(node, setup, program, u0, f)

    def test_skewed_non_finite_run_matches(self, node):
        """Skew can shift a non-finite element out of a consumer's
        window, so propagation coverage must not be assumed — the exact
        path still matches the reference."""
        setup, program = self._skewed(node, max_iterations=10)
        u0 = np.zeros((5, 6, 7))
        u0[2, 3, 1] = np.inf
        u0[1, 2, 3] = np.nan
        f = np.zeros((5, 6, 7))
        with np.errstate(invalid="ignore", over="ignore"):
            parity = _parity(node, setup, program, u0, f)
        assert _raised_fp(parity)


class TestMidRunRejection:
    def test_mid_run_fusion_rejection_falls_back_cleanly(self, node,
                                                         monkeypatch):
        """A FusionUnsupported surfacing after execution has begun must
        not escape as a crash: a lone fast job's run touches only its own
        storage, so the reference fallback reproduces the reference
        job's record."""
        from repro.service.cache import ProgramCache
        from repro.service.jobs import SimJob
        from repro.service.results import canonical_line
        from repro.service.runner import execute_job

        job = SimJob(method="jacobi", shape=(6, 6, 6), eps=1e-4,
                     max_sweeps=15, u0_seed=3, backend="fast")
        calls = {"n": 0}
        real_issue = progplan.BoundImage.issue_compute

        def flaky_issue(self):
            calls["n"] += 1
            if calls["n"] == 4:
                raise progplan.FusionUnsupported("injected mid-run")
            return real_issue(self)

        monkeypatch.setattr(progplan.BoundImage, "issue_compute", flaky_issue)
        fast = execute_job(job, cache=ProgramCache())
        assert calls["n"] >= 4  # the rejection really fired mid-run
        assert fast["tier"] == "reference"
        assert fast["fallback_reason"] == "injected mid-run"
        reference = execute_job(job._replace(backend="reference"),
                                cache=ProgramCache())

        def computed(record):
            return canonical_line({
                k: v for k, v in record.items()
                if k not in ("job_id", "label", "backend", "tier",
                             "fallback_reason")
            })

        assert computed(fast) == computed(reference)


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
        parity = _parity(node, setup, program, u0, f)
        return parity.machines[0], parity.results[0]

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
        machine = NSCMachine(node)
        machine.load_program(program)
        machine.set_variable("x", x)
        parity = check_parity([machine], program, max_instructions=100)
        expected = 2.0 * (x if load_stride == read_stride else x[::-1])
        np.testing.assert_array_equal(machine.get_variable("out"), expected)
        np.testing.assert_array_equal(parity.row(0, "out"), expected)


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

        machine = NSCMachine(node)
        machine.load_program(program)
        machine.set_variable("x", x_values)
        parity = check_parity([machine], program, max_instructions=100)
        for name, zero in (("r", 0.0), ("s", -0.0)):
            want = x_values * zero
            assert machine.get_variable(name).tobytes() == want.tobytes()
            assert parity.row(0, name).tobytes() == want.tobytes()


class TestSlabOfOne:
    """A lone job runs as an exact slab of one, including the cases a
    multi-job slab declines: each must be *accepted* (the oracle raises
    on a decline) and match the reference."""

    def _accepted(self, node, setup, program, u0, f):
        parity = _parity(node, setup, program, u0, f)
        assert parity.run.exact
        return parity.results[0]

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
    """Every declared variable's final bits after a fused run over one
    stacked row and after a reference run of *program*, both fed by
    *load*; the fused run must not decline."""
    machine = NSCMachine(node)
    machine.load_program(program)
    load(machine, program)
    run = run_stacked([machine], program)
    storage = run.storage
    fast = {}
    for name in program.declarations:
        var = storage.variables[name]
        row = storage.planes.get(var.plane)
        if row is not None and row.shape[-1] >= var.end:
            fast[name] = row[0, var.offset:var.end].view(np.uint64)
    machine.run()
    reference = {
        name: machine.get_variable(name).view(np.uint64)
        for name in program.declarations
    }
    return fast, reference


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
            for name in fast:
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

    def test_plan_key_is_program_and_params(self, node):
        program = _one_pipeline(node, _scale_half)
        PLAN_CACHE.clear()
        progplan.compiled_plan(program, node.params)
        assert list(PLAN_CACHE._data) == [(id(program), node.params)]
        with pytest.raises(TypeError):
            progplan.compiled_plan(program, node.params, keep_outputs=True)

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
