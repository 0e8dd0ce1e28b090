"""Property: the fast backend agrees with the reference on random Jacobi
programs — random grid shapes, tolerances, input fields, and (for the
whole-program compiled engine) random *control scripts* with nested
``Repeat``, ``LoopUntil``, ``SwapVars``, and ``CacheSwap`` ops — drawn
across the coverage dimensions the fused engine handles: residual-skew
(ablation) builds, ``keep_outputs`` retention, and rearmed interrupt
configurations."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.arch.interrupts import InterruptKind
from repro.arch.node import NodeConfig
from repro.codegen.generator import MicrocodeGenerator
from repro.compose.jacobi import build_jacobi_program, load_jacobi_inputs
from repro.diagram.program import (
    CacheSwap,
    ExecPipeline,
    Halt,
    LoopUntil,
    Repeat,
    SwapVars,
)
from repro.obs import tracer as obs
from repro.sim.machine import NSCMachine

_dims = st.integers(min_value=3, max_value=6)

#: Armed-set variations the fused engine must replay exactly; handlers
#: are deliberately absent (they force — and get — the fallback path).
_REARM_VARIANTS = (
    (),
    (("arm", InterruptKind.FP_OVERFLOW), ("arm", InterruptKind.FP_INVALID)),
    (("disarm", InterruptKind.CONDITION_FALSE),),
    (("arm", InterruptKind.FP_OVERFLOW),
     ("disarm", InterruptKind.PIPELINE_COMPLETE)),
)


@st.composite
def jacobi_cases(draw):
    shape = (draw(_dims), draw(_dims), draw(_dims))
    eps = draw(st.sampled_from([1e-2, 1e-3, 1e-4]))
    max_sweeps = draw(st.integers(min_value=1, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return shape, eps, max_sweeps, seed


@settings(max_examples=20, deadline=None)
@given(case=jacobi_cases())
def test_random_jacobi_programs_agree(case):
    shape, eps, max_sweeps, seed = case
    node = NodeConfig()
    setup = build_jacobi_program(node, shape, eps=eps,
                                 max_iterations=max_sweeps)
    program = MicrocodeGenerator(node).generate(setup.program)
    rng = np.random.default_rng(seed)
    u0 = rng.random(shape)
    f = rng.standard_normal(shape)

    runs = {}
    for backend in ("reference", "fast"):
        machine = NSCMachine(node, backend=backend)
        machine.load_program(program)
        load_jacobi_inputs(machine, setup, u0, f)
        result = machine.run()
        runs[backend] = (machine, result)

    (m_ref, r_ref), (m_fast, r_fast) = runs["reference"], runs["fast"]
    assert r_ref.total_cycles == r_fast.total_cycles
    assert r_ref.total_flops == r_fast.total_flops
    assert r_ref.instructions_issued == r_fast.instructions_issued
    assert r_ref.converged == r_fast.converged
    assert r_ref.loop_iterations == r_fast.loop_iterations
    np.testing.assert_array_equal(
        m_ref.get_variable("u"), m_fast.get_variable("u")
    )
    np.testing.assert_array_equal(
        m_ref.get_variable("u_new"), m_fast.get_variable("u_new")
    )
    assert m_ref.metrics(r_ref).summary() == m_fast.metrics(r_fast).summary()


# ----------------------------------------------------------------------
# random control scripts
# ----------------------------------------------------------------------
@st.composite
def _control_blocks(draw, depth):
    """A random control block over the Jacobi program's two pipelines."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        choices = ["exec", "swap", "cacheswap"]
        if depth < 2:
            choices += ["repeat", "loop"]
        kind = draw(st.sampled_from(choices))
        if kind == "exec":
            ops.append(ExecPipeline(1))
        elif kind == "swap":
            ops.append(SwapVars("u", "u_new"))
        elif kind == "cacheswap":
            caches = draw(st.sampled_from([(0,), (1,), (0, 1)]))
            # swap twice so the update pipeline still sees valid masks
            ops.append(CacheSwap(caches=caches))
            ops.append(CacheSwap(caches=caches))
        elif kind == "repeat":
            body = tuple(draw(_control_blocks(depth=depth + 1)))
            ops.append(Repeat(body=body, times=draw(
                st.integers(min_value=0, max_value=3))))
        else:
            body = tuple(draw(_control_blocks(depth=depth + 1)))
            body += (ExecPipeline(1), SwapVars("u", "u_new"))
            ops.append(LoopUntil(
                body=body,
                condition_pipeline=1,
                max_iterations=draw(st.integers(min_value=1, max_value=12)),
            ))
    return ops


@st.composite
def control_script_cases(draw):
    shape = (draw(_dims), draw(_dims), draw(_dims))
    eps = draw(st.sampled_from([1e-1, 1e-2, 1e-4]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    script = [ExecPipeline(0), CacheSwap(caches=(0, 1))]
    script += draw(_control_blocks(depth=0))
    if draw(st.booleans()):
        script.append(Halt())
    # the coverage dimensions the fused engine closed: residual skew
    # (auto_balance=False), per-issue output retention, armed-set tweaks
    skewed = draw(st.booleans())
    keep_outputs = draw(st.booleans())
    rearm = draw(st.sampled_from(_REARM_VARIANTS))
    return shape, eps, seed, script, skewed, keep_outputs, rearm


@settings(max_examples=15, deadline=None)
@given(case=control_script_cases())
def test_random_control_scripts_agree(case):
    """Fused == reference on arbitrary nested control scripts drawn
    across skew / keep_outputs / rearmed-interrupt space: iteration
    counts, issue traces, relocations, per-FU retained streams, end-state
    grids, and interrupt streams (delivered *and* dropped) are all
    bit-identical."""
    shape, eps, seed, script, skewed, keep_outputs, rearm = case
    node = NodeConfig()
    setup = build_jacobi_program(node, shape, eps=eps, loop=False)
    prog = setup.program
    prog.control.clear()
    for op in script:
        prog.add_control(op)
    program = MicrocodeGenerator(node, auto_balance=not skewed).generate(prog)
    rng = np.random.default_rng(seed)
    u0 = rng.random(shape)
    f = rng.standard_normal(shape)

    runs = {}
    for backend in ("reference", "fast"):
        machine = NSCMachine(node, backend=backend)
        machine.load_program(program)
        load_jacobi_inputs(machine, setup, u0, f)
        for action, kind in rearm:
            if action == "arm":
                machine.interrupts.arm(kind)
            else:
                machine.interrupts.disarm(kind)
        tracer = obs.Tracer()
        with obs.use(tracer):
            result = machine.run(keep_outputs=keep_outputs)
        runs[backend] = (machine, result)
        # the compiled engine must accept every drawn script, not decline
        # it to the interpreter
        assert tracer.annotations["tier"] == (
            "fused" if backend == "fast" else "reference"
        )

    (m_ref, r_ref), (m_fast, r_fast) = runs["reference"], runs["fast"]
    assert r_ref.instructions_issued == r_fast.instructions_issued
    assert r_ref.loop_iterations == r_fast.loop_iterations
    assert len(r_ref.issue_trace) == len(r_fast.issue_trace)
    assert r_ref.issue_trace == r_fast.issue_trace
    assert r_ref.total_cycles == r_fast.total_cycles
    assert r_ref.halted == r_fast.halted
    assert r_ref.converged == r_fast.converged
    for name in ("u", "u_new", "f"):
        np.testing.assert_array_equal(
            m_ref.get_variable(name), m_fast.get_variable(name)
        )
    if keep_outputs:
        for p_ref, p_fast in zip(r_ref.pipeline_results,
                                 r_fast.pipeline_results):
            assert set(p_ref.fu_outputs) == set(p_fast.fu_outputs)
            for fu in p_ref.fu_outputs:
                np.testing.assert_array_equal(
                    p_ref.fu_outputs[fu], p_fast.fu_outputs[fu]
                )
    assert (
        m_ref.metrics(r_ref).summary() == m_fast.metrics(r_fast).summary()
    )
    # Interrupt.__eq__ compares cycles only; require the full stream
    # (repr: NaN payloads must compare equal to themselves)
    for channel in ("delivered", "dropped"):
        assert [
            repr((i.cycle, i.kind, i.source, i.payload))
            for i in getattr(m_ref.interrupts, channel)
        ] == [
            repr((i.cycle, i.kind, i.source, i.payload))
            for i in getattr(m_fast.interrupts, channel)
        ], channel
