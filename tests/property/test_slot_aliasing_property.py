"""Property: random single-image programs agree across the engines.

The fused engine keeps each unit's output in a *row slot* that is reused
once the row's last reader has run (``ImageKernel._assign_slots``), so a
wrong liveness range silently feeds a consumer another unit's values.
This suite draws random checker-clean single-image programs through
:class:`~repro.compose.builders.PipelineBuilder` — fan-out, dead units,
``add(x, x)``, ``PASS``, MAX/MAXABS/FADD feedback (reduced and
accumulated), shift/delay taps, stream and tap write-backs, conditions,
and residual skew (``auto_balance=False``) — and asserts that the
reference interpreter, a fused slab of one and every row of a slab of
three agree bit for bit on written variables, condition values, cycles
and exception flags.  The service's machine-less one-row run folds the
same result with FP interrupts armed, non-finite cases included.

Example counts follow the active hypothesis profile: a handful under the
default, the ``ci`` profile's count under ``--hypothesis-profile=ci``
(see ``tests/conftest.py``).
"""

import numpy as np
from hypothesis import HealthCheck, given, reject, settings, strategies as st

from repro.arch.funcunit import Opcode
from repro.arch.interrupts import DEFAULT_ARMED_KINDS, InterruptKind
from repro.arch.node import NodeConfig
from repro.codegen.generator import CodegenError, MicrocodeGenerator
from repro.compose.builders import (
    BuilderError,
    ConstOperand,
    FURef,
    MemSource,
    PipelineBuilder,
    TapSource,
)
from repro.diagram.program import (
    ExecPipeline,
    Halt,
    LoopUntil,
    Repeat,
    SwapVars,
    VisualProgram,
)
from repro.sim import batchplan, progplan
from repro.sim.machine import NSCMachine

_NODE = NodeConfig()
_EXAMPLES = (
    settings.default.max_examples
    if settings.get_current_profile_name() == "ci" else 12
)
_SEEDS = (0, 1, 2)
_VARIABLES = ("x", "y", "r", "s")

# weighted toward the non-finite-propagating ops: a row they consume is
# not screened, so its slot is free for reuse once they have run
_BINARY = (Opcode.FADD, Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FMUL,
           Opcode.MAX, Opcode.MIN, Opcode.FCMP_LT)
_UNARY = (Opcode.FNEG, Opcode.FABS, Opcode.PASS, Opcode.FSCALE,
          Opcode.FADDC)
_FEEDBACK = (Opcode.MAX, Opcode.MAXABS, Opcode.FADD)
_KINDS = ("binary", "binary", "unary", "feedback")


def _planes(operand):
    """Memory planes an operand makes its consumer touch (the §3 rule:
    one plane per unit per instruction); every tap is fed by ``x``."""
    if isinstance(operand, MemSource):
        return {operand.plane}
    if isinstance(operand, TapSource):
        return {0}
    return set()


@st.composite
def single_image_programs(draw):
    n = draw(st.integers(4, 10))
    prog = VisualProgram(name="slot-fuzz")
    for plane, name in enumerate(_VARIABLES):
        prog.declare(name, plane=plane, length=n)
    b = PipelineBuilder(_NODE, prog, vector_length=n)
    x = b.read_var("x")
    y = b.read_var("y")
    shifts = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3,
                           unique=True))
    taps = b.through_sd(x, shifts)
    # switch sources and the sinks each already drives (fan-out limit)
    pool = [x, y] + taps
    uses = {x.endpoint: 1}  # the shift/delay unit's input
    limit = _NODE.params.switch_max_fanout
    units = []
    try:
        for _ in range(draw(st.integers(2, 10))):
            live = [op for op in pool if uses.get(op.endpoint, 0) < limit]
            # mostly chain off earlier units: chains are what share slots
            chained = [op for op in live if isinstance(op, FURef)]
            a = draw(st.sampled_from(
                chained if chained and draw(st.integers(0, 3)) else live
            ))
            kind = draw(st.sampled_from(_KINDS))
            if kind == "feedback":
                opcode = draw(st.sampled_from(_FEEDBACK))
                init = draw(st.sampled_from((0.0, -1.5, 2.0)))
                ref = b.apply(opcode, a, b.feedback(init))
                operands = [a]
            elif kind == "unary":
                opcode = draw(st.sampled_from(_UNARY))
                constant = draw(st.sampled_from((0.5, -2.0)))
                ref = b.apply(opcode, a, constant=constant)
                operands = [a]
            else:
                opcode = draw(st.sampled_from(_BINARY))
                # the same operand twice (add(x, x)), another source on
                # the same plane, or a constant
                second = draw(st.sampled_from(("same", "other", "const")))
                choices = [op for op in live if op is not a
                           and len(_planes(op) | _planes(a)) <= 1]
                if second == "same" \
                        and uses.get(a.endpoint, 0) + 1 < limit:
                    pick = a
                elif second == "other" and choices:
                    pick = draw(st.sampled_from(choices))
                else:
                    pick = ConstOperand(
                        draw(st.sampled_from((0.25, -3.0, 0.0, -0.0)))
                    )
                ref = b.apply(opcode, a, pick)
                operands = [a] + ([] if isinstance(pick, ConstOperand)
                                  else [pick])
            for op in operands:
                uses[op.endpoint] = uses.get(op.endpoint, 0) + 1
            units.append((ref, operands))
            pool.append(ref)
    except BuilderError:
        reject()

    written = set()
    for name in ("r", "s")[: draw(st.integers(1, 2))]:
        choice = draw(st.sampled_from(("unit", "pass", "tap")))
        # a unit that writes a plane must touch no other plane
        candidates = [ref for ref, ops in units
                      if not set().union(*map(_planes, ops))
                      and ref.fu not in written
                      and uses.get(ref.endpoint, 0) < limit]
        if choice == "tap" and uses.get(taps[0].endpoint, 0) < limit:
            src = taps[0]
        elif choice == "unit" and candidates:
            src = draw(st.sampled_from(candidates))
        else:
            ref, _ops = draw(st.sampled_from(units))
            if uses.get(ref.endpoint, 0) >= limit:
                reject()
            try:
                src = b.apply(Opcode.PASS, ref)
            except BuilderError:
                reject()
            uses[ref.endpoint] = uses.get(ref.endpoint, 0) + 1
            units.append((src, [ref]))
        b.write_var(src, name)
        uses[src.endpoint] = uses.get(src.endpoint, 0) + 1
        if isinstance(src, FURef):
            written.add(src.fu)

    watched = None
    if draw(st.booleans()):
        watched = draw(st.sampled_from(units))[0]
        b.condition(watched, draw(st.sampled_from(("lt", "ge"))),
                    draw(st.sampled_from((0.0, 1.0))))
    b.build()

    times = draw(st.integers(1, 3))
    control = draw(st.sampled_from(
        ("once", "repeat", "loop") if watched is not None
        else ("once", "repeat")
    ))
    if control == "once":
        prog.add_control(ExecPipeline(0))
        prog.add_control(Halt())
    elif control == "repeat":
        prog.add_control(Repeat(
            body=(ExecPipeline(0), SwapVars("x", "r")), times=times
        ))
    else:
        prog.add_control(LoopUntil(
            body=(ExecPipeline(0), SwapVars("x", "r")),
            condition_pipeline=0, max_iterations=times,
        ))
    skewed = draw(st.booleans())
    try:
        program = MicrocodeGenerator(
            _NODE, auto_balance=not skewed
        ).generate(prog)
    except CodegenError:
        reject()
    return program, n


def _inputs(n, seed, poison=None):
    """Seeded ``x`` and ``y``; *poison* ``(index, value)`` overwrites
    one word of ``x`` (which feeds every tap) with a non-finite value."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    if poison is not None:
        x[poison[0]] = poison[1]
    return {"x": x, "y": rng.uniform(-1.0, 1.0, n)}


def _machine(program, n, seed, backend, poison=None):
    machine = NSCMachine(_NODE, backend=backend)
    machine.load_program(program)
    for name, values in _inputs(n, seed, poison).items():
        machine.set_variable(name, values)
    return machine


def _armed(machine):
    machine.interrupts.arm(InterruptKind.FP_OVERFLOW)
    machine.interrupts.arm(InterruptKind.FP_INVALID)
    return machine


def _pipelines(result):
    return [
        (p.cycles, repr(p.condition_value), p.condition_result, p.exceptions)
        for p in result.pipeline_results
    ]


def _folded(program, n, seed, poison):
    """The service's lone-job run: one stacked row built from the plan's
    layout, with both FP kinds armed, folded without a machine."""
    plan = progplan.compiled_plan(program, _NODE.params)
    variables = plan.variables
    storage = progplan.stacked_storage(
        variables, 1, plan.plane_extent, plan.cache_extent
    )
    loaded = _inputs(n, seed, poison)
    for name, values in loaded.items():
        storage.set_variable(name, values)
    armed = DEFAULT_ARMED_KINDS | {InterruptKind.FP_OVERFLOW,
                                   InterruptKind.FP_INVALID}
    run = batchplan.BatchProgramRun(plan, storage, 1, 1_000_000)
    run.run()  # a lone job never declines
    job = run.job(0, records=True)
    # a plane the plan never touches stays as it was loaded (zeros for
    # a variable nothing loads)
    words = {
        name: storage.planes[var.plane][0, var.offset:var.end]
        if var.plane in storage.planes
        else loaded.get(name, np.zeros(var.length))
        for name, var in variables.items()
    }
    return (
        {name: words[name].tobytes() for name in _VARIABLES},
        job.cycles,
        job.result.loop_iterations,
        _pipelines(job.result),
        job.interrupts_delivered(armed),
    )


def _observed(machine, result):
    """Everything the engines must agree on, NaN payloads included."""
    return (
        {name: machine.get_variable(name).tobytes() for name in _VARIABLES},
        result.total_cycles,
        result.instructions_issued,
        result.loop_iterations,
        _pipelines(result),
        [repr((i.cycle, i.kind, i.source, i.payload))
         for i in machine.interrupts.delivered],
        [repr((i.cycle, i.kind, i.source))
         for i in machine.interrupts.dropped],
    )


@settings(max_examples=_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(case=single_image_programs(),
       poison=st.none() | st.tuples(
           st.integers(0, 3), st.sampled_from((np.inf, -np.inf, np.nan))
       ))
def test_reference_slab_of_one_and_slab_rows_agree(case, poison):
    program, n = case
    with np.errstate(all="ignore"):
        expected = []
        for seed in _SEEDS:
            machine = _machine(program, n, seed, "reference", poison)
            expected.append(_observed(machine, machine.run()))
        for seed, want in zip(_SEEDS, expected):
            machine = _machine(program, n, seed, "fast", poison)
            result = progplan.try_run_fused(machine, program, 1_000_000)
            assert result is not None, "a checker-clean program declined"
            assert _observed(machine, result) == want
        for seed in _SEEDS:
            machine = _armed(_machine(program, n, seed, "reference", poison))
            result = machine.run()
            assert _folded(program, n, seed, poison) == (
                {name: machine.get_variable(name).tobytes()
                 for name in _VARIABLES},
                result.total_cycles,
                result.loop_iterations,
                _pipelines(result),
                len(machine.interrupts.delivered),
            )
        slab = [_machine(program, n, seed, "fast", poison)
                for seed in _SEEDS]
        results = batchplan.try_run_batch_fused(slab, program)
    if results is None:
        # the one legitimate decline: a non-finite value, which only a
        # one-job run can attribute to the right job
        assert any(p[3] for want in expected for p in want[4])
        return
    for machine, result, want in zip(slab, results, expected):
        assert _observed(machine, result) == want
