"""Property: random single-image programs agree across the engines.

The fused engine keeps each unit's output in a *row slot* that is reused
once the row's last reader has run (``ImageKernel``'s slot scan), so a
wrong liveness range silently feeds a consumer another unit's values.
This suite draws random checker-clean single-image programs through
:class:`~repro.compose.builders.PipelineBuilder` — fan-out, dead units,
``add(x, x)``, ``PASS``, MAX/MAXABS/FADD/FSUB feedback (reduced,
accumulated and the element loop), shift/delay taps, stream and tap write-backs, conditions,
and residual skew (``auto_balance=False``) — and asserts through
``helpers_slab.check_parity`` that the reference interpreter, a fused
slab of one (the service's lone job, non-finite cases included) and
every row of a slab of three agree bit for bit on every stored row,
each issue's condition value, cycles, charges and interrupt counts.

Three bindings skip a buffer, and the draws aim at each: an unshifted
tap reads its feeder's stream (the tap sets mix unshifted and shifted
taps, or hold only unshifted ones), a write-back unit may compute
straight into its write view, which later steps then read, and a
``PASS`` of a stream or unshifted tap is forwarded — its readers read
that stream.  Poisoned inputs (inf, -inf, nan) run through the same
kernels on the lone job and on every row of the slab.  ``y``'s plane is read-only (nothing writes it, no
``SwapVars`` names it) while ``x``'s moves under ``Repeat`` and
``LoopUntil``, so the draws also lead with a chain over ``y`` — steps
the kernel hoists, computed once per bind — beside steps over ``x``,
which it must not hoist.  ``hypothesis.event`` reports each case's share
(run with ``--hypothesis-show-statistics``).

Example counts follow the active hypothesis profile: a handful under the
default, the ``ci`` profile's count under ``--hypothesis-profile=ci``
(see ``tests/conftest.py``).
"""

import numpy as np
from hypothesis import (
    HealthCheck,
    event,
    given,
    reject,
    settings,
    strategies as st,
)

from repro.arch.funcunit import Opcode
from repro.arch.node import NodeConfig
from repro.arch.switch import DeviceKind
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
from repro.sim import progplan
from repro.sim.machine import NSCMachine

from helpers_slab import check_parity

_NODE = NodeConfig()
_EXAMPLES = (
    settings.default.max_examples
    if settings.get_current_profile_name() == "ci" else 12
)
_SEEDS = (0, 1, 2)
_VARIABLES = ("x", "y", "r", "s")

# weighted toward the elementwise ops, which recycle the slots of the
# rows they read last
_BINARY = (Opcode.FADD, Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FMUL,
           Opcode.MAX, Opcode.MIN, Opcode.FCMP_LT)
_UNARY = (Opcode.FNEG, Opcode.FABS, Opcode.PASS, Opcode.FSCALE,
          Opcode.FADDC)
_FEEDBACK = (Opcode.MAX, Opcode.MAXABS, Opcode.FADD, Opcode.FSUB)
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
    """A random single-image program and its vector length."""
    n = draw(st.integers(4, 10))
    prog = VisualProgram(name="slot-fuzz")
    for plane, name in enumerate(_VARIABLES):
        prog.declare(name, plane=plane, length=n)
    b = PipelineBuilder(_NODE, prog, vector_length=n)
    x = b.read_var("x")
    y = b.read_var("y")
    tap_set = draw(st.sampled_from(("any", "mixed", "unshifted")))
    if tap_set == "unshifted":
        shifts = [0] * draw(st.integers(1, 2))
    elif tap_set == "mixed":
        shifts = draw(st.lists(st.sampled_from((-2, -1, 1, 2)),
                               min_size=1, max_size=2, unique=True)) + [0]
    else:
        shifts = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3,
                               unique=True))
    taps = b.through_sd(x, shifts)
    # switch sources and the sinks each already drives (fan-out limit)
    pool = [x, y] + taps
    uses = {x.endpoint: 1}  # the shift/delay unit's input
    limit = _NODE.params.switch_max_fanout
    units = []
    try:
        if draw(st.booleans()):
            # a PASS straight off live storage: x, y or an unshifted tap
            lead = draw(st.sampled_from(
                [x, y] + [tap for tap in taps if tap.shift == 0]
            ))
            ref = b.apply(Opcode.PASS, lead)
            uses[lead.endpoint] = uses.get(lead.endpoint, 0) + 1
            units.append((ref, [lead]))
            pool.append(ref)
        if draw(st.booleans()):
            # a chain over the read-only y alone: loop-invariant steps
            ref = y
            for _ in range(draw(st.integers(1, 2))):
                operand = ref
                if draw(st.booleans()):
                    ref = b.apply(draw(st.sampled_from(_UNARY)), operand,
                                  constant=draw(st.sampled_from((0.5, -2.0))))
                else:
                    ref = b.apply(draw(st.sampled_from(_BINARY)), operand,
                                  ConstOperand(0.25))
                uses[operand.endpoint] = uses.get(operand.endpoint, 0) + 1
                units.append((ref, [operand]))
                pool.append(ref)
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
        free_taps = [tap for tap in taps if uses.get(tap.endpoint, 0) < limit]
        if choice == "tap" and free_taps:
            src = draw(st.sampled_from(free_taps))
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


def _machine(program, n, seed, poison=None):
    machine = NSCMachine(_NODE)
    machine.load_program(program)
    for name, values in _inputs(n, seed, poison).items():
        machine.set_variable(name, values)
    return machine


def _tap_shifts(image):
    """The configured shifts of every shift/delay tap *image* reads."""
    taps = [(r.endpoint.device, r.endpoint.port) for r in image.inputs.values()
            if r.kind == "sd"]
    taps += [(source.device, source.port)
             for source, _sink, _prog in image.write_programs
             if source.kind is DeviceKind.SHIFT_DELAY]
    return {image.sd_shifts[(unit, int(port[3:]))] for unit, port in taps}


def _binding_events(program, issues):
    """Report which of the buffer-skipping bindings this case reaches."""
    kernel = progplan.compiled_plan(program, _NODE.params).kernels[0]
    shifts = _tap_shifts(kernel.image)
    if 0 in shifts:
        event("unshifted tap beside shifted ones" if len(shifts) > 1
              else "feeder with only unshifted taps")
    if any(step[pos] is not None and step[pos][0] == "row"
           and step[pos][1] in kernel.in_place
           for step in kernel.steps
           for pos in progplan._OPERANDS[step[0]]):
        event("in-place unit read by a later step")
    if kernel.forwarded:
        event("forwarded PASS")
    if kernel.hoisted:
        event("hoisted step, reissued" if issues >= 2 else "hoisted step")
        hoisted = {kernel.steps[i][-1] for i in kernel.hoisted}
        if any(step[pos] is not None and step[pos][0] == "row"
               and step[pos][1] in hoisted
               for i in kernel.runs
               for step in (kernel.steps[i],)
               for pos in progplan._OPERANDS[step[0]]):
            event("hoisted row read by a per-issue step")


_POISON = st.tuples(st.integers(0, 3),
                    st.sampled_from((np.inf, -np.inf, np.nan)))


@settings(max_examples=_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(case=single_image_programs(), poison=st.none() | _POISON)
def test_reference_slab_of_one_and_slab_rows_agree(case, poison):
    program, n = case
    with np.errstate(all="ignore"):
        flagged = False
        for seed in _SEEDS:
            # a lone job runs exact: it never declines
            parity = check_parity([_machine(program, n, seed, poison)],
                                  program)
            flagged |= any(p.exceptions
                           for p in parity.results[0].pipeline_results)
        _binding_events(program, parity.results[0].instructions_issued)
        slab = [_machine(program, n, seed, poison) for seed in _SEEDS]
        # a slab never declines on a non-finite value: its rows run on
        check_parity(slab, program)
    if flagged:
        event("a slab ran rows the reference flags")
