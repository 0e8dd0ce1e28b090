"""Property: images notice every swap that moves storage, and only those.

A bound image keys its resolved views by the storage's *arrangement*
number, which each whole-plane ``SwapVars`` and each ``CacheSwap`` steps
(``progplan._Storage``); an issue reads one attribute to know its views
still hold.  A swap that moved arrays without stepping the number would
leave an image computing on the arrays a plane or cache role used to
hold.  This suite draws random control scripts of issues, ``SwapVars``
(whole-plane swaps, and a same-plane pair that swaps contents) and
``CacheSwap`` over a fixed three-image program, runs them op by op on
one row and on a slab of three, and checks after every op that each
image's views for the current arrangement are exactly the views a fresh
resolve gives, and at the end that every row's run equals the
reference interpreter's.

Example counts follow the active hypothesis profile: a handful under the
default, the ``ci`` profile's count under ``--hypothesis-profile=ci``
(see ``tests/conftest.py``).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.arch.funcunit import Opcode
from repro.arch.node import NodeConfig
from repro.codegen.generator import MicrocodeGenerator
from repro.compose.builders import PipelineBuilder
from repro.diagram.program import (
    CacheSwap,
    ExecPipeline,
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
_N = 16
#: one variable per plane (0-3), so a swap of two is a whole-plane
#: exchange of arrays, plus a pair sharing plane 4, whose swap moves
#: contents and leaves the arrangement as it was
_PLANES = {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4, "f": 4}
_SWAPS = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("a", "d"),
          ("e", "f")]
_CACHE_SWAPS = [(0,), (1,), (0, 1)]


def _program(control):
    """Three images over planes 0-4 and both caches (no image reads and
    writes one plane or one cache), then *control*.  The units that
    write ``b`` and ``d`` compute in place: a later unit reads them."""
    prog = VisualProgram(name="swaps")
    for name, plane in _PLANES.items():
        prog.declare(name, plane=plane, length=_N)
    # image 0: s = a + cache0; 2s -> b; -2s -> cache1
    b = PipelineBuilder(_NODE, prog, vector_length=_N)
    s = b.apply(Opcode.FADD, b.read_var("a"), b.read_cache(0))
    w = b.apply(Opcode.FSCALE, s, constant=2.0)
    b.write_var(w, "b")
    b.write_cache(b.apply(Opcode.FNEG, w), 1)
    b.build()
    # image 1: u = c/2 - b -> cache0; -u -> d
    b = PipelineBuilder(_NODE, prog, vector_length=_N)
    u = b.apply(Opcode.FSUB,
                b.apply(Opcode.FSCALE, b.read_var("c"), constant=0.5),
                b.read_var("b"))
    b.write_cache(u, 0)
    v = b.apply(Opcode.FNEG, u)
    b.write_var(v, "d")
    b.build()
    # image 2: q = max(d, cache1) + e + 1 -> a; -q -> cache0
    b = PipelineBuilder(_NODE, prog, vector_length=_N)
    p = b.apply(Opcode.FADD,
                b.apply(Opcode.MAX, b.read_var("d"), b.read_cache(1)),
                b.read_var("e"))
    q = b.apply(Opcode.FADDC, p, constant=1.0)
    b.write_var(q, "a")
    b.write_cache(b.apply(Opcode.FNEG, q), 0)
    b.build()
    for op in control:
        prog.add_control(op)
    return MicrocodeGenerator(_NODE).generate(prog)


_OPS = st.one_of(
    st.builds(ExecPipeline, st.integers(0, 2)),
    st.sampled_from(_SWAPS).map(lambda pair: SwapVars(*pair)),
    st.sampled_from(_CACHE_SWAPS).map(lambda ids: CacheSwap(caches=ids)),
)


@st.composite
def _scripts(draw):
    """A control script with at least one issue, its body sometimes
    repeated."""
    ops = draw(st.lists(_OPS, min_size=1, max_size=14))
    ops.insert(draw(st.integers(0, len(ops))),
               ExecPipeline(draw(st.integers(0, 2))))
    times = draw(st.integers(1, 3))
    return [Repeat(body=tuple(ops), times=times)] if times > 1 else ops


def _inputs(row):
    rng = np.random.default_rng(row)
    return {name: rng.standard_normal(_N) for name in _PLANES}


def _flat(ops):
    for op in ops:
        if op[0] == progplan._S_REPEAT:
            for _ in range(op[1]):
                yield from _flat(op[2])
        else:
            yield op


def _signature(value):
    """What a runner default binds: an array by the memory it views."""
    if isinstance(value, np.ndarray):
        return ("array", value.__array_interface__["data"][0],
                value.shape, value.strides)
    return ("object", id(value))


def _check_views(run):
    """Every image holding views for the current arrangement holds
    exactly what a fresh resolve of the storage gives."""
    for bound in run.bound.values():
        state = bound._states.get(run.storage.arrangement)
        if state is None:
            continue
        saved = (bound._runner, bound._streams, bound._tap_live,
                 bound._write_pairs)
        bound._refresh()
        fresh = bound._runner.__defaults__
        fresh_streams = bound._streams
        (bound._runner, bound._streams, bound._tap_live,
         bound._write_pairs) = saved
        runner, streams = state[0], state[1]
        assert [_signature(v) for v in runner.__defaults__] \
            == [_signature(v) for v in fresh]
        assert [_signature(v) for v in streams] \
            == [_signature(v) for v in fresh_streams]


def _reference(program, row):
    machine = NSCMachine(_NODE)
    machine.load_program(program)
    for name, values in _inputs(row).items():
        machine.set_variable(name, values)
    result = machine.run()
    return (
        {name: machine.get_variable(name).tobytes() for name in _PLANES},
        {c: (machine.caches[c].front[:_N].tobytes(),
             machine.caches[c].back[:_N].tobytes()) for c in (0, 1)},
        result.total_cycles,
        result.instructions_issued,
    )


def _words(storage, var, row):
    """*row*'s stored words of *var*: the run keeps none on a plane it
    never touches, nor past the extent it touches."""
    plane = storage.planes.get(var.plane)
    if plane is None:
        return np.zeros(0)
    return plane[row, var.offset : min(var.end, plane.shape[-1])]


def _stepped(program, rows):
    """The fused engine over *rows* stacked rows, one op at a time, the
    views checked after every op; each row's observables."""
    plan = progplan.compiled_plan(program, _NODE.params)
    storage = progplan.stacked_storage(plan.variables, rows,
                                       plan.plane_extent, plan.cache_extent)
    for row in range(rows):
        for name, values in _inputs(row).items():
            kept = _words(storage, plan.variables[name], row)
            kept[:] = values[: len(kept)]
    run = batchplan.BatchProgramRun(plan, storage, rows, 1_000_000)
    for op in _flat(plan.ops):
        if op[0] == progplan._S_ISSUE:
            run.issue(op[1])
        elif op[0] == progplan._S_SWAP:
            run.swap_vars(op[1], op[2])
        else:
            run.swap_caches(op[1])
        _check_views(run)
    observed = []
    untouched = np.zeros(_N)
    for row in range(rows):
        job = run.job(row)
        loaded = _inputs(row)
        words = {}
        for name, var in plan.variables.items():
            # words past a plane's stored extent are never touched
            kept = _words(storage, var, row)
            words[name] = np.concatenate(
                [kept, loaded[name][len(kept):]]).tobytes()
        observed.append((
            words,
            {c: tuple((store[c][row] if c in store else untouched).tobytes()
                      for store in (storage.cache_front, storage.cache_back))
             for c in (0, 1)},
            job.cycles,
            job.instructions,
        ))
    return observed


@settings(max_examples=_EXAMPLES, deadline=None)
@given(control=_scripts())
def test_views_follow_every_swap_and_runs_match_the_reference(control):
    program = _program(control)
    for rows in (1, 3):
        assert _stepped(program, rows) \
            == [_reference(program, row) for row in range(rows)]
