"""Row slots: a fused image stores a unit's output only while a reader of
it is still to run (the slot scan of ``ImageKernel``'s one walk).

A slot is recycled after its last reader; the rows something reads after
the runner — the condition row and write-back sources — keep a slot of
their own, except a
write-back source that computes straight into its write view
(``ImageKernel.in_place``), which owns no slot.  Operands bound in place
of a buffer are pinned here too: an unshifted shift/delay tap reads its
feeder's stream, so only shifted taps get a pad, and a forwarded PASS
(``ImageKernel.forwarded``) binds its readers to its stream and owns no
slot.  A loop-invariant step (``ImageKernel.hoisted``) runs once per
bind into a pinned slot.  These tests pin the allocation itself, and
run the programs against the reference through ``helpers_slab``'s
oracle; the engines' bit-identity over random programs is
``tests/property/test_slot_aliasing_property.py``.
"""

import numpy as np
import pytest

from helpers_slab import check_parity
from repro.arch.funcunit import Opcode
from repro.arch.switch import DeviceKind
from repro.codegen.generator import MicrocodeGenerator
from repro.compose.builders import PipelineBuilder
from repro.compose.iterative import build_rbsor_program, load_rbsor_inputs
from repro.compose.jacobi import build_jacobi_program, load_jacobi_inputs
from repro.diagram.program import ExecPipeline, Repeat, SwapVars, VisualProgram
from repro.sim import batchplan, pipeline_exec, progplan, sequencer
from repro.sim.machine import NSCMachine
from repro.sim.multinode import MultiNodeStencil


def _jacobi(node, shape=(16, 16, 16), auto_balance=True, max_iterations=20,
            eps=1e-4):
    setup = build_jacobi_program(node, shape, eps=eps,
                                 max_iterations=max_iterations)
    program = MicrocodeGenerator(node, auto_balance=auto_balance).generate(
        setup.program
    )
    return setup, program


def _rbsor(node, shape=(6, 6, 6)):
    setup = build_rbsor_program(node, shape, omega=1.3, eps=1e-4,
                                max_iterations=8)
    return setup, MicrocodeGenerator(node).generate(setup.program)


def _chain(node, watch_first, auto_balance=True, n=64):
    """``t = x + 0.5``, three chained negations of it, then ``t`` plus
    the last negation written to ``r``.  Without balancing, the final add
    reads ``t`` through a skew pad that is filled after ``t``'s last
    unskewed reader has run.  ``watch_first`` instead writes the last
    negation and watches ``t``: its one reader is the first negation, so
    only the condition keeps the row."""
    prog = VisualProgram(name="chain")
    prog.declare("x", plane=0, length=n)
    prog.declare("r", plane=1, length=n)
    b = PipelineBuilder(node, prog, vector_length=n)
    t = b.apply(Opcode.FADDC, b.read_var("x"), constant=0.5)
    last = t
    for _ in range(3):
        last = b.apply(Opcode.FNEG, last)
    if watch_first:
        b.write_var(last, "r")
        b.condition(t, "lt", 0.0)
    else:
        b.write_var(b.apply(Opcode.FADD, t, last), "r")
    b.build()
    prog.add_control(Repeat(body=(ExecPipeline(0), SwapVars("x", "r")),
                            times=3))
    program = MicrocodeGenerator(node, auto_balance=auto_balance).generate(
        prog
    )
    return None, program


def _hypercube(node):
    stencil = MultiNodeStencil(node.params, hypercube_dim=2,
                               shape=(8, 8, 8), backend="fast")
    return stencil.setup, stencil.machine_program


def _unshifted_taps(node, n=32):
    """``r = 2 * tap0 + (tap1 + 1)`` with both taps of ``x``'s
    shift/delay unit unshifted: the feeder has no shifted tap."""
    prog = VisualProgram(name="unshifted")
    prog.declare("x", plane=0, length=n)
    prog.declare("r", plane=1, length=n)
    b = PipelineBuilder(node, prog, vector_length=n)
    tap0, tap1 = b.through_sd(b.read_var("x"), [0, 0])
    scaled = b.apply(Opcode.FSCALE, tap0, constant=2.0)
    bumped = b.apply(Opcode.FADDC, tap1, constant=1.0)
    b.write_var(b.apply(Opcode.FADD, scaled, bumped), "r")
    b.build()
    prog.add_control(Repeat(body=(ExecPipeline(0), SwapVars("x", "r")),
                            times=3))
    return None, MicrocodeGenerator(node).generate(prog)


def _skewed_pass(node, n=32):
    """``r = PASS(x) + (-(-x))`` and ``s = -PASS(x)``, built without
    balancing: the PASS reaches the add ahead of the negation chain, so
    the add reads it through residual skew, a window into the stream's
    pad."""
    prog = VisualProgram(name="skewed-pass")
    prog.declare("x", plane=0, length=n)
    prog.declare("r", plane=1, length=n)
    prog.declare("s", plane=2, length=n)
    b = PipelineBuilder(node, prog, vector_length=n)
    x = b.read_var("x")
    relay = b.apply(Opcode.PASS, x)
    chain = b.apply(Opcode.FNEG, b.apply(Opcode.FNEG, x))
    b.write_var(b.apply(Opcode.FADD, relay, chain), "r")
    b.write_var(b.apply(Opcode.FNEG, relay), "s")
    b.build()
    prog.add_control(Repeat(body=(ExecPipeline(0), SwapVars("x", "r")),
                            times=3))
    return None, MicrocodeGenerator(node, auto_balance=False).generate(prog)


_PROGRAMS = {
    "jacobi": lambda node: _jacobi(node),
    "jacobi-skewed": lambda node: _jacobi(node, (5, 6, 7), auto_balance=False),
    "rbsor": _rbsor,
    "watched-chain": lambda node: _chain(node, watch_first=True),
}


def _kernels(node, name):
    _setup, program = _PROGRAMS[name](node)
    return _kernels_of(node, program)


def _kernels_of(node, program):
    plan = progplan.compiled_plan(program, node.params)
    kernels = [k for k in plan.kernels.values() if k.steps]
    assert kernels
    return kernels


def _units(kernel):
    """Every unit *kernel* evaluates, in step order (pad copies are not
    units)."""
    return [step[-1] for step in kernel.steps
            if step[0] != progplan._M_SKEWCOPY]


def _row_units(kernel):
    return [fu for fu in _units(kernel) if fu not in kernel.reduce_fus]


def _reads(step):
    """The operand refs *step* reads."""
    return [step[pos] for pos in progplan._OPERANDS[step[0]]
            if step[pos] is not None]


def _held_alone(kernel, fu):
    """*fu*'s slot is used by no other unit and no abs scratch."""
    slot = kernel.slot_of[fu]
    others = [f for f, s in kernel.slot_of.items() if s == slot and f != fu]
    return not others and slot not in kernel.scratch_slot.values()


class TestSlotCounts:
    def test_jacobi_sweep_binds_at_most_four_slots(self, node):
        (kernel,) = _kernels(node, "jacobi")
        assert len(_row_units(kernel)) == 12
        assert kernel.n_slots <= 4
        bound = kernel.bind(progplan._Storage(), (4,))
        assert bound._block.shape == (kernel.n_slots, 4, 4096)

    def test_rbsor_sweeps_share_slots(self, node):
        for kernel in _kernels(node, "rbsor"):
            # 13 row units, less the forwarded PASS, which has no step
            assert len(_row_units(kernel)) == 12
            assert kernel.n_slots <= 4

    def test_a_dying_operand_slot_is_written_in_place(self, node):
        """The Jacobi chain reuses its operands' slots: some step writes
        its output over a row it reads for the last time.  (An in-place
        unit owns no slot, so it neither reuses one nor hands one on.)"""
        (kernel,) = _kernels(node, "jacobi")
        in_place = 0
        for step in kernel.steps:
            out = kernel.slot_of.get(step[-1])
            for ref in _reads(step):
                if ref[0] == "row" and out is not None \
                        and kernel.slot_of.get(ref[1]) == out:
                    in_place += 1
        assert in_place

    def test_skewed_read_keeps_the_row_until_its_pad_copy(self, node):
        """The pad copy is the row's last reader: recycling the slot at
        its last unskewed reader would copy a later unit's values."""
        _setup, program = _chain(node, watch_first=False,
                                 auto_balance=False)
        (kernel,) = _kernels_of(node, program)
        assert kernel.row_pads, "the build lost its skewed read"
        (t,) = {fu for fu, *_pad in kernel.row_pads}
        kinds = [step[0] for step in kernel.steps]
        copy = kernel.steps.index((progplan._M_SKEWCOPY, t))
        last_unskewed = max(i for i, step in enumerate(kernel.steps)
                            if ("row", t) in step)
        # other units land between t's last unskewed read and the copy
        assert progplan._M_UNARY in kinds[last_unskewed + 1 : copy]
        _parity_with_x(node, program, 64)


@pytest.mark.parametrize("name", sorted(_PROGRAMS))
class TestPinnedSlots:
    def test_condition_and_write_back_rows_are_never_reused(self, node,
                                                            name):
        """A write-back source either computes into its write view (it
        owns no slot; its row is the view, among the live views after
        the read streams) or keeps a slot of its own, as the condition
        row does."""
        for kernel in _kernels(node, name):
            pinned = {src[1] for src, _prog, _w in kernel.writes
                      if src[0] == "row"}
            cond = kernel.condition
            if cond is not None and cond.fu not in kernel.reduce_fus:
                pinned.add(cond.fu)
            assert pinned
            bound = kernel.bind(progplan._Storage(), (2,))
            for fu in pinned:
                j = kernel.in_place.get(fu)
                if j is None:
                    assert _held_alone(kernel, fu)
                    continue
                assert fu not in kernel.slot_of
                assert kernel.writes[j][0] == ("row", fu)
                assert bound._row(fu) == len(kernel.reads) + j


def _loaded_program(node, name, seed):
    """A reference machine with *name*'s program and inputs drawn from
    *seed*."""
    setup, program = _PROGRAMS[name](node)
    machine = NSCMachine(node)
    machine.load_program(program)
    if setup is None:
        n = machine.memory.lookup("x").length
        machine.set_variable("x", np.linspace(-1.0, 1.0, n))
    else:
        load = load_rbsor_inputs if name == "rbsor" else load_jacobi_inputs
        rng = np.random.default_rng(seed)
        load(machine, setup, rng.random(setup.shape),
             rng.standard_normal(setup.shape))
    return machine, program


@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_reference_keep_outputs_leaves_the_run_unchanged(node, name,
                                                        monkeypatch):
    """Output retention lives in the reference interpreter alone: under
    ``keep_outputs`` each issue keeps one stream per unit, as the issue
    computed it (later issues do not write into a kept stream), and the
    run's rows and totals still match the stacked run."""
    at_issue = []
    real_execute = sequencer.execute_image

    def recording(image, machine, keep_outputs=False):
        res = real_execute(image, machine, keep_outputs=keep_outputs)
        at_issue.append({fu: out.copy()
                         for fu, out in res.fu_outputs.items()})
        return res

    parity = check_parity([_loaded_program(node, name, 7)[0]],
                          _PROGRAMS[name](node)[1])
    machine, program = _loaded_program(node, name, 7)
    monkeypatch.setattr(sequencer, "execute_image", recording)
    result = machine.run(program, keep_outputs=True)
    assert result.instructions_issued == parity.run.job(0).instructions
    assert result.total_cycles == parity.run.job(0).cycles
    assert len(at_issue) == result.instructions_issued
    for res, kept in zip(result.pipeline_results, at_issue):
        image = program.images[res.number]
        assert set(res.fu_outputs) == set(image.fu_ops)
        for fu, out in res.fu_outputs.items():
            assert out.shape == (image.vector_length,)
            np.testing.assert_array_equal(out, kept[fu])
    storage = parity.storage
    for plane, arr in storage.planes.items():
        np.testing.assert_array_equal(
            arr[0], machine.memory.plane(plane).read(0, arr.shape[-1]))


class TestInPlaceBinding:
    def test_jacobi_sweep_writes_u_new_in_place(self, node, rng):
        """The sweep's write-back unit owns no slot, its write copy is
        dropped, and after an issue each row's destination holds exactly
        the unit's output stream as the reference interpreter computes
        it from the same inputs."""
        setup, program = _jacobi(node, (6, 6, 6))
        plan = progplan.compiled_plan(program, node.params)
        kernel = plan.kernels[1]
        assert len(kernel.in_place) == 1
        ((fu, j),) = kernel.in_place.items()
        assert kernel.runner_shape[2] == len(kernel.writes) - 1
        storage = progplan.stacked_storage(plan.variables, 2,
                                           plan.plane_extent,
                                           plan.cache_extent)
        load_jacobi_inputs(storage, setup, rng.random((6, 6, 6)),
                           rng.standard_normal((6, 6, 6)))
        for arrays in (storage.cache_front, storage.cache_back):
            for arr in arrays.values():
                arr[...] = rng.random(arr.shape)
        machines = []
        for row in range(2):  # each row's inputs on a reference machine
            machine = NSCMachine(node)
            machine.load_program(program)
            for plane, arr in storage.planes.items():
                machine.memory.plane(plane).write(0, arr[row])
            for cache_id, arr in storage.cache_front.items():
                machine.caches[cache_id].front[: arr.shape[-1]] = arr[row]
            for cache_id, arr in storage.cache_back.items():
                machine.caches[cache_id].back[: arr.shape[-1]] = arr[row]
            machines.append(machine)
        bound = kernel.bind(storage, (2,))
        bound.issue_compute()
        assert len(bound._write_pairs) == len(kernel.writes) - 1
        var = plan.variables[kernel.writes[j][1].spec.variable]
        written = storage.planes[var.plane][:, var.offset:var.end]
        for row, machine in enumerate(machines):
            res = pipeline_exec.execute_image(program.images[1], machine,
                                              keep_outputs=True)
            assert written[row].tobytes() == res.fu_outputs[fu].tobytes()
            assert written[row].tobytes() \
                == machine.get_variable(var.name).tobytes()

    @pytest.mark.parametrize("name", ["jacobi", "rbsor", "hypercube"])
    def test_no_step_reads_an_unshifted_tap_through_a_pad(self, node, name):
        """Every pad window is a shifted tap (or a skew); an unshifted tap
        is read as its feeder's stream."""
        program = (_PROGRAMS[name] if name != "hypercube" else _hypercube)(
            node)[1]
        kernels = _kernels_of(node, program)
        unshifted = 0
        for kernel in kernels:
            shifts = kernel.image.sd_shifts
            for _read_index, _left, _total, taps in kernel.feeder_pads:
                assert all(shift != 0 for _key, shift in taps)
            for step in kernel.steps:
                for kind, key in _reads(step):
                    if kind == "tap" and key in shifts:
                        assert shifts[key] != 0
            feeds = {kernel.reads.index((ep, prog))
                     for ep, prog in kernel.reads
                     if ep in kernel.image.sd_feeders.values()}
            unshifted += sum(1 for step in kernel.steps
                             for ref in _reads(step)
                             if ref[0] == "stream" and ref[1] in feeds)
        assert unshifted, "no kernel reads its unshifted tap"

    def test_a_feeder_with_only_unshifted_taps_has_no_pad(self, node):
        _setup, program = _unshifted_taps(node)
        (kernel,) = _kernels_of(node, program)
        assert kernel.feeder_pads == []
        assert kernel.runner_shape[0] == 0
        bound = kernel.bind(progplan._Storage(), (1,))
        assert bound._pad_centers == [] and bound._tap_views == {}
        _parity_with_x(node, program, 32)


def _parity_with_x(node, program, n):
    """The oracle on one machine holding ``x = linspace(-1, 1, n)``."""
    machine = NSCMachine(node)
    machine.load_program(program)
    machine.set_variable("x", np.linspace(-1.0, 1.0, n))
    return check_parity([machine], program, max_instructions=1_000)


def _flagged_parity(node, program, setup, load, u0, f):
    """The oracle on one loaded machine; returns (parity, the numbers of
    the issues the reference flags with FP exceptions)."""
    machine = NSCMachine(node)
    machine.load_program(program)
    load(machine, setup, u0, f)
    with np.errstate(all="ignore"):
        parity = check_parity([machine], program)
    flagged = [p.number for p in parity.results[0].pipeline_results
               if p.exceptions]
    return parity, flagged


class TestInPlaceNonFinite:
    """inf/nan written in place over a dying operand run on like any
    value: residuals and grids match the reference bit for bit, issues
    the reference flags included."""

    @pytest.mark.parametrize("name", ["jacobi", "rbsor"])
    def test_non_finite_chain_matches_the_reference(self, node, rng, name):
        shape = (6, 6, 6)
        if name == "jacobi":
            setup, program = _jacobi(node, shape, max_iterations=6)
            load = load_jacobi_inputs
        else:
            setup, program = _rbsor(node, shape)
            load = load_rbsor_inputs
        plan = progplan.compiled_plan(program, node.params)
        assert any(k.n_slots < len(_row_units(k))
                   for k in plan.kernels.values()), "no slot is shared"
        u0 = rng.random(shape)
        u0[2, 2, 2] = np.inf
        u0[3, 3, 3] = np.nan
        f = rng.standard_normal(shape)
        _parity, flagged = _flagged_parity(node, program, setup, load, u0, f)
        assert flagged


def _fh2_step(kernel):
    """The index of *kernel*'s ``f * h^2`` step: FSCALE of ``f``'s
    stream."""
    (index,) = [
        i for i, step in enumerate(kernel.steps)
        if step[0] == progplan._M_CONST and step[2][0] == "stream"
        and kernel.reads[step[2][1]][1].spec.variable == "f"
    ]
    return index


def _moving_planes(plan):
    """Planes a plan's images write or its SwapVars name, derived from
    the compiled kernels and the plan's variable homes."""
    moving = {plan.variables[name].plane for name in plan.swap_names}
    for kernel in plan.kernels.values():
        moving.update(prog.spec.device for _src, prog, _w in kernel.writes
                      if prog.spec.device_kind is DeviceKind.MEMORY)
    return moving


_SWEEPS = {
    "jacobi": lambda node: _jacobi(node, (6, 6, 6)),
    "rbsor": _rbsor,
    "hypercube": _hypercube,
}


class TestHoisting:
    @pytest.mark.parametrize("name", sorted(_SWEEPS))
    def test_sweeps_hoist_exactly_the_fh2_step(self, node, name):
        _setup, program = _SWEEPS[name](node)
        plan = progplan.compiled_plan(program, node.params)
        sweeps = [k for k in plan.kernels.values() if k.steps]
        assert len(sweeps) == (2 if name == "rbsor" else 1)
        for kernel in plan.kernels.values():
            if not kernel.steps:
                assert kernel.hoisted == ()
                continue
            fh2 = _fh2_step(kernel)
            assert kernel.hoisted == (fh2,)
            assert fh2 not in kernel.runs
            # pinned: its slot is its own for the whole run
            assert _held_alone(kernel, kernel.steps[fh2][-1])

    @pytest.mark.parametrize("name", sorted(_PROGRAMS) + ["hypercube",
                                                         "unshifted"])
    def test_no_moving_plane_or_cache_read_is_a_source(self, node, name):
        if name == "hypercube":
            program = _hypercube(node)[1]
        elif name == "unshifted":
            program = _unshifted_taps(node)[1]
        else:
            program = _PROGRAMS[name](node)[1]
        plan = progplan.compiled_plan(program, node.params)
        moving = _moving_planes(plan)
        assert plan.moving_planes == moving
        for kernel in plan.kernels.values():
            hoisted_units = {kernel.steps[i][-1] for i in kernel.hoisted}
            for i in kernel.hoisted:
                for kind, key in _reads(kernel.steps[i]):
                    assert kind in ("const", "stream", "row")
                    if kind == "row":
                        assert key in hoisted_units
                    elif kind == "stream":
                        spec = kernel.reads[key][1].spec
                        assert spec.device_kind is DeviceKind.MEMORY
                        assert spec.device not in moving

    def test_a_swapped_plane_hoists_nothing(self, node):
        """``_unshifted_taps`` swaps ``x``, the plane every step reads."""
        (kernel,) = _kernels_of(node, _unshifted_taps(node)[1])
        assert kernel.hoisted == ()

    def test_a_halo_plane_the_plan_does_not_move_declines(self, node,
                                                          monkeypatch):
        """The hypercube stepper writes ``u``'s plane between issues (the
        halo copy): under a plan that counted that plane as fixed, a
        hoisted row could go stale, so the stepper declines and the
        stencil runs the reference walk, with the reference's results."""
        def stencil(backend):
            return MultiNodeStencil(node.params, hypercube_dim=2,
                                    shape=(8, 8, 8), backend=backend)

        fast = stencil("fast")
        plan = progplan.ProgramPlan(fast.machine_program, node.params)
        u_plane = plan.variables["u"].plane
        assert u_plane in plan.moving_planes
        plan.moving_planes = plan.moving_planes - {u_plane}
        monkeypatch.setattr(progplan, "compiled_plan",
                            lambda *args, **kwargs: plan)
        with pytest.raises(progplan.FusionUnsupported, match="halo plane"):
            progplan.fused_stepper(fast)
        ref = stencil("reference")
        r_fast, r_ref = fast.run(max_iterations=3), ref.run(max_iterations=3)
        assert fast.stack is None  # the reference walk's machines hold it
        assert r_fast.residual_history == r_ref.residual_history
        np.testing.assert_array_equal(fast.gather("u"), ref.gather("u"))

    def test_the_hoisted_ufunc_runs_once_per_bind(self, node, rng):
        setup, program = _jacobi(node, (6, 6, 6), max_iterations=50,
                                 eps=0.0)
        # a private plan: the cached one must not see the counting ufuncs
        plan = progplan.ProgramPlan(program, node.params)
        kernel = plan.kernels[1]
        calls = {"hoisted": 0, "per_issue": 0}

        def counting(ufunc, key):
            def call(*args, **kwargs):
                calls[key] += 1
                return ufunc(*args, **kwargs)
            return call

        (h,) = kernel.hoisted
        step = kernel.steps[h]
        kernel.steps[h] = step[:1] + (counting(step[1], "hoisted"),) \
            + step[2:]
        j = kernel.runs[0]
        step = kernel.steps[j]
        kernel.steps[j] = step[:1] + (counting(step[1], "per_issue"),) \
            + step[2:]
        for binds in (1, 2):
            storage = progplan.stacked_storage(
                plan.variables, 2, plan.plane_extent, plan.cache_extent)
            load_jacobi_inputs(storage, setup, rng.random((6, 6, 6)),
                               rng.standard_normal((6, 6, 6)))
            run = batchplan.BatchProgramRun(plan, storage, 2, 1_000_000)
            run.run()
            assert run.loop_iterations == [{1: 50}, {1: 50}]
            assert calls == {"hoisted": binds, "per_issue": 50 * binds}

    def test_rbsor_pass_is_forwarded_and_owns_no_step_or_slot(self, node):
        for kernel in _kernels(node, "rbsor"):
            (fu,) = kernel.forwarded
            assert kernel.image.fu_ops[fu][0] is Opcode.PASS
            assert kernel.forwarded[fu][0] == "stream"
            assert fu not in kernel.slot_of
            # no step computes it, and its readers read its stream
            assert all(step[-1] != fu for step in kernel.steps)
            assert not [step for step in kernel.steps
                        if step[0] == progplan._M_COPY]
            assert all(("row", fu) not in _reads(step)
                       for step in kernel.steps)
            # one pass fewer per issue than steps: f * h^2
            assert len(kernel.runs) == len(kernel.steps) - 1

    def test_a_skewed_read_of_a_forwarded_pass_reads_its_stream(self,
                                                                node):
        """As with an unshifted tap, a skewed read of a forwarded PASS
        is a window into its stream's pad: no row, no row pad."""
        _setup, program = _skewed_pass(node)
        (kernel,) = _kernels_of(node, program)
        (fu,) = kernel.forwarded
        assert fu not in kernel.slot_of
        assert kernel.row_pads == []
        (read_index,) = {r for r, *_pad in kernel.feeder_pads}
        assert kernel.forwarded[fu] == ("stream", read_index)
        _parity_with_x(node, program, 32)

    @pytest.mark.parametrize("name", ["jacobi", "rbsor"])
    def test_inf_in_f_hoists_and_matches_every_sweep(self, node, rng, name):
        """The hoisted row holds f * h^2 = inf for the whole run: every
        sweep issue raises FP flags on the reference, and the engine's
        rows still match it bit for bit."""
        shape = (6, 6, 6)
        if name == "jacobi":
            setup, program = _jacobi(node, shape, max_iterations=6)
            load = load_jacobi_inputs
        else:
            setup, program = _rbsor(node, shape)
            load = load_rbsor_inputs
        u0 = rng.random(shape)
        f = rng.standard_normal(shape)
        f[3, 2, 2] = np.inf
        parity, flagged = _flagged_parity(node, program, setup, load, u0, f)
        sweeps = parity.results[0].instructions_issued - 1  # the mask load
        assert sweeps and len(flagged) == sweeps
