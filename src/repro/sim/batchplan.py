"""The fused engine: one compiled plan run over one machine or a slab of N.

The whole-program compiler (:mod:`repro.sim.progplan`) collapses a
control script into a schedule of bound images; this module walks it.
A single machine is the degenerate case, a slab of one: its kernels bind
with batch shape ``()`` over the machine's own pulled planes.  A slab of
N same-program, same-shape jobs stacks their operand grids along a
leading batch axis — exactly the trick the multi-node engine plays with
one row per node — and a single :class:`~repro.sim.progplan.BoundImage`
issue sweeps the entire stack.  The generated ufunc kernels are shared
either way (the runner code objects are cached on the
:class:`ImageKernel`); only the bound buffers gain the leading ``:``
axis.

Per-job divergence exists in exactly one place: ``LoopUntil`` iteration
counts.  The condition unit's final stream element is per-row when
batched, so convergence becomes a boolean mask over the slab.  A job
whose condition fires *freezes*: its row snapshot (taken by **logical**
plane/cache role, so later whole-plane reference swaps cannot skew it)
is restored at loop exit, its counters stop, and the stragglers keep
iterating.  Everything else — cycle counts, DMA charges, the interrupt
log — is per-issue-constant and replays analytically per job, so slab
results are bit-identical to N single-machine runs.

Commit point: a run mutates only its local storage, and
:func:`try_run_batch_fused` commits to the machines once it ends.  A
:class:`FusionUnsupported` surfacing at any point — a kernel declining,
a relocated variable, a mid-run rejection — leaves every machine
pristine, and the caller falls back to the reference interpreter.

A single machine keeps the reference's fault semantics: a non-finite
value takes the exact per-FU path, with its FP interrupts logged for the
commit replay, and a reference-visible fault (:class:`SequencerError`,
a host ``MachineError``) commits state up to the fault and re-raises,
as a step-by-step run would.  ``keep_outputs``, ``Halt`` inside a
``LoopUntil``, and nested loops all run.

Slabs decline statically (before touching any state) on:

- ``keep_outputs`` plans — exact-path capture is per-job work;
- invalid issues, ``Halt`` inside a loop body, nested ``LoopUntil``, or
  a loop body that never issues its watched condition pipeline — the
  single-machine runs reproduce those faults with correct committed
  state;

and dynamically on any non-finite value anywhere in the slab (one fused
screen covers every row, so one job's overflow would be undetectable to
per-row accounting).  A slab's reference-visible faults are wrapped as
:class:`FusionUnsupported` too, so the per-job fallback reproduces them.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.arch.interrupts import Interrupt, InterruptKind
from repro.codegen.generator import MachineProgram
from repro.obs import tracer as obs
from repro.sim.pipeline_exec import PipelineResult
from repro.sim.progplan import (
    FusionUnsupported,
    ProgramPlan,
    _S_BAD_ISSUE,
    _S_CACHESWAP,
    _S_HALT,
    _S_ISSUE,
    _S_LOOP,
    _S_REPEAT,
    _S_SWAP,
    _Storage,
    compiled_plan,
)
from repro.sim.sequencer import SequencerError, SequencerResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import NSCMachine

#: One issue's interrupt-log entry: ``(start, fire, source, cond_result,
#: payload, exception tags)``.
IrqEntry = Tuple[int, int, str, Optional[bool], float, Tuple[str, ...]]


# ----------------------------------------------------------------------
# static batchability
# ----------------------------------------------------------------------
def _body_watches(plan: ProgramPlan, ops: Tuple[Tuple, ...], key: int) -> bool:
    """Does this loop body issue pipeline *key* with a condition unit?"""
    for op in ops:
        kind = op[0]
        if kind == _S_ISSUE:
            kernel = plan.kernels[op[1]]
            if kernel.consts.number == key and kernel.condition is not None:
                return True
        elif kind == _S_REPEAT:
            if _body_watches(plan, op[2], key):
                return True
    return False


def _scan_ops(plan: ProgramPlan, ops: Tuple[Tuple, ...],
              in_loop: bool) -> Optional[str]:
    for op in ops:
        kind = op[0]
        if kind == _S_BAD_ISSUE:
            return "invalid pipeline issue in script"
        if kind == _S_HALT and in_loop:
            return "Halt inside LoopUntil body"
        if kind == _S_REPEAT:
            reason = _scan_ops(plan, op[2], in_loop)
            if reason:
                return reason
        elif kind == _S_LOOP:
            if in_loop:
                return "nested LoopUntil"
            body, key = op[1], op[2]
            if not _body_watches(plan, body, key):
                return f"loop watch pipeline {key} raises no condition"
            reason = _scan_ops(plan, body, True)
            if reason:
                return reason
    return None


def check_batchable(plan: ProgramPlan) -> None:
    """Raise :class:`FusionUnsupported` unless *plan* can run as a slab.

    A single-machine run of a declined script either works fine
    (``keep_outputs``) or faults with machine state committed up to the
    fault point — which only a single machine models, so the slab
    declines it up front.  The verdict is memoized on the (cached,
    shared) plan.
    """
    if plan.keep_outputs:
        raise FusionUnsupported("keep_outputs capture in batch slab")
    verdict = plan.__dict__.get("_batchable")
    if verdict is None:
        verdict = _scan_ops(plan, plan.ops, False) or ""
        plan.__dict__["_batchable"] = verdict
    if verdict:
        raise FusionUnsupported(verdict)


def machine_bindings(plan: ProgramPlan,
                     machine: "NSCMachine") -> Tuple[Dict[str, Any], Any]:
    """Validate *machine* against *plan*; return (variables, armed set).

    No interrupt handlers (they observe delivery order mid-run, which
    only the stepped reference models), nothing pending (it would
    interleave with the replay), and every managed variable still at its
    compiled home.  Arm/disarm is host-driven, so the armed set is
    constant for the whole run and the commit replay folds it in.
    """
    irq_config = machine.interrupts.configuration()
    if irq_config.handler_kinds:
        raise FusionUnsupported("interrupt handlers registered")
    if irq_config.pending:
        raise FusionUnsupported("interrupts already pending")
    variables: Dict[str, Any] = {}
    for name, (plane, offset) in plan.var_homes.items():
        var = machine.memory.variables.get(name)
        if var is None or var.plane != plane or var.offset != offset \
                or var.length != plan.var_lengths[name]:
            raise FusionUnsupported(f"variable {name!r} relocated")
        variables[name] = var
    return variables, irq_config.armed


def stacked_template_storage(plan: ProgramPlan, machine: "NSCMachine",
                             n_jobs: int) -> _Storage:
    """Stacked storage with every row a copy of *machine*'s pulled state.

    The slab executor loads ONE template machine and broadcasts its
    planes; per-job operand rows (a seeded ``u0``) are then overwritten
    in place, so N-1 machine constructions and input loads disappear.
    """
    storage = _Storage()
    for plane, extent in plan.plane_extent.items():
        row = machine.memory.plane(plane).read(0, extent)
        arr = np.empty((n_jobs,) + row.shape, dtype=row.dtype)
        arr[...] = row
        storage.planes[plane] = arr
    for cache, extent in plan.cache_extent.items():
        for role, source in (("cache_front", machine.caches[cache].front),
                             ("cache_back", machine.caches[cache].back)):
            row = source[:extent]
            arr = np.empty((n_jobs,) + row.shape, dtype=row.dtype)
            arr[...] = row
            getattr(storage, role)[cache] = arr
    return storage


def delivered_count(irq_log: Sequence[IrqEntry], armed: Any) -> int:
    """Interrupts a drain-terminated run delivers for this issue log.

    Batch slabs decline on any FP exception, so entries carry no
    exception tags; each issue posts one completion and at most one
    condition interrupt, and every armed post is delivered by the final
    controller drain.  Lets the machine-less slab executor report
    ``interrupts_delivered`` without replaying the heap.
    """
    complete_armed = InterruptKind.PIPELINE_COMPLETE in armed
    true_armed = InterruptKind.CONDITION_TRUE in armed
    false_armed = InterruptKind.CONDITION_FALSE in armed
    count = 0
    for entry in irq_log:
        cond_result = entry[3]
        if complete_armed:
            count += 1
        if cond_result is not None and (
            true_armed if cond_result else false_armed
        ):
            count += 1
    return count


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class BatchProgramRun:
    """Executes one :class:`ProgramPlan` over N jobs (N == 1: one machine).

    ``storage`` arrives pulled and with ``storage.variables`` bound: a
    slab's arrays carry a leading ``(n_jobs,)`` axis (see
    :func:`stacked_template_storage`), a single job's do not.  Nothing
    outside it is touched — committing rows back to machines (or
    synthesizing records without machines) is the caller's job.
    """

    MAX_TRACE = 100_000  # mirrors Sequencer.MAX_TRACE

    def __init__(self, plan: ProgramPlan, storage: _Storage, n_jobs: int,
                 max_instructions: int) -> None:
        self.single = n_jobs == 1
        if not self.single:
            check_batchable(plan)
        self.plan = plan
        self.storage = storage
        self.n_jobs = n_jobs
        self.max_instructions = max_instructions
        batch_shape: Tuple[int, ...] = () if self.single else (n_jobs,)
        self.bound = {
            index: kernel.bind(storage, batch_shape)
            for index, kernel in plan.kernels.items()
        }
        self.results = [SequencerResult() for _ in range(n_jobs)]
        self.cycles = [0] * n_jobs
        self.halted = False
        # per pipeline number: the last issue's per-job condition results
        # (None when that image raises no condition)
        self.last_cond: Dict[int, Optional[Sequence[Any]]] = {}
        # everything the commit replay needs to repeat the reference's
        # exact post/deliver sequence, one entry per issue
        self.irq_logs: List[List[IrqEntry]] = [[] for _ in range(n_jobs)]
        self.transfers = [0] * n_jobs
        self.words_read = [0] * n_jobs
        self.words_written = [0] * n_jobs
        self.busy_cycles = [0] * n_jobs
        self.issue_counts: List[Dict[int, int]] = [{} for _ in range(n_jobs)]
        self.cache_swap_counts: List[Dict[int, int]] = [
            {} for _ in range(n_jobs)
        ]
        self.last_device_busy: List[Optional[Tuple]] = [None] * n_jobs
        self._swap_cache: Dict[Tuple[str, str], Tuple] = {}

    def row(self, arr: np.ndarray, j: int) -> np.ndarray:
        """Job *j*'s view of one storage array."""
        return arr if self.single else arr[j]

    # ------------------------------------------------------------------
    def run(self) -> List[SequencerResult]:
        """Execute the schedule; finalize per-job statistics.

        Per the commit-point contract, *nothing* outside the local
        storage mutates.  A single job's reference-visible fault
        (budget exhaustion, a bad relocation) finalizes its statistics
        and propagates for the caller to commit.  A slab wraps the same
        faults as :class:`FusionUnsupported`: they commit state per job,
        which only single-machine runs model, so the fallback reproduces
        them exactly.
        """
        from repro.sim.machine import MachineError

        try:
            self._exec_block(self.plan.ops, list(range(self.n_jobs)))
        except (SequencerError, MachineError) as exc:
            if not self.single:
                raise FusionUnsupported(f"batch slab fault: {exc}") from exc
            self._finalize()
            raise
        self._finalize()
        return self.results

    # ------------------------------------------------------------------
    def _exec_block(self, ops: Tuple[Tuple, ...], active: List[int]) -> None:
        for op in ops:
            if self.halted:
                return
            kind = op[0]
            if kind == _S_ISSUE:
                self._issue(op[1], active)
            elif kind == _S_REPEAT:
                _k, times, body = op
                for _ in range(times):
                    if self.halted:
                        return
                    self._exec_block(body, active)
            elif kind == _S_LOOP:
                self._loop_until(op, active)
            elif kind == _S_SWAP:
                self._swap_vars(op[1], op[2], active)
            elif kind == _S_CACHESWAP:
                self.storage.swap_caches(op[1])
                for j in active:
                    counts = self.cache_swap_counts[j]
                    for cache_id in op[1]:
                        counts[cache_id] = counts.get(cache_id, 0) + 1
                    self.cycles[j] += 1
            elif kind == _S_HALT:
                self.halted = True
                for result in self.results:
                    result.halted = True
                return
            else:  # _S_BAD_ISSUE (slabs decline these up front)
                self._check_budget(active)
                raise SequencerError(f"no pipeline {op[1]} in this program")

    def _check_budget(self, active: List[int]) -> None:
        for j in active:
            if self.results[j].instructions_issued >= self.max_instructions:
                raise SequencerError(
                    f"instruction budget of {self.max_instructions} "
                    f"exhausted (runaway loop?)"
                )

    def _issue(self, index: int, active: List[int]) -> None:
        self._check_budget(active)
        bound = self.bound[index]
        kernel = bound.kernel
        consts = kernel.consts
        exceptions: List[str] = []
        if not bound.issue_compute():
            if not self.single:
                # the finiteness screen is fused over the whole slab; only
                # a single-machine run can attribute flags to the right job
                raise FusionUnsupported("non-finite values in batch slab")
            # exception interrupts are *logged* here and posted by the
            # commit replay: no machine state moves before the commit point
            exceptions = bound.issue_exact()
            bound.write_back_exact()
        cond_last = bound.condition_last()
        vals: Any = None
        conds: Any = None
        if cond_last is not None:
            if self.single:
                vals = (float(cond_last),)
                conds = (kernel.cond_fn(vals[0], kernel.cond_threshold),)
            else:
                vals = np.asarray(cond_last, dtype=float)
                conds = kernel.cond_fn(vals, kernel.cond_threshold)
        self.last_cond[consts.number] = conds
        fu_outputs = bound.capture_outputs() if self.plan.keep_outputs else {}
        tags = tuple(exceptions)
        template = kernel.result_template
        issue_cycles = consts.cycles
        source = consts.source
        device_busy = consts.device_busy
        for j in active:
            start = self.cycles[j]
            fire = start + issue_cycles
            self.cycles[j] = fire
            record = PipelineResult.__new__(PipelineResult)
            record.__dict__.update(template)
            if conds is None:
                cond_result: Optional[bool] = None
                cond_value: Optional[float] = None
                payload = 0.0
            else:
                cond_result = bool(conds[j])
                cond_value = payload = float(vals[j])
            record.condition_result = cond_result
            record.condition_value = cond_value
            record.exceptions = list(exceptions)
            record.fu_outputs = dict(fu_outputs)
            result = self.results[j]
            result.pipeline_results.append(record)
            result.instructions_issued += 1
            if len(result.issue_trace) < self.MAX_TRACE:
                result.issue_trace.append(index)
            self.irq_logs[j].append(
                (start, fire, source, cond_result, payload, tags)
            )
            counts = self.issue_counts[j]
            counts[index] = counts.get(index, 0) + 1
            self.last_device_busy[j] = device_busy

    # ------------------------------------------------------------------
    def _snapshot_row(self, j: int) -> Tuple[Dict, Dict, Dict]:
        """Job *j*'s state by **logical** plane id / cache role.

        Later whole-plane swaps exchange dict *values* and cache swaps
        exchange front/back roles for every row at once; restoring by
        logical key writes the frozen content back into whatever array
        holds that role at loop exit, so swap parity between freeze and
        exit cannot skew a frozen job.
        """
        storage = self.storage
        return (
            {p: arr[j].copy() for p, arr in storage.planes.items()},
            {c: arr[j].copy() for c, arr in storage.cache_front.items()},
            {c: arr[j].copy() for c, arr in storage.cache_back.items()},
        )

    def _restore_row(self, j: int, snap: Tuple[Dict, Dict, Dict]) -> None:
        storage = self.storage
        planes, front, back = snap
        for p, row in planes.items():
            storage.planes[p][j] = row
        for c, row in front.items():
            storage.cache_front[c][j] = row
        for c, row in back.items():
            storage.cache_back[c][j] = row

    def _loop_until(self, op: Tuple, active: List[int]) -> None:
        _k, body, key, max_iterations = op
        # slabs enter loops in lockstep (divergence exists only inside a
        # loop and is healed at its exit), so *active* is the full slab
        live = list(active)
        iterations = 0
        it_counts: Dict[int, int] = {}
        converged = dict.fromkeys(active, False)
        snapshots: Dict[int, Tuple[Dict, Dict, Dict]] = {}
        last_cond = self.last_cond
        while live and iterations < max_iterations:
            self._exec_block(body, live)
            iterations += 1
            if self.halted:
                break
            if key not in last_cond:
                raise SequencerError(
                    f"LoopUntil watches pipeline {key}, which never "
                    f"executed in the loop body"
                )
            conds = last_cond[key]
            if conds is None:
                raise SequencerError(
                    f"pipeline {key} raised no condition interrupt"
                )
            fired = [j for j in live if conds[j]]
            if fired:
                live = [j for j in live if not conds[j]]
                for j in fired:
                    converged[j] = True
                    it_counts[j] = iterations
                    if live:
                        # freeze: the post-swap, post-check state IS this
                        # job's loop-exit state; park it until the loop ends
                        snapshots[j] = self._snapshot_row(j)
        for j, snap in snapshots.items():
            self._restore_row(j, snap)
        for j in live:
            it_counts[j] = iterations
        for j in active:
            result = self.results[j]
            result.loop_iterations[key] = (
                result.loop_iterations.get(key, 0) + it_counts[j]
            )
            result.converged = converged[j]

    # ------------------------------------------------------------------
    def _swap_vars(self, a: str, b: str, active: List[int]) -> None:
        # mirrors NSCMachine.swap_vars: contents move, bindings stay.  The
        # physical exchange covers every row (frozen rows are healed by
        # their snapshot restore); the charges land on active jobs only
        entry = self._swap_cache.get((a, b))
        if entry is None:
            va = self.storage.variables[a]
            vb = self.storage.variables[b]
            if va.length != vb.length:
                from repro.sim.machine import MachineError

                raise MachineError(
                    f"cannot swap {a!r} ({va.length} words) with {b!r} "
                    f"({vb.length} words)"
                )
            params = self.plan.params
            cost = params.dma_startup_cycles + params.memory_latency + va.length
            if va.plane == vb.plane:
                cost += va.length
            extents = self.plan.plane_extent
            if (
                va.plane != vb.plane
                and va.offset == 0 and vb.offset == 0
                and extents.get(va.plane) == va.length
                and extents.get(vb.plane) == vb.length
            ):
                # each variable owns its pulled plane outright: swapping
                # contents is just swapping the plane array references
                entry = (va.plane, vb.plane, None, cost, 2 * va.length)
            else:
                shape = self.storage.planes[va.plane][
                    ..., va.offset : va.end
                ].shape
                entry = (va, vb, np.empty(shape), cost, 2 * va.length)
            self._swap_cache[(a, b)] = entry
        va, vb, scratch, cost, words = entry
        if scratch is None:
            self.storage.swap_whole_planes(va, vb)
        else:
            self.storage.swap_var_contents(va, vb, scratch)
        for j in active:
            self.cycles[j] += cost
            self.transfers[j] += 2
            self.words_read[j] += words
            self.words_written[j] += words

    # ------------------------------------------------------------------
    def _finalize(self) -> None:
        """Fold per-issue-constant DMA charges into each job's totals."""
        kernels = self.plan.kernels
        for j in range(self.n_jobs):
            for index, count in self.issue_counts[j].items():
                consts = kernels[index].consts
                self.transfers[j] += consts.transfers * count
                self.words_read[j] += consts.words_read * count
                self.words_written[j] += consts.words_written * count
                self.busy_cycles[j] += consts.busy_cycles * count
            self.results[j].total_cycles = self.cycles[j]


# ----------------------------------------------------------------------
# machine-facing adapter and commit point
# ----------------------------------------------------------------------
def replay_interrupts(machine: "NSCMachine", irq_log: Sequence[IrqEntry],
                      armed: Any) -> None:
    """Replay one job's interrupt log through the machine's controller.

    Per issue, FP exceptions post at the issue-start cycle, completion
    and condition at the fire cycle, and delivery drains everything due
    — the reference's exact post/deliver sequence through the same heap.
    The armed set routes each post to the queue or to ``dropped`` exactly
    as ``InterruptController.post`` would, so arm/disarm variations
    replay bit-identically.  Equal-cycle orderings fall out of heapq's
    mechanics, so only an identical operation sequence reproduces them
    (the frozen-dataclass ``__init__`` is bypassed for speed; the
    instances are bit-identical).
    """
    irq = machine.interrupts
    latency = irq.latency_cycles
    delivered = irq.delivered
    dropped = irq.dropped
    queue = irq._queue
    heappush = heapq.heappush
    heappop = heapq.heappop
    new_interrupt = Interrupt.__new__
    complete_kind = InterruptKind.PIPELINE_COMPLETE
    overflow_kind = InterruptKind.FP_OVERFLOW
    invalid_kind = InterruptKind.FP_INVALID
    for start, fire, source, cond_result, payload, exceptions in irq_log:
        for tag in exceptions:
            fu_source, flag = tag.split(":", 1)
            kind = overflow_kind if flag == "overflow" else invalid_kind
            exc = new_interrupt(Interrupt)
            exc.__dict__.update(
                cycle=start + latency, kind=kind, source=fu_source,
                payload=0.0,
            )
            if kind in armed:
                heappush(queue, exc)
            else:
                dropped.append(exc)
        when = fire + latency
        complete = new_interrupt(Interrupt)
        complete.__dict__.update(
            cycle=when, kind=complete_kind, source=source, payload=0.0
        )
        if complete_kind in armed:
            heappush(queue, complete)
        else:
            dropped.append(complete)
        if cond_result is not None:
            cond_kind = (
                InterruptKind.CONDITION_TRUE
                if cond_result
                else InterruptKind.CONDITION_FALSE
            )
            condition = new_interrupt(Interrupt)
            condition.__dict__.update(
                cycle=when, kind=cond_kind, source=source, payload=payload
            )
            if cond_kind in armed:
                heappush(queue, condition)
            else:
                dropped.append(condition)
        while queue and queue[0].cycle <= fire:
            delivered.append(heappop(queue))


def _commit(run: BatchProgramRun, machines: Sequence["NSCMachine"],
            armed_sets: Sequence[Any]) -> None:
    """Write each job's local state, statistics, and interrupt log back
    to its machine — exactly what a step-by-step run leaves behind."""
    storage = run.storage
    for j, machine in enumerate(machines):
        for plane, arr in storage.planes.items():
            machine.memory.plane(plane).write(0, run.row(arr, j))
        for cache_id, swaps in run.cache_swap_counts[j].items():
            for _ in range(swaps):
                machine.caches[cache_id].swap()
        for cache_id, arr in storage.cache_front.items():
            machine.caches[cache_id].front[: arr.shape[-1]] = run.row(arr, j)
        for cache_id, arr in storage.cache_back.items():
            machine.caches[cache_id].back[: arr.shape[-1]] = run.row(arr, j)
        stats = machine.dma.stats
        stats.transfers += run.transfers[j]
        stats.words_read += run.words_read[j]
        stats.words_written += run.words_written[j]
        stats.busy_cycles += run.busy_cycles[j]
        if run.last_device_busy[j] is not None:
            machine.dma.device_busy = dict(run.last_device_busy[j])
        machine.cycle = run.cycles[j]
        replay_interrupts(machine, run.irq_logs[j], armed_sets[j])


def try_run_batch_fused(
    machines: Sequence["NSCMachine"],
    program: MachineProgram,
    max_instructions: int = 1_000_000,
    keep_outputs: bool = False,
) -> Optional[List[SequencerResult]]:
    """Run *program* over *machines* through the fused engine, or return None.

    One machine runs as a slab of one (see
    :func:`repro.sim.progplan.try_run_fused`); several run as one
    stacked slab.  None means "not fusable here" — the caller runs each
    machine through the reference interpreter instead — and the decline's
    reason lands in the active tracer.  State is committed per machine
    only after the run ends, so a decline (even mid-run) leaves every
    machine pristine for the fallback.
    """
    try:
        return _run_fused(machines, program, max_instructions, keep_outputs)
    except FusionUnsupported as exc:
        # tier telemetry: record *why* the compiled engine stood down —
        # the caller's fallback is otherwise invisible in the records
        prefix, scope = (
            ("fusion", "program") if len(machines) == 1
            else ("batch_fusion", "batch")
        )
        obs.count(f"{prefix}.fallback")
        obs.annotate("fallback_reason", str(exc))
        obs.event(f"{prefix}_fallback", scope=scope, reason=str(exc))
        return None


def _run_fused(
    machines: Sequence["NSCMachine"],
    program: MachineProgram,
    max_instructions: int,
    keep_outputs: bool,
) -> List[SequencerResult]:
    from repro.sim.machine import MachineError

    if not machines:
        raise FusionUnsupported("empty slab")
    params = machines[0].node.params
    for machine in machines:
        if getattr(machine, "backend", "reference") != "fast":
            raise FusionUnsupported("fused engine requires the fast backend")
        if machine.node.params != params:
            raise FusionUnsupported("mixed node parameters in slab")
    plan = compiled_plan(program, params, keep_outputs=keep_outputs)
    bindings = [machine_bindings(plan, machine) for machine in machines]
    armed_sets = [armed for _variables, armed in bindings]

    def stack(rows: List[np.ndarray]) -> np.ndarray:
        # rows are private copies; one machine keeps batch shape ()
        return rows[0] if len(rows) == 1 else np.stack(rows)

    storage = _Storage()
    for plane, extent in plan.plane_extent.items():
        storage.planes[plane] = stack(
            [m.memory.plane(plane).read(0, extent) for m in machines]
        )
    for cache, extent in plan.cache_extent.items():
        storage.cache_front[cache] = stack(
            [m.caches[cache].front[:extent].copy() for m in machines]
        )
        storage.cache_back[cache] = stack(
            [m.caches[cache].back[:extent].copy() for m in machines]
        )
    storage.variables = bindings[0][0]

    run = BatchProgramRun(plan, storage, len(machines), max_instructions)
    try:
        results = run.run()
    except (SequencerError, MachineError):
        # only a single machine surfaces these: commit state up to the
        # fault point, as a step-by-step run would have left it
        _commit(run, machines, armed_sets)
        raise
    _commit(run, machines, armed_sets)
    for machine in machines:
        machine.interrupts.drain()
    return results


__all__ = [
    "BatchProgramRun",
    "check_batchable",
    "delivered_count",
    "machine_bindings",
    "replay_interrupts",
    "stacked_template_storage",
    "try_run_batch_fused",
]
