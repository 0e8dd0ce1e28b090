"""The fused engine: one compiled plan run over a stack of N rows.

The whole-program compiler (:mod:`repro.sim.progplan`) collapses a
control script into a schedule of bound images; this module walks it.
Every run binds stacked storage: N same-program, same-shape jobs stack
their operand grids along a leading batch axis, a single machine is a
one-row stack, and a single :class:`~repro.sim.progplan.BoundImage`
issue sweeps the entire stack.  The storage is built zeroed from the
plan's own variable layout (:func:`~repro.sim.progplan.stacked_storage`,
no machine behind it): a service slab fills it through the solver
loaders (a saved program runs on it zeroed, as a freshly loaded machine
holds it), :func:`try_run_fused` pulls one machine's row into it, and a
hypercube scatters its grids into it.  The generated ufunc
kernels are shared by every stack height (the runner code objects are
cached on the :class:`ImageKernel`).  A hypercube of N nodes is the
same stack, one row per node:
:class:`~repro.sim.multinode.MultiNodeStencil` drives its sweeps step by
step through :meth:`BatchProgramRun.issue` and the engine's swaps (see :func:`repro.sim.progplan.fused_stepper`).

Per-job divergence exists in exactly one place: ``LoopUntil`` iteration
counts.  The condition unit's final stream element is per-row, so
convergence becomes a boolean mask over the slab.  A job whose
condition fires *freezes*: its row snapshot (taken by **logical**
plane/cache role, so later whole-plane reference swaps cannot skew it)
is restored at loop exit, its counters stop, and the stragglers keep
iterating.  Everything else — cycle counts, DMA charges, the interrupt
log — is per-issue-constant, so the run logs each issue once per slab
(kernel index, per-row condition values, active rows) and folds one
job's share out of that log only when asked: totals for a machine-less
slab record, the full :class:`SequencerResult` and interrupt stream for
a machine commit.  Slab results are bit-identical to N single-machine
runs.

Commit point: a run mutates only its local storage, and
:func:`try_run_fused` commits to its one machine once it ends.  A
:class:`FusionUnsupported` surfacing at any point — a kernel declining,
a relocated variable, a mid-run rejection — leaves the machine
pristine, and the caller falls back to the reference interpreter.

A lone job with a fallback (one row, ``fallback=True``) is an *exact*
run with the reference's fault semantics: a non-finite value takes the
exact per-FU path with its FP exceptions logged, a reference-visible
fault (:class:`SequencerError`, a host ``MachineError``) propagates as
is — a machine commits its state up to the fault and re-raises, as a
step-by-step run would — and ``keep_outputs``, ``Halt`` inside a
``LoopUntil`` and nested loops all run.

Every other run — a slab of two or more, or a hypercube — declines
statically (before touching any state) on ``keep_outputs`` plans,
invalid issues, ``Halt`` inside a loop body, nested ``LoopUntil``, or a
loop body that never issues its watched condition pipeline; a slab's
reference-visible faults are wrapped as :class:`FusionUnsupported`, so
the per-job fallback reproduces them.  A slab also declines on any
non-finite value (one fused screen covers every row, so one job's
overflow would be undetectable to per-row accounting).  A hypercube has
no per-node fallback — its stack is the only copy of the state — so a
non-finite issue takes the exact path instead, with values
bit-identical to the reference and no FP interrupts logged (the fused
screen cannot attribute a flag to a node), even with one node.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING,
)

from repro.arch.interrupts import Interrupt, InterruptKind
from repro.codegen.generator import MachineProgram
from repro.obs import tracer as obs
from repro.sim.pipeline_exec import PipelineResult
from repro.sim.progplan import (
    FusionUnsupported,
    ImageKernel,
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
    stacked_storage,
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

    An exact (one-job) run of a declined script either works fine
    (``keep_outputs``) or faults with machine state committed up to the
    fault point — which only a one-job run models, so the slab declines
    it up front.  The verdict is memoized on the (cached, shared) plan.
    """
    if plan.keep_outputs:
        raise FusionUnsupported("keep_outputs capture in batch slab")
    verdict = plan.__dict__.get("_batchable")
    if verdict is None:
        verdict = _scan_ops(plan, plan.ops, False) or ""
        plan.__dict__["_batchable"] = verdict
    if verdict:
        raise FusionUnsupported(verdict)


def machine_bindings(plan: ProgramPlan, machine: "NSCMachine") -> Any:
    """Validate *machine* against *plan*; return its armed set.

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
    held = machine.memory.variables
    for name, home in plan.variables.items():
        var = held.get(name)
        if var is None or var.plane != home.plane \
                or var.offset != home.offset or var.length != home.length:
            raise FusionUnsupported(f"variable {name!r} relocated")
    return irq_config.armed


def _read_row(machine: "NSCMachine", storage: _Storage, j: int) -> None:
    """Pull *machine*'s planes and cache buffers into row *j* of
    *storage* — :func:`write_back`'s inverse."""
    for plane, arr in storage.planes.items():
        arr[j] = machine.memory.plane(plane).read(0, arr.shape[-1])
    for cache_id, arr in storage.cache_front.items():
        arr[j] = machine.caches[cache_id].front[: arr.shape[-1]]
    for cache_id, arr in storage.cache_back.items():
        arr[j] = machine.caches[cache_id].back[: arr.shape[-1]]


@dataclass
class JobRun:
    """One job's share of a slab run, folded from the slab's issue log.

    The totals are always filled; ``result`` (the job's
    :class:`SequencerResult`) and ``irq_log`` (what the commit replay
    posts) only when :meth:`BatchProgramRun.job` is asked for records.
    """

    cycles: int = 0
    instructions: int = 0
    flops: int = 0
    active_fu_cycles: int = 0
    transfers: int = 0
    words_read: int = 0
    words_written: int = 0
    busy_cycles: int = 0
    conditions_true: int = 0
    conditions_false: int = 0
    overflows: int = 0
    invalids: int = 0
    device_busy: Optional[Tuple] = None
    cache_swaps: Dict[int, int] = field(default_factory=dict)
    result: Optional[SequencerResult] = None
    irq_log: Optional[List[IrqEntry]] = None

    def charge(self, issues: Iterable[Tuple[ImageKernel, int]],
               swaps: int, swap_words: int) -> None:
        """Add the per-issue-constant charges of *issues* (kernel, issue
        count) and of *swaps* ``SwapVars`` moving *swap_words* words —
        as ``NSCMachine.swap_vars`` charges, two transfers each."""
        self.transfers += 2 * swaps
        self.words_read += swap_words
        self.words_written += swap_words
        for kernel, count in issues:
            consts = kernel.consts
            self.instructions += count
            self.flops += consts.flops * count
            self.active_fu_cycles += (
                consts.active_fus * consts.vector_length * count
            )
            self.transfers += consts.transfers * count
            self.words_read += consts.words_read * count
            self.words_written += consts.words_written * count
            self.busy_cycles += consts.busy_cycles * count

    def interrupts_delivered(self, armed: Any) -> int:
        """Interrupts a drain-terminated run of this job delivers.

        Each issue posts one completion, at most one condition interrupt
        and the FP exceptions an exact run logged (slabs decline on
        any), and every armed post is delivered by the final controller
        drain.  Lets the machine-less slab executor report
        ``interrupts_delivered`` without replaying the heap.
        """
        return sum(posts for kind, posts in (
            (InterruptKind.PIPELINE_COMPLETE, self.instructions),
            (InterruptKind.CONDITION_TRUE, self.conditions_true),
            (InterruptKind.CONDITION_FALSE, self.conditions_false),
            (InterruptKind.FP_OVERFLOW, self.overflows),
            (InterruptKind.FP_INVALID, self.invalids),
        ) if kind in armed)


# issue-log entry kinds besides issues (which log their kernel index)
_LOG_SWAP = -1
_LOG_CACHESWAP = -2


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class BatchProgramRun:
    """Executes one :class:`ProgramPlan` over N jobs (N == 1: one machine).

    ``storage`` arrives filled and with ``storage.variables`` bound, its
    arrays carrying a leading ``(n_jobs,)`` axis (see
    :func:`~repro.sim.progplan.stacked_storage`).  Nothing outside it is
    touched — committing rows back to machines (or synthesizing records
    without machines) is the caller's job.  One job with ``fallback`` runs
    exact; anything else declines where a slab declines.

    ``fallback=False`` marks rows with no per-job fallback: a
    hypercube's nodes.  A non-finite issue runs exact instead of
    declining, and no run of them is exact, even one node.

    Accounting is one log for the whole slab, appended once per step:
    ``(kernel index, per-row condition values, per-row condition
    results, active rows)`` per issue, and the charges of each
    ``SwapVars`` / ``CacheSwap`` with the rows they land on (``None``:
    every row).  :meth:`job` folds one job's totals — and, on request,
    its :class:`SequencerResult` and interrupt log — out of it.
    """

    MAX_TRACE = 100_000  # mirrors Sequencer.MAX_TRACE

    def __init__(self, plan: ProgramPlan, storage: _Storage, n_jobs: int,
                 max_instructions: int, fallback: bool = True) -> None:
        # a lone job with a fallback owns every flag and fault the run
        # raises, so it runs exact where a slab declines
        self.exact = n_jobs == 1 and fallback
        self.fallback = fallback
        if not self.exact:
            check_batchable(plan)
        self.plan = plan
        self.keep_outputs = plan.keep_outputs
        self.storage = storage
        self.n_jobs = n_jobs
        self.max_instructions = max_instructions
        storage.forget_arrangements()
        self.bound = {
            index: kernel.bind(storage, (n_jobs,))
            for index, kernel in plan.kernels.items()
        }
        self.log: List[Tuple[int, Any, Any, Optional[Tuple[int, ...]]]] = []
        # exact runs only (slabs decline both): log position ->
        # (FP exception tags, captured per-FU outputs)
        self.extras: Dict[int, Tuple[Tuple[str, ...], Optional[Dict]]] = {}
        self.issued = 0
        self.halted = False
        self.loop_iterations: List[Dict[int, int]] = [
            {} for _ in range(n_jobs)
        ]
        self.converged: List[Optional[bool]] = [None] * n_jobs
        # per pipeline number: the last issue's per-job condition results
        # (None when that image raises no condition)
        self.last_cond: Dict[int, Optional[Sequence[Any]]] = {}
        self._swap_cache: Dict[Tuple[str, str], Tuple] = {}

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Execute the schedule, logging it; :meth:`job` reads the log.

        Per the commit-point contract, *nothing* outside the local
        storage mutates.  An exact run's reference-visible fault (budget
        exhaustion, a bad relocation) propagates for the caller to
        commit the log up to the fault.  A slab wraps the same faults as
        :class:`FusionUnsupported`: they commit state per job, which
        only one-job runs model, so the fallback reproduces them
        exactly.
        """
        from repro.sim.machine import MachineError

        try:
            self._exec_block(self.plan.ops, None)
        except (SequencerError, MachineError) as exc:
            if not self.exact:
                raise FusionUnsupported(f"batch slab fault: {exc}") from exc
            raise

    # ------------------------------------------------------------------
    def _exec_block(self, ops: Tuple[Tuple, ...],
                    active: Optional[Tuple[int, ...]]) -> None:
        for op in ops:
            if self.halted:
                return
            kind = op[0]
            if kind == _S_ISSUE:
                self.issue(op[1], active)
            elif kind == _S_REPEAT:
                _k, times, body = op
                for _ in range(times):
                    if self.halted:
                        return
                    self._exec_block(body, active)
            elif kind == _S_LOOP:
                self._loop_until(op, active)
            elif kind == _S_SWAP:
                self.swap_vars(op[1], op[2], active)
            elif kind == _S_CACHESWAP:
                self.swap_caches(op[1], active)
            elif kind == _S_HALT:
                self.halted = True
                return
            else:  # _S_BAD_ISSUE (slabs decline these up front)
                self._check_budget()
                raise SequencerError(f"no pipeline {op[1]} in this program")

    def _check_budget(self) -> None:
        # exact for one job; for a slab the slab's issue count bounds
        # every member's, and a fault declines the slab anyway
        if self.issued >= self.max_instructions:
            raise SequencerError(
                f"instruction budget of {self.max_instructions} "
                f"exhausted (runaway loop?)"
            )

    def issue(self, index: int,
              active: Optional[Tuple[int, ...]] = None) -> Any:
        """Issue pipeline *index* on the *active* rows (None: all) and
        log it; returns the logged per-row condition values (None when
        the image raises no condition)."""
        if self.issued >= self.max_instructions:
            self._check_budget()
        bound = self.bound[index]
        kernel = bound.kernel
        tags: Tuple[str, ...] = ()
        if not bound.issue_compute():
            # the finiteness screen is fused over the whole stack; only a
            # lone job's flags are attributable to it
            if self.fallback and not self.exact:
                raise FusionUnsupported("non-finite values in batch slab")
            flags = bound.issue_exact()
            if self.exact:
                # exception interrupts are *logged* here and posted by the
                # commit replay: no machine state moves before the commit
                tags = tuple(flags)
        # a fresh list of floats per issue (the condition row is
        # overwritten next issue), compared float by float
        vals = bound.condition_last()
        conds: Any = None
        if vals is not None:
            cond_fn, threshold = kernel.cond_fn, kernel.cond_threshold
            if self.n_jobs == 1:
                conds = [cond_fn(vals[0], threshold)]
            else:
                conds = [cond_fn(value, threshold) for value in vals]
        self.last_cond[kernel.consts.number] = conds
        if tags or self.keep_outputs:
            outputs = bound.capture_outputs() if self.keep_outputs else None
            self.extras[len(self.log)] = (tags, outputs)
        self.log.append((index, vals, conds, active))
        self.issued += 1
        return vals

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

    def _loop_until(self, op: Tuple,
                    active: Optional[Tuple[int, ...]]) -> None:
        _k, body, key, max_iterations = op
        # slabs enter loops in lockstep (divergence exists only inside a
        # loop and is healed at its exit), so *active* is the full slab
        members = tuple(range(self.n_jobs)) if active is None else active
        live = active
        iterations = 0
        it_counts: Dict[int, int] = {}
        converged = dict.fromkeys(members, False)
        snapshots: Dict[int, Tuple[Dict, Dict, Dict]] = {}
        last_cond = self.last_cond
        while (live is None or live) and iterations < max_iterations:
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
            if live is None:
                if True not in conds:  # nothing fired: no row to freeze
                    continue
                running = members
            else:
                running = live
            fired = [j for j in running if conds[j]]
            if fired:
                live = tuple(j for j in running if not conds[j])
                for j in fired:
                    converged[j] = True
                    it_counts[j] = iterations
                    if live:
                        # freeze: the post-swap, post-check state IS this
                        # job's loop-exit state; park it until the loop ends
                        snapshots[j] = self._snapshot_row(j)
        for j, snap in snapshots.items():
            self._restore_row(j, snap)
        for j in members:
            counts = self.loop_iterations[j]
            counts[key] = counts.get(key, 0) + it_counts.get(j, iterations)
            self.converged[j] = converged[j]

    # ------------------------------------------------------------------
    def swap_caches(self, cache_ids: Tuple[int, ...],
                    active: Optional[Tuple[int, ...]] = None) -> None:
        """``CacheSwap`` on the local state, logged."""
        self.storage.swap_caches(cache_ids)
        self.log.append((_LOG_CACHESWAP, cache_ids, None, active))

    def swap_vars(self, a: str, b: str,
                  active: Optional[Tuple[int, ...]] = None) -> None:
        """``SwapVars`` on the local state, logged."""
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
            charge = (cost, 2 * va.length)
            # the swapper, and the log entry of a swap on every row
            entry = (self.storage.var_swapper(va, vb),
                     (_LOG_SWAP, charge, None, None))
            self._swap_cache[(a, b)] = entry
        swap, logged = entry
        swap()
        self.log.append(logged if active is None
                        else (_LOG_SWAP, logged[1], None, active))

    # ------------------------------------------------------------------
    def job(self, j: int, records: bool = False) -> JobRun:
        """Fold job *j*'s share of the log: totals, and with *records*
        its :class:`SequencerResult` and commit-replay interrupt log."""
        kernels = self.plan.kernels
        cycles_of = {index: kernel.consts.cycles
                     for index, kernel in kernels.items()}
        extras = self.extras
        no_extras: Tuple[Tuple[str, ...], Any] = ((), None)
        # static fields of every PipelineResult an image produces; the
        # fold fills the per-issue ones on a __new__ instance
        templates: Dict[int, Dict[str, Any]] = {}
        if records:
            for index, kernel in kernels.items():
                c = kernel.consts
                templates[index] = {
                    "number": c.number, "cycles": c.cycles,
                    "compute_cycles": c.compute_cycles,
                    "dma_cycles": c.dma_cycles, "flops": c.flops,
                    "vector_length": c.vector_length,
                    "active_fus": c.active_fus,
                }
        out = JobRun()
        cache_swaps = out.cache_swaps
        cycles = trues = swaps = swapped_words = 0
        trace: List[int] = []
        pipeline_results: List[PipelineResult] = []
        irq_log: List[IrqEntry] = []
        new_record = PipelineResult.__new__
        for pos, (index, vals, conds, active) in enumerate(self.log):
            if active is not None and j not in active:
                continue
            if index < 0:
                if index == _LOG_SWAP:
                    cost, words = vals
                    cycles += cost
                    swaps += 1
                    swapped_words += words
                else:
                    cycles += 1
                    for cache_id in vals:
                        cache_swaps[cache_id] = cache_swaps.get(cache_id, 0) + 1
                continue
            trace.append(index)
            start = cycles
            cycles += cycles_of[index]
            if conds is not None:
                trues += bool(conds[j])
            if records:
                if conds is None:
                    cond_result: Optional[bool] = None
                    cond_value: Optional[float] = None
                    payload = 0.0
                else:
                    cond_result = bool(conds[j])
                    cond_value = payload = float(vals[j])
                tags, fu_outputs = (
                    extras.get(pos, no_extras) if extras else no_extras
                )
                record = new_record(PipelineResult)
                record.__dict__.update(templates[index])
                record.condition_result = cond_result
                record.condition_value = cond_value
                record.exceptions = list(tags)
                record.fu_outputs = dict(fu_outputs) if fu_outputs else {}
                pipeline_results.append(record)
                irq_log.append((start, cycles, kernels[index].consts.source,
                                cond_result, payload, tags))
        out.cycles = cycles
        issues = [(kernels[i], count) for i, count in Counter(trace).items()]
        out.charge(issues, swaps, swapped_words)
        conditions = sum(
            count for kernel, count in issues if kernel.condition is not None
        )
        out.conditions_true = trues
        out.conditions_false = conditions - trues
        # only an exact (one-job) run logs tags: every logged tag is j's
        for tags, _outputs in extras.values():
            for tag in tags:
                if tag.endswith(":overflow"):
                    out.overflows += 1
                else:
                    out.invalids += 1
        if trace:
            out.device_busy = kernels[trace[-1]].consts.device_busy
        if records:
            del trace[self.MAX_TRACE:]
            out.result = SequencerResult(
                total_cycles=cycles,
                instructions_issued=out.instructions,
                loop_iterations=dict(self.loop_iterations[j]),
                pipeline_results=pipeline_results,
                halted=self.halted,
                converged=self.converged[j],
                issue_trace=trace,
            )
            out.irq_log = irq_log
        return out


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


def write_back(machine: "NSCMachine", storage: _Storage, j: int,
               job: JobRun) -> None:
    """Write row *j* of *storage* into *machine*, replaying *job*'s cache
    swaps and adding its DMA charges.

    Shared by the slab commit and the hypercube machine build; what
    each posts to the interrupt controller stays with the caller.
    """
    for plane, arr in storage.planes.items():
        machine.memory.plane(plane).write(0, arr[j])
    for cache_id, swaps in job.cache_swaps.items():
        for _ in range(swaps):
            machine.caches[cache_id].swap()
    for cache_id, arr in storage.cache_front.items():
        machine.caches[cache_id].front[: arr.shape[-1]] = arr[j]
    for cache_id, arr in storage.cache_back.items():
        machine.caches[cache_id].back[: arr.shape[-1]] = arr[j]
    stats = machine.dma.stats
    stats.transfers += job.transfers
    stats.words_read += job.words_read
    stats.words_written += job.words_written
    stats.busy_cycles += job.busy_cycles
    if job.device_busy is not None:
        machine.dma.device_busy = dict(job.device_busy)


def _commit(run: BatchProgramRun, machine: "NSCMachine",
            armed: Any) -> SequencerResult:
    """Write the run's one row, statistics and interrupt log back to
    *machine* — exactly what a step-by-step run leaves behind — and
    return its result."""
    job = run.job(0, records=True)
    write_back(machine, run.storage, 0, job)
    machine.cycle = job.cycles
    assert job.irq_log is not None and job.result is not None
    replay_interrupts(machine, job.irq_log, armed)
    return job.result


def try_run_fused(
    machine: "NSCMachine",
    program: MachineProgram,
    max_instructions: int,
    keep_outputs: bool = False,
) -> Optional[SequencerResult]:
    """Run *program* on one machine through the fused engine, or return None.

    The machine runs as an exact slab of one, its kernels bound over one
    stacked row.  None means "not fusable here" — registered interrupt
    handlers, relocated variables, or a construct the compiler rejects —
    and the caller runs the reference interpreter instead; the decline's
    reason lands in the active tracer.  Execution itself is inside the
    guard: state is committed only once the run ends, so a decline
    surfacing mid-run leaves the machine pristine for the fallback.
    """
    try:
        return _run_fused(machine, program, max_instructions, keep_outputs)
    except FusionUnsupported as exc:
        record_decline(exc)
        return None


def record_decline(exc: FusionUnsupported) -> None:
    """Tier telemetry for a fused run that stood down: count it, stamp
    the reason, emit the event — the caller's fallback is otherwise
    invisible in the records."""
    obs.count("fusion.fallback")
    obs.annotate("fallback_reason", str(exc))
    obs.event("fusion_fallback", scope="program", reason=str(exc))


def _run_fused(
    machine: "NSCMachine",
    program: MachineProgram,
    max_instructions: int,
    keep_outputs: bool,
) -> SequencerResult:
    from repro.sim.machine import MachineError

    if getattr(machine, "backend", "reference") != "fast":
        raise FusionUnsupported("fused engine requires the fast backend")
    plan = compiled_plan(program, machine.node.params,
                         keep_outputs=keep_outputs)
    armed = machine_bindings(plan, machine)
    storage = stacked_storage(plan.variables, 1, plan.plane_extent,
                              plan.cache_extent)
    _read_row(machine, storage, 0)
    run = BatchProgramRun(plan, storage, 1, max_instructions)
    try:
        run.run()
    except (SequencerError, MachineError):
        # only an exact run surfaces these: commit state up to the
        # fault point, as a step-by-step run would have left it
        _commit(run, machine, armed)
        raise
    result = _commit(run, machine, armed)
    machine.interrupts.drain()
    return result


__all__ = [
    "BatchProgramRun",
    "check_batchable",
    "JobRun",
    "machine_bindings",
    "record_decline",
    "replay_interrupts",
    "try_run_fused",
    "write_back",
]
