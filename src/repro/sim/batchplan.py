"""The fused engine: one compiled plan run over a stack of N rows.

The whole-program compiler (:mod:`repro.sim.progplan`) collapses a
control script into a schedule of bound images; this module walks it.
Every run binds stacked storage: N same-program, same-shape jobs stack
their operand grids along a leading batch axis, a lone job is a
one-row stack, and a single :class:`~repro.sim.progplan.BoundImage`
issue sweeps the entire stack.  The storage is built zeroed from the
plan's own variable layout (:func:`~repro.sim.progplan.stacked_storage`,
no machine behind it): a service slab fills it through the solver
loaders (a saved program runs on it zeroed, as a freshly loaded machine
holds it), and a hypercube scatters its grids into it.  The generated
ufunc kernels are shared by every stack height (the runner code objects
are cached on the :class:`ImageKernel`).  A hypercube of N nodes is the
same stack, one row per node:
:class:`~repro.sim.multinode.MultiNodeStencil` drives its sweeps step by
step through :meth:`BatchProgramRun.issue` and the engine's swaps (see :func:`repro.sim.progplan.fused_stepper`).
An :class:`~repro.sim.machine.NSCMachine` runs the reference
interpreter only; nothing here commits into one.

The script walk settles a sweep's reduced condition from witness
positions when it can (:mod:`repro.sim.settle`): such an issue skips
the steps that only feed the reduction and logs ``False`` for every row
and no values (:attr:`BatchProgramRun.settled`, ``reduced`` count
them).  :meth:`BatchProgramRun.issue`, the hypercube's stepped path,
always reduces and returns exact values.

Per-job divergence exists in exactly one place: ``LoopUntil`` iteration
counts.  The condition unit's final stream element is per-row, so
convergence becomes a boolean mask over the slab.  A job whose
condition fires *freezes*: its row snapshot (taken by **logical**
plane/cache role, so later whole-plane reference swaps cannot skew it)
is restored at loop exit, its counters stop, and the stragglers keep
iterating.  Everything else — cycle counts, DMA charges, the interrupt
count — is per-issue-constant, so the run logs each issue once per slab
(kernel index, per-row condition values, active rows) and
:meth:`BatchProgramRun.job` folds one job's totals out of that log.
Slab results are bit-identical to N single-machine reference runs.

A run mutates only its local storage.  Non-finite values are values:
inf and nan run through the same kernels on every row, bit-identical to
the reference, whose FP-exception interrupts they raise are masked under
the default armed set, so no record counts them.  A one-row run (a lone
job, or a one-node hypercube) is *exact*, with the reference's fault
semantics: a reference-visible fault (:class:`SequencerError`, a host
``MachineError``) propagates as is, and ``Halt`` inside a ``LoopUntil``
and nested loops all run.

A run of two or more rows — a slab, or a hypercube — declines
statically (before touching any state) on invalid issues, ``Halt``
inside a loop body, nested ``LoopUntil``, or a loop body that never
issues its watched condition pipeline
(:func:`repro.analysis.plansafety.fusion_eligibility`'s rules); its
reference-visible faults are wrapped as :class:`FusionUnsupported`, so a
slab's per-job fallback reproduces them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING,
)

from repro.analysis.plansafety import fusion_eligibility
from repro.obs import tracer as obs
from repro.sim.metrics import RunMetrics
from repro.sim.progplan import (
    FusionUnsupported,
    ImageKernel,
    ProgramPlan,
    _S_CACHESWAP,
    _S_HALT,
    _S_ISSUE,
    _S_LOOP,
    _S_REPEAT,
    _S_SWAP,
    _Storage,
    # the service slab calls it off this module, so a wrapped one (a
    # tracer's, a test's) serves every fused run
    compiled_plan,
)
from repro.sim.sequencer import SequencerError

if TYPE_CHECKING:  # pragma: no cover
    from repro.arch.node import NodeConfig
    from repro.sim.machine import NSCMachine


# ----------------------------------------------------------------------
# static batchability
# ----------------------------------------------------------------------
def check_batchable(plan: ProgramPlan) -> None:
    """Raise :class:`FusionUnsupported` unless *plan* can run as a slab.

    An exact (one-row) run walks every script the sequencer walks; a
    slab declines up front the shapes only a one-row run models — an
    invalid issue, which faults mid-script, and control flow that could
    diverge per job.  The reason is the first
    :func:`~repro.analysis.plansafety.fusion_eligibility` gives; the
    verdict is memoized on the (cached, shared) plan.
    """
    verdict = plan.__dict__.get("_batchable")
    if verdict is None:
        _eligible, reasons = fusion_eligibility(plan.program)
        verdict = reasons[0] if reasons else ""
        plan.__dict__["_batchable"] = verdict
    if verdict:
        raise FusionUnsupported(verdict)


@dataclass
class JobRun:
    """One job's share of a slab run, folded from the slab's issue log."""

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
    device_busy: Optional[Tuple] = None
    cache_swaps: Dict[int, int] = field(default_factory=dict)

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

    def interrupts_delivered(self) -> int:
        """Interrupts a run of this job on a fresh machine delivers.

        Each issue posts one completion and at most one condition
        interrupt, and the final controller drain delivers them all:
        :data:`~repro.arch.interrupts.DEFAULT_ARMED_KINDS` arms
        completions and conditions, and masks the FP exceptions.
        """
        return self.instructions + self.conditions_true + self.conditions_false

    def metrics(self, node: "NodeConfig") -> RunMetrics:
        """This job's :class:`RunMetrics` on *node* — what
        ``machine.metrics(result)`` reports after the same run on a fresh
        machine."""
        params = node.params
        return RunMetrics(
            cycles=self.cycles,
            instructions=self.instructions,
            flops=self.flops,
            words_moved=self.words_read + self.words_written,
            clock_mhz=params.clock_mhz,
            peak_mflops=params.peak_mflops_per_node,
            n_fus=node.n_fus,
            active_fu_cycles=self.active_fu_cycles,
            interrupts_delivered=self.interrupts_delivered(),
        )


# issue-log entry kinds besides issues (which log their kernel index)
_LOG_SWAP = -1
_LOG_CACHESWAP = -2


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class BatchProgramRun:
    """Executes one :class:`ProgramPlan` over N jobs (N == 1: a lone job).

    ``storage`` arrives filled and with ``storage.variables`` bound, its
    arrays carrying a leading ``(n_jobs,)`` axis (see
    :func:`~repro.sim.progplan.stacked_storage`).  Nothing outside it is
    touched — reading rows and folding records is the caller's job.  One
    row runs exact; two or more decline where a slab declines.

    Accounting is one log for the whole slab, appended once per step:
    ``(kernel index, per-row condition values, per-row condition
    results, active rows)`` per issue (no values when witnesses settled
    the condition), and the charges of each
    ``SwapVars`` / ``CacheSwap`` with the rows they land on (``None``:
    every row).  :meth:`job` folds one job's totals out of it.
    """

    def __init__(self, plan: ProgramPlan, storage: _Storage, n_jobs: int,
                 max_instructions: int) -> None:
        # one row owns every fault the run raises, so it runs exact where
        # a slab declines
        self.exact = n_jobs == 1
        if not self.exact:
            check_batchable(plan)
        self.plan = plan
        self.storage = storage
        self.n_jobs = n_jobs
        self.max_instructions = max_instructions
        storage.forget_arrangements()
        self.bound = {
            index: kernel.bind(storage, (n_jobs,))
            for index, kernel in plan.kernels.items()
        }
        self.log: List[Tuple[int, Any, Any, Optional[Tuple[int, ...]]]] = []
        self.issued = 0
        self.halted = False
        self.loop_iterations: List[Dict[int, int]] = [
            {} for _ in range(n_jobs)
        ]
        self.converged: List[Optional[bool]] = [None] * n_jobs
        # the script walk's issues of images with a condition chain:
        # settled from witnesses, or reduced in full
        self.settled = 0
        self.reduced = 0
        self._settling = frozenset(
            index for index, kernel in plan.kernels.items()
            if kernel.chain is not None)
        self._rows = tuple(range(n_jobs))
        self._unfired = [False] * n_jobs
        # per pipeline number: the last issue's per-job condition results
        # (None when that image raises no condition)
        self.last_cond: Dict[int, Optional[Sequence[Any]]] = {}
        self._swap_cache: Dict[Tuple[str, str], Tuple] = {}

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Execute the schedule, logging it; :meth:`job` reads the log.

        Nothing outside the local storage mutates.  An exact run's
        reference-visible fault (budget exhaustion, a bad relocation)
        propagates as is.  A slab wraps the same faults as
        :class:`FusionUnsupported`: they leave state per job, which only
        one-job runs model, so the fallback reproduces them exactly.
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
        settling = self._settling
        for op in ops:
            if self.halted:
                return
            kind = op[0]
            if kind == _S_ISSUE:
                if op[1] in settling:
                    self._settle_issue(op[1], active)
                else:
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
            else:  # an invalid issue (slabs decline these up front)
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
        the image raises no condition), exact on every row."""
        if self.issued >= self.max_instructions:
            self._check_budget()
        bound = self.bound[index]
        bound.issue_compute()
        if bound.kernel.chain is not None:
            bound.issue_condition(None)
        return self._log_issue(index, bound, active)

    def _settle_issue(self, index: int,
                      active: Optional[Tuple[int, ...]]) -> None:
        """:meth:`issue` on the script walk, for an image with a
        condition chain: when witnesses settle the condition on every
        active row (see :mod:`repro.sim.settle`), the chain does not
        run and the issue logs ``False`` for every row and no values.
        Only the active rows' results are ever read (:meth:`job`,
        :meth:`_loop_until`)."""
        if self.issued >= self.max_instructions:
            self._check_budget()
        bound = self.bound[index]
        bound.issue_compute()
        if bound.issue_condition(self._rows if active is None else active):
            self.settled += 1
            conds = self._unfired
            self.last_cond[bound.kernel.consts.number] = conds
            self.log.append((index, None, conds, active))
            self.issued += 1
        else:
            self.reduced += 1
            self._log_issue(index, bound, active)

    def _log_issue(self, index: int, bound: Any,
                   active: Optional[Tuple[int, ...]]) -> Any:
        """Log an issue of *bound* whose condition values are computed;
        return them."""
        kernel = bound.kernel
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
        # the watched results are read for the running rows only: a
        # settled issue logs False for every row
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
    def job(self, j: int) -> JobRun:
        """Fold job *j*'s share of the log into its totals (it reads
        the condition results of the issues row *j* was active in,
        never their values)."""
        kernels = self.plan.kernels
        cycles_of = {index: kernel.consts.cycles
                     for index, kernel in kernels.items()}
        out = JobRun()
        cache_swaps = out.cache_swaps
        cycles = trues = swaps = swapped_words = 0
        trace: List[int] = []
        for index, vals, conds, active in self.log:
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
            cycles += cycles_of[index]
            if conds is not None:
                trues += bool(conds[j])
        out.cycles = cycles
        issues = [(kernels[i], count) for i, count in Counter(trace).items()]
        out.charge(issues, swaps, swapped_words)
        conditions = sum(
            count for kernel, count in issues if kernel.condition is not None
        )
        out.conditions_true = trues
        out.conditions_false = conditions - trues
        if trace:
            out.device_busy = kernels[trace[-1]].consts.device_busy
        return out


# ----------------------------------------------------------------------
# writing a row into a machine
# ----------------------------------------------------------------------
def write_back(machine: "NSCMachine", storage: _Storage, j: int,
               job: JobRun) -> None:
    """Write row *j* of *storage* into *machine*, replaying *job*'s cache
    swaps and adding its DMA charges (the hypercube's on-demand node
    machines; what each posts to the interrupt controller stays with
    the caller)."""
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


def record_decline(exc: FusionUnsupported) -> None:
    """Tier telemetry for a fused run that stood down: count it, stamp
    the reason, emit the event — the caller's fallback is otherwise
    invisible in the records."""
    obs.count("fusion.fallback")
    obs.annotate("fallback_reason", str(exc))
    obs.event("fusion_fallback", scope="program", reason=str(exc))


__all__ = [
    "BatchProgramRun",
    "check_batchable",
    "compiled_plan",
    "JobRun",
    "record_decline",
    "write_back",
]
