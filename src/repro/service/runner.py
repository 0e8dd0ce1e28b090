"""The batch orchestrator: jobs -> cached compile -> pool -> result store.

:func:`execute_job` is the unit of work.  It is a top-level function taking
a plain job dict so it pickles cleanly into pool workers; each worker
process keeps one module-level :class:`ProgramCache` (optionally backed by
a shared disk directory) and every record reports whether its program was
a cache hit, so the batch summary can prove recompilation was avoided.

:class:`BatchRunner` wires the pieces: it expands nothing and decides
nothing about *what* to run — that is :mod:`repro.service.sweep`'s job —
it just executes a job list with deterministic ordering, failure
isolation, and JSONL persistence.  Two orthogonal knobs govern *how*:

- ``transport`` — how grids move between parent and workers.
  ``"pickle"`` (default) is the classic pool: job dicts out, records
  (including any kept field arrays) pickled back through executor pipes.
  ``"shm"`` is the zero-copy path: problem inputs are written once per
  grid shape into :mod:`multiprocessing.shared_memory` segments that
  workers attach read-only, and kept fields are written by the worker
  into output segments the parent preallocated
  (see :mod:`repro.service.shm`).  Serial runs (``workers=1``, no
  timeout) bypass transports entirely — no subprocesses, no copies —
  so ``workers=1`` behavior is identical either way.
- ``run_checker`` — when the design-rule checker runs at compile time
  (see :class:`~repro.service.jobs.SimJob`); ``BatchRunner``'s value,
  if given, overrides every job's own setting for the batch.

Cleanup is deterministic: the shm arena backing a batch is destroyed in a
``finally`` block, so worker crashes, timeouts, and mid-batch exceptions
never leak a segment.

On top sits the reliability layer (``docs/RELIABILITY.md``): jobs run in
*attempt rounds* — transient failures (timeouts, broken pools, shm
attach errors, injected faults; see :mod:`repro.service.retry`) are
retried up to their :class:`~repro.service.retry.RetryPolicy` with
deterministic no-jitter backoff, finalized records checkpoint to the
store in job order as they complete (so a killed run leaves a clean
prefix), ``resume=True`` redeems prior successes from the store instead
of rerunning them, and shm transport trouble demotes the rest of the
batch to pickling with ``transport_fallback`` recorded.  A
:class:`~repro.service.faults.FaultPlan` exercises all of it against the
real pool and transports.

Usage recipes live in ``docs/SERVICE.md``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import time
from dataclasses import dataclass, replace
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.obs import tracer as obs
from repro.service import faults
from repro.service.cache import ProgramCache
from repro.service.faults import FaultInjected, FaultPlan
from repro.service.jobs import CHECKER_MODES, SimJob
from repro.service.pool import WorkerOutcome, WorkerPool, call_captured
from repro.service.results import ResultStore
from repro.service.retry import RetryPolicy, classify_record

#: Payload transports for parallel batches (see module docstring).
TRANSPORTS = ("pickle", "shm")

#: Batch-fusion modes: "off" always runs jobs one at a time; "auto"
#: groups same-program jobs into slabs on the serial path (see
#: :mod:`repro.service.slab`) and falls back per job on any decline.
BATCH_FUSION_MODES = ("off", "auto")

#: Per-process cache used by pool workers (and by serial runs that do not
#: pass an explicit cache).  Keyed compilation output survives across jobs
#: within one worker; the disk layer shares it across workers.
_PROCESS_CACHE: Optional[ProgramCache] = None
_PROCESS_CACHE_DIR: Optional[str] = None


def _process_cache(disk_dir: Optional[str]) -> ProgramCache:
    global _PROCESS_CACHE, _PROCESS_CACHE_DIR
    if _PROCESS_CACHE is None or _PROCESS_CACHE_DIR != disk_dir:
        _PROCESS_CACHE = ProgramCache(disk_dir)
        _PROCESS_CACHE_DIR = disk_dir
    return _PROCESS_CACHE


def reset_process_cache() -> None:
    """Forget the per-process cache (tests and long-lived hosts)."""
    global _PROCESS_CACHE, _PROCESS_CACHE_DIR
    _PROCESS_CACHE = None
    _PROCESS_CACHE_DIR = None


# ----------------------------------------------------------------------
# job execution
# ----------------------------------------------------------------------
def execute_job(
    spec: Mapping[str, Any],
    cache_dir: Optional[str] = None,
    cache: Optional[ProgramCache] = None,
    inputs: Optional[Mapping[str, Any]] = None,
    fields_out: Optional[Mapping[str, np.ndarray]] = None,
    tracer: Optional[obs.Tracer] = None,
    attempt: int = 1,
) -> Dict[str, Any]:
    """Run one job to completion; never raises for job-level failures.

    Returns a flat record.  ``cache`` (an in-process object) wins over
    ``cache_dir`` (picklable, for pool workers).  ``inputs`` optionally
    supplies precomputed problem arrays (``u_star``, ``f``, and the grid
    spacing ``h`` they were built with) so same-shape jobs can share one
    copy; they are used only when ``h`` matches the compiled setup's,
    otherwise the job regenerates its own — correctness never depends on
    the caller getting the sharing right.  ``fields_out`` maps field
    names to preallocated writable arrays (the shm transport's output
    segments); when absent, kept fields land in ``record["fields"]`` as
    ordinary arrays.  Records are JSON-serializable except for that
    opt-in ``"fields"`` entry, which :class:`BatchRunner` strips (leaving
    per-field SHA-256 digests) before anything reaches the result store.

    Every job runs under its own :class:`~repro.obs.Tracer` (``tracer``
    lets a caller that already timed earlier stages — the shm worker's
    segment attach — keep accumulating into the same one).  The record
    is stamped with ``timings`` (the fixed per-stage dict, volatile
    across runs) and ``tier`` (which execution tier actually ran —
    deterministic for a given job + backend).

    ``attempt`` is the 1-based retry attempt this execution represents;
    it keys the ``worker.exec`` fault site (:mod:`repro.service.faults`)
    and changes nothing else — a retried job is the same pure function
    of its spec.  Failure records carry ``error_type`` (the exception
    class name) so the retry layer can classify them.
    """
    job = SimJob.from_dict(spec)
    if cache is None:
        cache = _process_cache(cache_dir)
    if tracer is None:
        tracer = obs.Tracer()
    record = _record_head(job)
    hits_before = cache.stats.hits
    lookups_before = cache.stats.lookups
    try:
        with obs.use(tracer):
            # fault site sits before compilation so a faulted attempt
            # leaves no cache footprint: the retry then hits/misses the
            # cache exactly like a fault-free run would
            faults.check("worker.exec", job.job_id, attempt)
            if job.hypercube_dim > 0:
                record.update(_run_multinode(job, cache, inputs, fields_out))
            else:
                record.update(_run_single(job, cache, inputs, fields_out))
        record["ok"] = True
    except Exception as exc:  # failure capture: one bad job != a dead batch
        _mark_failed(record, exc)
    if cache.stats.lookups > lookups_before:  # job reached compilation
        record["cache_hit"] = cache.stats.hits > hits_before
    return _stamp_telemetry(record, tracer)


def _record_head(job: SimJob) -> Dict[str, Any]:
    """The identifying keys every job record starts with."""
    return {
        "job_id": job.job_id,
        "label": job.describe(),
        "method": job.method,
        "shape": list(job.shape),
        "eps": job.eps,
        "subset": job.subset,
        "hypercube_dim": job.hypercube_dim,
        "backend": job.backend,
        "cache_key": job.cache_key(),
    }


def _mark_failed(record: Dict[str, Any], exc: BaseException) -> None:
    record["ok"] = False
    record["error"] = f"{type(exc).__name__}: {exc}"
    record["error_type"] = type(exc).__name__


def _stamp_telemetry(record: Dict[str, Any],
                     tracer: obs.Tracer) -> Dict[str, Any]:
    """Stamp the job tracer's stage timings, tier, and decline reason."""
    telemetry = tracer.telemetry()
    record["timings"] = telemetry.stage_timings()
    record["tier"] = telemetry.annotations.get("tier")
    if "fallback_reason" in telemetry.annotations:
        record["fallback_reason"] = telemetry.annotations["fallback_reason"]
    return record


def _exec_fault(job: SimJob, attempt: int) -> Optional[Dict[str, Any]]:
    """Fire the ``worker.exec`` fault site for *job* outside
    :func:`execute_job` (a slab member runs inside its slab's plan);
    returns the failure record :func:`execute_job` would have produced
    if the site fires, else None."""
    tracer = obs.Tracer()
    try:
        with obs.use(tracer):
            faults.check("worker.exec", job.job_id, attempt)
    except FaultInjected as exc:
        record = _record_head(job)
        _mark_failed(record, exc)
        return _stamp_telemetry(record, tracer)
    return None


def execute_job_shm(
    task: Mapping[str, Any], cache_dir: Optional[str] = None,
    attempt: int = 1,
) -> Dict[str, Any]:
    """Worker-side shm transport: attach, run, write fields in place.

    ``task`` carries the job spec plus :class:`~repro.service.shm.ShmArrayRef`
    handles — input segments are attached read-only, output segments
    writable, and every attachment is released before returning (or on
    any failure).  The returned record contains no arrays; the parent
    reads kept fields straight out of the segments it owns.

    Attach failures — real :class:`~repro.service.shm.ShmAttachError`\\ s
    or the injected ``shm.attach`` fault site — propagate out to the
    pool's failure capture; the runner classifies them transient and
    demotes the batch to the pickle transport for the retry.
    """
    from repro.service.shm import attached

    tracer = obs.Tracer()
    with contextlib.ExitStack() as stack, obs.use(tracer):
        with obs.span("transport"):
            faults.check(
                "shm.attach", SimJob.from_dict(task["spec"]).job_id, attempt
            )
            inputs: Optional[Dict[str, Any]] = None
            if task.get("inputs"):
                inputs = {
                    name: stack.enter_context(attached(ref, readonly=True))
                    for name, ref in task["inputs"].items()
                }
                inputs["h"] = task["inputs_h"]
            fields_out: Optional[Dict[str, np.ndarray]] = None
            if task.get("fields"):
                fields_out = {
                    name: stack.enter_context(attached(ref, readonly=False))
                    for name, ref in task["fields"].items()
                }
        return execute_job(
            task["spec"], cache_dir=cache_dir,
            inputs=inputs, fields_out=fields_out, tracer=tracer,
            attempt=attempt,
        )


def _obtain_program(
    job: SimJob, cache: ProgramCache, compile_for
) -> Tuple[Any, Optional[str]]:
    """Fetch (or compile) the job's program, gating the checker.

    ``compile_for`` is a callable taking one bool — whether to run the
    design-rule checker — and returning the ``(setup, program)`` cache
    value.  Every compile is checked unless ``run_checker="never"`` (see
    :class:`SimJob`).  Returns ``(value, checker)`` where ``checker`` is
    ``"ran"``/``"skipped"`` when this call actually compiled, else None.
    """
    info: Dict[str, str] = {}

    def compile_fn() -> Any:
        check = job.run_checker != "never"
        info["checker"] = "ran" if check else "skipped"
        return compile_for(check)

    value = cache.get_or_compile(job.cache_key(), compile_fn)
    return value, info.get("checker")


def _initial_grid(job: SimJob) -> np.ndarray:
    """The job's initial guess: zeros, or a seeded reproducible field.

    Shared by the per-job path and the batch-fused slab executor so a
    seeded job starts from bit-identical values on either tier.
    """
    if job.u0_seed is None:
        return np.zeros(job.shape)
    return np.random.default_rng(job.u0_seed).random(job.shape)


def _compile_single(job: SimJob, node, check: bool) -> Tuple[Any, Any]:
    """``(setup, machine program)`` for a single-node job.

    The setup comes back without its source diagram: nothing on the run
    path reads ``setup.program`` after code generation, and a program
    cache entry would otherwise spend about half its GC-tracked objects
    on it.
    """
    from repro.codegen.generator import MicrocodeGenerator
    from repro.compose.registry import SOLVERS

    if job.method == "program":  # saved visual program
        from repro.diagram import serialize

        setup = None
        program = serialize.load(job.program_path)
    else:
        setup = SOLVERS[job.method].build_setup(
            node, job.shape, eps=job.eps,
            max_iterations=job.max_sweeps, omega=job.omega,
        )
        program = setup.program
        setup = replace(setup, program=None)
    generator = MicrocodeGenerator(node, run_checker=check)
    return setup, generator.generate(program)


def _run_single(
    job: SimJob,
    cache: ProgramCache,
    inputs: Optional[Mapping[str, Any]] = None,
    fields_out: Optional[Mapping[str, np.ndarray]] = None,
) -> Dict[str, Any]:
    """A fast builder job runs as a slab of one; the reference backend,
    saved programs and a slab's decline run on an :class:`NSCMachine`."""
    from repro.arch.node import node_config
    from repro.compose.registry import SOLVERS
    from repro.sim.machine import NSCMachine

    node = node_config(job.params())
    (setup, program), checker = _obtain_program(
        job, cache, lambda check: _compile_single(job, node, check)
    )
    if job.backend == "fast" and setup is not None:
        from repro.service.slab import run_slab
        from repro.sim.batchplan import record_decline
        from repro.sim.progplan import FusionUnsupported

        try:
            return run_slab([job], [obs.current() or obs.Tracer()], node,
                            setup, program, [checker], inputs, fields_out)[0]
        except FusionUnsupported as exc:
            record_decline(exc)
    with obs.span("bind"):
        machine = NSCMachine(node, backend=job.backend)
        machine.load_program(program)
        watch = u_star = None
        if setup is not None:
            entry = SOLVERS[job.method]
            u_star, f = _problem(job, setup, inputs)
            entry.load(machine, setup, _initial_grid(job), f)
            watch = entry.watch_pipeline(setup)
    with obs.span("execute"):
        result = machine.run()
    return _solution_record(
        job, program, checker, result.converged,
        result.loop_iterations.get(watch, 0), machine.metrics(result),
        machine.get_variable("u") if u_star is not None else None,
        u_star, fields_out,
    )


def _problem(job: SimJob, setup: Any, inputs: Optional[Mapping[str, Any]]
             ) -> Tuple[np.ndarray, np.ndarray]:
    """``(u_star, f)``: the caller's shared arrays if built with this
    setup's grid spacing, else fresh ones."""
    if inputs is not None and inputs.get("h") == setup.h:
        return inputs["u_star"], inputs["f"]
    from repro.apps.poisson3d import manufactured_solution

    u_star, f, _h = manufactured_solution(job.shape, h=setup.h)
    return u_star, f


def _solution_record(job: SimJob, program: Any, checker: Optional[str],
                     converged: Optional[bool], sweeps: int, metrics: Any,
                     u: Optional[np.ndarray], u_star: Optional[np.ndarray],
                     fields_out: Optional[Mapping[str, np.ndarray]],
                     ) -> Dict[str, Any]:
    """A single-node record's computed keys, whichever engine ran (*u*,
    the flat final solution, and *u_star* are None for saved programs)."""
    record: Dict[str, Any] = {
        "converged": bool(converged) if converged is not None else None,
        "sweeps": sweeps,
        "cycles": metrics.cycles,
        "program_fingerprint": program.fingerprint(),
        "metrics": metrics.summary(),
    }
    if checker is not None:
        record["checker"] = checker
    if u_star is not None:
        # grid layout is (nz, ny, nx) — the shape manufactured_solution
        # returns and the multinode gather uses
        u = u.reshape(_field_shape(job))
        record["error_vs_analytic"] = float(np.max(np.abs(u - u_star)))
        if job.keep_fields:
            with obs.span("transport"):
                if fields_out is not None:
                    fields_out["u"][...] = u
                else:
                    record["fields"] = {"u": np.array(u, dtype=np.float64)}
    return record


def _field_shape(job: SimJob) -> Tuple[int, int, int]:
    """Kept fields are ``(nz, ny, nx)`` grids — the layout
    :func:`manufactured_solution` and :meth:`MultiNodeStencil.gather`
    already share (see :func:`repro.compose.jacobi.grid_shape`)."""
    from repro.compose.jacobi import grid_shape

    return grid_shape(job.shape)


def _compile_multinode(
    job: SimJob, local_shape: Tuple[int, int, int], check: bool
):
    from repro.arch.node import node_config
    from repro.codegen.generator import MicrocodeGenerator
    from repro.compose.jacobi import build_jacobi_program

    params = job.params().subset(hypercube_dim=job.hypercube_dim)
    node_cfg = node_config(params)
    setup = build_jacobi_program(
        node_cfg, local_shape, eps=job.eps, loop=False
    )
    generator = MicrocodeGenerator(node_cfg, run_checker=check)
    # diagram dropped as in _compile_single
    return replace(setup, program=None), generator.generate(setup.program)


def _run_multinode(
    job: SimJob,
    cache: ProgramCache,
    inputs: Optional[Mapping[str, Any]] = None,
    fields_out: Optional[Mapping[str, np.ndarray]] = None,
) -> Dict[str, Any]:
    from repro.apps.poisson3d import manufactured_solution
    from repro.sim.multinode import DecompositionError, MultiNodeStencil

    nx, ny, nz = job.shape
    n_nodes = 1 << job.hypercube_dim
    if nz % n_nodes != 0:
        raise DecompositionError(
            f"nz={nz} does not divide across {n_nodes} nodes"
        )
    local_shape = (nx, ny, nz // n_nodes + 2)
    precompiled, checker = _obtain_program(
        job, cache,
        lambda check: _compile_multinode(job, local_shape, check),
    )
    with obs.span("bind"):
        stencil = MultiNodeStencil(
            params=job.params(),
            hypercube_dim=job.hypercube_dim,
            shape=job.shape,
            eps=job.eps,
            precompiled=precompiled,
            backend=job.backend,
        )
        # deterministic non-trivial start: relax the manufactured field
        # to zero
        if inputs is not None and "u_star" in inputs:
            u_star = inputs["u_star"]
        else:
            u_star, _f, _h = manufactured_solution(job.shape)
        stencil.scatter("u", u_star)
    with obs.span("execute"):
        res = stencil.run(max_iterations=job.max_sweeps)
    record: Dict[str, Any] = {
        "converged": res.converged,
        "sweeps": res.iterations,
        "cycles": res.total_cycles,
        "program_fingerprint": stencil.machine_program.fingerprint(),
        "metrics": {
            "n_nodes": res.n_nodes,
            "compute_cycles": res.compute_cycles,
            "comm_cycles": res.comm_cycles,
            "comm_fraction": res.comm_fraction,
            "words_exchanged": res.words_exchanged,
            "flops": float(res.flops),
            "achieved_gflops": res.achieved_gflops,
            "peak_gflops": res.peak_gflops,
            "efficiency": res.efficiency,
        },
    }
    if checker is not None:
        record["checker"] = checker
    if job.keep_fields:
        with obs.span("transport"):
            u = stencil.gather("u")
            if fields_out is not None:
                fields_out["u"][...] = u
            else:
                record["fields"] = {"u": np.array(u, dtype=np.float64)}
    return record


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------
@dataclass
class BatchSummary:
    """Roll-up printed after every batch/sweep run."""

    total: int
    succeeded: int
    failed: int
    cache_hits: int
    cache_misses: int
    total_cycles: int
    wall_s: float
    #: jobs that needed more than one attempt (transient-failure retries)
    retried: int = 0
    #: jobs redeemed from the store by ``resume=True`` instead of rerun
    resumed: int = 0

    def format(self) -> str:
        text = (
            f"{self.succeeded}/{self.total} jobs ok ({self.failed} failed); "
            f"cache: {self.cache_hits} hits, {self.cache_misses} misses; "
            f"{self.total_cycles} simulated cycles in {self.wall_s:.2f}s wall"
        )
        if self.retried:
            text += f"; {self.retried} retried"
        if self.resumed:
            text += f"; {self.resumed} resumed"
        return text


class BatchRunner:
    """Execute a job list through the pool, cache, and result store.

    Parameters
    ----------
    workers:
        Worker processes.  ``1`` (without a timeout) runs serially
        in-process: no subprocesses, no transport, shared in-memory cache.
    timeout:
        Per-job wall-clock ceiling; forces the process pool (a serial
        "timeout" would be a lie — see :class:`WorkerPool`).
    cache_dir:
        On-disk :class:`ProgramCache` layer shared across workers and
        sessions (compiled programs only).
    store:
        Optional :class:`ResultStore`; stored records never contain field
        arrays, only their SHA-256 digests.
    transport:
        ``"pickle"`` (default) or ``"shm"`` — how grids and kept field
        arrays move between parent and workers (module docstring).
        Ignored on the serial path.
    run_checker:
        When set (one of :data:`~repro.service.jobs.CHECKER_MODES`),
        overrides every job's own ``run_checker`` for this batch.
    batch_fusion:
        Grouping only (a lone fast builder job is a slab of one either
        way, :mod:`repro.service.slab`).  ``"off"`` (default) runs jobs
        individually; ``"auto"`` groups same-program jobs of a serial
        run into slabs, whose records match per-job runs apart from the
        timing fields and carry ``tier="batch_fused"`` + ``slab_size``.
        A declined slab's members run per job with ``fallback_reason``
        recorded.  Records stream to the store per slab, and
        ``worker.exec`` faults fire per slab member.
    retry:
        Batch-level :class:`~repro.service.retry.RetryPolicy`; when set
        it overrides every job's own ``max_attempts``/``backoff_base``.
        Only *transient* failures are retried (see
        :mod:`repro.service.retry`).
    resume:
        Redeem jobs whose ``job_id`` already has a success record in the
        store (each prior success redeems one job instance, so repeated
        jobs resume correctly) and rerun only the rest, appending only
        the missing records — an interrupted sweep resumed this way
        converges to the uninterrupted run's canonical digest.  Requires
        ``store``.
    fault_plan:
        A :class:`~repro.service.faults.FaultPlan` to inject during this
        run; exported through ``NSC_VPE_FAULTS`` so pool workers inherit
        it.  Chaos testing only — never set in production.
    cache:
        An explicit in-process :class:`ProgramCache` for the serial
        path, overriding the runner-owned one.  A long-lived host (the
        ``nsc-vpe serve`` daemon) passes the same cache to every runner
        it builds, so compiled programs — and with them the shared
        :data:`~repro.sim.fastpath.PLAN_CACHE` — stay warm across
        requests instead of across one batch.  Ignored on the process
        path (workers > 1 or a timeout), which uses per-worker caches
        plus the disk layer, exactly as before.
    arena:
        A caller-owned persistent :class:`~repro.service.shm.ShmArena`
        for the shm transport.  When given, each batch allocates its
        segments from this arena and *releases* them when it finishes
        (:meth:`ShmArena.release`) instead of creating and destroying a
        whole arena per run — the daemon's amortization of arena setup.
        Ownership stays with the caller: the runner never destroys a
        provided arena.
    """

    def __init__(
        self,
        workers: int = 1,
        timeout: Optional[float] = None,
        cache_dir: Optional[str] = None,
        store: Optional[ResultStore] = None,
        transport: str = "pickle",
        run_checker: Optional[str] = None,
        batch_fusion: str = "off",
        retry: Optional[RetryPolicy] = None,
        resume: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        cache: Optional[ProgramCache] = None,
        arena: Optional["ShmArena"] = None,  # noqa: F821
    ) -> None:
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r}; expected one of "
                f"{TRANSPORTS}"
            )
        if run_checker is not None and run_checker not in CHECKER_MODES:
            raise ValueError(
                f"unknown run_checker {run_checker!r}; expected one of "
                f"{CHECKER_MODES}"
            )
        if batch_fusion not in BATCH_FUSION_MODES:
            raise ValueError(
                f"unknown batch_fusion {batch_fusion!r}; expected one of "
                f"{BATCH_FUSION_MODES}"
            )
        if resume and store is None:
            raise ValueError(
                "resume=True requires a result store to resume from"
            )
        self.workers = workers
        self.timeout = timeout
        self.cache_dir = cache_dir
        self.store = store
        self.transport = transport
        self.run_checker = run_checker
        self.batch_fusion = batch_fusion
        self.retry = retry
        self.resume = resume
        self.fault_plan = fault_plan
        #: names of the shm segments used by the most recent run (kept
        #: after cleanup so tests can prove every one was unlinked)
        self.last_shm_segments: List[str] = []
        #: parent-side telemetry of the most recent run (arena setup and
        #: field materialization spans; per-job stages live in records)
        self.last_telemetry: Optional[obs.Telemetry] = None
        #: serial runs share this cache across the whole batch; process
        #: runs (workers > 1, or any timeout, which forces the process
        #: path) rely on per-worker caches plus the shared disk layer.
        #: A caller-provided cache (the serve daemon's) survives across
        #: runner instances — warm across *requests*, not just jobs.
        if workers == 1 and timeout is None:
            self.cache = cache if cache is not None else ProgramCache(cache_dir)
        else:
            self.cache = None
        #: caller-owned persistent arena for the shm transport (or None:
        #: each shm batch creates and destroys its own)
        self.arena = arena
        #: why the most recent run demoted shm to pickling, or None
        self._transport_degraded: Optional[str] = None
        #: checkpoint frontier: records append in strict job-index order
        self._frontier = 0

    def run(
        self, jobs: Sequence[SimJob]
    ) -> Tuple[List[Dict[str, Any]], BatchSummary]:
        start = time.perf_counter()
        batch_tracer = obs.Tracer()
        specs = [job.to_dict() for job in jobs]
        if self.run_checker is not None:
            for spec in specs:
                spec["run_checker"] = self.run_checker
        # the effective jobs (batch-level run_checker applied) are what
        # workers rebuild from the specs — resume matching, fault keys,
        # and synthesized records must all use *their* job_ids
        eff_jobs = [SimJob.from_dict(spec) for spec in specs]
        self._transport_degraded = None
        self._frontier = 0
        final: List[Optional[Dict[str, Any]]] = [None] * len(jobs)
        preloaded = [False] * len(jobs)
        with contextlib.ExitStack() as stack:
            stack.enter_context(obs.use(batch_tracer))
            if self.fault_plan is not None:
                # exported through the environment, so pool workers
                # (which inherit it) fault exactly like the parent
                stack.enter_context(faults.exported(self.fault_plan))
            resuming = self.resume and self._preload_resumed(
                eff_jobs, final, preloaded
            )
            self._checkpoint(final, preloaded)
            pending = [i for i in range(len(jobs)) if final[i] is None]
            reasons: Dict[int, List[str]] = {}
            attempt = 1
            while pending:
                still: List[int] = []
                delay = 0.0

                def absorb(i: int, record: Dict[str, Any]) -> None:
                    """Finalize one record (or schedule its retry) as it
                    lands.  Serial execution streams records through
                    here one job at a time, so the checkpoint frontier
                    advances — and the store grows — *during* a round,
                    not just at its end: a ``kill -9`` mid-batch leaves
                    every already-finished job persisted."""
                    nonlocal delay
                    record["attempts"] = attempt
                    if reasons.get(i):
                        record["retry_reasons"] = list(reasons[i])
                    if resuming:
                        record["resumed"] = True
                    classification = classify_record(record)
                    if classification is None:  # success: finalize
                        self._digest_fields([record])
                        final[i] = record
                        self._checkpoint(final, preloaded)
                        return
                    reason = record.get("error_type") or "unknown"
                    if self.transport == "shm" and (
                        reason == "ShmAttachError"
                        or (reason == "FaultInjected"
                            and "shm.attach" in str(record.get("error")))
                    ):
                        # a worker lost its segments: the retry (and the
                        # rest of the batch) rides the pickle transport
                        self._degrade_transport(str(record.get("error")))
                    policy = self._policy_for(eff_jobs[i])
                    if policy.should_retry(attempt, classification):
                        reasons.setdefault(i, []).append(reason)
                        delay = max(delay, policy.delay(attempt))
                        obs.count("retry.scheduled")
                        obs.event(
                            "retry", job_id=record.get("job_id"),
                            attempt=attempt, reason=reason,
                            delay_s=policy.delay(attempt),
                        )
                        still.append(i)
                        return
                    if classification == "transient" \
                            and policy.max_attempts > 1:
                        obs.count("retry.exhausted")
                        obs.event(
                            "retry_exhausted",
                            job_id=record.get("job_id"),
                            attempts=attempt, reason=reason,
                        )
                    self._digest_fields([record])
                    final[i] = record
                    self._checkpoint(final, preloaded)

                self._run_round(eff_jobs, specs, pending, attempt, absorb)
                if still and delay > 0:
                    time.sleep(delay)  # deterministic no-jitter backoff
                still.sort()  # retries keep running in job-index order
                pending = still
                attempt += 1
        records = [record for record in final if record is not None]
        self.last_telemetry = batch_tracer.telemetry()
        summary = BatchSummary(
            total=len(records),
            succeeded=sum(1 for r in records if r.get("ok")),
            failed=sum(1 for r in records if not r.get("ok")),
            cache_hits=sum(1 for r in records if r.get("cache_hit")),
            cache_misses=sum(
                1 for r in records
                if "cache_hit" in r and not r["cache_hit"]
            ),
            total_cycles=sum(r.get("cycles", 0) or 0 for r in records),
            wall_s=time.perf_counter() - start,
            retried=sum(
                1 for r in records if (r.get("attempts") or 1) > 1
            ),
            resumed=sum(preloaded),
        )
        return records, summary

    # ------------------------------------------------------------------
    # reliability layer: rounds, checkpointing, resume, degradation
    # ------------------------------------------------------------------
    def _policy_for(self, job: SimJob) -> RetryPolicy:
        """The batch-level policy if set, else the job's own."""
        if self.retry is not None:
            return self.retry
        return RetryPolicy(job.max_attempts, job.backoff_base)

    def _preload_resumed(
        self,
        eff_jobs: Sequence[SimJob],
        final: List[Optional[Dict[str, Any]]],
        preloaded: List[bool],
    ) -> bool:
        """Redeem prior successes from the store into ``final``.

        Matching is a multiset refinement of latest-by-job: each prior
        success record redeems exactly one job instance (in store order),
        so a sweep with ``repeats`` resumes without double-counting.
        Prior *failures* redeem nothing — those jobs rerun.  Returns
        whether the store held any prior records (a resume over an empty
        store is just a fresh run).
        """
        assert self.store is not None
        prior = self.store.load()
        if not prior:
            return False
        ok_by_id: Dict[str, List[Dict[str, Any]]] = {}
        for record in prior:
            if record.get("ok") and record.get("job_id"):
                ok_by_id.setdefault(record["job_id"], []).append(record)
        for i, job in enumerate(eff_jobs):
            queue = ok_by_id.get(job.job_id)
            if queue:
                final[i] = dict(queue.pop(0))
                preloaded[i] = True
                obs.count("resume.skipped")
        if self.store.truncated_tail is not None:
            obs.event(
                "resume_truncated_tail",
                bytes=len(self.store.truncated_tail),
            )
        return True

    def _checkpoint(
        self,
        final: List[Optional[Dict[str, Any]]],
        preloaded: List[bool],
    ) -> None:
        """Persist newly finalized records, in strict job-index order.

        Later jobs that finalize early wait for the frontier to reach
        them, so a run killed at any moment leaves the store a clean
        *prefix* of the fault-free store — which is exactly what lets
        ``resume`` converge to the uninterrupted digest.  Preloaded
        (resumed) records are already in the store and are skipped.
        """
        while self._frontier < len(final) \
                and final[self._frontier] is not None:
            record = final[self._frontier]
            if self.store is not None and not preloaded[self._frontier]:
                faults.check(
                    "store.append",
                    str(record.get("job_id") or ""),
                    int(record.get("attempts") or 1),
                )
                # field arrays stay with the caller; the store gets the
                # digests stamped at finalization
                self.store.append(
                    {k: v for k, v in record.items() if k != "fields"}
                )
            self._frontier += 1

    def _run_round(
        self,
        eff_jobs: Sequence[SimJob],
        specs: List[Dict[str, Any]],
        indices: Sequence[int],
        attempt: int,
        on_record: Callable[[int, Dict[str, Any]], None],
    ) -> None:
        """Execute attempt *attempt* for every job index in *indices*,
        reporting each record to ``on_record(job_index, record)``.

        The parent-side ``pool.submit`` fault site fires here: an item
        it claims never reaches the pool and reports a synthesized
        transient failure instead (the retry layer handles the rest).
        """
        dispatch: List[int] = []
        for i in indices:
            try:
                faults.check("pool.submit", eff_jobs[i].job_id, attempt)
            except FaultInjected as exc:
                # an item that never reached the pool: a dead worker's
                # synthesized record, with zero duration
                on_record(i, self._record_of(
                    eff_jobs[i], WorkerOutcome.failure(i, exc)
                ))
            else:
                dispatch.append(i)
        if dispatch:
            self._dispatch(
                [eff_jobs[i] for i in dispatch],
                [specs[i] for i in dispatch],
                attempt,
                lambda j, record: on_record(dispatch[j], record),
            )

    def _dispatch(
        self,
        round_jobs: Sequence[SimJob],
        round_specs: List[Dict[str, Any]],
        attempt: int,
        on_record: Callable[[int, Dict[str, Any]], None],
    ) -> None:
        """Run one round's jobs over the (possibly degraded) transport,
        reporting each record to ``on_record(round_index, record)``.

        The in-process serial bypass streams: every record is reported
        the moment its job finishes, while the pool/shm transports (whose
        results only exist once the round's map returns) report the
        whole round at the end."""
        if self.transport == "shm" and self.cache is None \
                and self._transport_degraded is None:
            try:
                records = self._run_shm(round_jobs, round_specs, attempt)
            except FaultInjected:
                raise  # store.append faults must escape, not demote
            except OSError as exc:
                # arena setup failed (no /dev/shm space, limits): the
                # batch still completes — over pickling
                self._degrade_transport(f"{type(exc).__name__}: {exc}")
            else:
                self._report(records, on_record)
                return
        if self.cache is not None:
            self._run_serial(round_jobs, round_specs, attempt, on_record)
            return
        fn = functools.partial(
            execute_job, cache_dir=self.cache_dir, attempt=attempt
        )
        pool = WorkerPool(max_workers=self.workers, timeout=self.timeout)
        outcomes = pool.map(fn, round_specs)
        records = [
            self._record_of(job, outcome)
            for job, outcome in zip(round_jobs, outcomes)
        ]
        self._report(records, on_record)

    def _report(
        self,
        records: List[Dict[str, Any]],
        on_record: Callable[[int, Dict[str, Any]], None],
    ) -> None:
        """Report a completed round's records, stamping any transport
        degradation first."""
        for j, record in enumerate(records):
            on_record(j, self._stamped(record))

    def _stamped(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """*record*, marked with this run's shm demotion if any."""
        if self.transport == "shm" and self._transport_degraded:
            record.setdefault("transport_fallback", self._transport_degraded)
        return record

    def _degrade_transport(self, reason: str) -> None:
        """Demote the rest of this run from shm to pickling (once)."""
        if self._transport_degraded:
            return
        self._transport_degraded = reason
        obs.count("transport.fallback")
        obs.annotate("transport_fallback", reason)
        obs.event("transport_fallback", reason=reason)

    # ------------------------------------------------------------------
    # serial execution
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        jobs: Sequence[SimJob],
        specs: List[Dict[str, Any]],
        attempt: int,
        on_record: Callable[[int, Dict[str, Any]], None],
    ) -> None:
        """In-process serial execution: no transport, no subprocesses.

        With ``batch_fusion="auto"`` same-program groups of two or more
        first run as one slab each.  The ``worker.exec`` fault site fires
        per slab member before its slab runs: a faulted member leaves the
        slab with the failure record :func:`execute_job` would have
        produced.  Every other job — all of them under ``"off"``, and
        ungrouped jobs and members of a declined slab (with the decline
        reason recorded) under ``"auto"`` — runs through
        :func:`execute_job` (a fast builder job as a slab of one), its
        escaping exceptions captured as failure records the way a pool
        worker's are.  Every record streams to ``on_record`` the moment
        it exists, so checkpoints land per job.
        """
        assert self.cache is not None
        done = [False] * len(jobs)
        declined: Dict[int, str] = {}
        groups: List[List[int]] = []
        if self.batch_fusion == "auto":
            from repro.service.slab import execute_slab, slab_groups

            groups = slab_groups(jobs)
        for idxs in groups:
            members = []
            for i in idxs:
                failure = _exec_fault(jobs[i], attempt)
                if failure is None:
                    members.append(i)
                    continue
                failure["duration_s"] = 0.0
                done[i] = True
                on_record(i, self._stamped(failure))
            if len(members) < 2:
                continue  # execute_job runs a lone job as a slab of one
            start = time.perf_counter()
            slab_records, reason = execute_slab(
                [jobs[i] for i in members], self.cache
            )
            if slab_records is None:
                for i in members:
                    declined[i] = reason or "slab declined"
                continue
            duration = round(
                (time.perf_counter() - start) / len(members), 6
            )
            for i, record in zip(members, slab_records):
                record["duration_s"] = duration
                done[i] = True
                on_record(i, self._stamped(record))
        fn = functools.partial(execute_job, cache=self.cache, attempt=attempt)
        for i, (job, spec) in enumerate(zip(jobs, specs)):
            if done[i]:
                continue
            record = self._record_of(job, call_captured(fn, spec, i))
            if i in declined:
                record.setdefault(
                    "fallback_reason", f"batch_fusion: {declined[i]}"
                )
            on_record(i, self._stamped(record))

    # ------------------------------------------------------------------
    # shm transport
    # ------------------------------------------------------------------
    def _run_shm(
        self, jobs: Sequence[SimJob], specs: List[Dict[str, Any]],
        attempt: int = 1,
    ) -> List[Dict[str, Any]]:
        """Parallel execution over shared-memory segments.

        The arena (and therefore every segment) is owned by this process
        and cleaned up in ``finally`` — worker crashes, timeouts, and
        mid-batch exceptions cannot leak shared memory.  A runner-owned
        arena is destroyed outright; a caller-provided persistent arena
        (``self.arena``, the serve daemon's) instead *releases* exactly
        the segments this batch allocated, leaving the arena alive for
        the next request.  Kept fields are materialized out of the
        segments (one local memcpy each) before cleanup, so returned
        records own ordinary arrays.
        """
        from repro.service.shm import ShmArena

        arena = self.arena if self.arena is not None else ShmArena()
        preexisting = set(arena.names)
        records: List[Dict[str, Any]] = []
        try:
            with obs.span("arena_setup"):
                inputs_by_shape: Dict[Tuple[int, ...], Tuple[Dict, float]] \
                    = {}
                tasks: List[Dict[str, Any]] = []
                for job, spec in zip(jobs, specs):
                    task: Dict[str, Any] = {"spec": spec}
                    if job.method != "program":
                        shared = inputs_by_shape.get(job.shape)
                        if shared is None:
                            from repro.apps.poisson3d import (
                                manufactured_solution,
                            )

                            u_star, f, h = manufactured_solution(job.shape)
                            shared = (
                                {"u_star": arena.place(u_star),
                                 "f": arena.place(f)},
                                h,
                            )
                            inputs_by_shape[job.shape] = shared
                        task["inputs"], task["inputs_h"] = shared
                    if job.keep_fields:
                        task["fields"] = {
                            "u": arena.allocate(_field_shape(job))
                        }
                    tasks.append(task)
                self.last_shm_segments = [
                    name for name in arena.names
                    if name not in preexisting
                ]
            pool = WorkerPool(max_workers=self.workers, timeout=self.timeout)
            outcomes = pool.map(
                functools.partial(
                    execute_job_shm, cache_dir=self.cache_dir,
                    attempt=attempt,
                ),
                tasks,
            )
            with obs.span("transport"):
                for job, task, outcome in zip(jobs, tasks, outcomes):
                    record = self._record_of(job, outcome)
                    if outcome.ok and record.get("ok") and "fields" in task:
                        record["fields"] = {
                            name: arena.materialize(ref)
                            for name, ref in task["fields"].items()
                        }
                    records.append(record)
        finally:
            if self.arena is not None:
                arena.release(
                    [n for n in arena.names if n not in preexisting]
                )
            else:
                arena.destroy()
        return records

    @staticmethod
    def _digest_fields(records: List[Dict[str, Any]]) -> None:
        """Stamp per-field SHA-256 digests next to kept field arrays.

        The digests are what the result store keeps (byte-reproducible
        and transport-independent: identical grids hash identically
        whether they arrived pickled or through shared memory)."""
        for record in records:
            fields = record.get("fields")
            if not fields:
                continue
            record["fields_sha256"] = {
                name: hashlib.sha256(
                    np.ascontiguousarray(array).tobytes()
                ).hexdigest()
                for name, array in fields.items()
            }

    @staticmethod
    def _record_of(job: SimJob, outcome: WorkerOutcome) -> Dict[str, Any]:
        if outcome.ok:
            record = dict(outcome.value)
        else:
            # the worker died before producing a record (timeout, pickling,
            # pool breakage): synthesize one so the store stays complete
            record = {
                "job_id": job.job_id,
                "label": job.describe(),
                "method": job.method,
                "shape": list(job.shape),
                "ok": False,
                "error": f"{outcome.error_type}: {outcome.error}",
                "error_type": outcome.error_type,
            }
        # every stored record carries the full observability schema, even
        # ones synthesized for dead workers (zeroed stages, null tier)
        record.setdefault("timings", dict(obs.ZERO_TIMINGS))
        record.setdefault("tier", None)
        # wall-clock: duration_s and timings are volatile (they vary run
        # to run) — store comparisons go through the canonical projection
        # (see repro.service.results), not raw bytes
        record["duration_s"] = round(outcome.duration_s, 6)
        return record


__all__ = [
    "BATCH_FUSION_MODES",
    "BatchRunner",
    "BatchSummary",
    "TRANSPORTS",
    "execute_job",
    "execute_job_shm",
    "reset_process_cache",
]
