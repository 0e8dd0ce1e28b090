"""The batch orchestrator: jobs -> cached compile -> pool -> result store.

:func:`execute_job` is the unit of work.  It is a top-level function taking
a plain job dict so it pickles cleanly into pool workers; each worker
process keeps one module-level :class:`ProgramCache` (optionally backed by
a shared disk directory) and every record reports whether its program was
a cache hit, so the batch summary can prove recompilation was avoided.

:class:`BatchRunner` wires the pieces: it expands nothing and decides
nothing about *what* to run — that is :mod:`repro.service.sweep`'s job —
it just executes a job list with deterministic ordering, failure
isolation, and JSONL persistence.  Every round takes one path: *plan*
the jobs into units (``batch_fusion="auto"`` puts same-program fast
jobs into one slab unit, every other job is a unit of one), build one
task per unit, and run every task through one :meth:`WorkerPool.map` of
:func:`execute_unit` — in-process for ``workers=1`` without a timeout,
in worker processes otherwise.  Two knobs shape the tasks:

- ``transport`` — how grids move between parent and pool workers.
  ``"pickle"`` (default): specs out, records (including any kept field
  arrays) pickled back through executor pipes.  ``"shm"``: problem
  inputs are written once per grid shape into
  :mod:`multiprocessing.shared_memory` segments that workers attach
  read-only, and kept fields are written by the worker into output
  segments the parent preallocated (see :mod:`repro.service.shm`).  An
  in-process run needs no transport, so ``workers=1`` behaves the same
  either way.
- ``run_checker`` — when the design-rule checker runs at compile time
  (see :class:`~repro.service.jobs.SimJob`); ``BatchRunner``'s value,
  if given, overrides every job's own setting for the batch.

Cleanup is deterministic: the shm arena backing a round is cleaned up in
a ``finally`` block, so worker crashes, timeouts, and mid-batch
exceptions never leak a segment.

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
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.obs import tracer as obs
from repro.service import faults
from repro.service.cache import ProgramCache
from repro.service.faults import FaultInjected, FaultPlan
from repro.service.jobs import CHECKER_MODES, SimJob
from repro.service.pool import WorkerOutcome, WorkerPool
from repro.service.results import ResultStore
from repro.service.retry import RetryPolicy, classify_record

#: Payload transports for parallel batches (see module docstring).
TRANSPORTS = ("pickle", "shm")

#: Batch-fusion modes: "off" always runs jobs one at a time; "auto"
#: groups same-program jobs into slab units on every executor and
#: transport (see :mod:`repro.service.slab`) and falls back per job on
#: any decline.
BATCH_FUSION_MODES = ("off", "auto")

#: Per-process cache used by pool workers (and by in-process calls that
#: pass no cache).  Keyed compilation output survives across jobs within
#: one worker; the disk layer shares it across workers.
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
    across runs), ``duration_s`` (its wall time, volatile too) and
    ``tier`` (which execution tier actually ran — deterministic for a
    given job + backend).

    ``attempt`` is the 1-based retry attempt this execution represents;
    it keys the ``worker.exec`` fault site (:mod:`repro.service.faults`)
    and changes nothing else — a retried job is the same pure function
    of its spec.  Failure records carry ``error_type`` (the exception
    class name) so the retry layer can classify them.
    """
    start = time.perf_counter()
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
    record["duration_s"] = round(time.perf_counter() - start, 6)
    return _stamp_telemetry(record, tracer)


def _record_head(job: SimJob) -> Dict[str, Any]:
    """The identifying keys every job record starts with (``cache_key``
    is None for a saved program whose file cannot be read)."""
    try:
        cache_key: Optional[str] = job.cache_key()
    except OSError:
        cache_key = None
    return {
        "job_id": job.job_id,
        "label": job.describe(),
        "method": job.method,
        "shape": list(job.shape),
        "eps": job.eps,
        "subset": job.subset,
        "hypercube_dim": job.hypercube_dim,
        "backend": job.backend,
        "cache_key": cache_key,
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
        record["duration_s"] = 0.0
        return _stamp_telemetry(record, tracer)
    return None


def execute_unit(
    task: Mapping[str, Any],
    cache: Optional[ProgramCache] = None,
    cache_dir: Optional[str] = None,
    attempt: int = 1,
) -> List[Dict[str, Any]]:
    """Run one *unit* of a batch — one job, or a group of same-program
    jobs as one slab — and return one record per member, in order.

    This is :class:`BatchRunner`'s one worker function, in-process and
    in pool workers alike (top-level, so it pickles).  ``task["specs"]``
    holds the members' job specs.  Under the shm transport the task also
    carries :class:`~repro.service.shm.ShmArrayRef` handles: the shared
    problem inputs (``"inputs"``, built with grid spacing
    ``"inputs_h"``) and one output mapping or None per member
    (``"fields"``).  They are attached for the unit's duration (after
    the ``shm.attach`` fault site fires per member) and released before
    returning; an attach failure propagates, failing the whole unit.

    A group fires ``worker.exec`` per member (a faulted member gets the
    failure record :func:`execute_job` would produce) and runs the
    survivors as one slab (:func:`repro.service.slab.execute_slab`) if
    two or more remain, else through :func:`execute_job`; a declined
    slab's members rerun one by one with ``fallback_reason`` stamped.
    Every record's ``duration_s`` is its own wall time, a slab's split
    equally among its members.
    """
    if cache is None:
        cache = _process_cache(cache_dir)
    specs = task["specs"]
    tracer = obs.Tracer()
    with contextlib.ExitStack() as stack:
        inputs = None
        fields: List[Optional[Mapping[str, np.ndarray]]] = [None] * len(specs)
        if "fields" in task:
            with obs.use(tracer), obs.span("transport"):
                inputs, fields = _attach(task, stack, attempt)
        if len(specs) == 1:
            return [execute_job(specs[0], cache=cache, inputs=inputs,
                                fields_out=fields[0], tracer=tracer,
                                attempt=attempt)]
        jobs = [SimJob.from_dict(spec) for spec in specs]
        records = [_exec_fault(job, attempt) for job in jobs]
        members = [k for k, record in enumerate(records) if record is None]
        reason = None
        if len(members) >= 2:
            from repro.service import slab

            start = time.perf_counter()
            slab_records, reason = slab.execute_slab(
                [jobs[k] for k in members], cache, inputs,
                [fields[k] for k in members],
            )
            if slab_records is not None:
                duration = round(
                    (time.perf_counter() - start) / len(members), 6
                )
                for k, record in zip(members, slab_records):
                    record["duration_s"] = duration
                    records[k] = record
                members = []
        for k in members:
            records[k] = execute_job(specs[k], cache=cache, inputs=inputs,
                                     fields_out=fields[k], attempt=attempt)
            if reason is not None:
                records[k].setdefault(
                    "fallback_reason", f"batch_fusion: {reason}"
                )
    # the unit's segment attach time splits evenly over its members
    attach = tracer.timings.get("transport", 0.0) / len(records)
    if attach:
        for record in records:
            record["timings"]["transport"] = round(
                record["timings"]["transport"] + attach, 6
            )
    return records


def _attach(
    task: Mapping[str, Any], stack: contextlib.ExitStack, attempt: int,
) -> Tuple[Optional[Dict[str, Any]], List[Optional[Dict[str, np.ndarray]]]]:
    """Attach a unit's shm segments onto *stack*: ``(inputs, fields)``,
    inputs read-only and each member's output fields writable."""
    from repro.service.shm import attached

    for spec in task["specs"]:
        faults.check("shm.attach", SimJob.from_dict(spec).job_id, attempt)
    inputs: Optional[Dict[str, Any]] = None
    if task.get("inputs"):
        inputs = {
            name: stack.enter_context(attached(ref, readonly=True))
            for name, ref in task["inputs"].items()
        }
        inputs["h"] = task["inputs_h"]
    fields = [
        None if refs is None else {
            name: stack.enter_context(attached(ref, readonly=False))
            for name, ref in refs.items()
        }
        for refs in task["fields"]
    ]
    return inputs, fields


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
    backend = None
    if job.backend == "fast" and setup is not None:
        from repro.service.slab import run_slab
        from repro.sim.batchplan import record_decline
        from repro.sim.progplan import FusionUnsupported

        try:
            return run_slab([job], [obs.current() or obs.Tracer()], node,
                            setup, program, [checker], inputs,
                            [fields_out])[0]
        except FusionUnsupported as exc:
            record_decline(exc)
            backend = "reference"  # its fused run would decline again
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
        result = machine.run(backend=backend)
    return _solution_record(
        job, program, checker, result.converged,
        result.loop_iterations.get(watch, 0), machine.metrics(result),
        machine.get_variable("u") if u_star is not None else None,
        u_star, fields_out,
    )


def _problem(job: SimJob, setup: Any, inputs: Optional[Mapping[str, Any]]
             ) -> Tuple[np.ndarray, np.ndarray]:
    """``(u_star, f)``: the caller's shared arrays if built with this
    setup's grid spacing, else the grid's memoized ones."""
    if inputs is not None and inputs.get("h") == setup.h:
        return inputs["u_star"], inputs["f"]
    u_star, f, _h = grid_problem(job.shape, setup.h)
    return u_star, f


def grid_problem(shape: Tuple[int, int, int], h: Optional[float] = None
                 ) -> Tuple[np.ndarray, np.ndarray, float]:
    """The manufactured problem ``(u_star, f, h)`` on one grid, built
    once per ``(shape, h)`` and shared read-only by every job on it:
    single-node and multi-node runs, and the shm transport's input
    placement.  ``h`` defaults to the builders' spacing, ``1/(n-1)`` on
    the longest axis, so a default call and a setup's ``h`` share one
    entry."""
    if h is None:
        h = 1.0 / (max(shape) - 1)
    return _grid_problem(tuple(shape), h)


@functools.lru_cache(maxsize=16)
def _grid_problem(shape: Tuple[int, int, int], h: float
                  ) -> Tuple[np.ndarray, np.ndarray, float]:
    from repro.apps.poisson3d import manufactured_solution
    from repro.compose.jacobi import read_only

    u_star, f, h = manufactured_solution(shape, h=h)
    return (*read_only(u_star, f), h)


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
            u_star, _f, _h = grid_problem(job.shape)
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
        Worker processes.  ``1`` (without a timeout) runs the units
        in-process: no subprocesses, no transport, shared in-memory
        cache, and each unit's records reach the store as it finishes.
    timeout:
        Per-job wall-clock ceiling; forces the process pool (a serial
        "timeout" would be a lie — see :class:`WorkerPool`) and makes
        every unit one job, since a per-job ceiling cannot be split
        across a slab.
    cache_dir:
        On-disk :class:`ProgramCache` layer shared across workers and
        sessions (compiled programs only).
    store:
        Optional :class:`ResultStore`; stored records never contain field
        arrays, only their SHA-256 digests.
    transport:
        ``"pickle"`` (default) or ``"shm"`` — how grids and kept field
        arrays move between parent and workers (module docstring): a
        property of each unit's task, so in-process runs, which need no
        transport, ignore it.
    run_checker:
        When set (one of :data:`~repro.service.jobs.CHECKER_MODES`),
        overrides every job's own ``run_checker`` for this batch.
    batch_fusion:
        Grouping only (a lone fast builder job is a slab of one either
        way, :mod:`repro.service.slab`).  ``"off"`` (default) runs jobs
        individually; ``"auto"`` plans same-program jobs into one slab
        unit, the same on every executor and transport, so a job list
        stores one canonical digest however it ran.  Slab records match
        per-job runs apart from the timing fields and carry
        ``tier="batch_fused"`` + ``slab_size``.  A declined slab's
        members run per job with ``fallback_reason`` recorded, and
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
        An explicit :class:`ProgramCache` for in-process runs, which
        hand it to every :func:`execute_unit` call in place of the
        runner-owned one.  A long-lived host (the ``nsc-vpe serve``
        daemon) passes the same cache to every runner it builds, so
        compiled programs — and with them the shared
        :data:`~repro.sim.fastpath.PLAN_CACHE` — stay warm across
        requests instead of across one batch.  Ignored by process runs
        (workers > 1 or a timeout), whose units use per-worker caches
        plus the disk layer.
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
        #: in-process runs share this cache across the whole batch;
        #: process runs (workers > 1, or any timeout, which forces the
        #: process pool) rely on per-worker caches plus the disk layer.
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
                    here one unit at a time, so the checkpoint frontier
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
                        self._digest_fields(record)
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
                    self._digest_fields(record)
                    final[i] = record
                    self._checkpoint(final, preloaded)

                # first round of a resume: a slab partly in the store
                # reruns whole, so its missing members' records
                # (slab_size, cache hits) match the uninterrupted run's
                self._run_round(
                    eff_jobs, specs, pending, attempt, absorb,
                    rerun=[i for i, done in enumerate(preloaded)
                           if done and attempt == 1],
                )
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
        rerun: Sequence[int] = (),
    ) -> None:
        """Execute attempt *attempt* for every job index in *indices*,
        reporting each record to ``on_record(job_index, record)``.

        The parent-side ``pool.submit`` fault site fires here: an item
        it claims never reaches the pool and reports a synthesized
        transient failure instead (the retry layer handles the rest).
        The rest are planned into units (:meth:`_units`) and every unit
        runs through one :meth:`WorkerPool.map` of :func:`execute_unit`.
        *rerun* names already-final jobs that join their units again
        without reporting (``resume`` re-forming a partly stored slab).
        """
        dispatch: List[int] = []
        for i in indices:
            try:
                faults.check("pool.submit", eff_jobs[i].job_id, attempt)
            except FaultInjected as exc:
                # an item that never reached the pool: a dead worker's
                # synthesized record, with zero duration
                on_record(i, self._failure_record(
                    eff_jobs[i], WorkerOutcome.failure(i, exc)
                ))
            else:
                dispatch.append(i)
        wanted = set(dispatch)
        planned = self._units(eff_jobs, sorted(dispatch + list(rerun)))
        units = [unit for unit in planned if not wanted.isdisjoint(unit)]
        if not units:
            return
        fn = functools.partial(
            execute_unit, cache=self.cache, cache_dir=self.cache_dir,
            attempt=attempt,
        )
        with self._tasks(eff_jobs, specs, units) as (tasks, arena):

            def report(outcome: WorkerOutcome) -> None:
                unit = units[outcome.index]
                refs = tasks[outcome.index].get("fields") \
                    or [None] * len(unit)
                records = outcome.value if outcome.ok else [
                    self._failure_record(eff_jobs[i], outcome) for i in unit
                ]
                for i, record, fields in zip(unit, records, refs):
                    if i not in wanted:
                        continue
                    if fields and record.get("ok"):
                        with obs.span("transport"):
                            record["fields"] = {
                                name: arena.materialize(ref)
                                for name, ref in fields.items()
                            }
                    if self.transport == "shm" and self._transport_degraded:
                        record.setdefault("transport_fallback",
                                          self._transport_degraded)
                    on_record(i, record)

            WorkerPool(max_workers=self.workers, timeout=self.timeout).map(
                fn, tasks, on_outcome=report
            )

    def _units(self, jobs: Sequence[SimJob],
               indices: List[int]) -> List[List[int]]:
        """Plan *indices* into units, ordered by their first job.  Under
        ``batch_fusion="auto"`` same-program fast builder jobs form one
        unit (:func:`~repro.service.slab.slab_groups`); every other job,
        and every job of a run with a ``timeout`` (a per-job ceiling
        cannot be split across a slab), is a unit of one."""
        if self.batch_fusion == "off" or self.timeout is not None:
            return [[i] for i in indices]
        from repro.service.slab import slab_groups

        return [
            [indices[k] for k in group]
            for group in slab_groups([jobs[i] for i in indices])
        ]

    @contextlib.contextmanager
    def _tasks(
        self, jobs: Sequence[SimJob], specs: List[Dict[str, Any]],
        units: List[List[int]],
    ) -> Iterator[Tuple[List[Dict[str, Any]], Any]]:
        """Yield ``(tasks, arena)``: one :func:`execute_unit` task per
        unit, and the shm arena their segment refs point into (None on
        the pickle transport, in-process runs and after a demotion).

        Under shm the problem inputs are placed once per grid shape and
        every kept field gets a preallocated output segment.  The arena
        is cleaned up on exit — a runner-owned one destroyed, a
        caller-provided one (``self.arena``, the serve daemon's)
        released of this round's segments — so worker crashes, timeouts
        and exceptions never leak shared memory."""
        tasks = [{"specs": [specs[i] for i in unit]} for unit in units]
        if self.transport != "shm" or self.cache is not None \
                or self._transport_degraded:
            yield tasks, None
            return
        from repro.service.shm import ShmArena

        arena = self.arena if self.arena is not None else ShmArena()
        preexisting = set(arena.names)
        try:
            try:
                with obs.span("arena_setup"):
                    shared: Dict[Tuple[int, ...], Tuple[Dict, float]] = {}
                    for unit, task in zip(units, tasks):
                        job = jobs[unit[0]]
                        if job.method != "program":
                            if job.shape not in shared:
                                u_star, f, h = grid_problem(job.shape)
                                shared[job.shape] = ({
                                    "u_star": arena.place(u_star),
                                    "f": arena.place(f),
                                }, h)
                            task["inputs"], task["inputs_h"] = \
                                shared[job.shape]
                        task["fields"] = [
                            {"u": arena.allocate(_field_shape(jobs[i]))}
                            if jobs[i].keep_fields else None
                            for i in unit
                        ]
            except OSError as exc:
                # arena setup failed (no /dev/shm space, limits): the
                # round still completes — over pickling
                self._degrade_transport(f"{type(exc).__name__}: {exc}")
                tasks = [{"specs": task["specs"]} for task in tasks]
            self.last_shm_segments = [
                name for name in arena.names if name not in preexisting
            ]
            yield tasks, arena
        finally:
            if self.arena is not None:
                arena.release(
                    [n for n in arena.names if n not in preexisting]
                )
            else:
                arena.destroy()

    def _degrade_transport(self, reason: str) -> None:
        """Demote the rest of this run from shm to pickling (once)."""
        if self._transport_degraded:
            return
        self._transport_degraded = reason
        obs.count("transport.fallback")
        obs.annotate("transport_fallback", reason)
        obs.event("transport_fallback", reason=reason)

    @staticmethod
    def _digest_fields(record: Dict[str, Any]) -> None:
        """Stamp per-field SHA-256 digests next to kept field arrays.

        The digests are what the result store keeps (byte-reproducible
        and transport-independent: identical grids hash identically
        whether they arrived pickled or through shared memory)."""
        if record.get("fields"):
            record["fields_sha256"] = {
                name: hashlib.sha256(
                    np.ascontiguousarray(array).tobytes()
                ).hexdigest()
                for name, array in record["fields"].items()
            }

    @staticmethod
    def _failure_record(job: SimJob,
                        outcome: WorkerOutcome) -> Dict[str, Any]:
        """The record of a job that never returned one (a ``pool.submit``
        fault, a timeout, a dead worker): the head every job record
        starts with, the failure, zeroed stages and no tier, so stored
        records keep one schema."""
        record = _record_head(job)
        record.update(
            ok=False,
            error=f"{outcome.error_type}: {outcome.error}",
            error_type=outcome.error_type,
            timings=dict(obs.ZERO_TIMINGS),
            tier=None,
            # wall-clock: duration_s and timings are volatile — store
            # comparisons go through the canonical projection
            duration_s=round(outcome.duration_s, 6),
        )
        return record


__all__ = [
    "BATCH_FUSION_MODES",
    "BatchRunner",
    "BatchSummary",
    "TRANSPORTS",
    "execute_job",
    "execute_unit",
    "reset_process_cache",
]
