"""Slab execution: the one service path for fast single-node jobs.

A *slab* is N same-program jobs on one machine parameter set, run by one
:class:`~repro.sim.batchplan.BatchProgramRun` over stacked
``(n_jobs, extent)`` storage.  No machine stands behind it: the storage
is built zeroed from the compiled plan's variable layout
(:func:`~repro.sim.progplan.stacked_storage`), the solver's loader
(``entry.load``) writes the inputs into every row through the storage's
``set_variable`` — the call it makes on a machine — and each job's
seeded ``u0`` overwrites its own row (the loaders write ``u0`` verbatim,
so that IS ``entry.load``).  A saved program (``method="program"``)
loads nothing: it runs on the zeroed storage ``NSCMachine.load_program``
leaves.  Records are folded per job from the run's one issue log
(:meth:`~repro.sim.batchplan.BatchProgramRun.job`,
:meth:`~repro.sim.batchplan.JobRun.metrics`), equal to
``machine.metrics(result)`` after a reference run on a fresh machine.

:func:`~repro.service.runner.execute_job` runs every fast, single-node
job as a slab of one (:func:`run_slab`), in serial, pool and daemon
runs alike, stamped ``tier="fused"``.
``batch_fusion="auto"`` only decides grouping: :func:`slab_groups`
plans a batch's same-program jobs into one unit each, on every
executor, and :func:`~repro.service.runner.execute_unit` runs a
unit's two or more members through :func:`execute_slab`
(``tier="batch_fused"``, ``slab_size``; counters ``tier.batch_fused``
per job, ``slab.formed`` / ``slab.jobs`` per slab; the shared bind and
execute time is split equally).  Every run counts its condition issues
once, as ``condition.settled`` / ``condition.reduced`` (see
:mod:`repro.sim.settle`).

A lone job runs exact — it raises its faults — so it declines only on
an unfusable program, and reruns on an ``NSCMachine``'s reference walk.
A group also declines, before anything shared changed, on a construct
only a lone job models or a fault mid-run; its members rerun through
``execute_job``.  Non-finite values decline neither: every row runs
them on as values.  Declines and
the reference backend are all that still run a service job on a
machine.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

# the engine's and the runner's functions are read off their modules at
# call time (``batchplan.compiled_plan``, ``runner.grid_problem``, ...),
# so a replaced one (a tracer's wrapper, a test's stand-in) serves the
# slab path too
from repro.arch import node as arch_node
from repro.compose.registry import SOLVERS
from repro.obs import tracer as obs
from repro.service import runner
from repro.service.cache import ProgramCache
from repro.service.jobs import SimJob
from repro.sim import batchplan, progplan
from repro.sim.progplan import FusionUnsupported


def slab_groups(jobs: Sequence[SimJob]) -> List[List[int]]:
    """A batch's units under ``batch_fusion="auto"``, as index groups in
    first-seen order: fast single-node jobs sharing one
    :meth:`SimJob.cache_key` (same microcode, same machine) form one
    group; every other job is a group of one."""
    groups: Dict[Any, List[int]] = {}
    for i, job in enumerate(jobs):
        key: Any = i
        if job.backend == "fast" and job.hypercube_dim == 0:
            try:
                key = job.cache_key()
            except OSError:
                pass  # an unreadable saved program fails as its own unit
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def execute_slab(
    jobs: Sequence[SimJob], cache: ProgramCache,
) -> Tuple[Optional[List[Dict[str, Any]]], Optional[str]]:
    """Run one group of two or more jobs as a slab.

    Returns ``(records, None)`` on success — one record per job, in
    order, matching :func:`execute_job`'s schema plus ``slab_size`` —
    or ``(None, reason)`` when the slab declines, in which case nothing
    observable has changed and the caller runs each job individually.
    """
    jobs = [job.pinned() for job in jobs]
    try:
        node = arch_node.node_config(jobs[0].params())
        # per-job compile: cache-hit deltas and checker stamps as N runs
        tracers = [obs.Tracer() for _ in jobs]
        records: List[Dict[str, Any]] = []
        checkers: List[Optional[str]] = []
        value = None
        for job, tracer in zip(jobs, tracers):
            record = runner._record_head(job)
            hits, lookups = cache.stats.hits, cache.stats.lookups
            with obs.use(tracer):
                value, checker = runner._obtain_program(
                    job, cache,
                    lambda check, j=job: runner._compile_single(
                        j, node, check),
                )
            if cache.stats.lookups > lookups:
                record["cache_hit"] = cache.stats.hits > hits
            checkers.append(checker)
            records.append(record)
        if len({record["cache_key"] for record in records}) > 1:
            # a saved program replaced between two members' reads: each
            # member must run the bytes its key names
            raise FusionUnsupported("slab members read different programs")
        setup, program = value
        computed = run_slab(jobs, tracers, node, setup, program, checkers)
    except FusionUnsupported as exc:
        reason = str(exc)
    except Exception as exc:  # pragma: no cover - defensive
        # a slab must never be able to fail a batch: anything unexpected
        # routes every member through the authoritative per-job path
        reason = f"{type(exc).__name__}: {exc}"
    else:
        obs.count("slab.formed")
        obs.count("slab.jobs", len(jobs))
        for record, result, tracer in zip(records, computed, tracers):
            record.update(result, ok=True, slab_size=len(jobs))
            runner._stamp_telemetry(record, tracer)
        return records, None
    obs.count("batch_fusion.fallback")
    obs.event("batch_fusion_fallback", scope="slab", jobs=len(jobs),
              reason=reason)
    return None, reason


def run_slab(jobs: Sequence[SimJob], tracers: Sequence[obs.Tracer],
             node: Any, setup: Any, program: Any,
             checkers: Sequence[Optional[str]],
             ) -> List[Dict[str, Any]]:
    """Run *jobs* (one compiled program) as one slab; return each job's
    computed record keys and stamp its tier into its tracer.

    *setup* is the builder's, or None for a saved program, which runs
    on the zeroed storage ``NSCMachine.load_program`` would leave and
    reports no solution.  Raises ``FusionUnsupported`` on any decline.
    A lone job's tracer is the active one; a group's share one slab
    tracer's bind and execute time.
    """
    n_jobs = len(jobs)
    shared = tracers[0] if n_jobs == 1 else obs.Tracer()
    uvar = u_star = watch = None
    with obs.use(shared):
        # --- shared bind: plan, stacked storage, loaded inputs --------
        with obs.span("bind"):
            plan = batchplan.compiled_plan(program, node.params)
            storage = progplan.stacked_storage(plan.variables, n_jobs,
                                      plan.plane_extent, plan.cache_extent)
            if setup is not None:
                uvar, u_star, watch = _load_inputs(jobs, setup, plan,
                                                   storage)
            run = batchplan.BatchProgramRun(plan, storage, n_jobs,
                                  max_instructions=1_000_000)
        # --- one fused execution over the whole stack -----------------
        with obs.span("execute"):
            run.run()
    if run.settled or run.reduced:
        # how many sweep conditions witnesses settled, how many reduced
        obs.count("condition.settled", run.settled)
        obs.count("condition.reduced", run.reduced)
    tier = "fused" if n_jobs == 1 else "batch_fused"
    # the final u plane may have been reference-swapped; re-resolve
    u_rows = None if uvar is None \
        else storage.planes[uvar.plane][:, uvar.offset:uvar.end]
    results = []
    for j, (job, tracer) in enumerate(zip(jobs, tracers)):
        if tracer is not shared:
            for stage in ("bind", "execute"):
                tracer.timings[stage] = tracer.timings.get(stage, 0.0) \
                    + shared.timings[stage] / n_jobs
        with obs.use(tracer):
            results.append(runner._solution_record(
                job, program, checkers[j], run.converged[j],
                run.loop_iterations[j].get(watch, 0),
                run.job(j).metrics(node),
                None if u_rows is None else u_rows[j], u_star,
            ))
            obs.count(f"tier.{tier}")
            obs.annotate("tier", tier)
    return results


def _load_inputs(jobs: Sequence[SimJob], setup: Any, plan: Any,
                 storage: Any) -> Tuple[Any, Any, Any]:
    """Load a builder solver's inputs into every row of *storage*;
    return the home of ``u``, the analytic solution and the watched
    pipeline."""
    job0 = jobs[0]
    if "u" not in plan.variables:
        raise FusionUnsupported("solver state 'u' not in plan")
    entry = SOLVERS[job0.method]
    u_star, f, _h = runner.grid_problem(job0.shape, setup.h)
    entry.load(storage, setup, runner._initial_grid(job0), f)
    uvar = plan.variables["u"]
    u_plane = storage.planes[uvar.plane]
    for j, job in enumerate(jobs[1:], 1):
        if job.u0_seed != job0.u0_seed:
            # the loaders write u0 verbatim (load_jacobi_inputs /
            # load_rbsor_inputs): the row overwrite IS entry.load
            u_plane[j, uvar.offset:uvar.end] = \
                runner._initial_grid(job).reshape(-1)
    return uvar, u_star, entry.watch_pipeline(setup)


__all__ = ["execute_slab", "run_slab", "slab_groups"]
