"""Slab execution: one batch-fused run for N same-program service jobs.

The per-job path (:func:`repro.service.runner.execute_job`) pays machine
construction, input loading, state pull/commit, and record assembly once
per job even when every job in a sweep compiles to the *same* program on
the *same* machine parameters.  This module collapses that: fusable jobs
group into **slabs** (:func:`slab_groups`), one *template* machine is
built and loaded once, its pulled planes broadcast into stacked
``(n_jobs, extent)`` storage, each job's seeded initial guess overwrites
its own ``u`` row (the solver loaders write ``u0`` verbatim, so a row
overwrite reproduces ``entry.load`` exactly), and a single
:class:`~repro.sim.batchplan.BatchProgramRun` sweeps the whole stack.
Records are then synthesized per job from counts, without per-job
machines or per-issue records — cycles, flops, DMA words, and
interrupt-delivery counts are folded from the slab engine's one issue
log (:meth:`~repro.sim.batchplan.BatchProgramRun.job`), bit-identical to
what ``machine.metrics(result)`` reports on the per-job fused path.

Anything that stops a slab — an unfusable program, mixed parameters
(those never group), a mid-run decline such as a non-finite value — is
returned as a *reason* and the caller re-runs every member job through
:func:`execute_job`; the slab mutated nothing shared, so the fallback is
exact (the PR 5 commit-point contract, one level up).

Observability: each slab job's record is stamped ``tier="batch_fused"``
and ``slab_size``; counters ``tier.batch_fused`` (per job) and
``slab.formed`` / ``slab.jobs`` (per batch) feed ``nsc-vpe stats``'s
tier mix, and shared bind/execute wall time is apportioned equally
across member jobs' stage timings so per-stage aggregates stay
meaningful.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import tracer as obs
from repro.service.cache import ProgramCache
from repro.service.jobs import SimJob


def slab_groups(jobs: Sequence[SimJob]) -> List[List[int]]:
    """Index groups of fusable same-program jobs, in first-seen order.

    Eligible jobs run a builder solver on a single simulated node with
    the fast backend; grouping on :meth:`SimJob.cache_key` guarantees
    identical compiled microcode *and* identical machine parameters.
    Singleton groups are dropped — a slab of one is just overhead.
    """
    groups: Dict[str, List[int]] = {}
    for i, job in enumerate(jobs):
        if (
            job.backend != "fast"
            or job.hypercube_dim != 0
            or job.method == "program"
        ):
            continue
        groups.setdefault(job.cache_key(), []).append(i)
    return [idxs for idxs in groups.values() if len(idxs) >= 2]


def execute_slab(
    jobs: Sequence[SimJob], cache: ProgramCache
) -> Tuple[Optional[List[Dict[str, Any]]], Optional[str]]:
    """Run one fusable group as a slab.

    Returns ``(records, None)`` on success — one record per job, in
    order, matching :func:`execute_job`'s schema plus ``slab_size`` —
    or ``(None, reason)`` when the slab declines, in which case nothing
    observable has changed and the caller runs each job individually.
    """
    from repro.sim.progplan import FusionUnsupported

    try:
        return _execute_slab(jobs, cache), None
    except FusionUnsupported as exc:
        reason = str(exc)
    except Exception as exc:  # pragma: no cover - defensive
        # a slab must never be able to fail a batch: anything unexpected
        # routes every member through the authoritative per-job path
        reason = f"{type(exc).__name__}: {exc}"
    obs.count("batch_fusion.fallback")
    obs.event("batch_fusion_fallback", scope="slab", jobs=len(jobs),
              reason=reason)
    return None, reason


def _execute_slab(
    jobs: Sequence[SimJob], cache: ProgramCache
) -> List[Dict[str, Any]]:
    from repro.apps.poisson3d import manufactured_solution
    from repro.arch.node import node_config
    from repro.compose.registry import SOLVERS
    from repro.sim.batchplan import (
        BatchProgramRun,
        machine_bindings,
        stacked_template_storage,
    )
    from repro.sim.machine import NSCMachine
    from repro.sim.metrics import RunMetrics
    from repro.sim.progplan import FusionUnsupported, compiled_plan
    from repro.service.runner import (
        _compile_single,
        _field_shape,
        _initial_grid,
        _obtain_program,
        _record_head,
    )

    n_jobs = len(jobs)
    job0 = jobs[0]
    node = node_config(job0.params())
    params = node.params

    # --- per-job compile stage (preserves cache-hit deltas and checker
    # stamps exactly as N per-job runs would produce them) -------------
    tracers = [obs.Tracer() for _ in jobs]
    records: List[Dict[str, Any]] = []
    checkers: List[Optional[str]] = []
    value = None
    for job, tracer in zip(jobs, tracers):
        record = _record_head(job)
        hits_before = cache.stats.hits
        lookups_before = cache.stats.lookups
        with obs.use(tracer):
            value, checker = _obtain_program(
                job, cache,
                lambda check, j=job: _compile_single(j, node, check),
            )
        if cache.stats.lookups > lookups_before:
            record["cache_hit"] = cache.stats.hits > hits_before
        checkers.append(checker)
        records.append(record)
    setup, program = value
    if setup is None:  # pragma: no cover - "program" jobs never group
        raise FusionUnsupported("saved programs have no slab loader")

    # --- shared bind: plan, template machine, stacked storage ---------
    bind_start = time.perf_counter()
    plan = compiled_plan(program, params)
    entry = SOLVERS[job0.method]
    u_star, f, _h = manufactured_solution(job0.shape, h=setup.h)
    template = NSCMachine(node, backend="fast")
    template.load_program(program)
    entry.load(template, setup, np.zeros(job0.shape), f)
    watch = entry.watch_pipeline(setup)
    variables, armed = machine_bindings(plan, template)
    if "u" not in variables:
        raise FusionUnsupported("solver state variable 'u' not in plan")
    storage = stacked_template_storage(
        template, n_jobs, plan.plane_extent, plan.cache_extent
    )
    storage.variables = variables
    uvar = variables["u"]
    u_plane = storage.planes[uvar.plane]
    for j, job in enumerate(jobs):
        if job.u0_seed is not None:
            # the loaders write u0 verbatim (see load_jacobi_inputs /
            # load_rbsor_inputs), so the row overwrite IS entry.load
            u_plane[j, uvar.offset:uvar.end] = _initial_grid(job).reshape(-1)
    run = BatchProgramRun(plan, storage, n_jobs, max_instructions=1_000_000)
    bind_s = time.perf_counter() - bind_start

    # --- one fused execution over the whole stack ---------------------
    exec_start = time.perf_counter()
    run.run()  # FusionUnsupported propagates to execute_slab
    exec_s = time.perf_counter() - exec_start

    # --- per-job record synthesis (no machines) -----------------------
    obs.count("slab.formed")
    obs.count("slab.jobs", n_jobs)
    fingerprint = program.fingerprint()
    field_shape = _field_shape(job0)
    # the final u plane may have been reference-swapped; re-resolve
    u_plane = storage.planes[uvar.plane]
    for j, (job, tracer, record) in enumerate(zip(jobs, tracers, records)):
        job_run = run.job(j)
        tracer.timings["bind"] = tracer.timings.get("bind", 0.0) \
            + bind_s / n_jobs
        tracer.timings["execute"] = tracer.timings.get("execute", 0.0) \
            + exec_s / n_jobs
        metrics = RunMetrics(
            cycles=job_run.cycles,
            instructions=job_run.instructions,
            flops=job_run.flops,
            words_moved=job_run.words_read + job_run.words_written,
            clock_mhz=params.clock_mhz,
            peak_mflops=params.peak_mflops_per_node,
            n_fus=node.n_fus,
            active_fu_cycles=job_run.active_fu_cycles,
            interrupts_delivered=job_run.interrupts_delivered(armed),
        )
        converged = run.converged[j]
        record.update({
            "converged": bool(converged) if converged is not None else None,
            "sweeps": run.loop_iterations[j].get(watch, 0)
            if watch is not None else 0,
            "cycles": job_run.cycles,
            "program_fingerprint": fingerprint,
            "metrics": metrics.summary(),
        })
        if checkers[j] is not None:
            record["checker"] = checkers[j]
        u = u_plane[j, uvar.offset:uvar.end].reshape(field_shape)
        record["error_vs_analytic"] = float(np.max(np.abs(u - u_star)))
        if job.keep_fields:
            with obs.use(tracer), obs.span("transport"):
                record["fields"] = {"u": np.array(u, dtype=np.float64)}
        with obs.use(tracer):
            obs.count("tier.batch_fused")
            obs.annotate("tier", "batch_fused")
        telemetry = tracer.telemetry()
        record["ok"] = True
        record["timings"] = telemetry.stage_timings()
        record["tier"] = telemetry.annotations.get("tier")
        record["slab_size"] = n_jobs
    return records


__all__ = ["execute_slab", "slab_groups"]
