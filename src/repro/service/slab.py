"""Slab execution: the one service path for fast single-node builder jobs.

A *slab* is N same-program jobs on one machine parameter set, run by one
:class:`~repro.sim.batchplan.BatchProgramRun` over stacked
``(n_jobs, extent)`` storage: one *template* machine is loaded once, its
planes broadcast into the stack, and each job's seeded ``u0`` overwrites
its own row (the solver loaders write ``u0`` verbatim, so that IS
``entry.load``).  Records are folded per job from the run's one issue
log (:meth:`~repro.sim.batchplan.BatchProgramRun.job`), bit-identical to
``machine.metrics(result)`` — no machine commit, no interrupt replay.

:func:`~repro.service.runner.execute_job` runs every fast, single-node,
builder-solver job as a slab of one (:func:`run_slab`), in serial, pool,
shm and daemon runs alike, stamped ``tier="fused"``.
``batch_fusion="auto"`` only decides grouping: :func:`slab_groups`
plans a batch's same-program jobs into one unit each, on every executor
and transport, and :func:`~repro.service.runner.execute_unit` runs a
unit's two or more members through :func:`execute_slab`
(``tier="batch_fused"``, ``slab_size``; counters ``tier.batch_fused``
per job, ``slab.formed`` / ``slab.jobs`` per slab; the shared bind and
execute time is split equally).

A lone job runs exact — it keeps its FP exceptions and raises its
faults — so it declines only on an unfusable program, and reruns on an
``NSCMachine``'s reference walk.  A group also declines, before anything
shared changed, on a construct only a lone job models or a non-finite
value mid-run; its members rerun through ``execute_job``.  Declines, the
reference backend and saved programs (``method="program"``) are all
that still run a service job on a machine.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.obs import tracer as obs
from repro.service.cache import ProgramCache
from repro.service.jobs import SimJob


def slab_groups(jobs: Sequence[SimJob]) -> List[List[int]]:
    """A batch's units under ``batch_fusion="auto"``, as index groups in
    first-seen order: fast single-node builder jobs sharing one
    :meth:`SimJob.cache_key` (same microcode, same machine) form one
    group; every other job is a group of one."""
    groups: Dict[Any, List[int]] = {}
    for i, job in enumerate(jobs):
        slabbable = job.backend == "fast" and job.hypercube_dim == 0 \
            and job.method != "program"
        groups.setdefault(job.cache_key() if slabbable else i, []).append(i)
    return list(groups.values())


def execute_slab(
    jobs: Sequence[SimJob], cache: ProgramCache,
    inputs: Optional[Mapping[str, Any]] = None,
    fields_out: Optional[Sequence[Optional[Mapping[str, np.ndarray]]]] = None,
) -> Tuple[Optional[List[Dict[str, Any]]], Optional[str]]:
    """Run one group of two or more jobs as a slab.

    Returns ``(records, None)`` on success — one record per job, in
    order, matching :func:`execute_job`'s schema plus ``slab_size`` —
    or ``(None, reason)`` when the slab declines, in which case nothing
    observable has changed and the caller runs each job individually.
    ``inputs`` and ``fields_out`` are as :func:`run_slab` takes them.
    """
    from repro.arch.node import node_config
    from repro.service.runner import (
        _compile_single,
        _obtain_program,
        _record_head,
        _stamp_telemetry,
    )
    from repro.sim.progplan import FusionUnsupported

    try:
        node = node_config(jobs[0].params())
        # per-job compile: cache-hit deltas and checker stamps as N runs
        tracers = [obs.Tracer() for _ in jobs]
        records: List[Dict[str, Any]] = []
        checkers: List[Optional[str]] = []
        value = None
        for job, tracer in zip(jobs, tracers):
            record = _record_head(job)
            hits, lookups = cache.stats.hits, cache.stats.lookups
            with obs.use(tracer):
                value, checker = _obtain_program(
                    job, cache,
                    lambda check, j=job: _compile_single(j, node, check),
                )
            if cache.stats.lookups > lookups:
                record["cache_hit"] = cache.stats.hits > hits
            checkers.append(checker)
            records.append(record)
        setup, program = value
        computed = run_slab(jobs, tracers, node, setup, program, checkers,
                            inputs, fields_out)
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
            _stamp_telemetry(record, tracer)
        return records, None
    obs.count("batch_fusion.fallback")
    obs.event("batch_fusion_fallback", scope="slab", jobs=len(jobs),
              reason=reason)
    return None, reason


def run_slab(jobs: Sequence[SimJob], tracers: Sequence[obs.Tracer],
             node: Any, setup: Any, program: Any,
             checkers: Sequence[Optional[str]],
             inputs: Optional[Mapping[str, Any]] = None,
             fields_out: Optional[
                 Sequence[Optional[Mapping[str, np.ndarray]]]] = None,
             ) -> List[Dict[str, Any]]:
    """Run *jobs* (one compiled builder program) as one slab; return
    each job's computed record keys and stamp its tier into its tracer.

    Raises ``FusionUnsupported`` on any decline.  A lone job's tracer is
    the active one; a group's share one slab tracer's bind and execute
    time.  ``inputs`` (the shared problem arrays) and ``fields_out``
    (one output mapping or None per job) are the shm transport's
    segments, as :func:`execute_job` takes them.
    """
    from repro.compose.registry import SOLVERS
    from repro.service.runner import _initial_grid, _problem, _solution_record
    from repro.sim.batchplan import (
        BatchProgramRun,
        compiled_plan,
        machine_bindings,
        stacked_template_storage,
    )
    from repro.sim.machine import NSCMachine
    from repro.sim.metrics import RunMetrics
    from repro.sim.progplan import FusionUnsupported

    n_jobs = len(jobs)
    job0 = jobs[0]
    params = node.params
    entry = SOLVERS[job0.method]
    shared = tracers[0] if n_jobs == 1 else obs.Tracer()
    with obs.use(shared):
        # --- shared bind: plan, template machine, stacked storage -----
        with obs.span("bind"):
            plan = compiled_plan(program, params)
            u_star, f = _problem(job0, setup, inputs)
            template = NSCMachine(node, backend="fast")
            template.load_program(program)
            entry.load(template, setup, _initial_grid(job0), f)
            watch = entry.watch_pipeline(setup)
            variables, armed = machine_bindings(plan, template)
            if "u" not in variables:
                raise FusionUnsupported("solver state 'u' not in plan")
            storage = stacked_template_storage(
                template, n_jobs, plan.plane_extent, plan.cache_extent
            )
            storage.variables = variables
            uvar = variables["u"]
            u_plane = storage.planes[uvar.plane]
            for j, job in enumerate(jobs[1:], 1):
                if job.u0_seed != job0.u0_seed:
                    # the loaders write u0 verbatim (load_jacobi_inputs /
                    # load_rbsor_inputs): the row overwrite IS entry.load
                    u_plane[j, uvar.offset:uvar.end] = \
                        _initial_grid(job).reshape(-1)
            run = BatchProgramRun(plan, storage, n_jobs,
                                  max_instructions=1_000_000)
        # --- one fused execution over the whole stack -----------------
        with obs.span("execute"):
            run.run()
    tier = "fused" if n_jobs == 1 else "batch_fused"
    # the final u plane may have been reference-swapped; re-resolve
    u_plane = storage.planes[uvar.plane]
    results = []
    for j, (job, tracer) in enumerate(zip(jobs, tracers)):
        if tracer is not shared:
            for stage in ("bind", "execute"):
                tracer.timings[stage] = tracer.timings.get(stage, 0.0) \
                    + shared.timings[stage] / n_jobs
        job_run = run.job(j)
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
        with obs.use(tracer):
            results.append(_solution_record(
                job, program, checkers[j], run.converged[j],
                run.loop_iterations[j].get(watch, 0), metrics,
                u_plane[j, uvar.offset:uvar.end], u_star,
                fields_out[j] if fields_out else None,
            ))
            obs.count(f"tier.{tier}")
            obs.annotate("tier", tier)
    return results


__all__ = ["execute_slab", "run_slab", "slab_groups"]
