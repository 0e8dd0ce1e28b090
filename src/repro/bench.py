"""Performance harness: the reference interpreter vs. the fast path.

Each scenario runs an identical workload on both execution backends
(:data:`repro.sim.fastpath.BACKENDS`), *verifies* that they agree —
bit-identical grids, identical cycle and flop counts — and reports wall
time, simulated-cycle throughput, and speedup.  Results serialize to
machine-readable ``BENCH_<scenario>.json`` files, which CI uploads as
artifacts on every PR (the ``bench-smoke`` job fails if the backends ever
disagree).

Scenarios:

- ``jacobi_single`` — the paper's Eq. 1 example to convergence on one node;
- ``jacobi_multinode`` — the 64-node hypercube system (§2), one z-plane per
  slab, fixed sweep count: the headline fast-path scenario;
- ``batch_service`` — Poisson solver jobs through the batch service,
  measuring end-to-end job throughput;
- ``jacobi_converge`` — a single node run to convergence, where the
  reference's per-issue dispatch dominates: measures the whole-program
  compiled engine (:mod:`repro.sim.progplan`) against the reference;
- ``hypercube_scaling`` — the fused multi-node schedule across 8/16/32/64
  nodes, emitting per-node-count throughput;
- ``fused_coverage`` — the formerly-fallback program classes through the
  fused engine: a multi-node residual-skew *ablation* build (timed,
  gated at :data:`FUSED_COVERAGE_MIN_SPEEDUP` full), plus
  ``keep_outputs`` and rearmed-interrupt runs with bit-identical
  streams and proof the compiled engine accepted each;
- ``batch_fused`` — the one scenario whose two sides are batch-fusion
  modes, not backends: one seeded same-program sweep through the serial
  service twice, per-job fused (``batch_fusion="off"``) vs whole-batch
  slab execution (``batch_fusion="auto"``, :mod:`repro.sim.batchplan`),
  with bit-identical records required and the slab side gated at
  :data:`BATCH_FUSED_MIN_SPEEDUP` on the full configuration;
- ``analysis_coverage`` — the one *untimed* scenario: the static
  analyzer (:mod:`repro.analysis`) must report zero findings on every
  registry solver at the bench shapes, and must flag every seeded
  defect class (double-write, uninitialized read, WAW, RAW race, port
  conflict, dead write) on every solver — zero false negatives.

Drive it with ``nsc-vpe bench [--quick] [--scenarios ...] [--out DIR]``,
or programmatically via :func:`run_scenario` / :func:`run_bench`.  A
committed baseline (``benchmarks/perf/baseline.json``) guards against
perf regressions: ``nsc-vpe bench --compare benchmarks/perf/baseline.json``
exits non-zero when any recorded speedup falls more than
:data:`REGRESSION_TOLERANCE` below its baseline.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.choices import BACKENDS, SCENARIOS

#: Scenarios that emit pass/fail checks instead of timed speedups; they
#: never appear in the committed perf baseline (nothing to floor).
UNTIMED_SCENARIOS = frozenset({"analysis_coverage"})

#: Allowed fractional drop of a speedup below its committed baseline.
REGRESSION_TOLERANCE = 0.2

#: Required fused-vs-reference speedup for fused_coverage's full
#: configuration (the multi-node residual-skew ablation workload).
FUSED_COVERAGE_MIN_SPEEDUP = 3.0

#: Required batch-fused-vs-per-job-fused speedup for batch_fused's full
#: configuration (the 32-job seeded Jacobi sweep).
BATCH_FUSED_MIN_SPEEDUP = 2.0


class BenchError(ValueError):
    """Unknown scenario or malformed bench request."""


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def _side(wall_s: float, sim_cycles: int, **extra: Any) -> Dict[str, Any]:
    record = {
        "wall_s": wall_s,
        "sim_cycles": int(sim_cycles),
        "sim_cycles_per_sec": sim_cycles / wall_s if wall_s > 0 else 0.0,
    }
    record.update(extra)
    return record


def _finish(
    name: str,
    quick: bool,
    config: Dict[str, Any],
    sides: Dict[str, Dict[str, Any]],
    checks: Dict[str, bool],
    pair: Tuple[str, str] = ("reference", "fast"),
) -> Dict[str, Any]:
    """Assemble one scenario record.  ``pair`` names the (baseline,
    contender) sides the headline ``speedup`` divides — backends for most
    scenarios, batch-fusion modes for ``batch_fused``."""
    base_wall = sides[pair[0]]["wall_s"]
    cont_wall = sides[pair[1]]["wall_s"]
    return {
        "scenario": name,
        "quick": quick,
        "config": config,
        "backends": sides,
        "speedup": base_wall / cont_wall if cont_wall > 0 else 0.0,
        "speedup_pair": list(pair),
        "checks": checks,
        "ok": all(checks.values()),
    }


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
def _scenario_jacobi_single(quick: bool) -> Dict[str, Any]:
    from repro.arch.node import NodeConfig
    from repro.codegen.generator import MicrocodeGenerator
    from repro.compose.jacobi import build_jacobi_program, load_jacobi_inputs
    from repro.sim.machine import NSCMachine

    n = 8 if quick else 12
    eps = 1e-5
    shape = (n, n, n)
    node = NodeConfig()
    setup = build_jacobi_program(node, shape, eps=eps, max_iterations=5000)
    program = MicrocodeGenerator(node).generate(setup.program)
    from repro.apps.poisson3d import manufactured_solution

    _u_star, f, _h = manufactured_solution(shape, h=setup.h)

    runs: Dict[str, Any] = {}
    sides: Dict[str, Dict[str, Any]] = {}
    for backend in BACKENDS:
        machine = NSCMachine(node, backend=backend)
        machine.load_program(program)
        load_jacobi_inputs(machine, setup, np.zeros(shape), f)
        result, wall = _timed(machine.run)
        sweeps = result.loop_iterations.get(setup.update_pipeline, 0)
        runs[backend] = (machine, result)
        sides[backend] = _side(wall, result.total_cycles, sweeps=sweeps)

    (m_ref, r_ref), (m_fast, r_fast) = runs["reference"], runs["fast"]
    checks = {
        "grids_identical": bool(
            np.array_equal(m_ref.get_variable("u"), m_fast.get_variable("u"))
        ),
        "cycles_equal": r_ref.total_cycles == r_fast.total_cycles,
        "flops_equal": r_ref.total_flops == r_fast.total_flops,
        "converged_both": bool(r_ref.converged) and bool(r_fast.converged),
        "metrics_equal": (
            m_ref.metrics(r_ref).summary() == m_fast.metrics(r_fast).summary()
        ),
    }
    config = {"shape": list(shape), "eps": eps, "hypercube_dim": 0}
    return _finish("jacobi_single", quick, config, sides, checks)


def _scenario_jacobi_multinode(quick: bool) -> Dict[str, Any]:
    from repro.apps.poisson3d import manufactured_solution
    from repro.sim.multinode import MultiNodeStencil

    dim = 6  # the paper's 64-node system
    shape = (8, 8, 64)  # one real z-plane per slab
    sweeps = 12 if quick else 40
    u_star, _f, _h = manufactured_solution(shape)

    runs: Dict[str, Any] = {}
    sides: Dict[str, Dict[str, Any]] = {}
    for backend in BACKENDS:
        stencil = MultiNodeStencil(
            hypercube_dim=dim, shape=shape, eps=1e-30, backend=backend
        )
        stencil.scatter("u", u_star)
        result, wall = _timed(lambda: stencil.run(max_iterations=sweeps))
        runs[backend] = (stencil, result)
        sides[backend] = _side(
            wall,
            result.total_cycles,
            iterations=result.iterations,
            achieved_gflops=result.achieved_gflops,
        )

    (s_ref, r_ref), (s_fast, r_fast) = runs["reference"], runs["fast"]
    checks = {
        "grids_identical": bool(
            np.array_equal(s_ref.gather("u"), s_fast.gather("u"))
        ),
        "compute_cycles_equal": r_ref.compute_cycles == r_fast.compute_cycles,
        "comm_cycles_equal": r_ref.comm_cycles == r_fast.comm_cycles,
        "flops_equal": r_ref.flops == r_fast.flops,
        "words_equal": r_ref.words_exchanged == r_fast.words_exchanged,
        "residual_history_equal": (
            r_ref.residual_history == r_fast.residual_history
        ),
    }
    config = {
        "shape": list(shape),
        "hypercube_dim": dim,
        "n_nodes": 1 << dim,
        "sweeps": sweeps,
    }
    return _finish("jacobi_multinode", quick, config, sides, checks)


def _irq_stream(machine) -> List[Tuple[Any, ...]]:
    """The full delivered-interrupt stream (Interrupt.__eq__ compares
    fire cycles only, so parity checks need every field)."""
    return [
        (i.cycle, i.kind, i.source, i.payload)
        for i in machine.interrupts.delivered
    ]


#: Record keys that may legitimately differ between backend or fusion
#: runs ("checker" and "cache_hit" depend on compile history, not on
#: what the job computed; "timings"/"duration_s" are wall-clock; "tier"
#: and "fallback_reason" name the execution tier, which is exactly what
#: differs across backends; "slab_size" exists only on the batch-fused
#: tier's records).
_BACKEND_DEPENDENT_KEYS = (
    "job_id", "label", "backend", "cache_hit", "checker",
    "timings", "duration_s", "tier", "fallback_reason", "slab_size",
)


def _scenario_batch_service(quick: bool) -> Dict[str, Any]:
    from repro.apps.poisson3d import poisson_jobs
    from repro.service.runner import BatchRunner

    n = 5 if quick else 7
    eps = 1e-3 if quick else 1e-4
    methods = ("jacobi", "rb-gs", "rb-sor")
    max_sweeps = 2000

    runs: Dict[str, Any] = {}
    sides: Dict[str, Dict[str, Any]] = {}
    for backend in BACKENDS:
        jobs = poisson_jobs(
            n=n, methods=methods, eps=eps, max_sweeps=max_sweeps, backend=backend
        )
        runner = BatchRunner(workers=1)
        (records, summary), wall = _timed(lambda: runner.run(jobs))
        runs[backend] = records
        sides[backend] = _side(
            wall,
            summary.total_cycles,
            jobs=summary.total,
            jobs_per_sec=summary.total / wall if wall > 0 else 0.0,
        )

    def comparable(record: Dict[str, Any]) -> Dict[str, Any]:
        return {
            k: v for k, v in record.items() if k not in _BACKEND_DEPENDENT_KEYS
        }

    ref_records, fast_records = runs["reference"], runs["fast"]
    checks = {
        "all_jobs_ok": all(
            r.get("ok") for r in ref_records + fast_records
        ),
        "records_equal": [comparable(r) for r in ref_records]
        == [comparable(r) for r in fast_records],
    }
    config = {
        "n": n,
        "methods": list(methods),
        "eps": eps,
        "max_sweeps": max_sweeps,
    }
    return _finish("batch_service", quick, config, sides, checks)


def _scenario_jacobi_converge(quick: bool) -> Dict[str, Any]:
    """Single-node convergence run: the compiled engine's home turf.

    Times the reference interpreter and the whole-program compiled
    engine on one workload, each best-of-N to damp scheduler noise, with
    full parity checks.
    """
    from repro.arch.node import NodeConfig
    from repro.codegen.generator import MicrocodeGenerator
    from repro.compose.jacobi import build_jacobi_program, load_jacobi_inputs
    from repro.sim.machine import NSCMachine
    from repro.apps.poisson3d import manufactured_solution

    n = 8
    eps = 1e-5 if quick else 1e-11
    reps = 2 if quick else 3
    shape = (n, n, n)
    node = NodeConfig()
    setup = build_jacobi_program(node, shape, eps=eps, max_iterations=20_000)
    program = MicrocodeGenerator(node).generate(setup.program)
    _u_star, f, _h = manufactured_solution(shape, h=setup.h)

    runs: Dict[str, Any] = {}
    sides: Dict[str, Dict[str, Any]] = {}
    for backend in BACKENDS:
        wall = float("inf")
        for _rep in range(reps):
            machine = NSCMachine(node, backend=backend)
            machine.load_program(program)
            load_jacobi_inputs(machine, setup, np.zeros(shape), f)
            result, elapsed = _timed(machine.run)
            wall = min(wall, elapsed)
        sweeps = result.loop_iterations.get(setup.update_pipeline, 0)
        runs[backend] = (machine, result)
        sides[backend] = _side(wall, result.total_cycles, sweeps=sweeps)

    (m_ref, r_ref), (m_fast, r_fast) = runs["reference"], runs["fast"]
    checks = {
        "grids_identical": bool(
            np.array_equal(m_ref.get_variable("u"), m_fast.get_variable("u"))
        ),
        "cycles_equal": r_ref.total_cycles == r_fast.total_cycles,
        "flops_equal": r_ref.total_flops == r_fast.total_flops,
        "loop_iterations_equal": r_ref.loop_iterations == r_fast.loop_iterations,
        "issue_trace_equal": r_ref.issue_trace == r_fast.issue_trace,
        "converged_all": all(bool(r.converged) for r in (r_ref, r_fast)),
        "metrics_equal": (
            m_ref.metrics(r_ref).summary() == m_fast.metrics(r_fast).summary()
        ),
        "interrupts_equal": _irq_stream(m_ref) == _irq_stream(m_fast),
    }
    config = {"shape": list(shape), "eps": eps, "hypercube_dim": 0}
    return _finish("jacobi_converge", quick, config, sides, checks)


def _scenario_hypercube_scaling(quick: bool) -> Dict[str, Any]:
    """The fused multi-node schedule at 8, 16, 32, and 64 nodes.

    Each node count runs both backends with full parity checks and its
    own throughput entry under ``record["scaling"]``.
    """
    from repro.apps.poisson3d import manufactured_solution
    from repro.sim.multinode import MultiNodeStencil

    dims = (3, 4, 5, 6)
    shape = (8, 8, 64)  # nz divides every node count
    sweeps = 6 if quick else 20
    u_star, _f, _h = manufactured_solution(shape)

    sides = {b: {"wall_s": 0.0, "sim_cycles": 0} for b in BACKENDS}
    checks: Dict[str, bool] = {}
    scaling: List[Dict[str, Any]] = []
    for dim in dims:
        runs: Dict[str, Any] = {}
        walls: Dict[str, float] = {}
        for backend in BACKENDS:
            stencil = MultiNodeStencil(
                hypercube_dim=dim, shape=shape, eps=1e-30, backend=backend
            )
            stencil.scatter("u", u_star)
            result, wall = _timed(lambda: stencil.run(max_iterations=sweeps))
            runs[backend] = (stencil, result)
            walls[backend] = wall
            sides[backend]["wall_s"] += wall
            sides[backend]["sim_cycles"] += result.total_cycles
        (s_ref, r_ref), (s_fast, r_fast) = runs["reference"], runs["fast"]
        n_nodes = 1 << dim
        checks[f"grids_identical_{n_nodes}"] = bool(
            np.array_equal(s_ref.gather("u"), s_fast.gather("u"))
        )
        checks[f"cycles_equal_{n_nodes}"] = (
            r_ref.compute_cycles == r_fast.compute_cycles
            and r_ref.comm_cycles == r_fast.comm_cycles
        )
        checks[f"residuals_equal_{n_nodes}"] = (
            r_ref.residual_history == r_fast.residual_history
        )
        checks[f"flops_equal_{n_nodes}"] = r_ref.flops == r_fast.flops
        scaling.append(
            {
                "n_nodes": n_nodes,
                "ref_wall_s": walls["reference"],
                "fast_wall_s": walls["fast"],
                "speedup": (
                    walls["reference"] / walls["fast"]
                    if walls["fast"] > 0
                    else 0.0
                ),
                "achieved_gflops": r_fast.achieved_gflops,
                "comm_fraction": r_fast.comm_fraction,
                "sim_cycles": r_fast.total_cycles,
            }
        )
    for side in sides.values():
        wall = side["wall_s"]
        side["sim_cycles_per_sec"] = side["sim_cycles"] / wall if wall > 0 else 0.0
    config = {
        "shape": list(shape),
        "node_counts": [1 << d for d in dims],
        "sweeps": sweeps,
    }
    record = _finish("hypercube_scaling", quick, config, sides, checks)
    record["scaling"] = scaling
    return record


def _scenario_fused_coverage(quick: bool) -> Dict[str, Any]:
    """The formerly-fallback program classes through the fused engine.

    One record covers the three fallback classes the coverage work
    closed, with hard evidence that the *fused* engine (not a fallback
    tier) executed each of them:

    - **residual-skew ablation** (timed, the headline): a multi-node
      Jacobi build with auto-balancing disabled — skewed operand streams
      — on a non-cubic grid, reference backend vs the fused fast
      backend.  Exactly the ablation study the paper motivates; this
      used to drop all the way to the reference stepper.  Full parity is
      asserted and the full configuration gates
      :data:`FUSED_COVERAGE_MIN_SPEEDUP`.
    - **keep_outputs** (single node): per-issue ``fu_outputs`` streams
      must come back bit-identical to the reference, and the compiled
      engine must *accept* the run (``try_run_fused`` is not None).
    - **rearmed interrupts** (single node): FP kinds armed, a condition
      kind disarmed, non-finite inputs — delivered *and* dropped
      interrupt streams must match the reference exactly, again with the
      fused engine provably engaged; and the service's machine-less
      one-row run must fold the reference's delivered count.
    """
    from repro.apps.poisson3d import manufactured_solution
    from repro.arch.interrupts import InterruptKind
    from repro.arch.node import NodeConfig
    from repro.codegen.generator import MicrocodeGenerator
    from repro.compose.jacobi import build_jacobi_program, load_jacobi_inputs
    from repro.sim import batchplan, progplan
    from repro.sim.machine import NSCMachine
    from repro.sim.multinode import MultiNodeStencil

    node = NodeConfig()
    checks: Dict[str, bool] = {}

    # --- timed sides: the multi-node residual-skew ablation build -------
    dim = 3 if quick else 4
    n_nodes = 1 << dim
    shape = (6, 8, 32)  # non-cubic; nz divides both node counts
    sweeps = 10 if quick else 40
    reps = 1 if quick else 2
    local_shape = (shape[0], shape[1], shape[2] // n_nodes + 2)
    setup = build_jacobi_program(node, local_shape, eps=1e-30, loop=False)
    skew_program = MicrocodeGenerator(node, auto_balance=False).generate(
        setup.program
    )
    u_star, _f, _h = manufactured_solution(shape)

    def make_stencil(backend: str) -> MultiNodeStencil:
        stencil = MultiNodeStencil(
            hypercube_dim=dim,
            shape=shape,
            eps=1e-30,
            precompiled=(setup, skew_program),
            backend=backend,
        )
        stencil.scatter("u", u_star)
        return stencil

    # the whole-system compiler must *accept* the skewed build — a
    # FusionUnsupported here would silently time a fallback tier instead
    try:
        progplan.fused_stepper(make_stencil("fast"))
        checks["skew_fuses_multinode"] = True
    except progplan.FusionUnsupported:
        checks["skew_fuses_multinode"] = False

    runs: Dict[str, Any] = {}
    sides: Dict[str, Dict[str, Any]] = {}
    for backend in BACKENDS:
        wall = float("inf")
        for _rep in range(reps):
            stencil = make_stencil(backend)
            result, elapsed = _timed(lambda: stencil.run(max_iterations=sweeps))
            wall = min(wall, elapsed)
        runs[backend] = (stencil, result)
        sides[backend] = _side(
            wall,
            result.total_cycles,
            iterations=result.iterations,
            achieved_gflops=result.achieved_gflops,
        )
    (s_ref, r_ref), (s_fast, r_fast) = runs["reference"], runs["fast"]
    checks.update(
        {
            "grids_identical": bool(
                np.array_equal(s_ref.gather("u"), s_fast.gather("u"))
            ),
            "compute_cycles_equal": r_ref.compute_cycles == r_fast.compute_cycles,
            "comm_cycles_equal": r_ref.comm_cycles == r_fast.comm_cycles,
            "flops_equal": r_ref.flops == r_fast.flops,
            "residual_history_equal": (
                r_ref.residual_history == r_fast.residual_history
            ),
        }
    )

    # --- untimed coverage checks on one node ----------------------------
    cov_shape = (5, 6, 7)  # non-cubic again
    cov_setup = build_jacobi_program(node, cov_shape, eps=1e-4, max_iterations=40)
    cov_program = MicrocodeGenerator(node).generate(cov_setup.program)
    _u, cov_f, _h2 = manufactured_solution(cov_shape, h=cov_setup.h)
    rng = np.random.default_rng(20260726)
    cov_u0 = rng.random(cov_shape)

    def fresh(backend: str) -> NSCMachine:
        machine = NSCMachine(node, backend=backend)
        machine.load_program(cov_program)
        load_jacobi_inputs(machine, cov_setup, cov_u0, cov_f)
        return machine

    def irq_streams(machine: NSCMachine) -> Tuple[List[str], List[str]]:
        # repr: NaN payloads must compare equal, not unequal-to-itself
        return (
            [
                repr((i.cycle, i.kind, i.source, i.payload))
                for i in machine.interrupts.delivered
            ],
            [
                repr((i.cycle, i.kind, i.source, i.payload))
                for i in machine.interrupts.dropped
            ],
        )

    # keep_outputs: fused engine engaged, per-issue streams bit-identical
    probe = fresh("fast")
    checks["keep_outputs_runs_fused"] = (
        progplan.try_run_fused(probe, cov_program, 1_000_000, keep_outputs=True)
        is not None
    )
    m_ref = fresh("reference")
    r_ref1 = m_ref.run(keep_outputs=True)
    m_fast = fresh("fast")
    r_fast1 = m_fast.run(keep_outputs=True)
    checks["keep_outputs_streams_identical"] = (
        r_ref1.total_cycles == r_fast1.total_cycles
        and len(r_ref1.pipeline_results) == len(r_fast1.pipeline_results)
        and all(
            set(p.fu_outputs) == set(q.fu_outputs)
            and all(
                np.array_equal(p.fu_outputs[fu], q.fu_outputs[fu])
                for fu in p.fu_outputs
            )
            for p, q in zip(r_ref1.pipeline_results, r_fast1.pipeline_results)
        )
    )

    # rearmed interrupts: FP armed, CONDITION_FALSE masked, inf/nan input
    bad_u0 = cov_u0.copy()
    bad_u0[2, 3, 1] = np.inf
    bad_u0[1, 2, 3] = np.nan

    def rearm(machine: NSCMachine) -> NSCMachine:
        machine.set_variable("u", bad_u0.reshape(-1))
        machine.interrupts.arm(InterruptKind.FP_OVERFLOW)
        machine.interrupts.arm(InterruptKind.FP_INVALID)
        machine.interrupts.disarm(InterruptKind.CONDITION_FALSE)
        return machine

    # the inf/nan arithmetic is the point here: keep numpy's warnings
    # about it out of the bench output, so real ones stay visible
    with np.errstate(invalid="ignore", over="ignore"):
        probe = rearm(fresh("fast"))
        checks["rearmed_runs_fused"] = (
            progplan.try_run_fused(probe, cov_program, 1_000_000) is not None
        )
        m_ref = rearm(fresh("reference"))
        m_ref.run()
        m_fast = rearm(fresh("fast"))
        m_fast.run()
        # the service's lone-job run: one stacked row built from the
        # plan's layout, folded, no machine and no commit
        plan = progplan.compiled_plan(cov_program, node.params)
        storage = progplan.stacked_storage(
            plan.variables, 1, plan.plane_extent, plan.cache_extent
        )
        load_jacobi_inputs(storage, cov_setup, cov_u0, cov_f)
        storage.set_variable("u", bad_u0.reshape(-1))
        armed = m_ref.interrupts.configuration().armed
        one_row = batchplan.BatchProgramRun(plan, storage, 1, 1_000_000)
        one_row.run()
    checks["rearmed_fold_matches"] = (
        one_row.job(0).interrupts_delivered(armed)
        == len(m_ref.interrupts.delivered)
    )
    checks["rearmed_interrupts_identical"] = irq_streams(m_ref) == irq_streams(m_fast)
    # the NaN seed propagates into the grid; NaNs at equal positions match
    checks["rearmed_grids_identical"] = bool(
        np.array_equal(
            m_ref.get_variable("u"), m_fast.get_variable("u"), equal_nan=True
        )
    )

    config = {
        "shape": list(shape),
        "hypercube_dim": dim,
        "n_nodes": n_nodes,
        "sweeps": sweeps,
        "coverage_shape": list(cov_shape),
        "min_speedup": None if quick else FUSED_COVERAGE_MIN_SPEEDUP,
    }
    record = _finish("fused_coverage", quick, config, sides, checks)
    if not quick:
        # the acceptance gate rides the record so CI and humans see it
        record["checks"]["meets_min_speedup"] = (
            record["speedup"] >= FUSED_COVERAGE_MIN_SPEEDUP
        )
        record["ok"] = all(record["checks"].values())
    return record


def _scenario_batch_fused(quick: bool) -> Dict[str, Any]:
    """Whole-batch slab execution vs N per-job fused runs.

    One seeded Jacobi sweep — every job the same compiled program, each
    with its own random initial guess — runs twice through the serial
    service: once with ``batch_fusion="off"`` (N independent fused runs,
    the status-quo fast path) and once with ``batch_fusion="auto"`` (one
    :class:`~repro.sim.batchplan.BatchProgramRun` sweeping the whole
    stack).  Jobs, seeds, and the warmed disk cache are held identical,
    the records must agree on everything the jobs computed (grids,
    cycles, flops, convergence), every batch-side record must carry the
    ``batch_fused`` tier stamp, and on the full configuration the slab
    side must win by at least :data:`BATCH_FUSED_MIN_SPEEDUP`.

    The configuration deliberately pins the *control-amortization*
    regime the tier exists for: many short same-program jobs, where
    per-job machine construction and input loading dominate.  On large
    DRAM-bound grids (48³ and up) the two tiers run at compute parity —
    the stacked operand streams fall out of cache exactly as N separate
    streams do — so a big-grid configuration would measure the memory
    system, not the batching win; see ``docs/BACKENDS.md``.
    """
    import tempfile

    from repro.service.jobs import SimJob
    from repro.service.runner import BatchRunner

    n = 16 if quick else 24
    n_jobs = 6 if quick else 32
    sweeps = 2
    # wall times are tens of milliseconds; best-of-3 keeps a single
    # scheduler hiccup on either side from deciding the gated ratio
    reps = 3
    # the stock machine's double-buffered caches hold 8K words: grids
    # past that need the deliberate big-cache machine variant
    if n * n * n > 8 * 1024:
        overrides = (("cache_buffer_words", 512 * 1024),)
    else:
        overrides = ()
    jobs = [
        SimJob(
            method="jacobi",
            shape=(n, n, n),
            eps=1e-30,  # never converges early: exactly `sweeps` sweeps
            max_sweeps=sweeps,
            backend="fast",
            u0_seed=i,
            param_overrides=overrides,
            label=f"jacobi-bf-n{n}-s{i}",
        )
        for i in range(n_jobs)
    ]

    runs: Dict[str, Any] = {}
    sides: Dict[str, Dict[str, Any]] = {}
    with tempfile.TemporaryDirectory() as cache_dir:
        # warm the shared disk cache so neither side pays the (identical,
        # once-per-program) compile cost inside its timed window
        BatchRunner(workers=1, cache_dir=cache_dir).run(jobs[:1])
        for side, mode in (("per_job", "off"), ("batch_fused", "auto")):
            wall = float("inf")
            for _rep in range(reps):
                runner = BatchRunner(
                    workers=1, cache_dir=cache_dir, batch_fusion=mode
                )
                (records, summary), elapsed = _timed(lambda: runner.run(jobs))
                wall = min(wall, elapsed)
            runs[side] = records
            sides[side] = _side(
                wall,
                summary.total_cycles,
                jobs=summary.total,
                jobs_per_sec=summary.total / wall if wall > 0 else 0.0,
            )

    per_job_records, batch_records = runs["per_job"], runs["batch_fused"]

    def comparable(record: Dict[str, Any]) -> Dict[str, Any]:
        return {
            k: v for k, v in record.items() if k not in _BACKEND_DEPENDENT_KEYS
        }

    checks = {
        "all_jobs_ok": all(
            r.get("ok") for r in per_job_records + batch_records
        ),
        # everything the jobs computed — converged/sweeps/cycles/metrics/
        # error_vs_analytic — must be bit-identical between the tiers
        "records_equal": [comparable(r) for r in per_job_records]
        == [comparable(r) for r in batch_records],
        # tier stamps prove which engine ran each side: a silent fallback
        # to per-job execution would pass parity while voiding the claim
        "per_job_tier_fused": all(
            r.get("tier") == "fused" for r in per_job_records
        ),
        "batch_tier_batch_fused": all(
            r.get("tier") == "batch_fused"
            and r.get("slab_size") == n_jobs
            for r in batch_records
        ),
    }
    config = {
        "n": n,
        "jobs": n_jobs,
        "sweeps": sweeps,
        "backend": "fast",
        "min_speedup": None if quick else BATCH_FUSED_MIN_SPEEDUP,
    }
    record = _finish(
        "batch_fused", quick, config, sides, checks,
        pair=("per_job", "batch_fused"),
    )
    if not quick:
        # the acceptance gate rides the record so CI and humans see it
        record["checks"]["meets_min_speedup"] = (
            record["speedup"] >= BATCH_FUSED_MIN_SPEEDUP
        )
        record["ok"] = all(record["checks"].values())
    return record


def _scenario_analysis_coverage(quick: bool) -> Dict[str, Any]:
    """Untimed: the static analyzer's coverage over the bench corpus.

    Two-sided acceptance check rather than a timing race — the corpus
    programs (every registry solver at the quick and full bench shapes)
    must analyze *clean*, and every seeded defect class must be flagged
    with its expected rule on every solver (zero false negatives).
    Emits ``"untimed": True`` instead of backend sides and speedups, so
    baseline comparison and speedup gates skip it by construction.
    """
    from repro.analysis import analyze_program
    from repro.analysis.seeding import SEEDED_DEFECTS
    from repro.arch.node import NodeConfig
    from repro.codegen.generator import MicrocodeGenerator
    from repro.compose.registry import SOLVERS

    node = NodeConfig()
    generator = MicrocodeGenerator(node, run_checker=False)
    shapes = (7,) if quick else (7, 9)
    corpus = []
    for entry in SOLVERS.values():
        for n in shapes:
            setup = entry.build_setup(
                node, (n, n, n), eps=1e-4, max_iterations=100, omega=1.5
            )
            corpus.append(
                (f"{entry.name}-{n}", generator.generate(setup.program))
            )

    checks: Dict[str, bool] = {}
    findings_total = 0
    issues_walked = 0
    for name, program in corpus:
        verdict = analyze_program(program)
        checks[f"clean_{name}"] = verdict.clean
        findings_total += len(verdict.findings)
        issues_walked += verdict.issues_walked

    # positive side: every defect class must be caught on every solver
    seeded = 0
    for rule, injector in SEEDED_DEFECTS.items():
        caught = True
        for name, program in corpus:
            mutant = injector(program)
            verdict = analyze_program(mutant)
            caught &= rule in {f.rule for f in verdict.findings}
            seeded += 1
        checks[f"detects_{rule}"] = caught

    return {
        "scenario": "analysis_coverage",
        "quick": quick,
        "untimed": True,
        "config": {
            "solvers": sorted(SOLVERS),
            "shapes": list(shapes),
            "programs_analyzed": len(corpus),
            "mutants_analyzed": seeded,
            "issues_walked": issues_walked,
            "corpus_findings": findings_total,
        },
        "checks": checks,
        "ok": all(checks.values()),
    }


_SCENARIO_FNS: Dict[str, Callable[[bool], Dict[str, Any]]] = {
    "jacobi_single": _scenario_jacobi_single,
    "jacobi_multinode": _scenario_jacobi_multinode,
    "batch_service": _scenario_batch_service,
    "jacobi_converge": _scenario_jacobi_converge,
    "hypercube_scaling": _scenario_hypercube_scaling,
    "fused_coverage": _scenario_fused_coverage,
    "batch_fused": _scenario_batch_fused,
    "analysis_coverage": _scenario_analysis_coverage,
}


# ----------------------------------------------------------------------
# driver API
# ----------------------------------------------------------------------
def run_scenario(name: str, quick: bool = False) -> Dict[str, Any]:
    """Run one named scenario on both backends; returns its record."""
    fn = _SCENARIO_FNS.get(name)
    if fn is None:
        raise BenchError(
            f"unknown scenario {name!r}; expected one of {SCENARIOS}"
        )
    # module load (the fused engine and its compiler) is not a per-run cost
    import repro.sim.batchplan  # noqa: F401

    return fn(quick)


def write_record(record: Dict[str, Any], out_dir: str) -> Path:
    """Write ``BENCH_<scenario>.json`` under *out_dir*; returns the path."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{record['scenario']}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def format_record(record: Dict[str, Any]) -> str:
    """One human-readable summary line per scenario."""
    if record.get("untimed"):
        status = "checks ok" if record["ok"] else "CHECKS FAILED"
        failed = [k for k, v in record["checks"].items() if not v]
        detail = f" (failed: {', '.join(failed)})" if failed else ""
        return (
            f"{record['scenario']:<18} untimed  "
            f"{len(record['checks'])} checks  {status}{detail}"
        )
    base_name, cont_name = record.get("speedup_pair", ["reference", "fast"])
    base = record["backends"][base_name]
    cont = record["backends"][cont_name]
    short = {"reference": "ref"}
    status = "parity ok" if record["ok"] else "CHECKS FAILED"
    failed = [k for k, v in record["checks"].items() if not v]
    detail = f" (failed: {', '.join(failed)})" if failed else ""
    return (
        f"{record['scenario']:<18} "
        f"{short.get(base_name, base_name)} {base['wall_s']:.3f}s "
        f"({base['sim_cycles_per_sec']:.3g} cycles/s)  "
        f"{short.get(cont_name, cont_name)} {cont['wall_s']:.3f}s "
        f"({cont['sim_cycles_per_sec']:.3g} cycles/s)  "
        f"speedup {record['speedup']:.1f}x  {status}{detail}"
    )


# ----------------------------------------------------------------------
# baselines and regression comparison
# ----------------------------------------------------------------------
#: Record keys treated as regression-guarded speedup metrics.
_BASELINE_METRICS = ("speedup",)


def baseline_from_records(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Distill bench records into a committable baseline document.

    Untimed records carry no gateable metrics and are left out — the
    baseline floors speedups, and they have none to floor.
    """
    scenarios: Dict[str, Dict[str, float]] = {}
    for record in records:
        if record.get("untimed"):
            continue
        entry = {
            metric: round(float(record[metric]), 3)
            for metric in _BASELINE_METRICS
            if metric in record
        }
        scenarios[record["scenario"]] = entry
    return {
        "tolerance": REGRESSION_TOLERANCE,
        "quick": bool(records[0]["quick"]) if records else False,
        "scenarios": scenarios,
    }


def write_baseline(records: Sequence[Dict[str, Any]], path: str) -> Path:
    """Write the baseline JSON for *records*; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(baseline_from_records(records), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return target


def load_baseline(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_comparison(comparison: Dict[str, Any], out_dir: str) -> Path:
    """Write ``BENCH_compare.json`` under *out_dir*; returns the path."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "BENCH_compare.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(comparison, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def compare_records(
    records: Sequence[Dict[str, Any]],
    baseline: Dict[str, Any],
    tolerance: Optional[float] = None,
) -> Dict[str, Any]:
    """Diff recorded speedups against a committed baseline.

    A metric regresses when it falls more than *tolerance* (default: the
    baseline's own, else :data:`REGRESSION_TOLERANCE`) below its baseline
    value.  Scenarios absent from the baseline are reported but never
    fail — they are new coverage, to be baselined on the next refresh —
    and so are records from a different workload class than the baseline
    (full runs diffed against quick floors measure different problems).

    The diff is symmetric about presence: a baselined scenario the run
    never produced gets an explicit ``"scenario missing from run"`` entry
    per guarded metric (``current: None``, passing — partial runs via
    ``--scenarios`` are legitimate, but the gap must be visible), just as
    an unbaselined scenario gets its ``"not in baseline"`` entry.
    """
    if tolerance is None:
        tolerance = float(baseline.get("tolerance", REGRESSION_TOLERANCE))
    floor_factor = 1.0 - tolerance
    base_quick = baseline.get("quick")
    entries: List[Dict[str, Any]] = []
    ok = True
    ran = {record["scenario"] for record in records}
    for scenario, base_entry in sorted(
        baseline.get("scenarios", {}).items()
    ):
        if scenario in ran:
            continue
        for metric in _BASELINE_METRICS:
            if metric not in base_entry:
                continue
            entries.append(
                {
                    "scenario": scenario,
                    "metric": metric,
                    "current": None,
                    "baseline": float(base_entry[metric]),
                    "ok": True,
                    "note": "scenario missing from run",
                }
            )
    for record in records:
        base_entry = baseline.get("scenarios", {}).get(record["scenario"])
        note = None
        if base_entry is None:
            base_entry = {}
            note = "not in baseline"
        elif base_quick is not None and bool(record.get("quick")) != base_quick:
            base_entry = {}
            note = "workload class differs from baseline (quick vs full)"
        for metric in _BASELINE_METRICS:
            if metric not in record:
                continue
            current = float(record[metric])
            base = (
                float(base_entry[metric]) if metric in base_entry else None
            )
            if base is None:
                entries.append(
                    {
                        "scenario": record["scenario"],
                        "metric": metric,
                        "current": current,
                        "baseline": None,
                        "ok": True,
                        "note": note or "not in baseline",
                    }
                )
                continue
            passed = current >= base * floor_factor
            ok = ok and passed
            entries.append(
                {
                    "scenario": record["scenario"],
                    "metric": metric,
                    "current": current,
                    "baseline": base,
                    "floor": base * floor_factor,
                    "ok": passed,
                }
            )
    return {"ok": ok, "tolerance": tolerance, "entries": entries}


def format_comparison(comparison: Dict[str, Any]) -> str:
    """Human-readable comparison table, one line per guarded metric."""
    lines = []
    for entry in comparison["entries"]:
        name = f"{entry['scenario']}.{entry['metric']}"
        if entry["current"] is None:
            note = entry.get("note", "scenario missing from run")
            lines.append(
                f"  {name:<40} (no run) vs baseline "
                f"{entry['baseline']:.2f}x  ({note})"
            )
            continue
        if entry["baseline"] is None:
            note = entry.get("note", "not in baseline")
            lines.append(f"  {name:<40} {entry['current']:.2f}x  ({note})")
            continue
        verdict = "ok" if entry["ok"] else "REGRESSION"
        lines.append(
            f"  {name:<40} {entry['current']:.2f}x vs baseline "
            f"{entry['baseline']:.2f}x (floor {entry['floor']:.2f}x)  {verdict}"
        )
    header = (
        f"baseline comparison (tolerance {comparison['tolerance']:.0%}): "
        + ("ok" if comparison["ok"] else "REGRESSIONS FOUND")
    )
    return "\n".join([header] + lines)


def run_bench(
    scenarios: Optional[Sequence[str]] = None,
    quick: bool = False,
    out_dir: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Run the selected (default: all) scenarios, optionally writing JSON."""
    names = list(scenarios) if scenarios else list(SCENARIOS)
    for name in names:
        if name not in _SCENARIO_FNS:
            raise BenchError(
                f"unknown scenario {name!r}; expected one of {SCENARIOS}"
            )
    records = []
    for name in names:
        record = run_scenario(name, quick=quick)
        if out_dir is not None:
            write_record(record, out_dir)
        records.append(record)
    return records


__all__ = [
    "SCENARIOS",
    "UNTIMED_SCENARIOS",
    "REGRESSION_TOLERANCE",
    "BenchError",
    "run_scenario",
    "run_bench",
    "write_record",
    "format_record",
    "baseline_from_records",
    "write_baseline",
    "load_baseline",
    "write_comparison",
    "compare_records",
    "format_comparison",
]
