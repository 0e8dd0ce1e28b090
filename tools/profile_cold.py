#!/usr/bin/env python3
"""Where a cold service job's time goes, sub-stage by sub-stage.

Samples N never-seen registry programs (solver x n = 5..9 x one of 400
tolerances, the shape of the benchmark's cold pool) and runs each the way
a fast service job does, as a slab of one, timing every sub-stage:

==========  ===========================================================
nodeconfig  ``node_config(params)``: the machine description
build       ``SolverEntry.build_setup``: the builder and FU allocation
layout      ``MicrocodeGenerator(...)``: generator and microword layout
freeze      ``PipelineDiagram.freeze`` of every pipeline: the indexed,
            read-only views the check and the generator share
check       ``Checker.check_program`` on those views: the design-rule
            sweep
generate    ``MicrocodeGenerator.generate`` of those views, without the
            check
plan        ``compiled_plan``: the whole-program execution schedule
problem     ``grid_problem``: the grid's manufactured ``(u*, f)``, built
            once per grid and shared
storage     the one-row stacked storage built from the plan's variable
            layout (``stacked_storage``) and the solver's input load
            into it — the bind a service job runs, no ``NSCMachine``
runner      ``BoundImage._generate_runner``: per-issue kernel code
execute     the one-job ``BatchProgramRun``: bind, run and the record's
            fold of the issue log, minus runner code generation
record      the record's ``MachineProgram.fingerprint()`` and its
            ``ResultStore`` append
==========  ===========================================================

First-use imports and machine tables are warmed on n = 4 programs the
sample never contains, as a long-lived service would have them.  Prints
the p50 of each sub-stage and of their per-job sum in milliseconds.
After the timed pass, a cProfile pass runs the same programs again
(fresh builds; only the process-wide tables are warm, as in the timed
pass) and reports ``calls_per_job``: the function calls it counted,
builtins included, divided by the sample size.  The store is a scratch
file, deleted on exit.

Usage::

    python tools/profile_cold.py [-n 200] [--seed 0] [--json]
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import random
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.arch.node import node_config  # noqa: E402
from repro.arch.params import NSCParameters  # noqa: E402
from repro.codegen.generator import MicrocodeGenerator  # noqa: E402
from repro.compose.registry import SOLVERS  # noqa: E402
from repro.service.results import ResultStore  # noqa: E402
from repro.service.runner import grid_problem  # noqa: E402
from repro.sim import batchplan, progplan  # noqa: E402

STAGES = (
    "nodeconfig",
    "build",
    "layout",
    "freeze",
    "check",
    "generate",
    "plan",
    "problem",
    "storage",
    "runner",
    "execute",
    "record",
)

SIZES = (5, 6, 7, 8, 9)
EPS_GRID = tuple(10 ** (-2.0 - 2.0 * k / 399) for k in range(400))

Program = Tuple[str, int, float]


def sample(n: int, seed: int) -> List[Program]:
    pool = [(m, size, eps) for m in SOLVERS for size in SIZES for eps in EPS_GRID]
    return random.Random(seed).sample(pool, n)


@contextmanager
def runner_clock() -> Iterator[List[float]]:
    """Accumulate the seconds spent generating per-issue runners."""
    spent = [0.0]
    original = progplan.BoundImage._generate_runner

    def timed(self, ops):
        t0 = time.perf_counter()
        try:
            return original(self, ops)
        finally:
            spent[0] += time.perf_counter() - t0

    progplan.BoundImage._generate_runner = timed
    try:
        yield spent
    finally:
        progplan.BoundImage._generate_runner = original


def profile_one(
    program: Program, params: NSCParameters, spent: List[float],
    store: ResultStore,
) -> Dict[str, float]:
    """Compile and run one program; seconds per sub-stage."""
    method, size, eps = program
    shape = (size, size, size)
    entry = SOLVERS[method]
    clock = time.perf_counter

    t0 = clock()
    node = node_config(params)
    t1 = clock()
    setup = entry.build_setup(node, shape, eps=eps, max_iterations=2000, omega=1.5)
    t2 = clock()
    generator = MicrocodeGenerator(node, run_checker=False)
    t3 = clock()
    views = [diagram.freeze() for diagram in setup.program.pipelines]
    t_freeze = clock()
    report = generator.checker.check_program(setup.program, views)
    t4 = clock()
    compiled = generator.generate(setup.program, views)
    t5 = clock()
    plan = progplan.compiled_plan(compiled, params)
    t6 = clock()
    _u_star, f, _h = grid_problem(shape, setup.h)
    t7 = clock()
    if not report.ok:
        raise RuntimeError(f"{program} fails the checker")

    u0 = np.zeros(shape)
    t_storage = clock()
    storage = progplan.stacked_storage(
        plan.variables, 1, plan.plane_extent, plan.cache_extent
    )
    entry.load(storage, setup, u0, f)
    before = spent[0]
    t8 = clock()
    run = batchplan.BatchProgramRun(plan, storage, 1, max_instructions=1_000_000)
    run.run()
    job_run = run.job(0)
    t9 = clock()
    store.append({
        "method": method, "shape": list(shape), "eps": eps,
        "converged": bool(run.converged[0]), "cycles": job_run.cycles,
        "flops": job_run.flops, "program_fingerprint": compiled.fingerprint(),
    })
    t10 = clock()
    runner = spent[0] - before
    return {
        "nodeconfig": t1 - t0,
        "build": t2 - t1,
        "layout": t3 - t2,
        "freeze": t_freeze - t3,
        "check": t4 - t_freeze,
        "generate": t5 - t4,
        "plan": t6 - t5,
        "problem": t7 - t6,
        "storage": t8 - t_storage,
        "runner": runner,
        "execute": t9 - t8 - runner,
        "record": t10 - t9,
    }


def count_calls(
    programs: Sequence[Program], params: NSCParameters, store: ResultStore
) -> float:
    """Function calls per job that cProfile counts over *programs*."""
    profiler = cProfile.Profile()
    spent = [0.0]
    profiler.enable()
    for program in programs:
        profile_one(program, params, spent, store)
    profiler.disable()
    return pstats.Stats(profiler).total_calls / len(programs)


def profile(n: int, seed: int) -> Tuple[Dict[str, float], float]:
    """p50 milliseconds per sub-stage (and ``total``) over *n* programs,
    and the calls per job of a cProfile pass over the same programs."""
    params = NSCParameters()
    programs = sample(n, seed)
    per_stage: Dict[str, List[float]] = {stage: [] for stage in STAGES}
    totals: List[float] = []
    with tempfile.TemporaryDirectory() as scratch:
        store = ResultStore(str(Path(scratch) / "records.jsonl"))
        with runner_clock() as spent:
            for method in SOLVERS:
                profile_one((method, 4, 1e-3), params, spent, store)
            for program in programs:
                times = profile_one(program, params, spent, store)
                for stage in STAGES:
                    per_stage[stage].append(times[stage] * 1e3)
                totals.append(sum(times.values()) * 1e3)
        calls_per_job = count_calls(programs, params, store)
    p50 = {stage: statistics.median(v) for stage, v in per_stage.items()}
    p50["total"] = statistics.median(totals)
    return p50, calls_per_job


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-n", type=int, default=200, help="programs to sample (default 200)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", action="store_true", help="print one JSON object, not a table"
    )
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("-n must be at least 1")
    p50, calls_per_job = profile(args.n, args.seed)
    if args.json:
        report = {
            "programs": args.n,
            "seed": args.seed,
            "p50_ms": p50,
            "calls_per_job": calls_per_job,
        }
        print(json.dumps(report, sort_keys=True))
        return 0
    print(f"profile_cold: {args.n} programs (seed {args.seed}), p50 ms per sub-stage")
    for stage, value in p50.items():
        print(f"  {stage:<10} {value:8.3f}")
    print(f"  calls per job (cProfile pass): {calls_per_job:.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
