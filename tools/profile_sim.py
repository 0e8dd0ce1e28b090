#!/usr/bin/env python3
"""Where a warm simulator batch's time goes, engine by engine.

Runs batches shaped like the benchmark's ``sim_heavy`` op — 4 seeded
16^3 Jacobi and 2 seeded 16^3 RB-SOR jobs solved to 1e-6 (they form two
slabs), plus 16- and 64-node hypercube Jacobi for 20 sweeps — through
a serial ``BatchRunner`` with ``batch_fusion="auto"`` and a warm program
cache, and splits each op's wall time into sub-stages:

================  ====================================================
slab_kernel       ``BoundImage.issue_compute`` inside slab runs
slab_condition    ``BoundImage.issue_condition`` inside slab runs: the
                  witness tests of condition chains, and the chains
                  that ran because the witnesses did not settle them
slab_engine       the rest of ``BatchProgramRun.run``
slab_fold         the per-job folds of a slab's issue log into records
                  (``BatchProgramRun.job``), which run after ``run``
multinode_setup   ``MultiNodeStencil.__init__``, ``scatter`` and the
                  fused engine's bind (``progplan.fused_stepper``)
multinode_kernel  ``BoundImage.issue_compute`` and ``issue_condition``
                  (which runs every chain) inside multi-node runs
multinode_sweeps  the rest of the sweep loop (halo data moves, the
                  residual, variable swaps, dispatch)
multinode_finish  the run's finish step (charging replayed halo traffic)
halo              ``HaloCommPlan.exchange``: routing and replay counts
other             everything else: runner, records, result store
================  ====================================================

The op's wall time is ``total``; the sub-stages sum to it.  Prints the
p50 of each per op in milliseconds — the kernel-time vs Python-dispatch
split of the simulator engines — and, per engine, the p50 of its kernel
seconds divided by its ``issue_compute`` calls in microseconds
(``slab_kernel_us_per_issue``, ``multinode_kernel_us_per_issue``).
Per engine it also counts, untimed, from the bound images it issued:
the kernel steps one issue really runs, each one pass over the rows
(``slab_passes_per_issue``, ``multinode_passes_per_issue``: the mean
over the op's issues, tap loads and write copies not counted; a
condition chain's steps count when they ran), and the loop-invariant
steps a run's bound images hoist out of their issues
(``slab_hoisted_per_bind``, ``multinode_hoisted_per_bind``: the mean
over the op's runs).  ``slab_settled_frac`` is the share of the slab
issues with a condition chain whose witnesses settled the condition
(a count, the same on every run).

Usage::

    python tools/profile_sim.py [-n 20] [--seed 0] [--json]
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.cache import ProgramCache  # noqa: E402
from repro.service.jobs import SimJob  # noqa: E402
from repro.service.runner import BatchRunner  # noqa: E402
from repro.sim import batchplan, progplan  # noqa: E402
from repro.sim.multinode import MultiNodeStencil  # noqa: E402

STAGES = (
    "slab_kernel",
    "slab_condition",
    "slab_engine",
    "slab_fold",
    "multinode_setup",
    "multinode_kernel",
    "multinode_sweeps",
    "multinode_finish",
    "halo",
    "other",
)

#: kernel stages also reported per ``issue_compute`` call
PER_ISSUE = ("slab_kernel", "multinode_kernel")

#: the engines whose bound images' step counts are reported
ENGINES = ("slab", "multinode")

#: initial-guess seeds each solver draws from
SEEDS = 32
PER_SOLVER = (("jacobi", 4), ("rb-sor", 2))
HYPERCUBES = ((4, 32), (6, 64))  # (dim, nz) of the 16 x 16 x nz grids


def draw(rng: random.Random) -> List[SimJob]:
    """One sim_heavy-shaped batch: two slabs plus two hypercube jobs."""
    jobs = [
        SimJob(method=method, shape=(16, 16, 16), eps=1e-6,
               max_sweeps=5000, backend="fast", u0_seed=seed)
        for method, count in PER_SOLVER
        for seed in rng.sample(range(SEEDS), count)
    ]
    jobs += [
        SimJob(method="jacobi", shape=(16, 16, nz), eps=1e-12,
               max_sweeps=20, backend="fast", hypercube_dim=dim)
        for dim, nz in HYPERCUBES
    ]
    rng.shuffle(jobs)
    return jobs


@contextmanager
def stage_clocks() -> Iterator[Dict[str, float]]:
    """Accumulate seconds per raw clock while patched entry points run,
    and each clock's call count under ``"<clock>_calls"``; per engine,
    the runner steps its issues ran (``"<engine>_passes"``), the runs
    it bound (``"<engine>_binds"``), the steps their bound images
    hoist (``"<engine>_hoisted"``), and the witness tests of condition
    chains and how many settled (``"<engine>_tests"``,
    ``"<engine>_settled"``)."""
    spent: Dict[str, float] = {}
    scope = ["other"]
    undo: List[Any] = []
    # the bound images and run storages already counted (a run binds
    # every image of its plan over one storage)
    seen: "weakref.WeakSet[Any]" = weakref.WeakSet()

    def count(name: str, value: int) -> None:
        spent[name] = spent.get(name, 0) + value

    def count_steps(bound: Any) -> None:
        engine = scope[0]
        kernel = bound.kernel
        count(f"{engine}_passes", len(kernel.runs) - (
            0 if kernel.chain is None else len(kernel.chain.steps)))
        if bound not in seen:
            seen.add(bound)
            count(f"{engine}_hoisted", len(kernel.hoisted))
            if bound.storage not in seen:
                seen.add(bound.storage)
                count(f"{engine}_binds", 1)

    def count_condition(args: Tuple[Any, ...], settled: bool) -> None:
        bound, rows = args
        engine = scope[0]
        if not settled:  # the chain ran
            count(f"{engine}_passes", len(bound.kernel.chain.steps))
        if rows is not None:
            count(f"{engine}_tests", 1)
            count(f"{engine}_settled", settled)

    def patch(owner: Any, attr: str, clock: Callable[..., str],
              inner: Optional[str] = None,
              observe: Optional[Callable[[Any], None]] = None,
              result: Optional[Callable[[Tuple[Any, ...], Any], None]]
              = None) -> None:
        original = owner.__dict__[attr]

        def timed(*args: Any, **kwargs: Any) -> Any:
            if observe is not None:
                observe(args[0])
            name = clock()
            outer = scope[0]
            if inner is not None:
                scope[0] = inner
            t0 = time.perf_counter()
            try:
                value = original(*args, **kwargs)
                if result is not None:
                    result(args, value)
                return value
            finally:
                spent[name] = spent.get(name, 0.0) + time.perf_counter() - t0
                calls = f"{name}_calls"
                spent[calls] = spent.get(calls, 0) + 1
                scope[0] = outer

        undo.append((owner, attr, original))
        setattr(owner, attr, timed)

    patch(batchplan.BatchProgramRun, "run", lambda: "slab_run", "slab")
    patch(batchplan.BatchProgramRun, "job", lambda: "slab_fold")
    patch(progplan.BoundImage, "issue_compute",
          lambda: f"{scope[0]}_kernel", observe=count_steps)
    patch(progplan.BoundImage, "issue_condition",
          lambda: f"{scope[0]}_condition", result=count_condition)
    patch(MultiNodeStencil, "__init__", lambda: "multinode_init")
    patch(MultiNodeStencil, "scatter", lambda: "multinode_scatter")
    patch(MultiNodeStencil, "run", lambda: "multinode_run", "multinode")
    patch(progplan, "fused_stepper", lambda: "multinode_bind")
    patch(progplan.HaloCommPlan, "exchange", lambda: "halo")
    patch(progplan.HaloCommPlan, "settle", lambda: "multinode_finish")
    try:
        yield spent
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def split(raw: Dict[str, float], total: float) -> Dict[str, float]:
    """Disjoint sub-stages (seconds) from one op's raw clocks."""
    def get(name: str) -> float:
        return raw.get(name, 0.0)

    stages = {
        "slab_kernel": get("slab_kernel"),
        "slab_condition": get("slab_condition"),
        "slab_engine": get("slab_run") - get("slab_kernel")
        - get("slab_condition"),
        "slab_fold": get("slab_fold"),
        "multinode_setup": get("multinode_init") + get("multinode_scatter")
        + get("multinode_bind"),
        "multinode_kernel": get("multinode_kernel")
        + get("multinode_condition"),
        "multinode_sweeps": get("multinode_run") - get("multinode_bind")
        - get("multinode_kernel") - get("multinode_condition") - get("halo")
        - get("multinode_finish"),
        "multinode_finish": get("multinode_finish"),
        "halo": get("halo"),
    }
    stages["other"] = total - sum(stages.values())
    return stages


def per_issue_us(raw: Dict[str, float]) -> Dict[str, float]:
    """Microseconds per ``issue_compute`` call of each kernel stage that
    issued in one op's raw clocks (the multi-node kernel with its
    chains)."""
    stages = split(raw, 0.0)
    return {
        stage: stages[stage] / raw[f"{stage}_calls"] * 1e6
        for stage in PER_ISSUE if raw.get(f"{stage}_calls")
    }


def step_counts(raw: Dict[str, float]) -> Dict[str, float]:
    """Per engine that issued in one op's raw clocks: kernel steps run
    per issue and hoisted steps per run; for the slab, the share of its
    witness tests that settled a condition."""
    counts = {}
    for engine in ENGINES:
        calls = raw.get(f"{engine}_kernel_calls")
        if calls:
            counts[f"{engine}_passes_per_issue"] = \
                raw[f"{engine}_passes"] / calls
            counts[f"{engine}_hoisted_per_bind"] = \
                raw[f"{engine}_hoisted"] / raw[f"{engine}_binds"]
    if raw.get("slab_tests"):
        counts["slab_settled_frac"] = raw["slab_settled"] / raw["slab_tests"]
    return counts


def profile(n: int, seed: int) -> Tuple[Dict[str, float], Dict[str, float]]:
    """p50 milliseconds per sub-stage (and ``total``) over *n* ops, and
    the p50 of each per-issue figure: microseconds per issue of each
    kernel stage, and each engine's step counts (:func:`step_counts`)."""
    rng = random.Random(f"profile_sim:{seed}")
    cache = ProgramCache()

    def run_op(jobs: List[SimJob]) -> None:
        runner = BatchRunner(workers=1, cache=cache, batch_fusion="auto")
        _records, summary = runner.run(jobs)
        if summary.failed:
            raise RuntimeError(f"{summary.failed} job(s) failed")

    run_op(draw(rng))  # warm: compile, plans, runner code, imports
    per_stage: Dict[str, List[float]] = {stage: [] for stage in STAGES}
    per_issue: Dict[str, List[float]] = {
        f"{stage}_us_per_issue": [] for stage in PER_ISSUE}
    totals: List[float] = []
    with stage_clocks() as spent:
        for _ in range(n):
            jobs = draw(rng)
            spent.clear()
            t0 = time.perf_counter()
            run_op(jobs)
            total = time.perf_counter() - t0
            for stage, value in split(spent, total).items():
                per_stage[stage].append(value * 1e3)
            for stage, value in per_issue_us(spent).items():
                per_issue[f"{stage}_us_per_issue"].append(value)
            for name, value in step_counts(spent).items():
                per_issue.setdefault(name, []).append(value)
            totals.append(total * 1e3)
    p50 = {stage: statistics.median(v) for stage, v in per_stage.items()}
    p50["total"] = statistics.median(totals)
    return p50, {name: statistics.median(v)
                 for name, v in per_issue.items() if v}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-n", type=int, default=20, help="ops to time (default 20)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", action="store_true", help="print one JSON object, not a table"
    )
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("-n must be at least 1")
    p50, per_issue = profile(args.n, args.seed)
    if args.json:
        report = {"ops": args.n, "seed": args.seed, "p50_ms": p50,
                  **per_issue}
        print(json.dumps(report, sort_keys=True))
        return 0
    print(f"profile_sim: {args.n} ops (seed {args.seed}), p50 ms per sub-stage")
    for stage, value in p50.items():
        print(f"  {stage:<17} {value:8.3f}")
    print("p50 us per issue_compute call, kernel steps per issue, "
          "hoisted steps per bind and the settled share")
    for name, value in per_issue.items():
        print(f"  {name:<29} {value:8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
