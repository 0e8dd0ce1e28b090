#!/usr/bin/env python3
"""How a long-lived service's heap and collector cost grow with programs seen.

Runs N never-seen registry programs (solver x n = 5..9 x one of 400
tolerances, the shape of the benchmark's cold pool) through one serial
``BatchRunner`` and one ``ProgramCache``, one job per ``run`` call, as a
daemon or a batch loop would over its lifetime.  Reports:

- the number and total time of generation-2 (full) collections during
  the run, and the time of all collections, measured with
  ``gc.callbacks``;
- GC-tracked objects before and after the run, and the time of one full
  ``gc.collect()`` at the end;
- the entries and evictions of the program cache and the plan cache,
  and the process's peak RSS;
- ``retained_kb_per_program``: a deep ``sys.getsizeof`` walk of the
  compiled program-cache entries and the plan-cache entries, divided by
  the number of programs cached.  Objects every program shares are not
  counted: machine tables, the microword layout, interned endpoints,
  enum members, code objects, functions and types.

First-use imports and machine tables are warmed on n = 4 programs the
sample never contains.

Usage::

    python tools/profile_heap.py [-n 3000] [--seed 0] [--json]
"""

from __future__ import annotations

import argparse
import enum
import gc
import json
import random
import resource
import sys
import time
import types
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.arch.node import NodeConfig  # noqa: E402
from repro.arch.params import NSCParameters  # noqa: E402
from repro.arch.switch import Endpoint  # noqa: E402
from repro.codegen.microword import MicrowordLayout  # noqa: E402
from repro.compose.registry import SOLVERS  # noqa: E402
from repro.service.cache import ProgramCache  # noqa: E402
from repro.service.jobs import SimJob  # noqa: E402
from repro.service.runner import BatchRunner  # noqa: E402
from repro.sim.fastpath import PLAN_CACHE  # noqa: E402

SIZES = (5, 6, 7, 8, 9)
EPS_GRID = tuple(10 ** (-2.0 - 2.0 * k / 399) for k in range(400))


def sample(n: int, seed: int) -> List[Tuple[str, int, float]]:
    pool = [(m, size, eps) for m in SOLVERS for size in SIZES for eps in EPS_GRID]
    return random.Random(seed).sample(pool, n)


def _job(method: str, size: int, eps: float) -> SimJob:
    return SimJob(
        method=method,
        shape=(size, size, size),
        eps=eps,
        max_sweeps=2000,
        backend="fast",
    )


#: What a walk never enters: the interpreter's objects (types, modules,
#: functions, code objects, ufuncs, enum members) and the tables every
#: program on one machine shares (layout, node, params, endpoints).
_INTERPRETER = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.CodeType,
    np.ufunc,
    np.dtype,
    enum.Enum,
)
_TABLES = (Endpoint, MicrowordLayout, NodeConfig, NSCParameters)


def _walk(
    roots: Iterable[Any], stop: Tuple[type, ...]
) -> Tuple[Dict[int, int], List[Any]]:
    """``id -> sys.getsizeof`` of everything reachable from *roots* through
    ``gc.get_referents``, and the *stop* instances the walk met there."""
    sizes: Dict[int, int] = {}
    met: List[Any] = []
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in sizes:
            continue
        if isinstance(obj, stop):
            met.append(obj)
            continue
        sizes[id(obj)] = sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return sizes, met


def retained_kb_per_program(cache: ProgramCache) -> float:
    """Mean deep size of one program's cache entries, in kB.

    Walks the compiled values of *cache* and the :data:`PLAN_CACHE`
    entries (a plan references its program: shared objects count once)
    and drops whatever the shared tables reach — a field name in a
    microword is the layout's string, not the word's own."""
    if not len(cache):
        return 0.0
    entries = [*cache._mem._data.values(), *PLAN_CACHE._data.values()]
    owned, met = _walk(entries, _INTERPRETER + _TABLES)
    tables, _ = _walk(
        [obj for obj in met if isinstance(obj, _TABLES)], _INTERPRETER
    )
    total = sum(size for key, size in owned.items() if key not in tables)
    return round(total / len(cache) / 1024.0, 1)


class _Collections:
    """Times collections through ``gc.callbacks``: all of them, and the
    generation-2 (full) ones on their own."""

    def __init__(self) -> None:
        self.count = 0
        self.seconds = 0.0
        self.all_seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._start = time.perf_counter()
            return
        elapsed = time.perf_counter() - self._start
        self.all_seconds += elapsed
        if info["generation"] == 2:
            self.count += 1
            self.seconds += elapsed


def profile(n: int, seed: int) -> Dict[str, Any]:
    cache = ProgramCache()
    for method in SOLVERS:
        BatchRunner(workers=1, cache=cache).run([_job(method, 4, 1e-3)])
    gc.collect()
    objects_before = len(gc.get_objects())
    timer = _Collections()
    failed = 0
    gc.callbacks.append(timer)
    try:
        t0 = time.perf_counter()
        for program in sample(n, seed):
            _, summary = BatchRunner(workers=1, cache=cache).run([_job(*program)])
            failed += summary.failed
        wall = time.perf_counter() - t0
    finally:
        gc.callbacks.remove(timer)
    objects_after = len(gc.get_objects())
    t0 = time.perf_counter()
    gc.collect()
    collect_ms = (time.perf_counter() - t0) * 1e3
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # Linux: kB
    retained_kb = retained_kb_per_program(cache)
    return {
        "programs": n,
        "seed": seed,
        "failed": failed,
        "wall_s": round(wall, 3),
        "gen2_collections": timer.count,
        "gen2_s": round(timer.seconds, 3),
        "gc_s": round(timer.all_seconds, 3),
        "objects_before": objects_before,
        "objects_after": objects_after,
        "full_collect_ms": round(collect_ms, 1),
        "cache": {"entries": len(cache), **cache.stats.as_dict()},
        "plan_cache": {"entries": len(PLAN_CACHE), **PLAN_CACHE.stats.as_dict()},
        "peak_rss_mb": round(peak_kb / 1024.0, 1),
        "retained_kb_per_program": retained_kb,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-n", type=int, default=3000, help="programs to run (default 3000)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--json", action="store_true", help="print one JSON object, not lines"
    )
    args = parser.parse_args(argv)
    if not 1 <= args.n <= len(SOLVERS) * len(SIZES) * len(EPS_GRID):
        parser.error("-n must be between 1 and the pool size")
    report = profile(args.n, args.seed)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"profile_heap: {args.n} programs (seed {args.seed})")
        for key, value in report.items():
            print(f"  {key:<23} {value}")
    return 1 if report["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
