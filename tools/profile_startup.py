#!/usr/bin/env python3
"""What a fresh process pays before and during its first jobs.

Starts N fresh interpreters of each kind and reports the p50 of:

================  ==========================================================
import_ms         importing the service stack (``repro.service.runner``,
                  ``.cache`` and ``.jobs``)
import_modules    ``repro`` modules loaded by that import
import_rss_mb     peak RSS after that import
job_modules       ``repro`` modules loaded after one cold n = 4 job per
                  solver, run serially through ``BatchRunner``
first_jobs_ms     wall time of those three jobs
dataclasses       dataclasses the loaded ``repro`` modules define (a
                  count: it repeats exactly)
job_rss_mb        peak RSS after those jobs
info_ms           wall time of ``nsc-vpe info`` (``python -m repro.cli info``),
                  spawn to exit
================  ==========================================================

Nothing is warmed: each interpreter compiles and imports what it uses,
as a CLI invocation or a freshly spawned pool worker does.  Run with
bytecode caching on or off (``PYTHONDONTWRITEBYTECODE``) to see both
sides; the environment is passed through unchanged.

Usage::

    python tools/profile_startup.py [-n 10] [--json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")

#: Runs in the child; prints one JSON object.  ``ru_maxrss`` is in kB on
#: Linux.
CHILD = """
import json, resource, sys, time

def repro_modules():
    return sum(1 for name in sys.modules if name.split(".")[0] == "repro")

def repro_dataclasses():
    import dataclasses
    return [(name + "." + attr, value.__dataclass_params__.frozen)
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "repro"
            for attr, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == name
            and dataclasses.is_dataclass(value)]

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

t0 = time.perf_counter()
from repro.service.cache import ProgramCache
from repro.service.jobs import SimJob
from repro.service.runner import BatchRunner
import_ms = (time.perf_counter() - t0) * 1e3
report = {"import_ms": import_ms, "import_modules": repro_modules(),
          "import_rss_mb": peak_rss_mb()}
cache = ProgramCache()
failed = 0
t0 = time.perf_counter()
for method in ("jacobi", "rb-gs", "rb-sor"):
    job = SimJob(method=method, shape=(4, 4, 4), eps=1e-3, max_sweeps=2000,
                 backend="fast")
    failed += BatchRunner(workers=1, cache=cache).run([job])[1].failed
first_jobs_ms = (time.perf_counter() - t0) * 1e3
classes = repro_dataclasses()
report.update(job_modules=repro_modules(), first_jobs_ms=first_jobs_ms,
              dataclasses=len(classes), job_rss_mb=peak_rss_mb(),
              frozen_dataclasses=sorted(n for n, frozen in classes if frozen),
              failed=failed)
print(json.dumps(report))
"""

METRICS = (
    "import_ms",
    "import_modules",
    "import_rss_mb",
    "job_modules",
    "first_jobs_ms",
    "dataclasses",
    "job_rss_mb",
    "info_ms",
)


def _env() -> Dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def child_report(env: Dict[str, str]) -> Dict[str, Any]:
    """One fresh interpreter's import and first-jobs report; beside the
    metrics it names the frozen dataclasses the loaded modules define."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _one_run(env: Dict[str, str]) -> Dict[str, Any]:
    report = child_report(env)
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "info"],
        env=env,
        stdout=subprocess.DEVNULL,
        check=True,
    )
    report["info_ms"] = (time.perf_counter() - t0) * 1e3
    return report


def profile(n: int) -> Dict[str, Any]:
    env = _env()
    runs: List[Dict[str, Any]] = [_one_run(env) for _ in range(n)]
    return {
        "runs": n,
        "failed": sum(run["failed"] for run in runs),
        "bytecode_cache": not env.get("PYTHONDONTWRITEBYTECODE"),
        "p50": {
            key: round(statistics.median(run[key] for run in runs), 2)
            for key in METRICS
        },
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-n", type=int, default=10, help="fresh processes per metric (default 10)"
    )
    parser.add_argument(
        "--json", action="store_true", help="print one JSON object, not lines"
    )
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("-n must be at least 1")
    report = profile(args.n)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(
            f"profile_startup: p50 of {args.n} fresh processes "
            f"(bytecode cache {'on' if report['bytecode_cache'] else 'off'})"
        )
        for key, value in report["p50"].items():
            print(f"  {key:<15} {value}")
    return 1 if report["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
