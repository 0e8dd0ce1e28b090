"""The fixed job pools the workloads draw from, and their golden digests.

Every job a workload runs is one entry of a fixed pool, with a backend
chosen by the workload.  A record's *canonical digest* leaves out the
volatile keys and the keys that depend on the backend or the execution
tier, so one expected digest per pool entry covers every backend and
every seed.  ``expected.json`` holds those digests, produced by the
reference interpreter running each entry alone:

    python3 nscbench/pools.py          # regenerate expected.json
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Any, Dict, List, Mapping

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Record keys that name the backend, the tier, or how the job was
#: compiled rather than what it computed (the same set the repo's bench
#: harness compares backends under).  The result store's own volatile
#: keys are dropped as well (see :func:`canonical_digest`).
BACKEND_KEYS = (
    "job_id", "label", "backend", "cache_hit", "checker",
    "timings", "duration_s", "tier", "fallback_reason", "slab_size",
)

SOLVERS = ("jacobi", "rb-gs", "rb-sor")

#: daemon_warm: small registry programs, compiled during set-up.
DAEMON_POOL: List[Dict[str, Any]] = [
    {"method": m, "shape": [n, n, n], "eps": 1e-3, "max_sweeps": 2000}
    for m in SOLVERS for n in (5, 6, 7, 8)
]

#: cold_programs: 400 tolerances per (method, n) make 6000 programs, each
#: with its own cache key and plan fingerprint.
EPS_GRID = tuple(
    float(f"{10 ** (-2.0 - 2.0 * k / 399):.6g}") for k in range(400)
)
COLD_POOL: List[Dict[str, Any]] = [
    {"method": m, "shape": [n, n, n], "eps": eps, "max_sweeps": 2000}
    for m in SOLVERS for n in (5, 6, 7, 8, 9) for eps in EPS_GRID
]

#: sim_heavy: seeded 16^3 solves to 1e-6 (they form slabs), then the
#: 16- and 64-node hypercube Jacobi at a fixed sweep count (eps is out of
#: reach, so every run stops at max_sweeps).
SIM_SEEDS = 32
SIM_METHODS = ("jacobi", "rb-sor")
SIM_SINGLE: List[Dict[str, Any]] = [
    {"method": m, "shape": [16, 16, 16], "eps": 1e-6, "max_sweeps": 5000,
     "u0_seed": s}
    for m in SIM_METHODS for s in range(SIM_SEEDS)
]
SIM_MULTI: List[Dict[str, Any]] = [
    {"method": "jacobi", "shape": [16, 16, nz], "eps": 1e-12,
     "max_sweeps": 20, "hypercube_dim": d}
    for d, nz in ((4, 32), (6, 64))
]
SIM_POOL = SIM_SINGLE + SIM_MULTI

POOLS = {
    "daemon_warm": DAEMON_POOL,
    "cold_programs": COLD_POOL,
    "sim_heavy": SIM_POOL,
}


def job_spec(entry: Mapping[str, Any], backend: str) -> Dict[str, Any]:
    """The JSON job spec (``SimJob.from_dict`` input) for one entry."""
    return {**entry, "backend": backend}


def canonical_digest(record: Mapping[str, Any]) -> str:
    """Short SHA-256 of the record's backend- and tier-free projection."""
    from repro.service.results import VOLATILE_KEYS

    skip = set(VOLATILE_KEYS) | set(BACKEND_KEYS) | {"fields"}
    kept = {k: v for k, v in record.items() if k not in skip}
    text = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_expected() -> Dict[str, List[str]]:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def generate() -> Dict[str, List[str]]:
    """Run every pool entry alone on the reference interpreter."""
    from repro.service.jobs import SimJob
    from repro.service.runner import BatchRunner

    table: Dict[str, List[str]] = {}
    for name, pool in POOLS.items():
        runner = BatchRunner(workers=1)
        digests = []
        for entry in pool:
            records, _ = runner.run([SimJob.from_dict(job_spec(entry, "reference"))])
            if not records[0].get("ok"):
                raise RuntimeError(f"{name}: {entry} failed: {records[0]}")
            digests.append(canonical_digest(records[0]))
        table[name] = digests
        print(f"{name}: {len(digests)} entries", file=sys.stderr)
    return table


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    expected = generate()
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
