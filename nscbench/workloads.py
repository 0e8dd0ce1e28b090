"""The three workloads: seeded inputs, set-up, one op, premise checks.

Each workload object offers the same five calls to ``run.py``:

- ``setup()`` — everything before the first measured op;
- ``op(i)`` — the *i*-th op of the seeded sequence: a list of
  ``(pool index, job spec)`` pairs, or None when the pool is used up.
  Ops come in twins (``2k``, ``2k+1``) doing the same work, or for
  ``cold_programs`` the same method and size at the neighbouring
  tolerance, so a traced op can be compared with an untraced twin;
- ``run(jobs)`` — execute one op, returning ``(records, summary)``;
- ``premise()`` — problems that make the run invalid (empty when valid);
- ``close()`` — stop everything the workload started.

All load comes from one client in one thread.
"""

from __future__ import annotations

import os
import random
import select
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from pools import (
    COLD_POOL, DAEMON_POOL, EPS_GRID, SIM_METHODS, SIM_MULTI, SIM_SEEDS,
    SIM_SINGLE, job_spec,
)

Op = List[Tuple[int, Dict[str, Any]]]

BACKENDS = ("reference", "fast")


def vm_kb(pid: int, field: str) -> int:
    """``VmRSS`` / ``VmHWM`` of *pid* in kB, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/{pid}/status")


class _InProcess:
    """Serial ``BatchRunner`` service in this process (``workers=1``)."""

    batch_fusion = "off"
    rss_ops = 600

    def __init__(self, seed: int, out_dir: str) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.store_path = os.path.join(out_dir, "store.jsonl")
        self.pid = os.getpid()

    def setup(self) -> None:
        from repro.service.cache import ProgramCache
        from repro.service.results import ResultStore
        from repro.service.runner import BatchRunner
        from repro.service.jobs import SimJob

        self._runner_cls, self._job_cls = BatchRunner, SimJob
        self.cache = ProgramCache()
        self.store = ResultStore(self.store_path)
        self.warm_up()
        self.cache_hits = self.cache.stats.hits

    def run(self, jobs: Op) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
        runner = self._runner_cls(workers=1, cache=self.cache, store=self.store,
                                  batch_fusion=self.batch_fusion)
        records, summary = runner.run(
            [self._job_cls.from_dict(spec) for _, spec in jobs]
        )
        return records, {"wall_s": summary.wall_s}

    def premise(self, records: List[Dict[str, Any]]) -> List[str]:
        return []

    def peak_rss_kb(self) -> int:
        return vm_kb(self.pid, "VmHWM")

    def close(self) -> None:
        pass


class ColdPrograms(_InProcess):
    """One ``BatchRunner.run([job])`` per never-seen program."""

    name = "cold_programs"

    def __init__(self, seed: int, out_dir: str) -> None:
        super().__init__(seed, out_dir)
        # each (method, n) owns len(EPS_GRID) consecutive pool entries,
        # and entries 2j, 2j+1 of it are twins; every round visits each
        # (method, n) once, so every seed runs the same mix
        per_combo = len(EPS_GRID)
        combos = len(COLD_POOL) // per_combo
        walks = [self._stratified(per_combo // 2) for _ in range(combos)]
        self.order: List[int] = []
        for r in range(per_combo // 2):
            for c in self.rng.sample(range(combos), combos):
                base = c * per_combo + 2 * walks[c][r]
                self.order.extend(self.rng.sample((base, base + 1), 2))

    def _stratified(self, n: int, strata: int = 10) -> List[int]:
        """A seeded order of ``range(n)`` (sorted by tolerance) whose
        every *strata* consecutive picks take one from each stratum."""
        size = n // strata
        within = [self.rng.sample(range(size), size) for _ in range(strata)]
        return [s * size + within[s][r] for r in range(size)
                for s in self.rng.sample(range(strata), strata)]

    def warm_up(self) -> None:
        # first-use imports and lazy tables, on n=4 programs the pool
        # never contains
        for method in ("jacobi", "rb-gs", "rb-sor"):
            spec = {"method": method, "shape": [4, 4, 4], "eps": 1e-3,
                    "max_sweeps": 2000, "backend": "fast"}
            self.run([(-1, spec)])

    def op(self, i: int) -> Optional[Op]:
        if i >= len(self.order):
            return None
        index = self.order[i]
        return [(index, job_spec(COLD_POOL[index], "fast"))]

    def premise(self, records: List[Dict[str, Any]]) -> List[str]:
        problems = []
        hits = self.cache.stats.hits - self.cache_hits
        if hits:
            problems.append(f"{hits} program-cache hits")
        # distinct programs have distinct whole-program plan keys, so no
        # job can be served a plan an earlier job built
        fingerprints = [r.get("program_fingerprint") for r in records]
        if len(set(fingerprints)) != len(fingerprints):
            problems.append("a program fingerprint repeated")
        return problems


class SimHeavy(_InProcess):
    """Warm serial sweeps with ``batch_fusion="auto"``: slabs + hypercubes."""

    name = "sim_heavy"
    batch_fusion = "auto"
    rss_ops = 40
    #: jobs per batch and solver; unequal counts keep the median job
    #: inside one solver's group instead of on the boundary between two
    per_solver = (("jacobi", 4), ("rb-sor", 2))

    def warm_up(self) -> None:
        self.run(self.draw())

    def op(self, i: int) -> Optional[Op]:
        if i % 2 == 0:
            self.twin = self.draw()
        return self.twin

    def draw(self) -> Op:
        jobs: Op = []
        for method, count in self.per_solver:
            for s in self.rng.sample(range(SIM_SEEDS), count):
                index = SIM_METHODS.index(method) * SIM_SEEDS + s
                jobs.append((index, job_spec(SIM_SINGLE[index], "fast")))
        for k, entry in enumerate(SIM_MULTI):
            jobs.append((len(SIM_SINGLE) + k, job_spec(entry, "fast")))
        self.rng.shuffle(jobs)
        return jobs

    @staticmethod
    def record_premise(record: Dict[str, Any]) -> Optional[str]:
        want = "fused" if record.get("hypercube_dim") else "batch_fused"
        if record.get("tier") != want:
            return (f"{record.get('label')} ran on {record.get('tier')}, "
                    f"not {want}")
        return None


class DaemonWarm:
    """Closed loop, one client, against an ``nsc-vpe serve`` subprocess."""

    name = "daemon_warm"
    rss_ops = 400

    def __init__(self, seed: int, out_dir: str, root: str,
                 trace_path: Optional[str] = None) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.seed = seed
        self.out_dir = out_dir
        self.root = root
        self.trace_path = trace_path
        self.proc: Optional[subprocess.Popen] = None
        self.spawned = 0
        self.deck: List[Op] = []

    # -- daemon lifecycle ---------------------------------------------
    def _spawn(self) -> None:
        self.spawned += 1
        tag = f"d{self.spawned}"
        args = ["serve", "--port", "0",
                "--results", os.path.join(self.out_dir, f"{tag}.jsonl"),
                "--rate-capacity", "1000000", "--rate-refill", "1000000"]
        if self.trace_path is not None:
            here = os.path.dirname(os.path.abspath(__file__))
            cmd = [sys.executable, os.path.join(here, "tracehost.py"),
                   self.trace_path] + args
        else:
            cmd = [sys.executable, "-m", "repro.cli"] + args
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with open(os.path.join(self.out_dir, f"{tag}.log"), "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, stdin=subprocess.DEVNULL,
            )
        self.url = self._banner(60.0)

    def _banner(self, timeout: float) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                if line.startswith("serving on "):
                    return line.split()[-1]
                if not line and self.proc.poll() is not None:
                    break
        raise RuntimeError("daemon did not print its banner")

    def _stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                self.client.shutdown()
            proc.wait(timeout=30)
        except Exception:
            proc.kill()
            proc.wait(timeout=30)
        finally:
            if proc.stdout is not None:
                proc.stdout.close()

    def _warm(self) -> None:
        from repro.server.client import ServiceClient

        self.client = ServiceClient(self.url, client_id="nscbench",
                                    max_rate_limit_retries=0)
        specs = [job_spec(entry, backend) for entry in DAEMON_POOL
                 for backend in BACKENDS]
        result = self.client.run(jobs=specs, tag=f"warm-{self.seed}")
        if result["summary"]["failed"]:
            raise RuntimeError("daemon warm-up had failed jobs")

    def setup(self) -> None:
        """Spawn the daemon, read its banner, compile the whole pool."""
        self._spawn()
        self._warm()
        self.base = self.client.stats()
        self.rss_setup_kb = vm_kb(self.proc.pid, "VmRSS")

    def discard(self) -> None:
        """Stop a daemon that served only as a set-up sample."""
        self._stop()

    # -- ops -------------------------------------------------------------
    def op(self, i: int) -> Optional[Op]:
        if i % 2 == 0:
            if not self.deck:
                self.deck = self._deal()
            self.twin = self.deck.pop()
        return self.twin

    def _deal(self) -> List[Op]:
        """One round: the whole pool on both backends, shuffled and cut
        into submissions of 1 and 2 jobs (eight of each).  Three-job
        submissions would cross the daemon's 20 ms result poll whenever
        the host runs slow, doubling their latency."""
        jobs = [(index, job_spec(entry, backend))
                for index, entry in enumerate(DAEMON_POOL)
                for backend in BACKENDS]
        self.rng.shuffle(jobs)
        sizes = [1, 2] * 8
        self.rng.shuffle(sizes)
        deck = []
        for size in sizes:
            deck.append(jobs[:size])
            jobs = jobs[size:]
        return deck

    def run(self, jobs: Op) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
        from repro.server import correlation
        from tracing import current_op

        op_id = current_op() or ""
        # the op id doubles as the correlation id, so daemon-side spans
        # land on this request; the tag keeps every submission distinct
        with correlation.bind(op_id):
            result = self.client.run(jobs=[spec for _, spec in jobs],
                                     tag=f"{self.seed}-{op_id}")
        return result["records"], result["summary"]

    def peak_rss_kb(self) -> int:
        return vm_kb(self.proc.pid, "VmHWM")

    def end(self) -> Dict[str, Any]:
        """Daemon-side readings at the end of the run."""
        stats = self.client.stats()
        pid = self.proc.pid
        return {
            "rss_end_kb": vm_kb(pid, "VmRSS"),
            "cache_misses": stats["cache"]["misses"] - self.base["cache"]["misses"],
            "rejected": stats["rate_limiter"]["rejected"]
            - self.base["rate_limiter"]["rejected"],
            "dedup_hits": stats["submissions"]["dedup_hits"]
            - self.base["submissions"]["dedup_hits"],
        }

    def close(self) -> None:
        self._stop()


WORKLOADS = {
    "daemon_warm": DaemonWarm,
    "cold_programs": ColdPrograms,
    "sim_heavy": SimHeavy,
}
