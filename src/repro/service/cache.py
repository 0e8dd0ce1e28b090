"""Compile-once program cache.

Microcode generation (checking, FU allocation, microword emission) is the
expensive, perfectly deterministic step of every job, so the service caches
its output keyed by :meth:`SimJob.cache_key` — the pair of program and
parameter hashes.  Two layers:

- an in-memory :class:`~repro.sim.fastpath.LRU`, shared by all jobs
  executed in one process (the serial runner and each pool worker get
  one each) and bounded by
  :data:`~repro.sim.fastpath.PROGRAM_CACHE_SIZE`, so a long-lived
  process keeps the programs it used last, not every program it saw;
- an optional on-disk pickle directory, shared *across* processes and
  sessions, so a parallel pool or a re-run of the same sweep still skips
  compilation.

Values are opaque to the cache; the runner stores
``(setup, MachineProgram)`` pairs.  Disk entries are written atomically
(tmp file + rename) and unreadable entries are treated as misses.  The
disk layer is unbounded: an evicted key comes back as a disk hit.

Alongside the compiled entries lives a *verified registry*: for every
cache key whose compile ran the design-rule checker, the fingerprint of
the microcode that checked clean.  The runner's ``run_checker="auto"``
trusted path consults it to skip :meth:`Checker.check_program` on
recompiles of already-vetted ``(program, machine)`` pairs — and because
the registry records the expected *fingerprint*, a skipped check is still
verified after the fact (a mismatch triggers a checked recompile rather
than silent trust).  The registry's memory side is bounded like the
compiled layer; an evicted mark is re-read from ``cache_dir/verified/``,
or, without a disk layer, is simply gone — the next ``"auto"`` compile
of that key runs the checker again.

A third layer holds *execution plans*: the whole-program schedules the
compiled engine (:mod:`repro.sim.progplan`) builds on top of a compiled
program.  Plans hold closures and scratch structure, so they are
memory-only; every :class:`ProgramCache` shares the
process-wide :data:`repro.sim.fastpath.PLAN_CACHE`, which is exactly the
cache the simulator consults at run time.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.obs import tracer as obs
from repro.sim.fastpath import LRU, PLAN_CACHE


@dataclass
class CacheStats:
    """Hit/miss accounting, surfaced in batch summaries."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0  # subset of hits satisfied from the disk layer
    evictions: int = 0  # compiled values the memory layer's bound dropped
    checks_skipped: int = 0  # compiles that rode the verified registry
    static_clean: int = 0  # compiles vetted by the static analyzer alone

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "checks_skipped": self.checks_skipped,
            "static_clean": self.static_clean,
        }

    def format(self) -> str:
        return (
            f"{self.hits} hits ({self.disk_hits} from disk), "
            f"{self.misses} misses"
        )


class ProgramCache:
    """Memoizes compiled programs by content key.

    ``plans`` is the plan layer: the process-wide
    :data:`~repro.sim.fastpath.PLAN_CACHE`, keyed by program fingerprint
    + params.  It is deliberately the same object the execution engine
    consults at run time: a slab binds its plan from it.

    The compiled values, the verified registry and the static verdicts
    each live in an :class:`~repro.sim.fastpath.LRU` with the plan
    cache's bound; the disk layer behind them is unbounded.
    """

    def __init__(self, disk_dir: Optional[str] = None) -> None:
        self._mem = LRU()
        self._verified = LRU()
        self._static = LRU()
        self.disk_dir = Path(disk_dir) if disk_dir else None
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self.plans = PLAN_CACHE

    # ------------------------------------------------------------------
    def get_or_compile(self, key: str, compile_fn: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, compiling on first sight.

        The whole lookup-or-compile rides the active tracer's
        ``compile`` span (near-zero on a hit), with ``cache.*`` counters
        mirroring :attr:`stats` into per-extent telemetry.
        """
        with obs.span("compile"):
            value = self._mem.get(key)
            if value is not None:
                self.stats.hits += 1
                obs.count("cache.hit")
                return value
            value = self._load_disk(key)
            if value is not None:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                obs.count("cache.hit")
                obs.count("cache.disk_hit")
            else:
                value = compile_fn()
                self.stats.misses += 1
                obs.count("cache.miss")
                self._store_disk(key, value)
            evicted = self._mem.put(key, value)
            if evicted:
                self.stats.evictions += evicted
                obs.count("cache.evict", evicted)
            return value

    # ------------------------------------------------------------------
    # verified registry (the run_checker="auto" trusted path)
    # ------------------------------------------------------------------
    def verified_fingerprint(self, key: str) -> Optional[str]:
        """Fingerprint recorded by a checker-validated compile of ``key``,
        or None if this ``(program, machine)`` pair was never vetted."""
        fingerprint = self._verified.get(key)
        if fingerprint is not None:
            return fingerprint
        path = self._verified_path(key)
        if path is None or not path.exists():
            return None
        try:
            fingerprint = path.read_text(encoding="utf-8").strip()
        except OSError:
            return None
        if fingerprint:
            self._verified.put(key, fingerprint)
            return fingerprint
        return None

    def mark_verified(self, key: str, fingerprint: str) -> None:
        """Record that ``key``'s program checked clean and compiled to
        ``fingerprint`` (persisted when a disk layer is configured)."""
        self._verified.put(key, fingerprint)
        path = self._verified_path(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(fingerprint)
            os.replace(tmp, path)
        except Exception:
            pass  # the registry is an optimisation; never sink a job

    def clear_verified(self) -> None:
        """Forget every trust mark (in-memory and on-disk)."""
        self._verified.clear()
        if self.disk_dir is None:
            return
        for path in (self.disk_dir / "verified").glob("*.fp"):
            try:
                path.unlink()
            except OSError:
                pass

    def _verified_path(self, key: str) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / "verified" / f"{key}.fp"

    # ------------------------------------------------------------------
    # static-analysis registry (the run_checker="static" trusted path)
    # ------------------------------------------------------------------
    def record_static(self, key: str, verdict: Any) -> None:
        """Record ``key``'s static-analysis verdict next to its trust mark.

        ``verdict`` is an :class:`repro.analysis.AnalysisVerdict`; the
        serialized form persists when a disk layer is configured, so a
        later process (or ``nsc-vpe analyze``) can read why a program
        was — or was not — statically trusted without re-analyzing.
        """
        payload = verdict.to_dict()
        self._static.put(key, payload)
        path = self._static_path(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except Exception:
            pass  # the registry is an optimisation; never sink a job

    def static_verdict(self, key: str) -> Optional[Dict[str, Any]]:
        """The recorded verdict dict for ``key``, or None."""
        payload = self._static.get(key)
        if payload is not None:
            return payload
        path = self._static_path(key)
        if path is None or not path.exists():
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return None
        self._static.put(key, payload)
        return payload

    def _static_path(self, key: str) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / "analysis" / f"{key}.json"

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        if key in self._mem:
            return True
        path = self._disk_path(key)
        return path is not None and path.exists()

    def __len__(self) -> int:
        return len(self._mem)

    def entries(self) -> Dict[str, int]:
        """Entries held in memory per layer (the ``/stats`` gauges)."""
        return {"compiled": len(self._mem), "verified": len(self._verified),
                "static": len(self._static)}

    def clear(self) -> None:
        """Drop the in-memory compiled layer.  Disk entries and the
        verified registry are left alone — forgetting a compiled program
        does not unvet it (use :meth:`clear_verified` for that)."""
        self._mem.clear()

    # ------------------------------------------------------------------
    # disk layer
    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"{key}.pkl"

    def _load_disk(self, key: str) -> Optional[Any]:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except Exception:
            return None  # corrupt/partial entry: recompile and overwrite

    def _store_disk(self, key: str, value: Any) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=str(self.disk_dir), suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh)
            os.replace(tmp, path)
        except Exception:
            # the cache is an optimisation; never let it sink a job
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass


__all__ = ["ProgramCache", "CacheStats"]
