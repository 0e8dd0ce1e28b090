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

Only compiled programs are cached, never a checker verdict: a recompile
after an eviction is checked like any other compile (see ``run_checker``
on :class:`~repro.service.jobs.SimJob`).  Anything else in the disk
directory is ignored and never deleted.

A third layer holds *execution plans*: the whole-program schedules the
compiled engine (:mod:`repro.sim.progplan`) builds on top of a compiled
program.  Plans hold closures and scratch structure, so they are
memory-only; every :class:`ProgramCache` shares the
process-wide :data:`repro.sim.fastpath.PLAN_CACHE`, which is exactly the
cache the simulator consults at run time.  Plans are keyed by the
program object this cache hands out, so every job served from one entry
reuses one plan; a recompile or a disk load builds its own.
"""

from __future__ import annotations

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

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
        }

    def format(self) -> str:
        return (
            f"{self.hits} hits ({self.disk_hits} from disk), "
            f"{self.misses} misses"
        )


class ProgramCache:
    """Memoizes compiled programs by content key.

    ``plans`` is the plan layer: the process-wide
    :data:`~repro.sim.fastpath.PLAN_CACHE`, keyed by program object
    + params.  It is deliberately the same object the execution engine
    consults at run time: a slab binds its plan from it.

    The compiled values live in an :class:`~repro.sim.fastpath.LRU`
    with the plan cache's bound; the disk layer behind it is unbounded.
    """

    def __init__(self, disk_dir: Optional[str] = None) -> None:
        self._mem = LRU()
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
    def __contains__(self, key: str) -> bool:
        if key in self._mem:
            return True
        path = self._disk_path(key)
        return path is not None and path.exists()

    def __len__(self) -> int:
        return len(self._mem)

    def clear(self) -> None:
        """Drop the in-memory compiled layer; disk entries stay."""
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
