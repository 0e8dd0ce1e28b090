"""The fused engine's backend names and its bounded program caches.

Nothing here executes a program.  The module holds:

- :data:`BACKENDS` (re-exported from :mod:`repro.choices`) and
  :func:`validate_backend`, which every ``backend=`` argument passes
  through;
- :class:`LRU` and :data:`PROGRAM_CACHE_SIZE`, the one bounded mapping
  and the one bound every in-process program cache shares;
- :class:`PlanCache` and the process-wide :data:`PLAN_CACHE`, which holds
  the whole-program plans of :mod:`repro.sim.progplan` keyed by program
  object, so plans survive across machines, params sets, and the
  batch-service jobs of one compiled program within one process.

Each pipeline image is lowered once, straight into its
:class:`~repro.sim.progplan.ImageKernel`, when its program plan compiles;
images have no cache of their own.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.choices import BACKENDS


def validate_backend(backend: str) -> str:
    """Return *backend* if it names a known execution backend."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown execution backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


# ----------------------------------------------------------------------
# the bounded in-process caches (plans here, compiled programs and their
# registries in repro.service.cache)
# ----------------------------------------------------------------------
#: Entries each in-process program-cache layer keeps: :data:`PLAN_CACHE`
#: and the memory layers of :class:`repro.service.cache.ProgramCache`.
#: One bound for all of them, so a program that has fallen out of one
#: layer has, under the same access order, fallen out of the others.
#: Caches built with ``maxsize=None`` read it on every insert.
PROGRAM_CACHE_SIZE = 256


class LRU:
    """A bounded mapping that evicts its least recently used key.

    :meth:`get` refreshes a key's recency; :meth:`put` stores a key as
    the most recent and returns how many keys it pushed out.  ``in`` and
    ``len`` leave the order alone.  ``maxsize=None`` follows
    :data:`PROGRAM_CACHE_SIZE`.  Values are never None: :meth:`get`
    answers None for a missing key.
    """

    def __init__(self, maxsize: Optional[int] = None) -> None:
        self.maxsize = maxsize
        self._data: "OrderedDict[Any, Any]" = OrderedDict()

    @property
    def bound(self) -> int:
        return PROGRAM_CACHE_SIZE if self.maxsize is None else self.maxsize

    def get(self, key: Any) -> Any:
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: Any, value: Any) -> int:
        data = self._data
        data[key] = value
        data.move_to_end(key)
        bound = self.bound
        evicted = 0
        while len(data) > bound:
            data.popitem(last=False)
            evicted += 1
        return evicted

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()


@dataclass
class PlanCacheStats:
    """Hit/miss/eviction accounting for compiled-plan lookups."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}


class PlanCache(LRU):
    """LRU cache for compiled execution plans, keyed by program identity.

    Keys are ``(id(program), params)`` pairs (see
    :func:`repro.sim.progplan.compiled_plan`); every value holds its
    program, so an id in a live key is never reused.  The same params on
    the same program always replays the same plan, so two
    parameterizations of one program coexist instead of thrashing a
    single stashed slot.
    """

    def __init__(self, maxsize: Optional[int] = None) -> None:
        super().__init__(maxsize)
        self.stats = PlanCacheStats()

    def get_or_build(self, key: Any, build: Callable[[], Any]) -> Any:
        entry = self.get(key)
        if entry is not None:
            self.stats.hits += 1
            return entry
        value = build()
        self.stats.misses += 1
        self.stats.evictions += self.put(key, value)
        return value

    def clear(self) -> None:
        super().clear()
        self.stats = PlanCacheStats()


#: Process-wide plan cache.  The batch service's
#: :class:`repro.service.cache.ProgramCache` exposes this same object as its
#: plan layer, so jobs sharing a process reuse compiled plans across runs.
PLAN_CACHE = PlanCache()


__all__ = [
    "BACKENDS",
    "validate_backend",
    "LRU",
    "PROGRAM_CACHE_SIZE",
    "PlanCache",
    "PlanCacheStats",
    "PLAN_CACHE",
]
