"""Parallel worker pool with deterministic ordering and failure capture.

Jobs fan out over a :class:`concurrent.futures.ProcessPoolExecutor`;
results always come back in submission order regardless of completion
order, so a batch is reproducible independent of scheduling.  Every job is
wrapped in a :class:`WorkerOutcome`: a worker raising (or timing out) is
*captured*, not propagated — one bad job must never sink the batch.

``max_workers=1`` without a timeout short-circuits to in-process serial
execution — the batch runner's serial executor: no subprocesses, no
pickling, the caller's objects (e.g. a shared
:class:`~repro.service.cache.ProgramCache`) are used directly, and each
outcome is reported the moment its item finishes.  A timeout always
forces the process path — an in-process job cannot be preempted, so a
serial "timeout" would be a lie.

The pool is transport-agnostic: items are whatever the caller's worker
function takes.  The batch runner maps one task per unit (one job or
one slab); over the pickle transport a task carries job specs and
returns whole records (arrays included) through these futures, over shm
it also carries :class:`~repro.service.shm.ShmArrayRef` handles — a few
dozen bytes per grid — and the arrays move through shared memory
instead (see :mod:`repro.service.runner`).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.obs import tracer as obs

# concurrent.futures (and with it multiprocessing) is imported by the
# parallel branches themselves, so a serial batch never loads it
if TYPE_CHECKING:
    from concurrent.futures import Future


@dataclass
class WorkerOutcome:
    """What happened to one item: its value, or the captured failure."""

    index: int
    ok: bool
    value: Any = None
    error: str = ""
    error_type: str = ""
    duration_s: float = 0.0
    traceback: str = field(default="", repr=False)

    @classmethod
    def failure(cls, index: int, exc: BaseException,
                duration_s: float = 0.0) -> "WorkerOutcome":
        return cls(
            index=index,
            ok=False,
            error=str(exc) or type(exc).__name__,
            error_type=type(exc).__name__,
            duration_s=duration_s,
            traceback="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )


def _run_chunk(
    fn: Callable[[Any], Any], chunk: Sequence[Tuple[int, Any]]
) -> List[WorkerOutcome]:
    """Worker-side execution of one chunk of (index, item) pairs.

    Top-level so it pickles into pool workers; failures are captured
    per item, exactly like the serial path.
    """
    return [call_captured(fn, item, index) for index, item in chunk]


def call_captured(fn: Callable[[Any], Any], item: Any,
                  index: int = 0) -> WorkerOutcome:
    """``fn(item)`` in this process, its exception captured as a failure
    outcome — the serial counterpart of a pool worker."""
    start = time.perf_counter()
    try:
        value = fn(item)
    except Exception as exc:
        return WorkerOutcome.failure(index, exc, time.perf_counter() - start)
    return WorkerOutcome(index=index, ok=True, value=value,
                         duration_s=time.perf_counter() - start)


class WorkerPool:
    """Fan a function over items across processes.

    ``timeout`` bounds the wait for each job, counted from the moment the
    pool starts waiting on it (earlier jobs' waits overlap later jobs'
    execution, so this is a per-job ceiling, not a global budget).  A
    timed-out job is reported as a failure with ``error_type='TimeoutError'``
    while the remaining jobs are still collected.

    Without a timeout, items are submitted in *chunks* (at most
    ``CHUNKS_PER_WORKER`` futures per worker), so a batch of many small
    jobs pays a handful of executor round-trips instead of one each;
    ordering stays deterministic because chunks are contiguous slices
    collected in submission order.  A timeout forces per-item futures —
    a chunk-level timeout would charge one slow job to its neighbours.
    Ordinary job exceptions are still captured per item inside the
    chunk.

    A *worker crash* (segfault-level — the executor raises
    ``BrokenProcessPool``) is degraded gracefully: the pool rebuilds the
    executor **once** per map call and resubmits only the items whose
    results were genuinely lost, each as its own future, so a repeat
    crash takes down only the item that caused it.  Chunks completed by
    surviving workers always keep their results.  Items still failing
    after the rebuild are reported with ``error_type='BrokenProcessPool'``
    (classified transient by :mod:`repro.service.retry`).
    """

    #: Upper bound on submitted futures per worker in the chunked path:
    #: enough slack for dynamic load balancing, few enough that executor
    #: round-trips stop dominating small-job batches.
    CHUNKS_PER_WORKER = 4

    def __init__(self, max_workers: int = 1,
                 timeout: Optional[float] = None) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        self.max_workers = max_workers
        self.timeout = timeout
        #: futures submitted by the most recent parallel map (tests use
        #: this to assert the chunked path's throughput shape)
        self.last_submitted = 0
        #: executor rebuilds performed by the most recent map call (at
        #: most one: a BrokenProcessPool recovery)
        self.last_rebuilds = 0
        #: still-pending futures cancelled at the end of the most recent
        #: timeout-path map (stragglers that would otherwise stall
        #: executor shutdown)
        self.last_stragglers = 0

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Sequence[Any],
            on_outcome: Optional[Callable[[WorkerOutcome], None]] = None,
            ) -> List[WorkerOutcome]:
        """Apply ``fn`` to every item; outcomes ordered like ``items``.

        ``on_outcome`` is called with each outcome, in item order: the
        in-process branch calls it the moment its item finishes (so a
        caller can checkpoint per item), the process branches once the
        map has collected everything.  An exception it raises escapes
        the map."""
        self.last_rebuilds = 0
        self.last_stragglers = 0
        report = on_outcome or (lambda outcome: None)
        if not items:
            return []
        if self.timeout is None and (self.max_workers == 1
                                     or len(items) == 1):
            outcomes = []
            for index, item in enumerate(items):
                outcomes.append(call_captured(fn, item, index))
                report(outcomes[-1])
            return outcomes
        outcomes = self._map_parallel(fn, items)
        for outcome in outcomes:
            report(outcome)
        return outcomes

    @staticmethod
    def _lost_to_break(future: "Future") -> bool:
        """Did this future lose its result to the pool break?  Futures
        that completed (value or an ordinary job exception) before the
        crash keep what they have and are not resubmitted."""
        from concurrent.futures.process import BrokenProcessPool

        if not future.done() or future.cancelled():
            return True
        return isinstance(future.exception(), BrokenProcessPool)

    def _map_parallel(self, fn: Callable[[Any], Any],
                      items: Sequence[Any]) -> List[WorkerOutcome]:
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        if self.timeout is None:
            return self._map_chunked(fn, items)
        workers = min(self.max_workers, len(items))
        outcomes: Dict[int, WorkerOutcome] = {}
        executor = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        timed_out = False
        futures: Dict[int, "Future"] = {}
        try:
            start = time.perf_counter()
            futures = {
                index: executor.submit(fn, item)
                for index, item in enumerate(items)
            }
            self.last_submitted = len(futures)
            pending = list(range(len(items)))
            while pending:
                index = pending.pop(0)
                future = futures[index]
                try:
                    value = future.result(timeout=self.timeout)
                except concurrent.futures.TimeoutError:
                    timed_out = True
                    future.cancel()
                    outcomes[index] = WorkerOutcome(
                        index=index, ok=False,
                        error=f"job exceeded {self.timeout:g}s",
                        error_type="TimeoutError",
                        duration_s=time.perf_counter() - start)
                except BrokenProcessPool as exc:
                    if self.last_rebuilds:
                        # already rebuilt once: report this item and let
                        # the loop drain the rest (their futures fail
                        # instantly on the same broken pool)
                        outcomes[index] = WorkerOutcome.failure(index, exc)
                        continue
                    # rebuild the executor once and resubmit only the
                    # items whose results the crash actually lost
                    self.last_rebuilds += 1
                    obs.count("pool.rebuild")
                    lost = [
                        j for j in [index] + pending
                        if self._lost_to_break(futures[j])
                    ]
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = concurrent.futures.ProcessPoolExecutor(
                        max_workers=min(workers, len(lost)))
                    for j in lost:
                        futures[j] = executor.submit(fn, items[j])
                    pending.insert(0, index)
                except Exception as exc:
                    outcomes[index] = WorkerOutcome.failure(
                        index, exc, time.perf_counter() - start)
                else:
                    outcomes[index] = WorkerOutcome(
                        index=index, ok=True, value=value,
                        duration_s=time.perf_counter() - start)
        finally:
            # cancel stragglers (futures still pending after their batch
            # already failed) so shutdown cannot block on them
            stragglers = [
                future for future in futures.values() if not future.done()
            ]
            self.last_stragglers = len(stragglers)
            for future in stragglers:
                future.cancel()
            if timed_out:
                # a graceful shutdown would join the hung workers; kill
                # them so one stuck job cannot stall the whole batch
                for proc in list(getattr(executor, "_processes", {}).values()):
                    proc.terminate()
            executor.shutdown(wait=not timed_out, cancel_futures=True)
        return [outcomes[index] for index in range(len(items))]

    def _map_chunked(self, fn: Callable[[Any], Any],
                     items: Sequence[Any]) -> List[WorkerOutcome]:
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        workers = min(self.max_workers, len(items))
        max_futures = workers * self.CHUNKS_PER_WORKER
        chunk_size = -(-len(items) // max_futures)  # ceil division
        indexed = list(enumerate(items))
        chunks = [
            indexed[i : i + chunk_size]
            for i in range(0, len(indexed), chunk_size)
        ]
        outcomes: List[WorkerOutcome] = []
        lost: List[Tuple[int, Any]] = []
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers
        ) as executor:
            futures = [
                executor.submit(_run_chunk, fn, chunk) for chunk in chunks
            ]
            self.last_submitted = len(futures)
            # collect every future even after a pool break: chunks that
            # finished before a worker died still hold their results, so
            # only genuinely lost chunks queue for the rebuild
            for position, future in enumerate(futures):
                try:
                    outcomes.extend(future.result())
                except BrokenProcessPool:
                    lost.extend(chunks[position])
                except Exception as exc:
                    for index, _item in chunks[position]:
                        outcomes.append(WorkerOutcome.failure(index, exc))
        if lost:
            # rebuild the executor once and resubmit the lost items,
            # each as its own chunk: a repeat crash then takes down only
            # the item that caused it, not its neighbours
            self.last_rebuilds += 1
            obs.count("pool.rebuild")
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, len(lost))
            ) as executor:
                retries = [
                    executor.submit(_run_chunk, fn, [pair]) for pair in lost
                ]
                for pair, future in zip(lost, retries):
                    try:
                        outcomes.extend(future.result())
                    except Exception as exc:
                        outcomes.append(WorkerOutcome.failure(pair[0], exc))
        outcomes.sort(key=lambda outcome: outcome.index)
        return outcomes


__all__ = ["WorkerPool", "WorkerOutcome", "call_captured"]
