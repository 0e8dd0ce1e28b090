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

Items are whatever the caller's worker function takes.  The batch runner
maps one task per unit (one job or one slab): a task carries job specs
out, and whole records (kept field arrays included) come back pickled
through these futures (see :mod:`repro.service.runner`).
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


def _submit(executor: Any, fn: Callable[..., Any], *args: Any) -> "Future":
    """``executor.submit(fn, *args)``, except that a pool a worker crash
    already broke yields a future failed with that ``BrokenProcessPool``
    instead of raising, so an item submitted after the crash meets the
    same recovery as one submitted before it."""
    from concurrent.futures import Future
    from concurrent.futures.process import BrokenProcessPool

    try:
        return executor.submit(fn, *args)
    except BrokenProcessPool as exc:
        future: "Future" = Future()
        future.set_exception(exc)
        return future


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

    ``timeout`` bounds each job's run, counted from the moment the job
    starts: the timeout path hands an item to the executor only when a
    worker is free for it, so it starts when it is submitted (a per-job
    ceiling, not a global budget; a job queued behind a hung one never
    times out unrun).  A timed-out job is reported as a failure with
    ``error_type='TimeoutError'`` while the remaining jobs are still
    collected; its worker stays hung until the map ends and kills it,
    and once every worker is hung the jobs still waiting move to a
    rebuilt executor, as after a crash.

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
    executor **once** per map call and reruns only the items whose
    results were genuinely lost, each as its own future.  Items a second
    crash loses then run on one-worker *lanes*, one item at a time per
    lane, so a repeat crash takes down only the item that caused it.
    Chunks completed by surviving workers always keep their results.  An
    item that crashes on its lane too is reported with
    ``error_type='BrokenProcessPool'`` (classified transient by
    :mod:`repro.service.retry`).
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
        #: most one: a BrokenProcessPool recovery, or every worker hung)
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

    def _map_parallel(self, fn: Callable[[Any], Any],
                      items: Sequence[Any]) -> List[WorkerOutcome]:
        if self.timeout is None:
            return self._map_chunked(fn, items)
        return self._map_per_item(fn, list(enumerate(items)),
                                  min(self.max_workers, len(items)))

    def _map_per_item(self, fn: Callable[[Any], Any],
                      pairs: Sequence[Tuple[int, Any]], workers: int,
                      rebuilt: bool = False) -> List[WorkerOutcome]:
        """Each ``(index, item)`` pair as its own future on one executor,
        handed over only when a worker is free, so an item starts the
        moment it is submitted and its timeout counts from there.  A
        timed-out item keeps its worker hung until shutdown kills it.
        A pool break, or every worker hung with items still waiting,
        hands the items whose results were lost or that never started
        to :meth:`_rerun_lost`."""
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        workers = min(workers, len(pairs))
        outcomes: Dict[int, WorkerOutcome] = {}
        executor = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        queue = list(reversed(pairs))  # pop() takes the lowest index
        # future -> ((index, item), start) of the item it runs
        running: Dict["Future", Tuple[Tuple[int, Any], float]] = {}
        hung: List["Future"] = []  # timed out, still holding a worker
        lost: List[Tuple[int, Any]] = []
        if not rebuilt:
            self.last_submitted = 0
        try:
            while queue or running:
                hung = [future for future in hung if not future.done()]
                while queue and len(running) + len(hung) < workers:
                    pair = queue.pop()
                    future = _submit(executor, _run_chunk, fn, [pair])
                    running[future] = (pair, time.perf_counter())
                    if not rebuilt:
                        self.last_submitted += 1
                if not running:
                    # every worker is hung: nothing waiting can start here
                    lost = queue[::-1]
                    break
                wait_s = None
                if self.timeout is not None:
                    first = min(start for _pair, start in running.values())
                    wait_s = max(0.0, first + self.timeout - time.perf_counter())
                concurrent.futures.wait(
                    list(running) + hung, timeout=wait_s,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                broken = False
                for future, (pair, start) in list(running.items()):
                    index = pair[0]
                    if future.done():
                        try:
                            (outcomes[index],) = future.result()
                        except BrokenProcessPool:
                            broken = True
                            continue  # collected with the rest below
                        except Exception as exc:
                            outcomes[index] = WorkerOutcome.failure(
                                index, exc, time.perf_counter() - start)
                    elif (self.timeout is not None
                          and time.perf_counter() - start >= self.timeout):
                        future.cancel()
                        outcomes[index] = self._timed_out(index, start)
                        hung.append(future)
                    else:
                        continue
                    del running[future]
                if broken:
                    # every item still on the executor lost its result
                    # to the break, and the waiting ones cannot start
                    lost = sorted(
                        [pair for pair, _start in running.values()] + queue,
                        key=lambda pair: pair[0])
                    running = {}
                    break
        finally:
            # cancel stragglers (hung futures, and any left pending when
            # the map gave up) so shutdown cannot block on them
            stragglers = [
                future for future in list(running) + hung if not future.done()
            ]
            self.last_stragglers += len(stragglers)
            for future in stragglers:
                future.cancel()
            self._shutdown(executor, hung=bool(hung))
        if lost:
            for outcome in self._rerun_lost(fn, lost, workers, rebuilt):
                outcomes[outcome.index] = outcome
        return [outcomes[index] for index, _item in pairs]

    def _rerun_lost(self, fn: Callable[[Any], Any],
                    lost: Sequence[Tuple[int, Any]], workers: int,
                    rebuilt: bool) -> List[WorkerOutcome]:
        """Recover the items a pool break lost (or that every worker
        hung left waiting).  The first time in a map they rerun on one
        rebuilt executor (warm, pipelined: a one-off crash costs
        little); items lost a second time run on lanes, where a repeat
        crash fails only its own item."""
        if rebuilt:
            return self._run_lanes(fn, lost, workers)
        self.last_rebuilds += 1
        obs.count("pool.rebuild")
        return self._map_per_item(fn, lost, workers, rebuilt=True)

    def _timed_out(self, index: int, start: float) -> WorkerOutcome:
        return WorkerOutcome(
            index=index, ok=False, error=f"job exceeded {self.timeout:g}s",
            error_type="TimeoutError",
            duration_s=time.perf_counter() - start)

    @staticmethod
    def _shutdown(executor: Any, hung: bool) -> None:
        if hung:
            # a graceful shutdown would join the hung workers; kill them
            # so one stuck job cannot stall the whole batch (a broken or
            # already shut-down executor holds no processes: None)
            for proc in list((getattr(executor, "_processes", None)
                              or {}).values()):
                proc.terminate()
        executor.shutdown(wait=not hung, cancel_futures=True)

    def _run_lanes(self, fn: Callable[[Any], Any],
                   lost: Sequence[Tuple[int, Any]],
                   workers: int) -> List[WorkerOutcome]:
        """Run ``(index, item)`` pairs on *workers* lanes, each a
        one-worker executor fed one item at a time as it frees.  A lane's
        worker stays warm across its items, and a crash breaks only its
        lane's executor, so only the item that crashed fails; the lane
        gets a fresh executor for its next item, as does a lane whose
        item timed out.  The per-item timeout counts from the item's
        submission."""
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        queue = list(reversed(lost))  # pop() takes the lowest index
        lanes: List[Any] = [None] * min(workers, len(lost))
        # lane -> (future, index, start) of the item it runs
        running: Dict[int, Tuple["Future", int, float]] = {}
        outcomes: List[WorkerOutcome] = []
        try:
            while queue or running:
                for lane, executor in enumerate(lanes):
                    if lane in running or not queue:
                        continue
                    if executor is None:
                        executor = lanes[lane] = (
                            concurrent.futures.ProcessPoolExecutor(
                                max_workers=1))
                    pair = queue.pop()
                    running[lane] = (_submit(executor, _run_chunk, fn, [pair]),
                                     pair[0], time.perf_counter())
                wait_s = None
                if self.timeout is not None:
                    first = min(start for _f, _i, start in running.values())
                    wait_s = max(0.0, first + self.timeout - time.perf_counter())
                concurrent.futures.wait(
                    [future for future, _i, _s in running.values()],
                    timeout=wait_s,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                for lane, (future, index, start) in list(running.items()):
                    broken = hung = False
                    if future.done():
                        try:
                            outcomes.extend(future.result())
                        except Exception as exc:
                            broken = isinstance(exc, BrokenProcessPool)
                            outcomes.append(WorkerOutcome.failure(
                                index, exc, time.perf_counter() - start))
                    elif (self.timeout is not None
                          and time.perf_counter() - start >= self.timeout):
                        hung = True
                        outcomes.append(self._timed_out(index, start))
                    else:
                        continue
                    del running[lane]
                    if broken or hung:
                        self._shutdown(lanes[lane], hung=hung)
                        lanes[lane] = None
        finally:
            for lane, executor in enumerate(lanes):
                if executor is not None:
                    self._shutdown(executor, hung=lane in running)
        return outcomes

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
                _submit(executor, _run_chunk, fn, chunk) for chunk in chunks
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
            outcomes += self._rerun_lost(fn, lost, workers, rebuilt=False)
        outcomes.sort(key=lambda outcome: outcome.index)
        return outcomes


__all__ = ["WorkerPool", "WorkerOutcome", "call_captured"]
