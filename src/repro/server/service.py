"""The resident simulation service: submissions, dedup, warm execution.

:class:`SimService` is what ``nsc-vpe serve`` keeps alive between
requests — the piece every ``nsc-vpe batch`` invocation used to rebuild
from scratch:

- one persistent :class:`~repro.service.cache.ProgramCache` (and through
  it the process-wide :data:`~repro.sim.fastpath.PLAN_CACHE`) handed to
  every :class:`~repro.service.runner.BatchRunner` the daemon builds, so
  a program compiled for one request is a cache hit for every later one;
- one :class:`~repro.service.results.ResultStore` as the durable layer —
  the same JSONL schema offline batches write, so a daemon-written store
  is digest-comparable to an offline run of the same jobs;
- the :class:`~repro.server.events.EventBuffer` installed as the process
  default tracer sink, turning every span/counter event the stack emits
  into the ``GET /events`` live stream.

**Submissions** are the unit of work: a list of job specs (or a sweep
that expands into one) plus options, content-hashed into a submission
id.  Submitting a payload whose hash is already registered *coalesces*
onto the existing submission — concurrent duplicate ``POST /jobs`` from
retrying clients execute once and share the result (the ``tag`` field
exists precisely so an intentional re-run can opt out of coalescing).
Execution is strictly serial on one worker thread: requests stay
snappy on the event loop, jobs run in submission order, and the store
sees exactly one writer.

The daemon adds nothing to the record schema — correlation ids and
submission bookkeeping live in events and status payloads, never in
stored records — which is what keeps the acceptance contract honest:
a warm daemon's store is digest-identical (modulo volatile keys) to
``nsc-vpe batch`` run offline.
"""

from __future__ import annotations

import hashlib
import json
import queue
import resource
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import tracer as obs
from repro.server import correlation
from repro.server.events import EventBuffer
from repro.server.history import RunHistory
from repro.service.cache import ProgramCache
from repro.service.jobs import JobSpecError, SimJob
from repro.service.results import ResultStore
from repro.service.retry import RetryPolicy
from repro.service.runner import BatchRunner
from repro.service.sweep import SweepSpec

#: Submission lifecycle states.  ``failed`` means the *infrastructure*
#: failed (the runner raised); individual job failures leave the
#: submission ``done`` with a non-zero ``summary["failed"]``.
STATES = ("queued", "running", "done", "failed")


class SubmissionError(ValueError):
    """The submission payload is malformed (maps to HTTP 400)."""


@dataclass
class Submission:
    """One content-addressed batch moving through the daemon."""

    sub_id: str
    specs: List[Dict[str, Any]]
    tag: str = ""
    resume: bool = False
    correlation_id: str = ""
    state: str = "queued"
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    records: Optional[List[Dict[str, Any]]] = None
    summary: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: duplicate POSTs coalesced onto this submission after the first
    dedup_hits: int = 0

    def status(self) -> Dict[str, Any]:
        """The ``GET /jobs/{id}`` payload: lifecycle plus, once run, the
        per-job reliability picture (``attempts``/``tier``/``timings``
        from the record schema) without the full result bodies."""
        payload: Dict[str, Any] = {
            "id": self.sub_id,
            "state": self.state,
            "tag": self.tag,
            "resume": self.resume,
            "n_jobs": len(self.specs),
            "correlation_id": self.correlation_id,
            "created_s": round(self.created_s, 3),
            "dedup_hits": self.dedup_hits,
        }
        if self.started_s is not None:
            payload["started_s"] = round(self.started_s, 3)
        if self.finished_s is not None:
            payload["finished_s"] = round(self.finished_s, 3)
        if self.error is not None:
            payload["error"] = self.error
        if self.summary is not None:
            payload["summary"] = self.summary
        if self.records is not None:
            payload["jobs"] = [
                {
                    "job_id": r.get("job_id"),
                    "label": r.get("label"),
                    "ok": r.get("ok"),
                    "tier": r.get("tier"),
                    "attempts": r.get("attempts"),
                    "cache_hit": r.get("cache_hit"),
                    "timings": r.get("timings"),
                }
                for r in self.records
            ]
        return payload


def _canonical_specs(payload: Dict[str, Any]) -> Tuple[List[Dict[str, Any]], str]:
    """Validate and normalize the payload into effective job specs.

    Accepts ``{"jobs": [spec, ...]}`` or ``{"sweep": {axes...}}``.
    Specs are normalized through :class:`SimJob` round-trips so two
    payloads meaning the same jobs hash identically however they were
    spelled (``"n": 7`` vs an explicit shape, axis lists vs tuples).
    Returns ``(specs, kind)``.
    """
    has_jobs = "jobs" in payload
    has_sweep = "sweep" in payload
    if has_jobs == has_sweep:
        raise SubmissionError('give exactly one of "jobs" or "sweep"')
    if has_jobs:
        raw = payload["jobs"]
        if not isinstance(raw, list) or not raw:
            raise SubmissionError('"jobs" must be a non-empty list of specs')
        try:
            jobs = [SimJob.from_dict(spec) for spec in raw]
        except (JobSpecError, TypeError, ValueError) as exc:
            raise SubmissionError(f"bad job spec: {exc}")
        return [job.to_dict() for job in jobs], "jobs"
    raw = payload["sweep"]
    if not isinstance(raw, dict):
        raise SubmissionError('"sweep" must be an object of sweep axes')
    data = dict(raw)
    for axis in ("grids", "methods", "dims", "subset", "seeds"):
        if axis in data:
            if not isinstance(data[axis], list):
                raise SubmissionError(f'sweep axis "{axis}" must be a list')
            data[axis] = tuple(data[axis])
    try:
        spec = SweepSpec(**data)
    except (JobSpecError, TypeError, ValueError) as exc:
        raise SubmissionError(f"bad sweep spec: {exc}")
    return [job.to_dict() for job in spec.expand()], "sweep"


class SimService:
    """The daemon's execution core (transport-agnostic: the HTTP layer
    in :mod:`repro.server.app` is one client of this object; tests and
    the smoke driver are others).

    Call :meth:`start` before submitting and :meth:`stop` when done —
    start installs the event buffer as the process default tracer sink
    and launches the worker thread; stop reverses both.  Usable as a
    context manager.
    """

    _STOP = object()

    def __init__(
        self,
        store_path: Optional[str] = None,
        cache_dir: Optional[str] = None,
        workers: int = 1,
        timeout: Optional[float] = None,
        batch_fusion: str = "off",
        run_checker: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        events: Optional[EventBuffer] = None,
        max_queued: int = 256,
    ) -> None:
        self.workers = workers
        self.timeout = timeout
        self.batch_fusion = batch_fusion
        self.run_checker = run_checker
        self.retry = retry
        self.cache_dir = cache_dir
        self.cache = ProgramCache(cache_dir)
        self.store = ResultStore(store_path) if store_path else None
        # "is not None", not truthiness: an empty ResultStore has len 0
        self.history = RunHistory(self.store) if self.store is not None else None
        self.events = events if events is not None else EventBuffer()
        self.max_queued = max_queued
        self.telemetry = obs.Telemetry()
        self.started_s = time.time()
        self.jobs_executed = 0
        self.jobs_ok = 0
        self._counters: Dict[str, int] = {}
        self._submissions: Dict[str, Submission] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        #: notified under ``_lock`` each time a submission finishes
        self._finished = threading.Condition(self._lock)
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._worker: Optional[threading.Thread] = None
        self._previous_sink: Optional[Any] = None
        self._running = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SimService":
        if self._running:
            return self
        self._previous_sink = obs.set_default_sink(self.events)
        self._worker = threading.Thread(
            target=self._worker_loop, name="nsc-vpe-serve-runner", daemon=True
        )
        self._running = True
        self._worker.start()
        self.events.emit({"type": "service_started"})
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if not self._running:
            return
        self._running = False
        self._queue.put(self._STOP)
        if self._worker is not None:
            self._worker.join(timeout)
        obs.set_default_sink(self._previous_sink)
        self.events.emit({"type": "service_stopped"})

    def __enter__(self) -> "SimService":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self, payload: Dict[str, Any], correlation_id: Optional[str] = None
    ) -> Tuple[Submission, bool]:
        """Register (or coalesce onto) a submission; returns
        ``(submission, created)``.

        The submission id is a content hash over the *effective* job
        specs plus the client ``tag`` and ``resume`` flag — identical
        payloads map to the same id, so duplicate POSTs (concurrent or
        later) coalesce onto one execution.  A client that wants the
        same jobs executed again sends a different ``tag``.
        """
        if not isinstance(payload, dict):
            raise SubmissionError("submission payload must be a JSON object")
        unknown = set(payload) - {"jobs", "sweep", "tag", "resume"}
        if unknown:
            raise SubmissionError(
                f"unknown submission fields: {sorted(unknown)}"
            )
        tag = str(payload.get("tag", ""))
        resume = bool(payload.get("resume", False))
        if resume and self.store is None:
            raise SubmissionError(
                "resume requires the daemon to run with a result store "
                "(serve --results)"
            )
        specs, kind = _canonical_specs(payload)
        digest = hashlib.sha256(
            json.dumps(
                {"jobs": specs, "tag": tag, "resume": resume},
                sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
        ).hexdigest()
        sub_id = digest[:16]
        with self._lock:
            existing = self._submissions.get(sub_id)
            if existing is not None:
                existing.dedup_hits += 1
                self._count("server.dedup")
                self.events.emit(
                    {
                        "type": "submission_deduplicated",
                        "submission": sub_id,
                        "state": existing.state,
                    }
                )
                return existing, False
            queued = sum(
                1 for s in self._submissions.values()
                if s.state in ("queued", "running")
            )
            if queued >= self.max_queued:
                raise SubmissionError(
                    f"submission queue full ({self.max_queued} pending)"
                )
            sub = Submission(
                sub_id=sub_id,
                specs=specs,
                tag=tag,
                resume=resume,
                correlation_id=correlation_id or correlation.new_id(),
            )
            self._submissions[sub_id] = sub
            self._order.append(sub_id)
            self._count("server.submissions")
        self.events.emit(
            {
                "type": "submission_queued",
                "submission": sub_id,
                "kind": kind,
                "n_jobs": len(specs),
                "correlation_id": sub.correlation_id,
            }
        )
        self._queue.put(sub)
        return sub, True

    def get(self, sub_id: str) -> Optional[Submission]:
        with self._lock:
            return self._submissions.get(sub_id)

    def submissions(self) -> List[Submission]:
        """All submissions, oldest first."""
        with self._lock:
            return [self._submissions[sid] for sid in self._order]

    def wait(self, sub_id: str, timeout: float = 60.0) -> Optional[Submission]:
        """Block until the submission finishes or *timeout* elapses;
        returns the submission either way (None if unknown).  The worker
        wakes every waiter when a submission finishes, so a waiter uses
        no CPU in between and returns as soon as its submission is done."""

        def settled() -> bool:
            sub = self._submissions.get(sub_id)
            return sub is None or sub.state in ("done", "failed")

        with self._finished:
            self._finished.wait_for(settled, timeout)
            return self._submissions.get(sub_id)

    # ------------------------------------------------------------------
    # execution (worker thread)
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is self._STOP:
                return
            sub: Submission = item
            with correlation.bind(sub.correlation_id):
                self._execute(sub)

    def _execute(self, sub: Submission) -> None:
        sub.state = "running"
        sub.started_s = time.time()
        self.events.emit(
            {
                "type": "submission_started",
                "submission": sub.sub_id,
                "n_jobs": len(sub.specs),
            }
        )
        try:
            jobs = [SimJob.from_dict(spec) for spec in sub.specs]
            runner = BatchRunner(
                workers=self.workers,
                timeout=self.timeout,
                cache_dir=self.cache_dir,
                store=self.store,
                run_checker=self.run_checker,
                batch_fusion=self.batch_fusion,
                retry=self.retry,
                resume=sub.resume,
                cache=self.cache,
            )
            records, summary = runner.run(jobs)
            # field arrays never leave the daemon as JSON; records keep
            # their digests (fields_sha256), same as the store does
            for record in records:
                record.pop("fields", None)
            sub.records = records
            sub.summary = asdict(summary)
            sub.state = "done"
            with self._lock:
                self.jobs_executed += summary.total
                self.jobs_ok += summary.succeeded
                if runner.last_telemetry is not None:
                    self.telemetry.merge(runner.last_telemetry)
        except Exception as exc:  # infrastructure failure, not a job's
            sub.error = f"{type(exc).__name__}: {exc}"
            sub.state = "failed"
            self._count("server.submission_failed")
        finally:
            sub.finished_s = time.time()
            self.events.emit(
                {
                    "type": "submission_finished",
                    "submission": sub.sub_id,
                    "state": sub.state,
                    "summary": sub.summary,
                    "counters": self.counters(),
                }
            )
            with self._finished:
                self._finished.notify_all()

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def counters(self) -> Dict[str, int]:
        """Live counters: cache layers first (the warm-path proof), then
        batch-level telemetry and the daemon's own server.* counts."""
        merged: Dict[str, int] = {
            "cache.hit": self.cache.stats.hits,
            "cache.miss": self.cache.stats.misses,
            "cache.disk_hit": self.cache.stats.disk_hits,
            "cache.evict": self.cache.stats.evictions,
            "plan.hit": self.cache.plans.stats.hits,
            "plan.miss": self.cache.plans.stats.misses,
        }
        with self._lock:
            merged.update(self.telemetry.counters)
            merged.update(self._counters)
        return merged

    def stats(self) -> Dict[str, Any]:
        """The ``GET /stats`` payload."""
        with self._lock:
            by_state = {state: 0 for state in STATES}
            dedup = 0
            for sub in self._submissions.values():
                by_state[sub.state] += 1
                dedup += sub.dedup_hits
            submissions = {"total": len(self._submissions), **by_state,
                           "dedup_hits": dedup}
            jobs = {"executed": self.jobs_executed, "ok": self.jobs_ok,
                    "failed": self.jobs_executed - self.jobs_ok}
        return {
            "uptime_s": round(time.time() - self.started_s, 3),
            "workers": self.workers,
            "peak_rss_mb": _peak_rss_mb(),
            "batch_fusion": self.batch_fusion,
            "store": str(self.store.path) if self.store else None,
            "submissions": submissions,
            "jobs": jobs,
            "cache": {
                "entries": len(self.cache),
                **self.cache.stats.as_dict(),
            },
            "plan_cache": {
                "entries": len(self.cache.plans),
                **self.cache.plans.stats.as_dict(),
            },
            "counters": self.counters(),
            "events": self.events.stats(),
        }


def _peak_rss_mb() -> float:
    """This process's peak resident set size, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in kB on Linux and in bytes on macOS
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return round(peak / scale, 1)


__all__ = ["SimService", "Submission", "SubmissionError", "STATES"]
