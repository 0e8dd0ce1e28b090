"""Zero-dependency telemetry: timed spans, counters, structured events.

The simulation stack is measured through one small vocabulary:

- a **span** is a timed region (``with tracer.span("compile"): ...``).
  Spans nest; every span's elapsed time is *added* to its name's total,
  so repeated stages (one compile per job, one execute per run)
  aggregate naturally.  The canonical per-job stage names are in
  :data:`STAGES`.
- a **counter** is a monotonic integer (``tracer.count("cache.hit")``):
  cache hits and misses, plan-cache lookups, and — most importantly —
  which execution *tier* actually ran (``tier.fused`` /
  ``tier.batch_fused`` / ``tier.reference``).  The reliability layer adds
  ``retry.scheduled`` / ``retry.exhausted``, ``pool.rebuild``,
  ``resume.skipped``, and ``fault.<site>`` (batch-level tracer; the
  matching ``retry`` / ``fault`` events carry the per-job detail — see
  ``docs/RELIABILITY.md``).
- an **annotation** is a last-write-wins fact about the run
  (``tracer.annotate("tier", "fused")``,
  ``tracer.annotate("fallback_reason", ...)``) — what a result record
  stamps, where a counter would only say how often.
- an **event** is one structured dict appended to the tracer's sink
  (a :class:`JsonlSink` file or the in-memory buffer) — the raw stream
  behind the aggregates, for offline digestion.

Instrumented code never takes a tracer parameter.  A tracer is
*activated* for a dynamic extent (``with obs.use(tracer): ...``) and the
instrumentation calls the module-level helpers (:func:`span`,
:func:`count`, :func:`annotate`, :func:`event`), which forward to the
active tracer or do nothing.  With no tracer active the helpers cost one
attribute load and a comparison — the hot paths stay hot.  Activation
nests: a batch-level tracer in the parent and a per-job tracer inside
:func:`~repro.service.runner.execute_job` coexist, each seeing only its
own extent.  The active tracer is per-process state (pool workers each
activate their own), deliberately not shared across threads' spans.

A finished tracer summarizes into a :class:`Telemetry` — plain dicts,
JSON-ready — which is what result records, batch summaries, and
``nsc-vpe stats`` consume.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Canonical per-job stage names, in pipeline order.  Result records
#: report a timing for every stage (0.0 when the stage did not run, so
#: the schema is stable across cache hits, executors, and tiers);
#: ``transport`` times the copy of kept fields out of the engine.
STAGES = ("compile", "check", "bind", "execute", "transport")

#: The all-zero stage dict — what a record reports when its job never
#: ran (a dead worker's synthesized failure record).  Copy before use.
ZERO_TIMINGS = {stage: 0.0 for stage in STAGES}


@dataclass
class Telemetry:
    """Aggregated, JSON-ready summary of one tracer's lifetime.

    ``timings`` sums seconds per span name; ``span_counts`` says how
    many spans contributed to each sum; ``counters`` and
    ``annotations`` are copied verbatim.
    """

    timings: Dict[str, float] = field(default_factory=dict)
    span_counts: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    annotations: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "timings": dict(self.timings),
            "span_counts": dict(self.span_counts),
            "counters": dict(self.counters),
            "annotations": dict(self.annotations),
        }

    def merge(self, other: "Telemetry") -> "Telemetry":
        """Fold *other* into this summary (in place; returns self).

        Timings and counters add; annotations take the other's values
        (last writer wins, matching :meth:`Tracer.annotate`).
        """
        for name, seconds in other.timings.items():
            self.timings[name] = self.timings.get(name, 0.0) + seconds
        for name, n in other.span_counts.items():
            self.span_counts[name] = self.span_counts.get(name, 0) + n
        for name, n in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + n
        self.annotations.update(other.annotations)
        return self

    def stage_timings(self, ndigits: int = 6) -> Dict[str, float]:
        """The fixed-schema per-stage dict result records carry."""
        return {
            stage: round(self.timings.get(stage, 0.0), ndigits)
            for stage in STAGES
        }

    def format(self) -> str:
        """One human-readable line: stages with time, then counters."""
        stages = ", ".join(
            f"{name} {self.timings[name]:.3f}s"
            for name in STAGES
            if self.timings.get(name)
        )
        counters = ", ".join(
            f"{name}={value}" for name, value in sorted(self.counters.items())
        )
        parts = [p for p in (stages, counters) if p]
        return "; ".join(parts) if parts else "(no telemetry)"


class JsonlSink:
    """Appends structured events to a JSONL file, one dict per line.

    Writes are line-buffered appends; a sink failure must never sink the
    run, so I/O errors disable the sink instead of propagating.
    """

    def __init__(self, path: str) -> None:
        self.path = Path(path)
        self._fh: Optional[Any] = None
        self._dead = False

    def emit(self, payload: Dict[str, Any]) -> None:
        if self._dead:
            return
        try:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(json.dumps(payload, sort_keys=True) + "\n")
            self._fh.flush()
        except OSError:
            self._dead = True

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None


class Tracer:
    """Collects spans, counters, annotations, and events for one extent.

    ``sink`` optionally receives every event as it happens (e.g. a
    :class:`JsonlSink`); ``keep_events=True`` additionally buffers them
    on ``tracer.events`` (bounded by :data:`MAX_EVENTS`, for tests and
    in-process inspection).  The clock is monotonic
    (:func:`time.perf_counter`); event timestamps are offsets from the
    tracer's creation, so event files diff cleanly run to run apart from
    the durations themselves.

    A tracer constructed without an explicit sink inherits the process
    *default sink* (:func:`set_default_sink`) — how a long-lived host
    (the ``nsc-vpe serve`` daemon) wires every tracer the stack creates,
    batch-level and per-job alike, into one live event stream without a
    single call site changing.  With no default set (the normal CLI and
    test case) nothing changes: the sink stays None.
    """

    MAX_EVENTS = 10_000

    def __init__(self, sink: Optional[JsonlSink] = None,
                 keep_events: bool = False) -> None:
        self.sink = sink if sink is not None else _DEFAULT_SINK
        self.keep_events = keep_events
        self.events: List[Dict[str, Any]] = []
        self.timings: Dict[str, float] = {}
        self.span_counts: Dict[str, int] = {}
        self.counters: Dict[str, int] = {}
        self.annotations: Dict[str, Any] = {}
        self._stack: List[str] = []
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> "_Span":
        """Time a region under *name* (``with tracer.span(name): ...``);
        nests, aggregates, never raises on behalf of the instrumentation
        (the body's exceptions pass through untouched, the span still
        records)."""
        return _Span(self, name, attrs)

    def count(self, name: str, n: int = 1) -> None:
        """Increment the monotonic counter *name* by *n*."""
        self.counters[name] = self.counters.get(name, 0) + n

    def annotate(self, key: str, value: Any) -> None:
        """Record a last-write-wins fact about this extent."""
        self.annotations[key] = value

    def event(self, kind: str, **payload: Any) -> None:
        """Emit one structured event to the sink / event buffer."""
        self._emit({"type": kind, **payload})

    def _emit(self, payload: Dict[str, Any]) -> None:
        if self.sink is None and not self.keep_events:
            return
        payload = dict(payload)
        payload.setdefault("t", round(time.perf_counter() - self._t0, 6))
        if self.keep_events and len(self.events) < self.MAX_EVENTS:
            self.events.append(payload)
        if self.sink is not None:
            self.sink.emit(payload)

    # ------------------------------------------------------------------
    def telemetry(self) -> Telemetry:
        """Snapshot the aggregates (the tracer stays usable)."""
        return Telemetry(
            timings=dict(self.timings),
            span_counts=dict(self.span_counts),
            counters=dict(self.counters),
            annotations=dict(self.annotations),
        )


class _Span:
    """One timed region of a :class:`Tracer` (see :meth:`Tracer.span`):
    a slotted context manager, so a span costs two method calls and no
    generator.  The span event's payload is built only when something
    receives events."""

    __slots__ = ("tracer", "name", "attrs", "parent", "start")

    def __init__(self, tracer: Tracer, name: str,
                 attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> None:
        stack = self.tracer._stack
        self.parent = stack[-1] if stack else None
        stack.append(self.name)
        self.start = time.perf_counter()

    def __exit__(self, *exc_info: Any) -> None:
        elapsed = time.perf_counter() - self.start
        tracer, name = self.tracer, self.name
        tracer._stack.pop()
        tracer.timings[name] = tracer.timings.get(name, 0.0) + elapsed
        tracer.span_counts[name] = tracer.span_counts.get(name, 0) + 1
        if tracer.sink is None and not tracer.keep_events:
            return
        payload = {"type": "span", "name": name, "dur_s": elapsed}
        if self.parent is not None:
            payload["parent"] = self.parent
        if self.attrs:
            payload.update(self.attrs)
        tracer._emit(payload)


# ----------------------------------------------------------------------
# the process default sink (long-lived hosts' live event stream)
# ----------------------------------------------------------------------
#: Sink inherited by every Tracer constructed without one.  Anything
#: with an ``emit(dict)`` method qualifies (a :class:`JsonlSink`, the
#: server's bounded event buffer, a test double).
_DEFAULT_SINK: Optional[Any] = None


def set_default_sink(sink: Optional[Any]) -> Optional[Any]:
    """Install *sink* as the process default (None uninstalls).

    Returns the previous default so callers can restore it.  Only
    tracers constructed *after* this call inherit the sink; existing
    tracers keep whatever they were built with.
    """
    global _DEFAULT_SINK
    previous = _DEFAULT_SINK
    _DEFAULT_SINK = sink
    return previous


def default_sink() -> Optional[Any]:
    """The currently installed process default sink, or None."""
    return _DEFAULT_SINK


# ----------------------------------------------------------------------
# the active tracer (per-process dynamic scoping)
# ----------------------------------------------------------------------
_ACTIVE: Optional[Tracer] = None


def current() -> Optional[Tracer]:
    """The tracer activated for the current extent, or None."""
    return _ACTIVE


class use:
    """Activate *tracer* for the dynamic extent of the ``with`` body
    (``with obs.use(tracer): ...`` binds the tracer).

    Nesting saves and restores the previous tracer, so a per-job tracer
    inside a batch-level one shadows it only for the job.
    """

    __slots__ = ("tracer", "previous")

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def __enter__(self) -> Tracer:
        global _ACTIVE
        self.previous = _ACTIVE
        _ACTIVE = self.tracer
        return self.tracer

    def __exit__(self, *exc_info: Any) -> None:
        global _ACTIVE
        _ACTIVE = self.previous


def span(name: str, **attrs: Any) -> Any:
    """Module-level :meth:`Tracer.span` against the active tracer
    (no-op without one — instrumented code never checks)."""
    tracer = _ACTIVE
    if tracer is None:
        return _NO_SPAN
    return tracer.span(name, **attrs)


#: What :func:`span` opens when no tracer is active
_NO_SPAN = contextlib.nullcontext()


def count(name: str, n: int = 1) -> None:
    """Module-level :meth:`Tracer.count` against the active tracer."""
    if _ACTIVE is not None:
        _ACTIVE.count(name, n)


def annotate(key: str, value: Any) -> None:
    """Module-level :meth:`Tracer.annotate` against the active tracer."""
    if _ACTIVE is not None:
        _ACTIVE.annotate(key, value)


def event(kind: str, **payload: Any) -> None:
    """Module-level :meth:`Tracer.event` against the active tracer."""
    if _ACTIVE is not None:
        _ACTIVE.event(kind, **payload)


__all__ = [
    "STAGES",
    "ZERO_TIMINGS",
    "Telemetry",
    "JsonlSink",
    "Tracer",
    "current",
    "use",
    "span",
    "count",
    "annotate",
    "event",
    "set_default_sink",
    "default_sink",
]
