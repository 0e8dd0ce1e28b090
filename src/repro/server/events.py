"""The daemon's live event stream: a bounded, sequence-numbered buffer.

The obs layer already knows how to emit structured events to a sink
(:class:`repro.obs.JsonlSink`); the daemon installs an
:class:`EventBuffer` as the *process default sink*
(:func:`repro.obs.set_default_sink`), so every tracer the stack creates
— the batch-level tracer inside :class:`~repro.service.runner.BatchRunner`,
the per-job tracers inside :func:`~repro.service.runner.execute_job` —
streams its span and event records here without a single call site
changing.  The buffer then serves three consumers at once:

- ``GET /events`` tails it by sequence number (``?after=SEQ``), each
  event carrying its monotonically increasing ``seq`` so a client can
  resume exactly where it left off;
- an optional downstream :class:`~repro.obs.JsonlSink` receives every
  event for the durable on-disk log (``serve --events-log``), the
  artifact the ``service-smoke`` CI job uploads;
- ``GET /stats`` reports the emission and drop counters.

**Slow consumers never block execution.**  ``emit`` appends to a
fixed-size ring: when a reader falls more than ``maxlen`` events behind,
the oldest events are dropped — and *counted*, never silently — so a
stalled ``GET /events`` client costs the daemon nothing.  A reader that
asks for a range the ring has already evicted is told how many events it
missed (``dropped`` in the response), which is the bounded-buffer
contract the event-stream test tier pins down.

Every stamped event also carries the correlation id bound to the
emitting context (:func:`repro.server.correlation.stamp`), tying spans
and counters back to the request that caused them.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.server import correlation


class EventBuffer:
    """Thread-safe ring of sequence-numbered events (a sink).

    ``maxlen`` bounds memory: the ring holds the most recent ``maxlen``
    events, older ones are evicted and tallied in :attr:`dropped`.
    ``downstream`` is an optional second sink (duck-typed ``emit``)
    receiving every event — the daemon wires a
    :class:`~repro.obs.JsonlSink` here for the durable log.
    """

    def __init__(self, maxlen: int = 4096, downstream: Optional[Any] = None) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self.maxlen = int(maxlen)
        self.downstream = downstream
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=self.maxlen)
        self._next_seq = 1
        self._dropped = 0
        self._lock = threading.Lock()
        #: notified under ``_lock`` on every emit
        self._emitted = threading.Condition(self._lock)

    # ------------------------------------------------------------------
    # sink protocol
    # ------------------------------------------------------------------
    def emit(self, payload: Dict[str, Any]) -> None:
        """Append one event (never blocks, never raises on behalf of the
        instrumentation)."""
        event = correlation.stamp(dict(payload))
        with self._lock:
            event["seq"] = self._next_seq
            self._next_seq += 1
            if len(self._ring) == self.maxlen:
                self._dropped += 1
            self._ring.append(event)
            self._emitted.notify_all()
        if self.downstream is not None:
            try:
                self.downstream.emit(event)
            except Exception:
                pass  # the durable log must never sink the daemon

    # ------------------------------------------------------------------
    # readers
    # ------------------------------------------------------------------
    def since(
        self, after: int = 0, limit: int = 1000
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Events with ``seq > after``, oldest first, capped at *limit*.

        Returns ``(events, dropped)`` where ``dropped`` counts events in
        the requested range the ring had already evicted — a slow
        consumer learns exactly how far behind it fell instead of
        silently missing data.
        """
        with self._lock:
            oldest = self._next_seq - len(self._ring)
            # seqs in (after, oldest) existed but aged out of the ring
            dropped = max(0, oldest - after - 1)
            events = [e for e in self._ring if e["seq"] > after][: max(0, limit)]
            return events, dropped

    def wait_past(self, seq: int, timeout: float) -> int:
        """Block until an event numbered above *seq* is emitted or
        *timeout* seconds pass; returns :attr:`last_seq`.  ``emit`` wakes
        the waiters, so a waiting long-poll uses no CPU."""
        with self._emitted:
            self._emitted.wait_for(lambda: self._next_seq - 1 > seq, timeout)
            return self._next_seq - 1

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently emitted event (0 when
        nothing was emitted yet)."""
        with self._lock:
            return self._next_seq - 1

    @property
    def dropped(self) -> int:
        """Total events evicted from the ring so far (monotonic)."""
        with self._lock:
            return self._dropped

    def stats(self) -> Dict[str, int]:
        """JSON-ready snapshot for ``GET /stats``."""
        with self._lock:
            return {
                "emitted": self._next_seq - 1,
                "buffered": len(self._ring),
                "dropped": self._dropped,
                "maxlen": self.maxlen,
            }


__all__ = ["EventBuffer"]
