"""Per-client token-bucket rate limiting for the service daemon.

One :class:`TokenBucket` models one client's budget: it holds up to
``capacity`` tokens, refills continuously at ``refill_rate`` tokens per
second, and a request is granted iff a whole token is available.  Both
laws the property suite (``tests/property/test_rate_limiter_property.py``)
pins down follow directly from the update rule:

- **bounded grant**: over any window of ``elapsed`` seconds, the number
  of granted requests can never exceed ``capacity + refill_rate *
  elapsed`` — the bucket can only hand out what it started with plus
  what trickled in;
- **no starvation**: a rejection comes with a ``retry_after`` hint (the
  time until the missing fraction refills), and a client that waits it
  out is guaranteed its next request succeeds, provided nobody else
  drains its bucket in between — buckets are per-client precisely so
  nobody else can.

The clock is injectable so tests (and the hypothesis properties) drive
time deterministically; production uses :func:`time.monotonic`.

:class:`RateLimiter` maintains one bucket per client key (the daemon
keys on the ``X-Client-Id`` header, falling back to the peer address)
behind a lock, so the asyncio request path and any helper thread see a
consistent picture.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Tuple


class TokenBucket:
    """One client's continuously refilling budget.

    ``capacity`` is the burst size (and the initial balance);
    ``refill_rate`` is tokens per second.  Fractional token state is
    kept exactly — granting only ever subtracts whole tokens, refilling
    adds ``rate * dt`` — so the bounded-grant invariant holds over any
    interleaving of arrivals and refills.
    """

    def __init__(
        self,
        capacity: float,
        refill_rate: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if refill_rate <= 0:
            raise ValueError(f"refill_rate must be > 0, got {refill_rate}")
        self.capacity = float(capacity)
        self.refill_rate = float(refill_rate)
        self._clock = clock
        self._tokens = float(capacity)
        self._last = clock()

    def _refill(self, now: float) -> None:
        # a clock that jumps backwards (it should not: monotonic) must
        # never mint tokens, so negative deltas are clamped away
        elapsed = max(0.0, now - self._last)
        self._last = now
        self._tokens = min(self.capacity, self._tokens + elapsed * self.refill_rate)

    def try_acquire(self, n: int = 1) -> Tuple[bool, float]:
        """Attempt to take *n* whole tokens.

        Returns ``(granted, retry_after)``: ``retry_after`` is 0 on a
        grant, otherwise the seconds until the deficit will have
        refilled — the no-starvation hint (waiting that long guarantees
        the retry succeeds if nothing else drains the bucket).
        """
        if n < 1:
            raise ValueError(f"must acquire >= 1 token, got {n}")
        self._refill(self._clock())
        if self._tokens >= n:
            self._tokens -= n
            return True, 0.0
        return False, (n - self._tokens) / self.refill_rate

    @property
    def tokens(self) -> float:
        """Current balance (refreshed to now) — for /stats and tests."""
        self._refill(self._clock())
        return self._tokens


class RateLimiter:
    """Per-client buckets with shared capacity/refill configuration.

    ``check(client)`` is the single entry point: it lazily creates the
    client's bucket and answers ``(granted, retry_after)``.  Rejections
    are counted per client (surfaced by ``GET /stats``).  Thread-safe —
    the daemon calls it from the event loop while tests poke it from
    worker threads.
    """

    def __init__(
        self,
        capacity: float = 60,
        refill_rate: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.capacity = float(capacity)
        self.refill_rate = float(refill_rate)
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self._rejected: Dict[str, int] = {}
        self._granted = 0
        self._lock = threading.Lock()

    def check(self, client: str, n: int = 1) -> Tuple[bool, float]:
        """Grant or reject one request from *client*."""
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.capacity, self.refill_rate, self._clock)
                self._buckets[client] = bucket
            granted, retry_after = bucket.try_acquire(n)
            if granted:
                self._granted += 1
            else:
                self._rejected[client] = self._rejected.get(client, 0) + 1
            return granted, retry_after

    def stats(self) -> Dict[str, object]:
        """JSON-ready snapshot for ``GET /stats``."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "refill_per_s": self.refill_rate,
                "clients": len(self._buckets),
                "granted": self._granted,
                "rejected": sum(self._rejected.values()),
                "rejected_by_client": dict(self._rejected),
            }


__all__ = ["TokenBucket", "RateLimiter"]
