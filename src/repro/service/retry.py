"""Retry policies and failure classification for the batch service.

A failed job record is worth retrying only if the failure was caused by
the *infrastructure* rather than the *simulation*: a worker that timed
out, a process pool that broke under it, or an injected chaos fault.  Those are
**transient** — rerunning the same deterministic job can succeed.  A
simulation exception or checker rejection is **permanent**: the job is
a pure function of its spec, so rerunning it reproduces the failure.

:func:`classify_record` reads a record's ``error_type`` (the exception
class name stamped by :func:`~repro.service.runner.execute_job` and the
pool's failure capture) against :data:`TRANSIENT_ERROR_TYPES`.

:class:`RetryPolicy` is deliberately jitter-free: the delay before
attempt ``n+1`` is ``backoff_base * 2**(n-1)``, a pure function of the
attempt number, so a retried sweep stays reproducible end to end (the
whole point — see ``docs/RELIABILITY.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

TRANSIENT = "transient"
PERMANENT = "permanent"

#: Exception class names whose failures are infrastructure, not physics.
#: ``TimeoutError`` is the pool's per-item deadline, ``BrokenProcessPool``
#: a worker crash, ``FaultInjected`` the chaos layer
#: (repro.service.faults).
TRANSIENT_ERROR_TYPES = frozenset(
    {
        "TimeoutError",
        "BrokenProcessPool",
        "FaultInjected",
    }
)


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts a job gets, and how long to wait between them.

    ``max_attempts`` counts the first try: the default ``1`` means no
    retries.  ``backoff_base`` seeds a deterministic exponential
    schedule with **no jitter** — :meth:`delay` after failed attempt
    ``n`` is ``backoff_base * 2**(n-1)`` seconds.  Jitter exists to
    de-correlate independent clients hammering a shared resource; a
    batch runner retrying its own workers has nothing to de-correlate,
    and determinism is a feature here.
    """

    max_attempts: int = 1
    backoff_base: float = 0.0

    def __post_init__(self) -> None:
        if int(self.max_attempts) < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if float(self.backoff_base) < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        object.__setattr__(self, "max_attempts", int(self.max_attempts))
        object.__setattr__(self, "backoff_base", float(self.backoff_base))

    def delay(self, attempt: int) -> float:
        """Seconds to wait after failed attempt *attempt* (1-based)."""
        if self.backoff_base <= 0:
            return 0.0
        return self.backoff_base * 2 ** (max(1, attempt) - 1)

    def should_retry(self, attempt: int,
                     classification: Optional[str]) -> bool:
        """Retry after failed *attempt* with this *classification*?"""
        return classification == TRANSIENT and attempt < self.max_attempts


def classify_error_type(error_type: Optional[str]) -> str:
    """``"transient"`` or ``"permanent"`` for an exception class name."""
    if error_type in TRANSIENT_ERROR_TYPES:
        return TRANSIENT
    return PERMANENT


def classify_record(record: Dict[str, Any]) -> Optional[str]:
    """Classify a job record's failure; ``None`` if the record is ok.

    Prefers the ``error_type`` stamp; records written before the stamp
    existed fall back to the ``"ExcName: message"`` prefix of ``error``.
    """
    if record.get("ok"):
        return None
    error_type = record.get("error_type")
    if error_type is None:
        error = str(record.get("error") or "")
        error_type = error.split(":", 1)[0].strip() or None
    return classify_error_type(error_type)


__all__ = [
    "PERMANENT",
    "TRANSIENT",
    "TRANSIENT_ERROR_TYPES",
    "RetryPolicy",
    "classify_error_type",
    "classify_record",
]
