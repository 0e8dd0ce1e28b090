"""The resident simulation service (``nsc-vpe serve``).

Everything ``repro.service`` can do — batches, sweeps, caching, retry,
resume — hosted behind a long-lived stdlib-asyncio HTTP daemon so the
expensive warm state (compiled-program cache, plan cache) survives across
requests instead of dying with each CLI invocation.  The layering, bottom up:

- :mod:`repro.server.rate_limiter` — per-client token buckets;
- :mod:`repro.server.correlation` — request ids threaded through events;
- :mod:`repro.server.events` — the bounded live event ring
  (``GET /events``), installed as the process default tracer sink;
- :mod:`repro.server.history` — queryable views over the result store
  (``GET /runs``);
- :mod:`repro.server.service` — :class:`SimService`: submissions,
  content-hash dedup, the single worker thread, the persistent caches;
- :mod:`repro.server.routers` / :mod:`repro.server.app` — the HTTP
  surface and its middleware;
- :mod:`repro.server.client` — the thin client the CLI's ``--server``
  mode rides on.

``docs/SERVICE.md`` (Resident service section) has the cookbook;
``docs/OBSERVABILITY.md`` covers correlation ids and the event stream.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CORRELATION_HEADER",
    "EventBuffer",
    "HistoryQueryError",
    "RateLimiter",
    "RunHistory",
    "ServerError",
    "ServerHandle",
    "ServiceApp",
    "ServiceClient",
    "SimService",
    "Submission",
    "SubmissionError",
    "TokenBucket",
    "serve_forever",
    "start_in_thread",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "app": ("ServerHandle", "ServiceApp", "serve_forever", "start_in_thread"),
        "client": ("ServerError", "ServiceClient"),
        "correlation": ("HEADER as CORRELATION_HEADER",),
        "events": ("EventBuffer",),
        "history": ("HistoryQueryError", "RunHistory"),
        "rate_limiter": ("RateLimiter", "TokenBucket"),
        "service": ("SimService", "Submission", "SubmissionError"),
    },
)
