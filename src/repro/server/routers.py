"""Endpoint handlers for the service daemon.

Each handler is a plain function from ``(app, request)`` to
``(status_code, json_payload)`` — no asyncio, no sockets, no parsing.
The HTTP plumbing in :mod:`repro.server.app` owns the wire format and
middleware (correlation, rate limiting); everything *semantic* about the
API surface lives here, which is what makes the handlers directly
testable without a socket in sight.

The surface (all JSON in, JSON out):

====================  ====================================================
``GET /healthz``      liveness (never rate-limited)
``GET /stats``        live counters: cache/plan hits, submissions, events
``POST /jobs``        submit ``{"jobs": [...]}`` or ``{"sweep": {...}}``
``GET /jobs``         list submissions, oldest first
``GET /jobs/{id}``    submission status (``?wait=SEC`` long-polls)
``GET /jobs/{id}/result``  full records + summary once done
``GET /runs``         queryable history over the result store
``GET /events``       event tail (``?after=SEQ``, ``?wait=SEC``)
``POST /shutdown``    graceful stop
====================  ====================================================
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.server.history import HistoryQueryError
from repro.server.service import SubmissionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.app import Request, ServiceApp

Reply = Tuple[int, Dict[str, Any]]

#: Long-poll ceilings: a ``?wait=`` beyond this is clamped, not refused.
MAX_WAIT_S = 60.0


def _wait_seconds(request: "Request") -> float:
    raw = request.query.get("wait")
    if raw is None:
        return 0.0
    try:
        return min(MAX_WAIT_S, max(0.0, float(raw)))
    except ValueError:
        raise HistoryQueryError(f"wait must be a number, got {raw!r}")


def healthz(app: "ServiceApp", request: "Request") -> Reply:
    return 200, {"ok": True, "uptime_s": round(time.time() - app.service.started_s, 3)}


def stats(app: "ServiceApp", request: "Request") -> Reply:
    payload = app.service.stats()
    payload["rate_limiter"] = app.limiter.stats()
    return 200, payload


def submit_jobs(app: "ServiceApp", request: "Request") -> Reply:
    try:
        sub, created = app.service.submit(request.json(), request.correlation_id)
    except SubmissionError as exc:
        return 400, {"error": str(exc)}
    status = sub.status()
    status["created"] = created
    return (202 if created else 200), status


def list_jobs(app: "ServiceApp", request: "Request") -> Reply:
    subs = app.service.submissions()
    return 200, {
        "total": len(subs),
        "submissions": [
            {
                "id": s.sub_id,
                "state": s.state,
                "tag": s.tag,
                "n_jobs": len(s.specs),
                "created_s": round(s.created_s, 3),
                "dedup_hits": s.dedup_hits,
            }
            for s in subs
        ],
    }


def job_status(app: "ServiceApp", request: "Request", sub_id: str) -> Reply:
    wait = _wait_seconds(request)
    sub = app.service.get(sub_id)
    if sub is not None and wait > 0 and sub.state in ("queued", "running"):
        sub = app.service.wait(sub_id, timeout=wait)
    if sub is None:
        return 404, {"error": f"unknown submission {sub_id!r}"}
    return 200, sub.status()


def job_result(app: "ServiceApp", request: "Request", sub_id: str) -> Reply:
    wait = _wait_seconds(request)
    sub = app.service.get(sub_id)
    if sub is not None and wait > 0 and sub.state in ("queued", "running"):
        sub = app.service.wait(sub_id, timeout=wait)
    if sub is None:
        return 404, {"error": f"unknown submission {sub_id!r}"}
    if sub.state in ("queued", "running"):
        return 409, {
            "error": f"submission {sub_id} is {sub.state}; result not ready",
            "state": sub.state,
        }
    if sub.state == "failed":
        return 500, {"error": sub.error, "state": "failed", "id": sub.sub_id}
    return 200, {
        "id": sub.sub_id,
        "state": sub.state,
        "summary": sub.summary,
        "records": sub.records,
    }


def runs(app: "ServiceApp", request: "Request") -> Reply:
    if app.service.history is None:
        return 409, {
            "error": "daemon is running without a result store "
            "(start with serve --results PATH)"
        }
    return 200, app.service.history.query_params(request.query)


def events(app: "ServiceApp", request: "Request") -> Reply:
    query = request.query
    unknown = set(query) - {"after", "limit", "wait"}
    if unknown:
        raise HistoryQueryError(f"unknown query parameters: {sorted(unknown)}")
    try:
        after = int(query.get("after", "0"))
        limit = int(query.get("limit", "1000"))
    except ValueError as exc:
        raise HistoryQueryError(f"after/limit must be integers: {exc}")
    wait = _wait_seconds(request)
    buffer = app.service.events
    if wait > 0:
        buffer.wait_past(after, wait)
    items, dropped = buffer.since(after=after, limit=limit)
    return 200, {
        "events": items,
        "dropped": dropped,
        "last_seq": buffer.last_seq,
        "returned": len(items),
    }


def shutdown(app: "ServiceApp", request: "Request") -> Reply:
    app.request_shutdown()
    return 200, {"ok": True, "stopping": True}


def dispatch(app: "ServiceApp", request: "Request") -> Reply:
    """Route one parsed request to its handler.

    Returns 404 for unknown paths and 405 for known paths with the
    wrong verb; handler-level validation errors surface as 400.
    """
    method, parts = request.method, request.path_parts
    try:
        if parts == ("healthz",):
            return _only(method, "GET", healthz, app, request)
        if parts == ("stats",):
            return _only(method, "GET", stats, app, request)
        if parts == ("jobs",):
            if method == "POST":
                return submit_jobs(app, request)
            return _only(method, "GET", list_jobs, app, request)
        if len(parts) == 2 and parts[0] == "jobs":
            return _only(method, "GET", job_status, app, request, parts[1])
        if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            return _only(method, "GET", job_result, app, request, parts[1])
        if parts == ("runs",):
            return _only(method, "GET", runs, app, request)
        if parts == ("events",):
            return _only(method, "GET", events, app, request)
        if parts == ("shutdown",):
            return _only(method, "POST", shutdown, app, request)
    except HistoryQueryError as exc:
        return 400, {"error": str(exc)}
    except ValueError as exc:
        return 400, {"error": str(exc)}
    return 404, {"error": f"no such endpoint: {request.path}"}


def _only(method: str, expected: str, handler, app, request, *args) -> Reply:
    if method != expected:
        return 405, {"error": f"{request.path} supports {expected}, not {method}"}
    return handler(app, request, *args)


__all__ = ["dispatch", "MAX_WAIT_S"]
