"""Daemon waiters block until the work they wait for happens; they never
poll.

``SimService.wait`` (behind ``GET /jobs/{id}?wait=``) is woken by the
worker when a submission finishes, and the ``GET /events`` long-poll by
``EventBuffer.emit``.  Every test here replaces ``time.sleep`` with a
function that fails, so a sleep-and-recheck loop on either path fails
the test, and checks that a waiter burns no CPU while it waits and
returns as soon as its event happens (or when its timeout runs out).
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from repro.server import routers, service as service_mod
from repro.server.app import Request
from repro.server.events import EventBuffer
from repro.server.service import SimService

from helpers_server import fast_specs

#: CPU seconds an idle waiter may use over its whole wait.  A 20 ms
#: sleep-and-recheck loop would stay under it too (the sleep patch is
#: what catches polling); the bound catches a busy wait.
IDLE_CPU_S = 0.05


@pytest.fixture(autouse=True)
def no_sleep(monkeypatch):
    def refuse(seconds):
        raise AssertionError(f"time.sleep({seconds}) called while waiting")

    monkeypatch.setattr(time, "sleep", refuse)


class _Waiter(threading.Thread):
    """Runs *wait* in a thread; records its result, the CPU time it used
    and the monotonic time it returned."""

    def __init__(self, wait) -> None:
        super().__init__(daemon=True)
        self.wait = wait
        self.result = self.cpu_s = self.returned = None

    def run(self) -> None:
        cpu = time.thread_time()
        self.result = self.wait()
        self.cpu_s = time.thread_time() - cpu
        self.returned = time.monotonic()


def _pause(seconds: float) -> None:
    threading.Event().wait(seconds)


@pytest.fixture()
def gated_service(monkeypatch, tmp_path):
    """A started service whose runner holds each batch until ``gate`` is
    set."""
    gate = threading.Event()

    class GatedRunner(service_mod.BatchRunner):
        def run(self, jobs):
            assert gate.wait(30), "the test never opened the gate"
            return super().run(jobs)

    monkeypatch.setattr(service_mod, "BatchRunner", GatedRunner)
    svc = SimService(store_path=str(tmp_path / "results.jsonl")).start()
    yield svc, gate
    gate.set()
    svc.stop()


class TestServiceWait:
    def test_waiter_sleeps_until_its_submission_finishes(self, gated_service):
        svc, gate = gated_service
        sub, _ = svc.submit({"jobs": fast_specs(1)})
        waiter = _Waiter(lambda: svc.wait(sub.sub_id, timeout=30))
        waiter.start()
        _pause(0.3)
        assert waiter.is_alive()  # still blocked: the batch is held
        opened = time.monotonic()
        gate.set()
        waiter.join(30)
        assert not waiter.is_alive()
        assert waiter.result.state == "done"
        assert waiter.result.summary["succeeded"] == 1
        assert waiter.returned - opened < 10.0
        assert waiter.cpu_s < IDLE_CPU_S  # idle until woken

    def test_timeout_returns_the_unfinished_submission(self, gated_service):
        svc, _gate = gated_service
        sub, _ = svc.submit({"jobs": fast_specs(1)})
        start = time.monotonic()
        got = svc.wait(sub.sub_id, timeout=0.2)
        assert got is sub and got.state in ("queued", "running")
        assert time.monotonic() - start >= 0.2

    def test_unknown_and_finished_submissions_return_at_once(self, tmp_path):
        with SimService(store_path=str(tmp_path / "r.jsonl")) as svc:
            assert svc.wait("no-such-id", timeout=30) is None
            sub, _ = svc.submit({"jobs": fast_specs(1)})
            assert svc.wait(sub.sub_id, timeout=60).state == "done"
            start = time.monotonic()
            assert svc.wait(sub.sub_id, timeout=30).state == "done"
            assert time.monotonic() - start < 1.0


def _events_request(after: int, wait: float) -> Request:
    return Request("GET", "/events", {"after": str(after), "wait": str(wait)},
                   {}, b"", "pytest", "")


class TestEventsLongPoll:
    def test_emit_wakes_a_waiting_long_poll(self):
        buffer = EventBuffer()
        buffer.emit({"type": "before"})
        app = SimpleNamespace(service=SimpleNamespace(events=buffer))
        waiter = _Waiter(lambda: routers.events(app, _events_request(1, 30)))
        waiter.start()
        _pause(0.3)
        assert waiter.is_alive()
        emitted = time.monotonic()
        buffer.emit({"type": "after"})
        waiter.join(30)
        assert not waiter.is_alive()
        status, body = waiter.result
        assert status == 200
        assert [e["type"] for e in body["events"]] == ["after"]
        assert waiter.returned - emitted < 10.0
        assert waiter.cpu_s < IDLE_CPU_S

    def test_long_poll_times_out_empty(self):
        buffer = EventBuffer()
        app = SimpleNamespace(service=SimpleNamespace(events=buffer))
        start = time.monotonic()
        status, body = routers.events(app, _events_request(0, 0.2))
        assert status == 200 and body["events"] == []
        assert time.monotonic() - start >= 0.2

    def test_wait_past_returns_at_once_when_events_are_there(self):
        buffer = EventBuffer()
        buffer.emit({"type": "one"})
        start = time.monotonic()
        assert buffer.wait_past(0, 30) == 1
        assert time.monotonic() - start < 1.0
