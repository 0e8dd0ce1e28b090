"""The daemon's HTTP surface, endpoint by endpoint.

Happy paths go through :class:`ServiceClient`; wire-level behaviors
(correlation echo, 429 + Retry-After, 413, malformed requests) use raw
``http.client``/sockets so nothing in the thin client can paper over a
server bug.
"""

from __future__ import annotations

import http.client
import json
import socket

import pytest

from repro.server.app import start_in_thread
from repro.server.client import ServerError, ServiceClient
from repro.server.rate_limiter import RateLimiter
from repro.server.service import SimService

from helpers_server import fast_specs


class TestHealthAndStats:
    def test_healthz(self, client):
        answer = client.healthz()
        assert answer["ok"] is True
        assert answer["uptime_s"] >= 0

    def test_stats_shape(self, client):
        stats = client.stats()
        for key in ("uptime_s", "peak_rss_mb", "submissions", "jobs",
                    "cache", "plan_cache", "counters", "events",
                    "rate_limiter"):
            assert key in stats, key
        assert stats["peak_rss_mb"] > 0
        assert stats["cache"]["entries"] == 0
        assert stats["cache"]["evictions"] == 0
        for key in ("entries", "hits", "misses", "evictions"):
            assert key in stats["plan_cache"], key
        assert stats["submissions"]["total"] == 0
        assert stats["jobs"] == {"executed": 0, "ok": 0, "failed": 0}


class TestSubmit:
    def test_submit_executes_and_reports(self, client):
        specs = fast_specs(2)
        sub = client.submit(jobs=specs)
        assert sub["created"] is True
        assert sub["n_jobs"] == 2
        status = client.wait(sub["id"], timeout=60)
        assert status["state"] == "done"
        assert status["summary"]["succeeded"] == 2
        # per-job reliability picture without full payloads
        for job in status["jobs"]:
            assert job["ok"] is True
            assert job["attempts"] == 1
            assert set(job["timings"]) >= {"compile", "execute"}
        result = client.result(sub["id"])
        assert len(result["records"]) == 2
        assert all(r["ok"] for r in result["records"])

    def test_identical_payload_coalesces(self, client):
        specs = fast_specs(1)
        first = client.submit(jobs=specs, tag="same")
        second = client.submit(jobs=specs, tag="same")
        assert second["id"] == first["id"]
        assert second["created"] is False
        assert second["dedup_hits"] == 1

    def test_different_tag_is_a_new_submission(self, client):
        specs = fast_specs(1)
        first = client.submit(jobs=specs, tag="one")
        second = client.submit(jobs=specs, tag="two")
        assert second["id"] != first["id"]
        assert second["created"] is True

    def test_sweep_payload(self, client):
        sub = client.submit(sweep={"grids": [5], "methods": ["jacobi"],
                                   "repeats": 2, "eps": 1e-3,
                                   "max_sweeps": 500})
        assert sub["n_jobs"] == 2
        result = client.result(sub["id"], wait=60)
        assert result["summary"]["succeeded"] == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # neither jobs nor sweep
            {"jobs": [], "tag": "x"},  # empty job list
            {"jobs": [{"method": "nope", "n": 5}]},  # bad solver
            {"jobs": [{"method": "jacobi", "n": 5}],
             "sweep": {"grids": [5]}},  # both at once
            {"jobs": [{"method": "jacobi", "n": 5}],
             "bogus": 1},  # unknown field
            {"sweep": {"grids": [5], "unknown_axis": [1]}},  # bad axis
        ],
    )
    def test_bad_payloads_are_400(self, client, payload):
        with pytest.raises(ServerError) as excinfo:
            client.request("POST", "/jobs", payload)
        assert excinfo.value.status == 400

    def test_resume_without_store_is_refused(self, tmp_path):
        svc = SimService()  # no store configured
        svc.start()
        handle = start_in_thread(svc)
        try:
            c = ServiceClient(handle.base_url)
            with pytest.raises(ServerError) as excinfo:
                c.submit(jobs=fast_specs(1), resume=True)
            assert excinfo.value.status == 400
            assert "store" in excinfo.value.payload["error"]
        finally:
            handle.stop()
            svc.stop()

    def test_list_jobs(self, client):
        client.submit(jobs=fast_specs(1), tag="a")
        client.submit(jobs=fast_specs(1), tag="b")
        listing = client.request("GET", "/jobs")
        assert listing["total"] == 2
        assert [s["tag"] for s in listing["submissions"]] == ["a", "b"]


class TestResult:
    def test_unknown_submission_is_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.status("deadbeef00000000")
        assert excinfo.value.status == 404

    def test_result_while_queued_is_409(self):
        svc = SimService()  # never started: no worker drains the queue
        handle = start_in_thread(svc)
        try:
            c = ServiceClient(handle.base_url)
            sub = c.submit(jobs=fast_specs(1))
            assert sub["state"] == "queued"
            with pytest.raises(ServerError) as excinfo:
                c.result(sub["id"])
            assert excinfo.value.status == 409
        finally:
            handle.stop()


class TestRuns:
    def test_history_filters(self, client, service):
        client.result(client.submit(jobs=fast_specs(4))["id"], wait=60)
        everything = client.runs()
        assert everything["total"] == 4
        jacobi = client.runs(method="jacobi")
        assert jacobi["total"] == 2
        assert all(r["method"] == "jacobi" for r in jacobi["records"])
        ok = client.runs(ok="true")
        assert ok["total"] == 4
        paged = client.runs(limit=1, offset=1)
        assert paged["total"] == 4 and paged["returned"] == 1

    def test_unknown_query_param_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.runs(bogus="x")
        assert excinfo.value.status == 400

    def test_runs_without_store_is_409(self):
        svc = SimService()
        svc.start()
        handle = start_in_thread(svc)
        try:
            with pytest.raises(ServerError) as excinfo:
                ServiceClient(handle.base_url).runs()
            assert excinfo.value.status == 409
        finally:
            handle.stop()
            svc.stop()


class TestWire:
    """Raw-socket behaviors the thin client would transparently absorb."""

    def test_unknown_path_404_and_wrong_verb_405(self, server):
        conn = http.client.HTTPConnection(server.host, server.port)
        try:
            conn.request("GET", "/nope")
            resp = conn.getresponse()
            assert resp.status == 404
            resp.read()
        finally:
            conn.close()
        conn = http.client.HTTPConnection(server.host, server.port)
        try:
            conn.request("DELETE", "/stats")
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 405
            assert "GET" in body["error"]
        finally:
            conn.close()

    def test_correlation_id_echoed_and_attributed(self, server, client):
        conn = http.client.HTTPConnection(server.host, server.port)
        try:
            body = json.dumps({"jobs": fast_specs(1)})
            conn.request("POST", "/jobs", body=body,
                         headers={"Content-Type": "application/json",
                                  "X-Correlation-Id": "cafe0123babe"})
            resp = conn.getresponse()
            assert resp.getheader("X-Correlation-Id") == "cafe0123babe"
            payload = json.loads(resp.read())
            assert payload["correlation_id"] == "cafe0123babe"
        finally:
            conn.close()
        # ... and the daemon's own telemetry carries the same id
        client.wait(payload["id"], timeout=60)
        events = client.events()["events"]
        tagged = [e for e in events
                  if e.get("correlation_id") == "cafe0123babe"]
        kinds = {e["type"] for e in tagged}
        assert "submission_started" in kinds
        assert "span" in kinds  # execution telemetry, not just lifecycle

    def test_generated_correlation_id_on_response(self, server):
        conn = http.client.HTTPConnection(server.host, server.port)
        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            resp.read()
            assert resp.getheader("X-Correlation-Id")
        finally:
            conn.close()

    def test_rate_limit_429_with_retry_after(self):
        svc = SimService()
        svc.start()
        handle = start_in_thread(
            svc, limiter=RateLimiter(capacity=2, refill_rate=0.5)
        )
        try:
            conn = http.client.HTTPConnection(handle.host, handle.port)
            statuses = []
            retry_after = None
            for _ in range(4):
                conn.request("GET", "/stats",
                             headers={"X-Client-Id": "bursty"})
                resp = conn.getresponse()
                resp.read()
                statuses.append(resp.status)
                if resp.status == 429:
                    retry_after = resp.getheader("Retry-After")
            assert statuses[:2] == [200, 200]
            assert 429 in statuses[2:]
            assert retry_after is not None and int(retry_after) >= 1
            # another client has its own bucket
            conn.request("GET", "/stats", headers={"X-Client-Id": "calm"})
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200
            # liveness probes are exempt however hard they hammer
            for _ in range(5):
                conn.request("GET", "/healthz",
                             headers={"X-Client-Id": "bursty"})
                resp = conn.getresponse()
                resp.read()
                assert resp.status == 200
            stats = json.loads(self._get(conn, "/stats", "calm"))
            assert stats["rate_limiter"]["rejected_by_client"]["bursty"] >= 1
            conn.close()
        finally:
            handle.stop()
            svc.stop()

    @staticmethod
    def _get(conn, path, client_id):
        conn.request("GET", path, headers={"X-Client-Id": client_id})
        resp = conn.getresponse()
        return resp.read()

    def test_oversized_body_is_413(self, server):
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(b"POST /jobs HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Length: 999999999\r\n\r\n")
            answer = sock.recv(65536)
        assert b"413" in answer.split(b"\r\n", 1)[0]

    def test_malformed_request_line_is_400(self, server):
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(b"garbage\r\n\r\n")
            answer = sock.recv(65536)
        assert b"400" in answer.split(b"\r\n", 1)[0]

    def test_invalid_json_body_is_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port)
        try:
            conn.request("POST", "/jobs", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 400
            assert "JSON" in json.loads(resp.read())["error"]
        finally:
            conn.close()

    def test_keep_alive_serves_sequential_requests(self, server):
        conn = http.client.HTTPConnection(server.host, server.port)
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
        finally:
            conn.close()
