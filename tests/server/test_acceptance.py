"""The PR's acceptance contract, verbatim.

A warm daemon given a second identical 8-job batch must skip
recompilation entirely — visible as ``cache.hit`` counters through
``GET /stats`` — and the store it writes must be digest-identical
(modulo volatile keys) to the same two batches executed offline.
"""

from __future__ import annotations

from repro.server.app import start_in_thread
from repro.server.client import ServiceClient
from repro.server.service import SimService
from repro.service.cache import ProgramCache
from repro.service.jobs import SimJob
from repro.service.results import ResultStore
from repro.service.runner import BatchRunner

from helpers_server import fast_specs


def test_warm_daemon_batch_skips_recompilation_and_matches_offline(tmp_path):
    specs = fast_specs(8)
    daemon_store = tmp_path / "daemon.jsonl"
    svc = SimService(store_path=str(daemon_store))
    svc.start()
    handle = start_in_thread(svc)
    try:
        client = ServiceClient(handle.base_url, client_id="acceptance")

        cold = client.run(jobs=specs, tag="first")
        assert cold["summary"]["succeeded"] == 8
        assert cold["summary"]["cache_misses"] == 8

        warm = client.run(jobs=specs, tag="second")
        assert warm["summary"]["succeeded"] == 8
        # the whole point of the daemon: zero recompilation on repeat
        assert warm["summary"]["cache_hits"] == 8
        assert warm["summary"]["cache_misses"] == 0
        assert all(r["cache_hit"] for r in warm["records"])

        stats = client.stats()
        assert stats["cache"]["hits"] >= 8
        assert stats["cache"]["misses"] == 8
        assert stats["cache"]["entries"] == 8
        assert stats["cache"]["evictions"] == 0
        assert stats["counters"]["cache.hit"] >= 8
        assert "plan_cache" in stats  # plan-layer counters ride along
        assert stats["jobs"] == {"executed": 16, "ok": 16, "failed": 0}
    finally:
        handle.stop()
        svc.stop()

    # the offline twin: the same two batches through BatchRunner sharing
    # one warm cache, writing the same store schema
    jobs = [SimJob.from_dict(s) for s in specs]
    offline_store = ResultStore(str(tmp_path / "offline.jsonl"))
    shared_cache = ProgramCache()
    for _ in range(2):
        _, summary = BatchRunner(
            workers=1, store=offline_store, cache=shared_cache
        ).run(jobs)
        assert summary.failed == 0

    daemon = ResultStore(str(daemon_store))
    assert len(daemon) == len(offline_store) == 16
    # digest-identical modulo VOLATILE_KEYS: the daemon added nothing to
    # the record schema, and its cache-hit pattern matches offline
    assert daemon.digest() == offline_store.digest()
