"""ProgramCache: hit/miss accounting, the LRU bound and the on-disk layer."""

import pickle
import random
from collections import OrderedDict

import pytest

from repro.obs import tracer as obs
from repro.obs.tracer import Tracer
from repro.service.cache import ProgramCache
from repro.service.jobs import SimJob
from repro.service.results import canonical_record
from repro.service.runner import BatchRunner, execute_job
from repro.sim import fastpath
from repro.sim.fastpath import PLAN_CACHE, PlanCache


class TestMemoryLayer:
    def test_miss_then_hit(self):
        cache = ProgramCache()
        calls = []
        value1 = cache.get_or_compile("k", lambda: calls.append(1) or "V")
        value2 = cache.get_or_compile("k", lambda: calls.append(2) or "W")
        assert value1 == value2 == "V"
        assert calls == [1]  # second lookup never compiled
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 2

    def test_distinct_keys_compile_separately(self):
        cache = ProgramCache()
        assert cache.get_or_compile("a", lambda: 1) == 1
        assert cache.get_or_compile("b", lambda: 2) == 2
        assert cache.stats.misses == 2
        assert len(cache) == 2
        assert "a" in cache and "c" not in cache

    def test_clear_drops_memory(self):
        cache = ProgramCache()
        cache.get_or_compile("k", lambda: "V")
        cache.clear()
        cache.get_or_compile("k", lambda: "V2")
        assert cache.stats.misses == 2


class TestDiskLayer:
    def test_fresh_cache_hits_from_disk(self, tmp_path):
        d = str(tmp_path / "cache")
        first = ProgramCache(d)
        first.get_or_compile("k", lambda: {"compiled": True})
        second = ProgramCache(d)
        value = second.get_or_compile(
            "k", lambda: (_ for _ in ()).throw(AssertionError("recompiled"))
        )
        assert value == {"compiled": True}
        assert second.stats.hits == 1
        assert second.stats.disk_hits == 1

    def test_corrupt_entry_recompiles(self, tmp_path):
        d = tmp_path / "cache"
        cache = ProgramCache(str(d))
        (d / "k.pkl").write_bytes(b"not a pickle")
        assert cache.get_or_compile("k", lambda: "fresh") == "fresh"
        assert cache.stats.misses == 1
        # and the bad entry was overwritten with a good one
        with open(d / "k.pkl", "rb") as fh:
            assert pickle.load(fh) == "fresh"

    def test_stats_format_mentions_disk(self, tmp_path):
        cache = ProgramCache(str(tmp_path / "c"))
        cache.get_or_compile("k", lambda: 1)
        text = cache.stats.format()
        assert "1 misses" in text


@pytest.fixture
def bound(monkeypatch):
    """Set the shared in-process cache bound for one test."""

    def set_bound(n):
        monkeypatch.setattr(fastpath, "PROGRAM_CACHE_SIZE", n)

    return set_bound


def _never(key):
    def fail():
        raise AssertionError(f"{key} recompiled")

    return fail


class TestLRU:
    def test_hit_refreshes_recency(self, bound):
        bound(3)
        cache = ProgramCache()
        for key in "abc":
            cache.get_or_compile(key, lambda key=key: key.upper())
        assert cache.get_or_compile("a", _never("a")) == "A"  # a is newest
        cache.get_or_compile("d", lambda: "D")
        assert "b" not in cache  # the least recent key went
        assert all(key in cache for key in "acd")
        assert cache.stats.evictions == 1

    def test_eviction_count_is_exact(self, bound):
        bound(3)
        cache = ProgramCache()
        for i in range(10):
            cache.get_or_compile(f"k{i}", lambda i=i: i)
        assert len(cache) == 3
        assert cache.stats.evictions == 7
        assert cache.stats.as_dict()["evictions"] == 7

    def test_eviction_is_counted_in_telemetry(self, bound):
        bound(2)
        cache = ProgramCache()
        tracer = Tracer()
        with obs.use(tracer):
            for key in "abcd":
                cache.get_or_compile(key, lambda: 0)
        assert tracer.counters["cache.evict"] == 2
        assert tracer.counters["cache.miss"] == 4

    def test_evicted_key_recompiles_as_miss(self, bound):
        bound(2)
        cache = ProgramCache()
        calls = []
        for key in ("a", "b", "c", "a"):
            cache.get_or_compile(key, lambda key=key: calls.append(key) or key)
        assert calls == ["a", "b", "c", "a"]
        assert cache.stats.misses == 4 and cache.stats.hits == 0
        assert cache.stats.evictions == 2

    def test_evicted_key_comes_back_from_disk(self, bound, tmp_path):
        bound(2)
        cache = ProgramCache(str(tmp_path / "c"))
        for key in "abc":
            cache.get_or_compile(key, lambda key=key: key.upper())
        assert "a" in cache  # the disk layer still has it
        assert cache.get_or_compile("a", _never("a")) == "A"
        assert cache.stats.disk_hits == 1
        assert cache.stats.misses == 3
        assert len(cache) == 2  # the disk hit evicted "b"
        assert cache.stats.evictions == 2

    def test_plan_and_program_caches_read_one_bound(self, bound):
        bound(3)
        plans = PlanCache()
        cache = ProgramCache()
        assert plans.bound == cache._mem.bound == PLAN_CACHE.bound == 3
        for i in range(5):
            plans.get_or_build(i, lambda i=i: i)
            cache.get_or_compile(str(i), lambda i=i: i)
        assert len(plans) == len(cache) == 3
        assert plans.stats.evictions == cache.stats.evictions == 2
        assert 1 not in plans and "1" not in cache
        bound(4)  # existing caches follow the constant
        assert plans.bound == cache._mem.bound == 4


class TestEvictedTrust:
    def test_auto_reruns_checker_after_mark_eviction(self, bound):
        bound(1)
        cache = ProgramCache()
        first = SimJob(method="jacobi", shape=(4, 4, 4), eps=1e-3,
                       max_sweeps=200)
        other = SimJob(method="rb-gs", shape=(4, 4, 4), eps=1e-3,
                       max_sweeps=200)
        assert execute_job(first.to_dict(), cache=cache)["checker"] == "ran"
        assert execute_job(other.to_dict(), cache=cache)["checker"] == "ran"
        again = execute_job(first.to_dict(), cache=cache)
        assert again["cache_hit"] is False
        assert again["checker"] == "ran"  # an evicted program is rechecked


def _eviction_jobs():
    """About 40 distinct small registry programs, each listed twice in a
    seeded interleaving: some repeats land inside a 4-entry bound, most
    outside it."""
    jobs = [
        SimJob(method=method, shape=(n, n, n), eps=eps, max_sweeps=300)
        for method in ("jacobi", "rb-gs", "rb-sor")
        for n in (4, 5)
        for eps in (1e-2, 5e-3, 2e-3, 1e-3, 5e-4, 2e-4, 1e-4)
    ]
    order = jobs + jobs
    random.Random(0).shuffle(order)
    return order


def _projection(record):
    keep = canonical_record(record)
    keep.pop("cache_hit", None)
    return keep


def _simulate_lru(keys, size):
    """Reference LRU over the key sequence: (hits, misses, evictions)."""
    held = OrderedDict()
    hits = misses = evictions = 0
    for key in keys:
        if key in held:
            held.move_to_end(key)
            hits += 1
            continue
        misses += 1
        held[key] = True
        if len(held) > size:
            held.popitem(last=False)
            evictions += 1
    return hits, misses, evictions


class TestEvictionKeepsResults:
    def _run(self, jobs):
        cache = ProgramCache()
        sizes = []
        real = cache.get_or_compile

        def spying(key, compile_fn):
            value = real(key, compile_fn)
            sizes.append(len(cache))
            return value

        cache.get_or_compile = spying
        records, summary = BatchRunner(workers=1, cache=cache).run(jobs)
        assert summary.failed == 0
        return records, cache, sizes

    def test_bounded_run_matches_unbounded(self, bound):
        jobs = _eviction_jobs()
        assert len({job.cache_key() for job in jobs}) == 42
        free, free_cache, _ = self._run(jobs)
        assert free_cache.stats.evictions == 0
        bound(4)
        tight, cache, sizes = self._run(jobs)
        assert [_projection(r) for r in tight] \
            == [_projection(r) for r in free]
        assert [r["program_fingerprint"] for r in tight] \
            == [r["program_fingerprint"] for r in free]
        assert len(sizes) == len(jobs) and max(sizes) == 4
        hits, misses, evictions = _simulate_lru(
            [job.cache_key() for job in jobs], 4)
        assert evictions > 0 and hits > 0
        assert (cache.stats.hits, cache.stats.misses) == (hits, misses)
        assert cache.stats.evictions == evictions
        assert [r["cache_hit"] for r in tight].count(True) == hits
