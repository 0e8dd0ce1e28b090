"""Shared-memory transport: arena lifecycle, parity, crash/timeout cleanup.

The cleanup tests replace the worker function with a crasher/sleeper via
monkeypatching the runner module; that relies on the fork start method
(the pool's children inherit the patched module), so they skip on
platforms that spawn.
"""

import multiprocessing
import os
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.service import runner as runner_module
from repro.service.jobs import SimJob
from repro.service.results import ResultStore, canonical_record
from repro.service.runner import BatchRunner
from repro.service.shm import ShmArena, ShmArrayRef, attached

FAST = dict(eps=1e-3, max_sweeps=500)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-function monkeypatching requires fork",
)


def _jobs(keep_fields=True):
    return [
        SimJob(method="jacobi", shape=(5, 5, 5), keep_fields=keep_fields,
               label="jacobi", **FAST),
        SimJob(method="rb-gs", shape=(5, 5, 5), keep_fields=keep_fields,
               label="rbgs", **FAST),
        SimJob(method="jacobi", shape=(5, 5, 6), hypercube_dim=1,
               keep_fields=keep_fields, label="multi", **FAST),
    ]


def _assert_all_unlinked(names):
    assert names, "expected the run to have used shm segments"
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# top-level so the pool can pickle them into (forked) workers; they
# stand in for execute_unit, so they accept its full signature
def _crash_worker(task, cache=None, cache_dir=None, attempt=1):
    os._exit(13)


def _sleep_worker(task, cache=None, cache_dir=None, attempt=1):
    time.sleep(30)


class TestShmArena:
    def test_place_view_roundtrip(self):
        with ShmArena() as arena:
            data = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
            ref = arena.place(data)
            assert isinstance(ref, ShmArrayRef)
            assert ref.shape == (2, 3, 4) and ref.dtype == "float64"
            assert np.array_equal(arena.view(ref), data)
            # view is zero-copy: a write through it is visible to a
            # fresh attachment
            arena.view(ref)[0, 0, 0] = 42.0
            with attached(ref) as seen:
                assert seen[0, 0, 0] == 42.0

    def test_allocate_zero_filled(self):
        with ShmArena() as arena:
            ref = arena.allocate((3, 3), dtype="float64")
            assert np.count_nonzero(arena.view(ref)) == 0

    def test_materialize_survives_destroy(self):
        arena = ShmArena()
        ref = arena.place(np.ones(7))
        copy = arena.materialize(ref)
        arena.destroy()
        assert np.array_equal(copy, np.ones(7))

    def test_destroy_unlinks_everything_and_is_idempotent(self):
        arena = ShmArena()
        refs = [arena.place(np.zeros(4)) for _ in range(3)]
        names = arena.names
        assert len(names) == 3
        arena.destroy()
        arena.destroy()  # second call must be a no-op, not an error
        _assert_all_unlinked(names)
        with pytest.raises(KeyError):
            arena.view(refs[0])  # ownership gone with the segments

    def test_attached_readonly_blocks_writes(self):
        with ShmArena() as arena:
            ref = arena.place(np.zeros(5))
            with attached(ref, readonly=True) as view:
                with pytest.raises(ValueError):
                    view[0] = 1.0
            with attached(ref, readonly=False) as view:
                view[0] = 1.0
            assert arena.view(ref)[0] == 1.0

    def test_nbytes_accounting(self):
        with ShmArena() as arena:
            arena.allocate((10, 10), dtype="float64")
            assert arena.nbytes >= 800


class TestTransportParity:
    def test_workers1_serial_bypass_identical_to_pickle(self):
        # workers=1 never touches a transport: both configurations run
        # the same in-process path and must agree exactly
        jobs = _jobs()
        shm_records, _ = BatchRunner(workers=1, transport="shm").run(jobs)
        pkl_records, _ = BatchRunner(workers=1, transport="pickle").run(jobs)
        for s, p in zip(shm_records, pkl_records):
            fields_s = s.pop("fields")
            fields_p = p.pop("fields")
            assert canonical_record(s) == canonical_record(p)
            assert np.array_equal(fields_s["u"], fields_p["u"])

    def test_results_bit_identical_across_transports(self):
        jobs = _jobs()
        serial, _ = BatchRunner(workers=1).run(jobs)
        pickle_r, _ = BatchRunner(workers=2, transport="pickle").run(jobs)
        shm_r, _ = BatchRunner(workers=2, transport="shm").run(jobs)
        for a, b, c in zip(serial, pickle_r, shm_r):
            assert a["ok"] and b["ok"] and c["ok"]
            assert np.array_equal(a["fields"]["u"], b["fields"]["u"])
            assert np.array_equal(a["fields"]["u"], c["fields"]["u"])
            assert (a["fields_sha256"] == b["fields_sha256"]
                    == c["fields_sha256"])
            for key in ("converged", "sweeps", "cycles",
                        "program_fingerprint", "metrics"):
                assert a[key] == b[key] == c[key]

    def test_shm_run_unlinks_all_segments(self):
        runner = BatchRunner(workers=2, transport="shm")
        records, summary = runner.run(_jobs())
        assert summary.failed == 0
        _assert_all_unlinked(runner.last_shm_segments)

    def test_failed_job_still_cleaned_up(self):
        jobs = [
            SimJob(method="jacobi", shape=(5, 5, 5), keep_fields=True,
                   **FAST),
            # nz=5 cannot split across 2 nodes -> captured failure
            SimJob(method="jacobi", shape=(5, 5, 5), hypercube_dim=1,
                   keep_fields=True, **FAST),
        ]
        runner = BatchRunner(workers=2, transport="shm")
        records, summary = runner.run(jobs)
        assert [r["ok"] for r in records] == [True, False]
        assert "fields" in records[0] and "fields" not in records[1]
        _assert_all_unlinked(runner.last_shm_segments)

    def test_store_gets_digests_never_arrays(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        runner = BatchRunner(workers=2, transport="shm", store=store)
        records, _ = runner.run(_jobs())
        stored = store.load()  # would have raised on non-JSON arrays
        assert len(stored) == len(records)
        for mem, disk in zip(records, stored):
            assert "fields" in mem
            assert "fields" not in disk
            assert disk["fields_sha256"] == mem["fields_sha256"]

    def test_keep_fields_false_allocates_no_output_segments(self):
        jobs = [SimJob(method="jacobi", shape=(5, 5, 5), **FAST)] * 2
        runner = BatchRunner(workers=2, transport="shm")
        records, _ = runner.run(jobs)
        assert all(r["ok"] for r in records)
        assert all("fields" not in r for r in records)
        # one shape -> exactly the two shared input segments (u_star, f)
        assert len(runner.last_shm_segments) == 2
        _assert_all_unlinked(runner.last_shm_segments)


class TestSlabFieldsOverShm:
    def test_slab_members_return_serial_fields(self):
        """keep_fields slab members write their own output segments: the
        fields match a serial run's bit for bit."""
        jobs = [
            SimJob(method=method, shape=(5, 5, 5), backend="fast",
                   u0_seed=seed, keep_fields=True, **FAST)
            for method, seeds in (("jacobi", 3), ("rb-gs", 2))
            for seed in range(seeds)
        ]
        serial, _ = BatchRunner(workers=1, batch_fusion="auto").run(jobs)
        runner = BatchRunner(workers=2, transport="shm",
                             batch_fusion="auto")
        shm, _ = runner.run(jobs)
        assert [r["slab_size"] for r in shm] == [3, 3, 3, 2, 2]
        for s, m in zip(serial, shm):
            assert "transport_fallback" not in m
            assert m["fields"]["u"].tobytes() == s["fields"]["u"].tobytes()
            assert m["fields_sha256"] == s["fields_sha256"]
        _assert_all_unlinked(runner.last_shm_segments)


class TestCrashAndTimeoutCleanup:
    @fork_only
    def test_worker_crash_leaks_no_segments(self, monkeypatch):
        monkeypatch.setattr(runner_module, "execute_unit", _crash_worker)
        runner = BatchRunner(workers=2, transport="shm")
        records, summary = runner.run(_jobs())
        assert summary.failed == len(records)  # pool broke, batch didn't
        assert all(not r["ok"] for r in records)
        _assert_all_unlinked(runner.last_shm_segments)

    @fork_only
    def test_timeout_path_unlinks_segments(self, monkeypatch):
        monkeypatch.setattr(runner_module, "execute_unit", _sleep_worker)
        runner = BatchRunner(workers=2, timeout=0.5, transport="shm")
        records, summary = runner.run(_jobs()[:2])
        assert all(not r["ok"] for r in records)
        assert all("TimeoutError" in r["error"] for r in records)
        _assert_all_unlinked(runner.last_shm_segments)
