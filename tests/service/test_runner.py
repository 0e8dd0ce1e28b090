"""BatchRunner end to end: caching, failure isolation, reproducibility."""

import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.codegen.generator import MicrocodeGenerator
from repro.service import runner as runner_module
from repro.service.cache import ProgramCache
from repro.service.jobs import SimJob
from repro.service.results import (
    VOLATILE_KEYS,
    ResultStore,
    canonical_line,
)
from repro.service.runner import BatchRunner, execute_job
from repro.service.sweep import SweepSpec


FAST = dict(eps=1e-3, max_sweeps=500)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-function monkeypatching requires fork",
)

#: every executor x batch_fusion combination a kept field can ride
EXECUTORS = pytest.mark.parametrize(
    "workers,batch_fusion",
    [(w, f) for w in (1, 2) for f in ("off", "auto")],
    ids=lambda v: f"workers={v}" if isinstance(v, int) else v,
)


def _field_jobs():
    """Kept-field jobs of every shape a unit takes: two same-program
    fast slabs, a reference job and a multi-node job."""
    return [
        SimJob(method=method, shape=(5, 5, 5), backend="fast",
               u0_seed=seed, keep_fields=True, **FAST)
        for method, seeds in (("jacobi", 3), ("rb-gs", 2))
        for seed in range(seeds)
    ] + [
        SimJob(method="rb-gs", shape=(5, 5, 5), keep_fields=True, **FAST),
        SimJob(method="jacobi", shape=(5, 5, 6), hypercube_dim=1,
               keep_fields=True, **FAST),
    ]


# top-level so the pool can pickle them into (forked) workers; they
# stand in for execute_unit, so they accept its full signature
def _crash_worker(task, cache=None, cache_dir=None, attempt=1):
    os._exit(13)


def _sleep_worker(task, cache=None, cache_dir=None, attempt=1):
    time.sleep(30)


class TestExecuteJob:
    def test_single_node_jacobi(self):
        record = execute_job(
            SimJob(method="jacobi", shape=(5, 5, 5), **FAST).to_dict(),
            cache=ProgramCache(),
        )
        assert record["ok"]
        assert record["converged"]
        assert record["sweeps"] > 0
        assert record["cycles"] > 0
        assert record["metrics"]["flops"] > 0
        assert record["error_vs_analytic"] < 1.0

    def test_non_cubic_single_node(self):
        # u is compared against (and returned in) grid layout (nz,ny,nx);
        # a non-cubic shape catches any (nx,ny,nz) reshape confusion
        record = execute_job(
            SimJob(method="jacobi", shape=(5, 5, 8), keep_fields=True,
                   **FAST).to_dict(),
            cache=ProgramCache(),
        )
        assert record["ok"], record.get("error")
        assert record["fields"]["u"].shape == (8, 5, 5)
        # discretization-level error: the analytic solution vanishes on
        # every face even off the cube (per-axis manufactured modes)
        assert record["error_vs_analytic"] < 0.2

    def test_multinode_jacobi(self):
        record = execute_job(
            SimJob(method="jacobi", shape=(5, 5, 6),
                   hypercube_dim=1, **FAST).to_dict(),
            cache=ProgramCache(),
        )
        assert record["ok"]
        assert record["metrics"]["n_nodes"] == 2
        assert record["metrics"]["comm_cycles"] > 0

    def test_saved_program_job(self, tmp_path):
        from repro.arch.node import NodeConfig
        from repro.compose.kernels import build_saxpy_program
        from repro.diagram import serialize

        path = tmp_path / "saxpy.json"
        serialize.save(build_saxpy_program(NodeConfig(), 32).program,
                       str(path))
        record = execute_job(
            SimJob(method="program", program_path=str(path)).to_dict(),
            cache=ProgramCache(),
        )
        assert record["ok"], record.get("error")
        assert record["cycles"] > 0

    def test_failure_is_captured(self):
        record = execute_job(
            # nz=5 cannot split across 2 nodes
            SimJob(method="jacobi", shape=(5, 5, 5),
                   hypercube_dim=1, **FAST).to_dict(),
            cache=ProgramCache(),
        )
        assert not record["ok"]
        assert "DecompositionError" in record["error"]


class TestCaching:
    def test_repeated_jobs_skip_recompilation(self, monkeypatch):
        jobs = SweepSpec(grids=(5,), methods=("jacobi", "rb-gs"),
                         repeats=2, **FAST).expand()
        compiles = []
        real_generate = MicrocodeGenerator.generate
        monkeypatch.setattr(
            MicrocodeGenerator, "generate",
            lambda self, prog: compiles.append(prog.name)
            or real_generate(self, prog),
        )
        records, summary = BatchRunner(workers=1).run(jobs)
        assert summary.cache_hits == 2
        assert summary.cache_misses == 2
        assert len(compiles) == 2  # the proof: repeats never hit codegen
        assert [r["cache_hit"] for r in records] == [
            False, False, True, True]
        # cached repeats replay bit-identical microcode
        assert records[0]["program_fingerprint"] == \
            records[2]["program_fingerprint"]

    def test_cached_run_reproduces_metrics(self):
        job = SimJob(method="rb-sor", shape=(5, 5, 5), **FAST)
        cache = ProgramCache()
        first = execute_job(job.to_dict(), cache=cache)
        second = execute_job(job.to_dict(), cache=cache)
        assert not first["cache_hit"] and second["cache_hit"]
        for key in ("converged", "sweeps", "cycles", "metrics"):
            assert first[key] == second[key]

    def test_disk_cache_shared_across_runners(self, tmp_path):
        d = str(tmp_path / "cache")
        job = SimJob(method="jacobi", shape=(5, 5, 5), **FAST)
        r1, s1 = BatchRunner(workers=1, cache_dir=d).run([job])
        r2, s2 = BatchRunner(workers=1, cache_dir=d).run([job])
        assert s1.cache_misses == 1 and s1.cache_hits == 0
        assert s2.cache_hits == 1 and s2.cache_misses == 0
        assert r1[0]["cycles"] == r2[0]["cycles"]


class TestBatchRunner:
    def test_failure_isolation_in_batch(self):
        jobs = [
            SimJob(method="jacobi", shape=(5, 5, 5), label="good", **FAST),
            SimJob(method="jacobi", shape=(5, 5, 5), hypercube_dim=1,
                   label="bad", **FAST),
            SimJob(method="rb-gs", shape=(5, 5, 5), label="also-good",
                   **FAST),
        ]
        records, summary = BatchRunner(workers=1).run(jobs)
        assert summary.failed == 1
        assert summary.succeeded == 2
        assert [r["ok"] for r in records] == [True, False, True]

    def test_parallel_matches_serial(self):
        jobs = SweepSpec(grids=(5, 6), methods=("jacobi",), **FAST).expand()
        serial, _ = BatchRunner(workers=1).run(jobs)
        parallel, _ = BatchRunner(workers=2).run(jobs)
        for s, p in zip(serial, parallel):
            assert s["label"] == p["label"]
            assert s["cycles"] == p["cycles"]
            assert s["sweeps"] == p["sweeps"]

    def test_store_is_reproducible(self, tmp_path):
        # byte-reproducible modulo the volatile keys (wall-clock timings
        # legitimately differ): the canonical projection must match
        # line for line, and the digest is that same claim in one hash
        jobs = SweepSpec(grids=(5,), methods=("jacobi", "rb-gs"),
                         repeats=2, **FAST).expand()
        store_a = ResultStore(str(tmp_path / "a.jsonl"))
        store_b = ResultStore(str(tmp_path / "b.jsonl"))
        BatchRunner(workers=1, store=store_a).run(jobs)
        BatchRunner(workers=1, store=store_b).run(jobs)
        assert store_a.canonical_lines() == store_b.canonical_lines()
        assert store_a.digest() == store_b.digest()
        assert len(store_a) == 4

    def test_volatile_keys_are_the_only_difference(self, tmp_path):
        # the volatile-key set is exact: raw lines differ only because
        # of timings/duration_s, and every stored record carries them
        # (the reliability keys are conditional — absent on a clean
        # fault-free run — hence pop with a default)
        job = SimJob(method="jacobi", shape=(5, 5, 5), **FAST)
        store = ResultStore(str(tmp_path / "r.jsonl"))
        BatchRunner(workers=1, store=store).run([job])
        BatchRunner(workers=1, store=store).run([job])
        first, second = store.load()
        assert first != second  # wall-clock did differ...
        for key in VOLATILE_KEYS:
            first.pop(key, None), second.pop(key, None)
        assert first == second  # ...and nothing else did

    def test_older_stores_keep_their_digest(self, tmp_path):
        # builds that could move grids through shared memory stamped
        # "transport_fallback" on records whose run fell back to
        # pickling; such a store must still digest like a fresh one
        job = SimJob(method="jacobi", shape=(5, 5, 5), **FAST)
        fresh = ResultStore(str(tmp_path / "fresh.jsonl"))
        BatchRunner(workers=1, store=fresh).run([job])
        [record] = fresh.load()
        assert "transport_fallback" not in record
        older = ResultStore(str(tmp_path / "older.jsonl"))
        older.append(dict(record, transport_fallback="OSError: no space"))
        assert canonical_line(older.load()[0]) == canonical_line(record)
        assert older.digest() == fresh.digest()

    def test_store_queries(self, tmp_path):
        job = SimJob(method="jacobi", shape=(5, 5, 5), **FAST)
        store = ResultStore(str(tmp_path / "r.jsonl"))
        BatchRunner(workers=1, store=store).run([job, job])
        assert len(store.records_for(job.job_id)) == 2
        latest = store.latest_by_job()
        assert set(latest) == {job.job_id}
        assert latest[job.job_id]["cache_hit"] is True

    def test_append_creates_the_directory_and_heals_a_torn_tail(self,
                                                                 tmp_path):
        path = tmp_path / "new" / "dir" / "r.jsonl"
        store = ResultStore(str(path))
        store.append({"job_id": "a"})
        with open(path, "ab") as fh:
            fh.write(b'{"job_id": "b", "tor')  # a writer killed mid-line
        store.extend([{"job_id": "c"}, {"job_id": "d"}])
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == b'{"job_id": "a"}'
        assert lines[2:] == [b'{"job_id": "c"}', b'{"job_id": "d"}', b""]
        assert [r["job_id"] for r in store.load()] == ["a", "c", "d"]
        assert store.truncated_tail is None  # healed, so no longer the tail

    def test_records_are_json_serializable(self):
        records, _ = BatchRunner(workers=1).run(
            [SimJob(method="jacobi", shape=(5, 5, 5), **FAST)]
        )
        json.dumps(records)  # must not raise


class TestScenarioCustomers:
    def test_poisson_jobs_run_through_service(self):
        from repro.apps.poisson3d import poisson_jobs

        jobs = poisson_jobs(n=5, eps=1e-3, max_sweeps=500)
        assert [j.method for j in jobs] == ["jacobi", "rb-gs", "rb-sor"]
        records, summary = BatchRunner(workers=1).run(jobs)
        assert summary.failed == 0
        # the convergence race: SOR beats GS beats Jacobi
        sweeps = {r["method"]: r["sweeps"] for r in records}
        assert sweeps["rb-sor"] < sweeps["rb-gs"] < sweeps["jacobi"]


class TestKeptFieldsAcrossExecutors:
    """Kept grids come back pickled from pool workers: bit-identical to
    a serial per-job run, with equal digests, on every executor and
    batch-fusion mode."""

    @pytest.fixture(scope="class")
    def serial(self):
        records, _ = BatchRunner(workers=1).run(_field_jobs())
        return records

    @EXECUTORS
    def test_fields_bit_identical_to_serial(self, serial, workers,
                                            batch_fusion):
        records, summary = BatchRunner(
            workers=workers, batch_fusion=batch_fusion
        ).run(_field_jobs())
        assert summary.failed == 0
        for s, r in zip(serial, records):
            assert r["fields"]["u"].dtype == np.float64
            assert r["fields"]["u"].tobytes() == s["fields"]["u"].tobytes()
            assert r["fields_sha256"] == s["fields_sha256"]
            for key in ("converged", "sweeps", "cycles",
                        "program_fingerprint", "metrics"):
                assert r[key] == s[key]

    @pytest.mark.parametrize("workers", (1, 2))
    def test_slab_members_return_serial_fields(self, serial, workers):
        records, _ = BatchRunner(workers=workers,
                                 batch_fusion="auto").run(_field_jobs())
        assert [r.get("slab_size") for r in records] == \
            [3, 3, 3, 2, 2, None, None]
        for s, r in zip(serial[:5], records[:5]):
            assert r["tier"] == "batch_fused"
            assert r["fields"]["u"].tobytes() == s["fields"]["u"].tobytes()

    @EXECUTORS
    def test_store_gets_digests_never_arrays(self, tmp_path, workers,
                                             batch_fusion):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        records, _ = BatchRunner(workers=workers, batch_fusion=batch_fusion,
                                 store=store).run(_field_jobs())
        stored = store.load()  # would have raised on non-JSON arrays
        assert len(stored) == len(records)
        for mem, disk in zip(records, stored):
            assert "fields" in mem and "fields" not in disk
            assert disk["fields_sha256"] == mem["fields_sha256"]

    @EXECUTORS
    def test_failed_job_keeps_the_record_set_whole(self, workers,
                                                   batch_fusion):
        jobs = [
            SimJob(method="jacobi", shape=(5, 5, 5), keep_fields=True,
                   **FAST),
            # nz=5 cannot split across 2 nodes -> captured failure
            SimJob(method="jacobi", shape=(5, 5, 5), hypercube_dim=1,
                   keep_fields=True, **FAST),
        ]
        records, summary = BatchRunner(
            workers=workers, batch_fusion=batch_fusion
        ).run(jobs)
        assert [r["ok"] for r in records] == [True, False]
        assert "fields" in records[0] and "fields" not in records[1]
        assert summary.total == 2

    @fork_only
    @pytest.mark.parametrize("batch_fusion", ("off", "auto"))
    def test_worker_crash_returns_every_record(self, monkeypatch,
                                               batch_fusion):
        monkeypatch.setattr(runner_module, "execute_unit", _crash_worker)
        jobs = _field_jobs()
        records, summary = BatchRunner(
            workers=2, batch_fusion=batch_fusion
        ).run(jobs)
        assert len(records) == len(jobs)
        assert summary.failed == len(jobs)  # pool broke, batch didn't
        assert all("fields" not in r for r in records)

    @fork_only
    def test_timeout_path_returns_every_record(self, monkeypatch):
        monkeypatch.setattr(runner_module, "execute_unit", _sleep_worker)
        jobs = _field_jobs()[:2]
        records, _ = BatchRunner(workers=2, timeout=0.5).run(jobs)
        assert len(records) == len(jobs)
        assert all("TimeoutError" in r["error"] for r in records)
