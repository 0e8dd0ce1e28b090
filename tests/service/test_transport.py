"""Units carry :class:`SimJob` objects, on every executor.

A batch's units hold the effective jobs themselves (the batch's
``run_checker`` applied): passed as they are to an in-process unit,
pickled to a pool worker.  These tests pin that one transport: every
executor stores one canonical digest, faulted or not; :func:`execute_job`
records a mapping and the job it parses to alike; and a pickled job
keeps its identity, memoized or not.
"""

import pickle

import pytest

from repro.service import runner as runner_module
from repro.service.cache import ProgramCache
from repro.service.faults import FaultPlan, FaultRule
from repro.service.jobs import SimJob
from repro.service.results import ResultStore, canonical_record
from repro.service.runner import BatchRunner, execute_job, reset_process_cache

FAST = dict(eps=1e-3, max_sweeps=500, backend="fast")
#: one program per job: under ``batch_fusion="off"`` a repeated program's
#: ``cache_hit`` would depend on which pool worker compiled it first
SHAPES = [(5, 5, 5), (5, 5, 6), (5, 6, 6), (6, 6, 6)]


def _jobs(**extra):
    return [SimJob(method="jacobi", shape=shape, **FAST, **extra)
            for shape in SHAPES]


def _digest(tmp_path, name, workers, jobs, fault_plan=None):
    reset_process_cache()  # pool workers fork this process's cache
    store = ResultStore(str(tmp_path / f"{name}.jsonl"))
    records, summary = BatchRunner(
        workers=workers, store=store, fault_plan=fault_plan,
    ).run(jobs)
    assert summary.failed == 0
    return store.digest(), records


def test_serial_pool_and_faulted_pool_store_one_digest(tmp_path):
    jobs = _jobs(max_attempts=3)
    serial, _ = _digest(tmp_path, "serial", 1, jobs)
    pool, _ = _digest(tmp_path, "pool", 2, jobs)
    plan = FaultPlan(rules=(FaultRule(site="worker.exec"),
                            FaultRule(site="pool.submit",
                                      match=jobs[2].job_id)), seed=1)
    faulted, records = _digest(tmp_path, "faulted", 2, jobs, plan)
    # every job met a fault and was retried on the rebuilt units
    assert [r["attempts"] for r in records] == [2] * len(jobs)
    assert serial == pool == faulted


def test_execute_job_records_a_mapping_and_its_job_alike():
    job = SimJob(method="rb-sor", shape=(5, 5, 6), **FAST)
    from_job = execute_job(job, cache=ProgramCache())
    from_mapping = execute_job(job.to_dict(), cache=ProgramCache())
    assert from_job["ok"] and from_job["tier"] == "fused"
    assert canonical_record(from_job) == canonical_record(from_mapping)


@pytest.mark.parametrize("memoized", [False, True],
                         ids=["fresh", "memoized"])
def test_pickled_job_keeps_job_id_and_cache_key(memoized):
    job = SimJob(method="jacobi", shape=(6, 5, 7), u0_seed=3,
                 run_checker="never", **FAST)
    want = SimJob(**{k: getattr(job, k) for k in (
        "method", "shape", "eps", "max_sweeps", "backend", "u0_seed",
        "run_checker")})
    if memoized:
        job.job_id, job.cache_key()
    copy = pickle.loads(pickle.dumps(job))
    assert copy == job
    assert copy.job_id == want.job_id == job.job_id
    assert copy.cache_key() == want.cache_key() == job.cache_key()


class TestUnitsCarryJobs:
    def _units(self, monkeypatch, **runner_kwargs):
        seen = []
        real = runner_module.execute_unit

        def spy(task, *args, **kwargs):
            seen.append(task["jobs"])
            return real(task, *args, **kwargs)

        monkeypatch.setattr(runner_module, "execute_unit", spy)
        jobs = _jobs()[:2]
        BatchRunner(workers=1, **runner_kwargs).run(jobs)
        return jobs, seen

    def test_in_process_units_pass_the_callers_jobs(self, monkeypatch):
        jobs, seen = self._units(monkeypatch)
        assert [unit[0] for unit in seen] == jobs
        assert all(unit[0] is job for unit, job in zip(seen, jobs))

    def test_batch_checker_mode_rides_the_effective_jobs(self, monkeypatch):
        jobs, seen = self._units(monkeypatch, run_checker="never")
        carried = [unit[0] for unit in seen]
        assert [job.run_checker for job in carried] == ["never", "never"]
        # the batch's mode replaces the job's; the job_id normalizes it
        assert [job.job_id for job in carried] \
            == [job.job_id for job in jobs]
