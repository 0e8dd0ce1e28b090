"""A lone fast single-node job runs on the slab engine, as a slab of one.

Every fast builder-solver job on one node — serial under either
``batch_fusion`` mode, in a process pool, over shared memory — binds a
one-job :class:`~repro.sim.batchplan.BatchProgramRun` and synthesizes
its record from the run's issue log.  It never commits into an
``NSCMachine`` (``batchplan._commit``) nor replays interrupts, and its
canonical record equals the reference backend's.  A decline (here: a
non-finite value) reruns the job on the machine path, which keeps every
FP interrupt the run raises.
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro.arch.interrupts import InterruptKind
from repro.obs.tracer import Tracer
from repro.service import runner
from repro.service.cache import ProgramCache
from repro.service.jobs import SimJob
from repro.service.results import canonical_record
from repro.service.runner import BatchRunner, execute_job
from repro.sim import batchplan
from repro.sim.machine import NSCMachine

FAST = dict(eps=1e-3, max_sweeps=500)
_MACHINE_RUN = NSCMachine.run

#: keys that name the backend or engine, or depend on compile history
#: (pool workers keep their own caches), rather than what the job computed
_ENGINE_KEYS = ("job_id", "label", "backend", "tier", "cache_hit", "fields")

RUNS = {
    "serial-off": dict(workers=1, batch_fusion="off"),
    "serial-auto": dict(workers=1, batch_fusion="auto"),
    "pool": dict(workers=2),
    "shm": dict(workers=2, transport="shm"),
}


def _job(method, backend="fast", **kw):
    return SimJob(method=method, shape=(5, 5, 6), backend=backend,
                  keep_fields=True, **FAST, **kw)


def _computed(record):
    return {k: v for k, v in canonical_record(record).items()
            if k not in _ENGINE_KEYS}


@pytest.fixture
def no_commit(monkeypatch):
    """Fail any job that commits a fused run into a machine (pool
    workers fork after the patch and inherit it)."""
    def forbidden(*args, **kwargs):
        raise AssertionError("fused run committed into a machine")

    monkeypatch.setattr(batchplan, "_commit", forbidden)
    monkeypatch.setattr(batchplan, "replay_interrupts", forbidden)


class TestNoMachineCommit:
    @pytest.mark.parametrize("method", ["jacobi", "rb-sor"])
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_lone_fast_job_runs_as_slab_of_one(self, no_commit, run,
                                               method):
        options = RUNS[run]
        if options["workers"] > 1 \
                and multiprocessing.get_start_method() != "fork":
            pytest.skip("patched workers need the fork start method")
        [fast], _ = BatchRunner(**options).run([_job(method)])
        [ref], _ = BatchRunner(workers=1).run(
            [_job(method, backend="reference")]
        )
        assert fast["ok"], fast.get("error")
        assert fast["tier"] == "fused"
        assert ref["tier"] == "reference"
        assert "slab_size" not in fast
        assert "fallback_reason" not in fast
        assert _computed(fast) == _computed(ref)
        np.testing.assert_array_equal(fast["fields"]["u"],
                                      ref["fields"]["u"])

    def test_groups_and_lone_jobs_share_the_engine(self, no_commit):
        jobs = [_job("jacobi", u0_seed=s) for s in range(2)] \
            + [_job("rb-gs")]
        runner_ = BatchRunner(workers=1, batch_fusion="auto")
        records, summary = runner_.run(jobs)
        assert summary.succeeded == 3
        assert [r["tier"] for r in records] \
            == ["batch_fused", "batch_fused", "fused"]
        assert [r.get("slab_size") for r in records] == [2, 2, None]
        counters = runner_.last_telemetry.counters
        assert counters["slab.formed"] == 1
        assert counters["slab.jobs"] == 2

    def test_lone_job_counts_tier_fused_only(self, no_commit):
        tracer = Tracer()
        record = execute_job(_job("jacobi").to_dict(), cache=ProgramCache(),
                             tracer=tracer)
        assert record["ok"], record.get("error")
        assert tracer.counters["tier.fused"] == 1
        for name in ("tier.batch_fused", "slab.formed", "slab.jobs",
                     "fusion.fallback"):
            assert name not in tracer.counters
        assert record["timings"]["bind"] > 0.0
        assert record["timings"]["execute"] > 0.0


class TestNonFiniteDecline:
    def _run(self, monkeypatch, backend):
        """Run a job whose initial guess overflows on the first sweep;
        return its record, tracer, and every machine it ran."""
        monkeypatch.setattr(runner, "_initial_grid",
                            lambda job: np.full(job.shape, 1e308))
        machines = []

        def spy(self, *args, **kwargs):
            machines.append(self)
            return _MACHINE_RUN(self, *args, **kwargs)

        monkeypatch.setattr(NSCMachine, "run", spy)
        tracer = Tracer()
        job = SimJob(method="jacobi", shape=(5, 5, 5), backend=backend,
                     eps=1e-3, max_sweeps=20)
        with np.errstate(over="ignore", invalid="ignore"):
            record = execute_job(job.to_dict(), cache=ProgramCache(),
                                 tracer=tracer)
        assert record["ok"], record.get("error")
        return record, tracer, machines

    @staticmethod
    def _interrupts(machine):
        fp = (InterruptKind.FP_OVERFLOW, InterruptKind.FP_INVALID)
        posted = machine.interrupts.delivered + machine.interrupts.dropped
        return (
            len(machine.interrupts.delivered),
            sum(1 for i in posted if i.kind in fp),
        )

    def test_decline_reruns_on_machine_with_fp_interrupts(
        self, monkeypatch
    ):
        record, tracer, [machine] = self._run(monkeypatch, "fast")
        computed = _computed(record)
        assert computed.pop("fallback_reason") \
            == "non-finite values in batch slab"
        assert record["tier"] == "fused"  # the machine's fused run
        assert tracer.counters["fusion.fallback"] == 1
        ref_record, _tracer, [ref] = self._run(monkeypatch, "reference")
        delivered, fp_posts = self._interrupts(machine)
        assert fp_posts > 0
        assert (delivered, fp_posts) == self._interrupts(ref)
        # NaN errors compare equal only as JSON text
        assert json.dumps(computed, sort_keys=True) \
            == json.dumps(_computed(ref_record), sort_keys=True)
