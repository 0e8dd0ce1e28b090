"""A lone fast single-node job runs on the slab engine, as a slab of one.

Every fast builder-solver job on one node — serial under either
``batch_fusion`` mode or in a process pool — binds a
one-job :class:`~repro.sim.batchplan.BatchProgramRun` and synthesizes
its record from the run's issue log.  It never commits into an
``NSCMachine`` (``batchplan._commit``) nor replays interrupts, and its
canonical record equals the reference backend's, non-finite values
included: a lone job runs exact, so it owns every FP flag it raises.  A
decline (an unfusable plan) reruns the job once, on the reference walk.
"""

import json
import multiprocessing
from types import SimpleNamespace

import numpy as np
import pytest

from repro.obs import tracer as obs
from repro.service import runner
from repro.service.cache import ProgramCache
from repro.service.jobs import SimJob
from repro.service.results import canonical_record
from repro.service.runner import BatchRunner, execute_job
from repro.sim import batchplan, progplan
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
}


def _job(method, backend="fast", **kw):
    return SimJob(method=method, shape=(5, 5, 6), backend=backend,
                  keep_fields=True, **FAST, **kw)


def _computed(record):
    return {k: v for k, v in canonical_record(record).items()
            if k not in _ENGINE_KEYS}


def _traced(monkeypatch, job):
    """Run *job* through :func:`execute_job` on a fresh cache; return its
    record, the job's own tracer and every event that tracer emitted."""
    tracers, events = [], []
    stamp = runner._stamp_telemetry

    def spy(record, tracer):
        tracers.append(tracer)
        return stamp(record, tracer)

    monkeypatch.setattr(runner, "_stamp_telemetry", spy)
    monkeypatch.setattr(obs, "_DEFAULT_SINK",
                        SimpleNamespace(emit=events.append))
    record = execute_job(job.to_dict(), cache=ProgramCache())
    return record, tracers[-1], events


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

    def test_lone_job_counts_tier_fused_only(self, no_commit, monkeypatch):
        record, tracer, _events = _traced(monkeypatch, _job("jacobi"))
        assert record["ok"], record.get("error")
        assert tracer.counters["tier.fused"] == 1
        for name in ("tier.batch_fused", "slab.formed", "slab.jobs",
                     "fusion.fallback"):
            assert name not in tracer.counters
        assert record["timings"]["bind"] > 0.0
        assert record["timings"]["execute"] > 0.0


def _count_machines(monkeypatch):
    built = []
    real_init = NSCMachine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(NSCMachine, "__init__", counting_init)
    return built


class TestNoMachineBehindTheSlab:
    """The stacked storage is built from the plan's variable layout: no
    fast single-node or hypercube service job constructs a machine."""

    def test_lone_fast_job(self, monkeypatch):
        built = _count_machines(monkeypatch)
        record = execute_job(_job("rb-sor").to_dict(), cache=ProgramCache())
        assert record["ok"] and record["tier"] == "fused"
        assert built == []

    def test_three_job_slab(self, monkeypatch):
        built = _count_machines(monkeypatch)
        jobs = [_job("jacobi", u0_seed=s) for s in range(3)]
        records, summary = BatchRunner(
            workers=1, batch_fusion="auto").run(jobs)
        assert summary.succeeded == 3
        assert [r["slab_size"] for r in records] == [3, 3, 3]
        assert built == []

    def test_hypercube_job(self, monkeypatch):
        built = _count_machines(monkeypatch)
        job = SimJob(method="jacobi", shape=(4, 4, 8), hypercube_dim=2,
                     backend="fast", eps=1e-3, max_sweeps=50)
        record = execute_job(job.to_dict(), cache=ProgramCache())
        assert record["ok"] and record["tier"] == "fused"
        assert built == []


class TestNonFinite:
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
        job = SimJob(method="jacobi", shape=(5, 5, 5), backend=backend,
                     eps=1e-3, max_sweeps=20)
        with np.errstate(over="ignore", invalid="ignore"):
            record, tracer, _events = _traced(monkeypatch, job)
        assert record["ok"], record.get("error")
        return record, tracer, machines

    def test_lone_job_stays_on_its_slab(self, monkeypatch):
        record, tracer, machines = self._run(monkeypatch, "fast")
        assert machines == []
        assert record["tier"] == "fused"
        assert "fallback_reason" not in record
        assert "fusion.fallback" not in tracer.counters
        ref_record, _tracer, [_ref] = self._run(monkeypatch, "reference")
        # NaN errors compare equal only as JSON text
        assert json.dumps(_computed(record), sort_keys=True) \
            == json.dumps(_computed(ref_record), sort_keys=True)


class TestDecline:
    def test_declined_lone_job_counts_one_fallback(self, monkeypatch):
        """The slab's decline is the only one: the machine rerun goes
        straight to the reference walk."""
        def decline(*args, **kwargs):
            raise progplan.FusionUnsupported("declined for the test")

        monkeypatch.setattr(batchplan, "compiled_plan", decline)
        record, tracer, events = _traced(monkeypatch, _job("jacobi"))
        assert record["ok"], record.get("error")
        assert record["tier"] == "reference"
        assert record["fallback_reason"] == "declined for the test"
        assert tracer.counters["fusion.fallback"] == 1
        assert tracer.counters["tier.reference"] == 1
        assert "tier.fused" not in tracer.counters
        events = [e for e in events if e["type"] == "fusion_fallback"]
        assert len(events) == 1
