"""Tier-selection telemetry and the per-record observability stamps.

The record schema contract: every batch/sweep record carries ``timings``
(one entry per :data:`repro.obs.tracer.STAGES`, zeros when a stage did
not run) and ``tier`` (which execution tier actually ran).  The counter
contract: a job's run (the slab, the sequencer, the multi-node steppers)
records the selected tier — and, for a ``FusionUnsupported`` decline, the fallback tier *and
the reason* — into the active tracer.
"""

import numpy as np
import pytest

from repro.obs import tracer as obs
from repro.obs.tracer import STAGES, Tracer
from repro.service.cache import ProgramCache
from repro.service.jobs import SimJob
from repro.service.runner import BatchRunner, execute_job
from repro.sim import batchplan, progplan
from repro.sim.machine import NSCMachine


FAST = dict(eps=1e-3, max_sweeps=300)


@pytest.fixture(autouse=True)
def _no_leaked_active_tracer():
    yield
    assert obs.current() is None


def _single(backend, **kw):
    return SimJob(method="jacobi", shape=(5, 5, 5), backend=backend,
                  **FAST, **kw)


def _multi(backend):
    return SimJob(method="jacobi", shape=(4, 4, 8), hypercube_dim=2,
                  backend=backend, **FAST)


class TestRecordTierStamp:
    def test_fast_single_node_stamps_fused(self):
        record = execute_job(_single("fast").to_dict(), cache=ProgramCache())
        assert record["ok"]
        assert record["tier"] == "fused"

    def test_reference_single_node_stamps_reference(self):
        record = execute_job(_single("reference").to_dict(),
                             cache=ProgramCache())
        assert record["ok"]
        assert record["tier"] == "reference"

    def test_fast_falls_back_to_reference_when_fusion_declines(
        self, monkeypatch
    ):
        def decline(*args, **kwargs):
            raise progplan.FusionUnsupported("declined for the test")

        monkeypatch.setattr(batchplan, "compiled_plan", decline)
        record = execute_job(_single("fast").to_dict(), cache=ProgramCache())
        assert record["ok"]
        assert record["tier"] == "reference"
        assert record["fallback_reason"] == "declined for the test"

    def test_multinode_tiers(self):
        fast = execute_job(_multi("fast").to_dict(), cache=ProgramCache())
        ref = execute_job(_multi("reference").to_dict(),
                          cache=ProgramCache())
        assert fast["ok"] and ref["ok"]
        assert fast["tier"] == "fused"
        assert ref["tier"] == "reference"

    def test_multinode_decline_stamps_reference_and_reason(
        self, monkeypatch
    ):
        def decline(stencil):
            raise progplan.FusionUnsupported("declined for the test")

        monkeypatch.setattr(progplan, "fused_stepper", decline)
        record = execute_job(_multi("fast").to_dict(), cache=ProgramCache())
        assert record["ok"]
        assert record["tier"] == "reference"
        assert record["fallback_reason"] == "declined for the test"


def _traced_job(monkeypatch, job):
    """Run *job* through :func:`execute_job`; return its record, the
    job's own tracer and the events that tracer emitted."""
    from types import SimpleNamespace

    from repro.service import runner

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


class TestTierCounters:
    def test_fused_run_counts_tier_fused(self, monkeypatch):
        record, tracer, _events = _traced_job(monkeypatch, _single("fast"))
        assert record["ok"]
        assert tracer.counters["tier.fused"] == 1
        assert "tier.reference" not in tracer.counters
        assert tracer.annotations["tier"] == "fused"

    def test_reference_run_counts_tier_reference(self):
        from repro.codegen.generator import MicrocodeGenerator
        from repro.compose.jacobi import (
            build_jacobi_program,
            load_jacobi_inputs,
        )
        from repro.arch.node import NodeConfig

        node = NodeConfig()
        setup = build_jacobi_program(node, (6, 6, 6), eps=1e-4,
                                     max_iterations=15)
        program = MicrocodeGenerator(node).generate(setup.program)
        rng = np.random.default_rng(7)
        machine = NSCMachine(node)
        machine.load_program(program)
        load_jacobi_inputs(machine, setup, rng.random((6, 6, 6)),
                           rng.standard_normal((6, 6, 6)))
        tracer = Tracer()
        with obs.use(tracer):
            machine.run()
        assert tracer.counters["tier.reference"] == 1
        assert tracer.annotations["tier"] == "reference"

    def test_mid_run_rejection_records_fallback_tier_and_reason(
        self, monkeypatch
    ):
        # the compiler accepts the program, then a FusionUnsupported
        # surfaces mid-execution — the job must land on the reference
        # tier with the decline's reason on record
        calls = {"n": 0}
        real_issue = progplan.BoundImage.issue_compute

        def flaky_issue(self):
            calls["n"] += 1
            if calls["n"] == 4:
                raise progplan.FusionUnsupported("injected mid-run")
            return real_issue(self)

        monkeypatch.setattr(progplan.BoundImage, "issue_compute",
                            flaky_issue)
        record, tracer, events = _traced_job(monkeypatch, _single("fast"))
        assert calls["n"] >= 4  # the rejection really fired mid-run
        assert record["ok"] and record["converged"] is not None
        assert tracer.counters["fusion.fallback"] == 1
        assert tracer.counters["tier.reference"] == 1
        assert "tier.fused" not in tracer.counters
        assert tracer.annotations["tier"] == "reference"
        assert tracer.annotations["fallback_reason"] == "injected mid-run"
        [event] = [e for e in events if e["type"] == "fusion_fallback"]
        assert event["reason"] == "injected mid-run"


class TestRecordSchema:
    def test_every_record_carries_full_timings_and_tier(self):
        runner = BatchRunner(workers=1)
        records, _ = runner.run([_single("fast"), _single("reference")])
        for record in records:
            assert tuple(record["timings"]) == STAGES
            assert record["tier"] in ("fused", "reference")
            assert record["duration_s"] > 0.0
        fast, ref = records
        assert fast["timings"]["compile"] > 0.0  # first compile is real
        assert fast["timings"]["execute"] > 0.0

    def test_failed_job_still_carries_schema(self):
        # nz=7 does not divide across 4 nodes: the job fails in-process
        bad = SimJob(method="jacobi", shape=(5, 5, 7), hypercube_dim=2,
                     **FAST)
        records, summary = BatchRunner(workers=1).run([bad])
        assert summary.failed == 1
        [record] = records
        assert tuple(record["timings"]) == STAGES
        assert record["tier"] is None

    def test_cache_and_plan_counters_flow_to_tracer(self):
        cache = ProgramCache()
        spec = _single("fast").to_dict()
        outer = Tracer()
        # execute_job activates its own per-job tracer, so drive the
        # cache directly for counter assertions
        execute_job(spec, cache=cache)
        with obs.use(outer):
            execute_job(spec, cache=cache)
            value = cache.get_or_compile(
                SimJob.from_dict(spec).cache_key(), lambda: None
            )
        assert value is not None
        assert outer.counters["cache.hit"] == 1
        assert outer.span_counts["compile"] == 1

    def test_pool_records_with_kept_fields_keep_schema(self):
        jobs = [SimJob(method="jacobi", shape=(5, 5, 5), backend="fast",
                       keep_fields=True, label=f"pool#{i}", **FAST)
                for i in range(2)]
        runner = BatchRunner(workers=2)
        records, summary = runner.run(jobs)
        assert summary.failed == 0
        for record in records:
            assert tuple(record["timings"]) == STAGES
            assert record["tier"] == "fused"
            # the kept-field copy out of the engine is the transport stage
            assert record["timings"]["transport"] > 0.0
            assert record["duration_s"] > 0.0
        assert runner.last_telemetry is not None
