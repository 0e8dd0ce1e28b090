"""Batch fusion through the service: slabs, fallbacks, stamps, CLI.

``batch_fusion="auto"`` must be invisible in everything a job computes —
records identical to the ``"off"`` path modulo the execution-tier stamps
and wall-clock — while being fully visible in the telemetry: slab jobs
carry ``tier="batch_fused"`` + ``slab_size``, declined slabs fall back
per job with the reason recorded, and the stats aggregator reports the
slab mix.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.obs.stats import aggregate_records, format_record_stats
from repro.service.jobs import SimJob
from repro.service.runner import BatchRunner
from repro.service.sweep import SweepSpec
from repro.sim import batchplan
from repro.sim.progplan import FusionUnsupported

#: keys that legitimately differ between the off and auto paths: wall
#: clock, and the tier stamps naming which engine ran
_TIER_KEYS = ("duration_s", "timings", "tier", "slab_size",
              "fallback_reason")


def _comparable(record):
    return {k: v for k, v in record.items() if k not in _TIER_KEYS}


def _mixed_jobs():
    fast = dict(eps=1e-3, max_sweeps=500, backend="fast")
    return (
        [SimJob(method="jacobi", shape=(5, 5, 5), u0_seed=s, **fast)
         for s in range(3)]
        + [SimJob(method="rb-gs", shape=(5, 5, 5), **fast)]
        + [SimJob(method="jacobi", shape=(5, 5, 5), eps=1e-3,
                  max_sweeps=500, backend="reference")]
    )


def _run(jobs, mode, **kwargs):
    runner = BatchRunner(workers=1, batch_fusion=mode, **kwargs)
    return runner.run(jobs)


class TestAutoMatchesOff:
    def test_mixed_batch_records_identical(self):
        jobs = _mixed_jobs()
        off_records, off_summary = _run(jobs, "off")
        auto_records, auto_summary = _run(jobs, "auto")
        assert [_comparable(r) for r in off_records] \
            == [_comparable(r) for r in auto_records]
        assert off_summary.total_cycles == auto_summary.total_cycles
        assert off_summary.succeeded == auto_summary.succeeded == len(jobs)

    def test_tier_stamps_name_the_engines(self):
        records, _ = _run(_mixed_jobs(), "auto")
        tiers = [r["tier"] for r in records]
        # three seeded same-program jacobi jobs slab; the rb-gs job is a
        # singleton (per-job fused); the reference job never fuses
        assert tiers == ["batch_fused"] * 3 + ["fused", "reference"]
        assert [r.get("slab_size") for r in records[:3]] == [3, 3, 3]
        assert all("slab_size" not in r for r in records[3:])

    def test_cache_hits_match_off_path(self):
        jobs = _mixed_jobs()
        off_records, _ = _run(jobs, "off")
        auto_records, _ = _run(jobs, "auto")
        assert [r.get("cache_hit") for r in off_records] \
            == [r.get("cache_hit") for r in auto_records]

    def test_keep_fields_rides_the_slab(self):
        fast = dict(eps=1e-3, max_sweeps=500, backend="fast",
                    keep_fields=True)
        jobs = [SimJob(method="jacobi", shape=(5, 5, 6), u0_seed=s, **fast)
                for s in range(2)]
        off_records, _ = _run(jobs, "off")
        auto_records, _ = _run(jobs, "auto")
        assert all(r["tier"] == "batch_fused" for r in auto_records)
        for off, auto in zip(off_records, auto_records):
            np.testing.assert_array_equal(
                off["fields"]["u"], auto["fields"]["u"]
            )
            assert auto["fields"]["u"].shape == (6, 5, 5)

    def test_slab_mix_in_stats(self):
        records, _ = _run(_mixed_jobs(), "auto")
        stats = aggregate_records(records)
        assert stats["tiers"]["batch_fused"] == 3
        assert stats["slabs"] == {
            "jobs": 3, "slabs": 1, "sizes": {"3": 3},
        }
        assert "3 batch-fused jobs across 1 slabs" \
            in format_record_stats(stats)


class TestSlabStreaming:
    def test_store_holds_each_unit_before_the_next_runs(
        self, tmp_path, monkeypatch
    ):
        """Slab records, and each per-job record, reach the store as
        their unit finishes — not at the end of the round."""
        from repro.service import runner, slab
        from repro.service.results import ResultStore

        fast = dict(eps=1e-3, max_sweeps=500, backend="fast")
        jobs = (
            [SimJob(method="jacobi", shape=(5, 5, 5), u0_seed=s, **fast)
             for s in range(2)]
            + [SimJob(method="rb-gs", shape=(5, 5, 5), u0_seed=s, **fast)
               for s in range(2)]
            + [SimJob(method="jacobi", shape=(5, 5, 5), eps=1e-3,
                      max_sweeps=500, backend="reference")]
        )
        store = ResultStore(str(tmp_path / "results.jsonl"))
        stored_at_start = []

        def spy(real):
            def wrapper(*args, **kwargs):
                stored_at_start.append(len(store.load()))
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(slab, "execute_slab", spy(slab.execute_slab))
        monkeypatch.setattr(runner, "execute_job", spy(runner.execute_job))
        records, summary = BatchRunner(
            workers=1, store=store, batch_fusion="auto"
        ).run(jobs)
        assert summary.succeeded == len(jobs)
        assert [r["tier"] for r in records] \
            == ["batch_fused"] * 4 + ["reference"]
        # slab 1, then slab 2, then the reference job
        assert stored_at_start == [0, 2, 4]
        assert len(store.load()) == len(jobs)


class TestDeclinedSlabFallback:
    def test_mid_slab_decline_falls_back_per_job(self, monkeypatch):
        """A slab that declines mid-run must yield records identical to
        the off path, plus the recorded decline reason."""
        real_run = batchplan.BatchProgramRun.run

        def failing_run(self):
            # slabs only: a single job runs on the same engine
            if self.n_jobs > 1:
                raise FusionUnsupported("injected mid-slab")
            return real_run(self)

        jobs = _mixed_jobs()
        off_records, _ = _run(jobs, "off")
        monkeypatch.setattr(batchplan.BatchProgramRun, "run", failing_run)
        auto_records, auto_summary = _run(jobs, "auto")
        monkeypatch.setattr(batchplan.BatchProgramRun, "run", real_run)
        assert auto_summary.succeeded == len(jobs)

        # the slab's compile stage warms the shared program cache before
        # the decline, so the fallback's compile-history keys (cache_hit,
        # checker) legitimately differ from a cold off run — the same
        # reason the bench treats them as backend-dependent.  Everything
        # the jobs computed must still be identical.
        def computed(record):
            return {k: v for k, v in _comparable(record).items()
                    if k not in ("cache_hit", "checker")}

        assert [computed(r) for r in off_records] \
            == [computed(r) for r in auto_records]
        # the fallback ran the real fused tier and said why
        assert [r["tier"] for r in auto_records[:3]] == ["fused"] * 3
        for record in auto_records[:3]:
            assert record["fallback_reason"] \
                == "batch_fusion: injected mid-slab"
        # non-slab jobs never gain a decline stamp
        assert all("fallback_reason" not in r for r in auto_records[3:])

    def test_unexpected_exception_also_falls_back(self, monkeypatch):
        real_run = batchplan.BatchProgramRun.run

        def exploding_run(self):
            if self.n_jobs > 1:
                raise RuntimeError("boom")
            return real_run(self)

        monkeypatch.setattr(batchplan.BatchProgramRun, "run",
                            exploding_run)
        records, summary = _run(_mixed_jobs(), "auto")
        assert summary.succeeded == len(records)
        assert records[0]["fallback_reason"] \
            == "batch_fusion: RuntimeError: boom"


class TestSerialFailureCapture:
    @pytest.mark.parametrize("mode", ["off", "auto"])
    def test_missing_saved_program_is_a_failure_record(self, mode, tmp_path):
        """An exception escaping execute_job (here: hashing a missing
        program file) fails that job only, under either mode."""
        missing = SimJob(method="program",
                         program_path=str(tmp_path / "missing.json"))
        jobs = _mixed_jobs()[:3] + [missing]
        records, summary = _run(jobs, mode)
        assert (summary.succeeded, summary.failed) == (3, 1)
        failed = records[-1]
        assert failed["ok"] is False
        assert failed["error_type"] == "FileNotFoundError"
        assert failed["tier"] is None


class TestSweepSeedAxis:
    def test_seeds_expand_innermost(self):
        spec = SweepSpec(grids=(5,), methods=("jacobi",), seeds=(0, 1, 2),
                         backend="fast")
        jobs = spec.expand()
        assert [j.u0_seed for j in jobs] == [0, 1, 2]
        assert [j.label for j in jobs] == [
            "jacobi-n5-d0-fast-s0",
            "jacobi-n5-d0-fast-s1",
            "jacobi-n5-d0-fast-s2",
        ]
        assert spec.axis_product == 3
        assert "3 seeds" in spec.describe()

    def test_seeds_skip_multinode_combinations(self):
        spec = SweepSpec(grids=(6,), methods=("jacobi",), dims=(0, 1),
                         seeds=(0, 1))
        assert spec.skipped() == {"seeds-apply-to-single-node-only": 2}
        assert all(j.hypercube_dim == 0 for j in spec.expand())

    def test_negative_seed_rejected(self):
        from repro.service.jobs import JobSpecError

        with pytest.raises(JobSpecError, match="seed -1"):
            SweepSpec(seeds=(-1,))

    def test_bad_batch_fusion_rejected(self):
        from repro.service.jobs import JobSpecError

        with pytest.raises(JobSpecError, match="batch_fusion"):
            SweepSpec(batch_fusion="always")


class TestCli:
    def test_sweep_batch_fusion_auto(self, capsys):
        assert main([
            "sweep", "--grids", "5", "--methods", "jacobi",
            "--seeds", "0,1", "--repeats", "1", "--eps", "1e-3",
            "--backend", "fast", "--batch-fusion", "auto",
        ]) == 0
        out = capsys.readouterr().out
        assert "tier=batch_fused" in out

    def test_sweep_negative_seed_exits_2(self, capsys):
        assert main([
            "sweep", "--grids", "5", "--methods", "jacobi",
            "--seeds", "-4", "--repeats", "1",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_batch_fusion_flag_rides_batch_command(self, tmp_path):
        import json

        specs = [
            SimJob(method="jacobi", shape=(5, 5, 5), eps=1e-3,
                   max_sweeps=500, backend="fast", u0_seed=s).to_dict()
            for s in range(2)
        ]
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(specs))
        results = tmp_path / "out.jsonl"
        assert main([
            "batch", str(path), "--batch-fusion", "auto",
            "--results", str(results),
        ]) == 0
        records = [json.loads(line)
                   for line in results.read_text().splitlines()]
        assert [r["tier"] for r in records] == ["batch_fused"] * 2
