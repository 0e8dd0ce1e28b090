"""The offline aggregators behind ``nsc-vpe stats``."""

from repro.obs.stats import (
    aggregate_history,
    aggregate_records,
    format_history_stats,
    format_record_stats,
)
from repro.obs.tracer import STAGES


def _job_record(tier="fused", ok=True, **extra):
    record = {
        "ok": ok,
        "tier": tier,
        "timings": {"compile": 0.1, "check": 0.02, "bind": 0.05,
                    "execute": 0.5, "transport": 0.0},
        "duration_s": 0.7,
        "cache_hit": True,
    }
    record.update(extra)
    return record


class TestAggregateRecords:
    def test_sums_stages_tiers_and_cache(self):
        records = [
            _job_record(),
            _job_record(tier="reference", cache_hit=False,
                        fallback_reason="injected"),
            _job_record(tier=None, ok=False),
        ]
        stats = aggregate_records(records)
        assert stats["jobs"] == 3
        assert stats["ok"] == 2 and stats["failed"] == 1
        assert stats["timings"]["execute"] == 1.5
        assert stats["timings_mean"]["execute"] == 0.5
        assert stats["tiers"] == {"fused": 1, "reference": 1}
        assert stats["fallbacks"] == 1
        assert stats["cache"] == {"hits": 2, "misses": 1}
        assert stats["duration_s"] == 2.1

    def test_empty_and_schemaless_records(self):
        stats = aggregate_records([])
        assert stats["jobs"] == 0
        assert set(stats["timings"]) == set(STAGES)
        # pre-telemetry records (no timings/tier keys) still aggregate
        stats = aggregate_records([{"ok": True}])
        assert stats["jobs"] == 1
        assert stats["tiers"] == {}

    def test_format_mentions_every_stage(self):
        text = format_record_stats(aggregate_records([_job_record()]))
        for stage in STAGES:
            assert stage in text
        assert "fused=1" in text


class TestAggregateHistory:
    def test_per_series_latest_and_median(self):
        entries = [
            {"scenario": "a", "quick": True, "speedup": s}
            for s in (2.0, 4.0, 3.0)
        ] + [{"scenario": "a", "quick": False, "speedup": 10.0}]
        summaries = aggregate_history(entries)
        assert len(summaries) == 2  # quick and full trend separately
        quick = next(s for s in summaries if s["quick"])
        assert quick["runs"] == 3
        assert quick["metrics"]["speedup"] == {
            "latest": 3.0, "median": 3.0, "best": 4.0
        }

    def test_window_bounds_the_median(self):
        entries = [
            {"scenario": "a", "quick": True, "speedup": s}
            for s in (100.0, 1.0, 1.0, 1.0)
        ]
        [summary] = aggregate_history(entries, window=3)
        assert summary["metrics"]["speedup"]["median"] == 1.0
        assert summary["metrics"]["speedup"]["best"] == 100.0

    def test_format_empty_and_full(self):
        assert aggregate_history([]) == []
        assert "empty" in format_history_stats([])
        text = format_history_stats(
            aggregate_history([{"scenario": "a", "quick": False,
                                "speedup": 2.0}])
        )
        assert "a [full]: 1 runs" in text
        assert "latest 2.00x" in text
