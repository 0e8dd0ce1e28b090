"""History maintenance and the rolling-window regression detector."""

import json

import pytest

from repro.obs.alerts import (
    AlertTrigger,
    RegressionDetector,
    append_history,
    detect_alerts,
    format_alerts,
    history_entries,
    load_history,
    write_alerts,
)


def _record(speedup, scenario="jacobi_single", quick=True, **extra):
    record = {
        "scenario": scenario,
        "quick": quick,
        "ok": True,
        "speedup": speedup,
        "backends": {
            "reference": {"wall_s": 1.0},
            "fast": {"wall_s": 1.0 / speedup},
        },
    }
    record.update(extra)
    return record


def _seed(path, speedups, **kw):
    for s in speedups:
        append_history([_record(s, **kw)], str(path), timestamp=0.0)


class TestHistoryFile:
    def test_entries_distill_metrics_and_walls(self):
        [entry] = history_entries([_record(4.0)], timestamp=123.0)
        assert entry == {
            "ts": 123.0,
            "scenario": "jacobi_single",
            "quick": True,
            "ok": True,
            "speedup": 4.0,
            "wall_s": {"reference": 1.0, "fast": 0.25},
        }

    def test_history_with_retired_metric_still_evaluates(self, tmp_path):
        """Older entries carry ``speedup_vs_unfused``, a metric the bench
        no longer reports: they load and evaluate on ``speedup`` alone."""
        path = tmp_path / "history.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for _ in range(3):
                fh.write(json.dumps({
                    "ts": 0.0, "scenario": "jacobi_converge", "quick": True,
                    "ok": True, "speedup": 5.0, "speedup_vs_unfused": 5.5,
                }) + "\n")
        _seed(path, [5.1], scenario="jacobi_converge")
        entries = load_history(str(path))
        assert [("speedup_vs_unfused" in e) for e in entries] \
            == [True, True, True, False]
        alerts = detect_alerts(entries)
        assert alerts["ok"]
        assert [(s["metric"], s["window_size"]) for s in alerts["evaluated"]] \
            == [("speedup", 3)]

    def test_append_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        _seed(path, [3.0, 4.0])
        entries = load_history(str(path))
        assert [e["speedup"] for e in entries] == [3.0, 4.0]

    def test_load_skips_garbage_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        _seed(path, [3.0])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{truncated by a killed CI ru\n")
            fh.write('"not a dict"\n')
            fh.write(json.dumps({"no_scenario": True}) + "\n")
        _seed(path, [4.0])
        assert len(load_history(str(path))) == 2

    def test_missing_file_reads_empty(self, tmp_path):
        assert load_history(str(tmp_path / "nope.jsonl")) == []


class TestTriggerValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AlertTrigger(window=0)
        with pytest.raises(ValueError):
            AlertTrigger(min_samples=0)
        with pytest.raises(ValueError):
            AlertTrigger(window=3, min_samples=4)
        with pytest.raises(ValueError):
            AlertTrigger(drop=1.0)


class TestDetector:
    def test_synthetic_slow_run_fires(self, tmp_path):
        # the acceptance scenario: a healthy trend, then one slow run
        path = tmp_path / "history.jsonl"
        _seed(path, [5.0, 5.1, 4.9, 5.2, 1.0])
        alerts = detect_alerts(load_history(str(path)))
        assert not alerts["ok"]
        [fired] = alerts["fired"]
        assert fired["scenario"] == "jacobi_single"
        assert fired["metric"] == "speedup"
        assert fired["current"] == 1.0
        assert "fell below" in fired["reason"]

    def test_healthy_trend_is_quiet(self, tmp_path):
        path = tmp_path / "history.jsonl"
        _seed(path, [5.0, 5.1, 4.9, 5.2, 5.0])
        alerts = detect_alerts(load_history(str(path)))
        assert alerts["ok"]
        assert alerts["fired"] == []
        assert alerts["evaluated"]  # the check itself is on record

    def test_insufficient_history_never_fires(self, tmp_path):
        # two prior runs < min_samples=3: even a huge drop stays quiet
        path = tmp_path / "history.jsonl"
        _seed(path, [5.0, 5.0, 0.5])
        alerts = detect_alerts(load_history(str(path)))
        assert alerts["ok"]
        [status] = alerts["evaluated"]
        assert "insufficient history" in status["note"]

    def test_median_resists_one_outlier_in_window(self, tmp_path):
        # one anomalously *fast* prior run must not raise the floor
        path = tmp_path / "history.jsonl"
        _seed(path, [5.0, 5.0, 50.0, 5.0, 4.5])
        assert detect_alerts(load_history(str(path)))["ok"]

    def test_quick_and_full_trend_separately(self, tmp_path):
        # a slow quick run fires even though full runs look healthy
        path = tmp_path / "history.jsonl"
        _seed(path, [8.0, 8.0, 8.0, 8.0], quick=False)
        _seed(path, [5.0, 5.0, 5.0, 1.0], quick=True)
        alerts = detect_alerts(load_history(str(path)))
        [fired] = alerts["fired"]
        assert fired["quick"] is True

    def test_window_bounds_the_lookback(self, tmp_path):
        # ancient glory days beyond the window are forgotten: a series
        # that has *stabilized* lower does not alert forever
        path = tmp_path / "history.jsonl"
        _seed(path, [9.0, 9.0, 9.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.1])
        trigger = AlertTrigger(metric="speedup", window=5, min_samples=3,
                               drop=0.25)
        assert RegressionDetector([trigger]).detect(
            load_history(str(path))
        )["ok"]

    def test_metric_absent_from_series_is_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        _seed(path, [5.0, 5.0, 5.0, 5.0, 5.0])
        alerts = detect_alerts(load_history(str(path)))
        # only metrics the series carries are evaluated
        assert {s["metric"] for s in alerts["evaluated"]} == {"speedup"}


class TestArtifacts:
    def test_write_alerts_emits_json(self, tmp_path):
        alerts = {"ok": True, "fired": [], "evaluated": []}
        path = write_alerts(alerts, str(tmp_path / "out"))
        assert path.name == "BENCH_alerts.json"
        assert json.loads(path.read_text()) == alerts

    def test_format_alerts_reports_fired_and_warmup(self, tmp_path):
        path = tmp_path / "history.jsonl"
        _seed(path, [5.0, 5.0, 5.0, 5.0, 1.0])
        text = format_alerts(detect_alerts(load_history(str(path))))
        assert "1 FIRED" in text
        assert "ALERT" in text
        _seed(path, [5.0], scenario="fresh")
        quiet = format_alerts(
            detect_alerts([e for e in load_history(str(path))
                           if e["scenario"] == "fresh"])
        )
        assert "ok" in quiet
        assert "insufficient history" in quiet
