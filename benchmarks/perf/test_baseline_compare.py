"""The bench baseline layer: distillation, comparison, regression gating.

Pure unit tests over synthetic records — no timing — plus a sanity check
that the committed baseline file parses and covers every scenario.
"""

import json
from pathlib import Path

from repro.bench import (
    REGRESSION_TOLERANCE,
    SCENARIOS,
    UNTIMED_SCENARIOS,
    baseline_from_records,
    compare_records,
    format_comparison,
    load_baseline,
    write_baseline,
)

BASELINE_PATH = Path(__file__).parent / "baseline.json"


def _record(name, speedup, quick=True, **extra):
    return {"scenario": name, "quick": quick, "speedup": speedup, **extra}


class TestBaselineRoundTrip:
    def test_distill_and_write(self, tmp_path):
        records = [_record("a", 2.0), _record("b", 5.0)]
        path = write_baseline(records, str(tmp_path / "base.json"))
        loaded = load_baseline(str(path))
        assert loaded["tolerance"] == REGRESSION_TOLERANCE
        assert loaded["scenarios"]["a"] == {"speedup": 2.0}
        assert loaded["scenarios"]["b"] == {"speedup": 5.0}


class TestComparison:
    def test_within_tolerance_passes(self):
        baseline = baseline_from_records([_record("a", 2.0)])
        comparison = compare_records([_record("a", 1.7)], baseline)
        assert comparison["ok"]
        assert comparison["entries"][0]["floor"] == 2.0 * 0.8

    def test_regression_fails(self):
        baseline = baseline_from_records([_record("a", 2.0)])
        comparison = compare_records([_record("a", 1.5)], baseline)
        assert not comparison["ok"]
        assert "REGRESSION" in format_comparison(comparison)

    def test_retired_vs_unfused_metric_is_not_gated(self):
        """A baseline written before ``speedup_vs_unfused`` was retired
        still compares: only ``speedup`` is guarded."""
        baseline = {
            "tolerance": REGRESSION_TOLERANCE,
            "quick": True,
            "scenarios": {"a": {"speedup": 5.0, "speedup_vs_unfused": 5.0}},
        }
        comparison = compare_records(
            [_record("a", 5.2, speedup_vs_unfused=3.0)], baseline
        )
        assert comparison["ok"]
        assert [e["metric"] for e in comparison["entries"]] == ["speedup"]

    def test_new_scenario_reported_not_failed(self):
        baseline = baseline_from_records([_record("a", 2.0)])
        comparison = compare_records(
            [_record("a", 2.0), _record("brand_new", 9.0)], baseline
        )
        assert comparison["ok"]
        notes = [e.get("note") for e in comparison["entries"]]
        assert "not in baseline" in notes

    def test_improvement_always_passes(self):
        baseline = baseline_from_records([_record("a", 2.0)])
        assert compare_records([_record("a", 40.0)], baseline)["ok"]

    def test_baselined_scenario_missing_from_run_is_explicit(self):
        """A scenario in the baseline that the run never produced gets
        its own entry — visible, passing (partial --scenarios runs are
        legitimate), never silently skipped."""
        baseline = baseline_from_records(
            [_record("a", 2.0), _record("b", 5.0)]
        )
        comparison = compare_records([_record("a", 2.0)], baseline)
        assert comparison["ok"]
        missing = [e for e in comparison["entries"]
                   if e.get("note") == "scenario missing from run"]
        assert [(e["scenario"], e["metric"]) for e in missing] == [
            ("b", "speedup")
        ]
        for entry in missing:
            assert entry["current"] is None
            assert entry["baseline"] is not None
            assert entry["ok"]
        text = format_comparison(comparison)
        assert "(no run)" in text
        assert "scenario missing from run" in text

    def test_empty_run_reports_every_baselined_scenario(self):
        baseline = baseline_from_records([_record("a", 2.0)])
        comparison = compare_records([], baseline)
        assert comparison["ok"]
        [entry] = comparison["entries"]
        assert entry["scenario"] == "a"
        assert entry["note"] == "scenario missing from run"

    def test_presence_diff_is_symmetric(self):
        """Missing-from-run and missing-from-baseline both surface."""
        baseline = baseline_from_records([_record("gone", 2.0)])
        comparison = compare_records([_record("new", 3.0)], baseline)
        assert comparison["ok"]
        notes = {e["scenario"]: e["note"] for e in comparison["entries"]}
        assert notes == {
            "gone": "scenario missing from run",
            "new": "not in baseline",
        }

    def test_workload_class_mismatch_reported_not_gated(self):
        """A full run against a quick baseline measures different
        problems; it must be flagged, never failed."""
        baseline = baseline_from_records([_record("a", 9.0, quick=True)])
        comparison = compare_records(
            [_record("a", 1.0, quick=False)], baseline
        )
        assert comparison["ok"]
        entry = comparison["entries"][0]
        assert entry["baseline"] is None
        assert "workload class" in entry["note"]
        assert "workload class" in format_comparison(comparison)


class TestCommittedBaseline:
    def test_exists_and_covers_all_scenarios(self):
        baseline = load_baseline(str(BASELINE_PATH))
        # every *timed* scenario has a committed floor; untimed
        # check-only scenarios have no speedup to gate
        assert set(baseline["scenarios"]) == \
            set(SCENARIOS) - UNTIMED_SCENARIOS
        assert baseline["quick"] is True
        for entry in baseline["scenarios"].values():
            assert entry["speedup"] > 0

    def test_committed_file_is_normalized_json(self):
        raw = BASELINE_PATH.read_text(encoding="utf-8")
        parsed = json.loads(raw)
        assert raw == json.dumps(parsed, indent=2, sort_keys=True) + "\n"
