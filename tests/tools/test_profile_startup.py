"""Smoke test: the start-up profiler runs fresh processes and reports."""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import profile_startup  # noqa: E402


def test_profile_startup_reports_every_metric(capsys):
    assert profile_startup.main(["-n", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["runs"] == 1 and report["failed"] == 0
    p50 = report["p50"]
    assert set(p50) == set(profile_startup.METRICS)
    assert all(value > 0 for value in p50.values())
    # the jobs import more of the package than the service stack alone
    assert p50["job_modules"] > p50["import_modules"]
    assert p50["job_rss_mb"] >= p50["import_rss_mb"]
