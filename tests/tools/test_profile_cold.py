"""Smoke test: the cold-start profiler runs and reports every sub-stage."""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import profile_cold  # noqa: E402


def test_profile_cold_reports_every_stage(capsys):
    assert profile_cold.main(["-n", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["programs"] == 3
    p50 = report["p50_ms"]
    assert set(p50) == set(profile_cold.STAGES) | {"total", "batch",
                                                   "service"}
    # bind is split: storage setup and runner code generation
    assert {"storage", "runner"} <= set(p50)
    # the compile reads one frozen view per pipeline
    assert {"freeze", "check", "generate"} <= set(p50)
    # service is a difference of two p50s; every timed row is a time
    assert all(value >= 0.0 for stage, value in p50.items()
               if stage != "service")
    assert p50["total"] > 0.0
    # the serial BatchRunner row times the same sample as a service job,
    # and service names what the sub-stages leave out of it
    assert p50["batch"] > 0.0
    assert p50["service"] == p50["batch"] - p50["total"]
    # the cProfile pass over the same programs counts calls per job
    assert report["calls_per_job"] > 0.0


def test_sample_is_seeded_and_distinct():
    first = profile_cold.sample(20, seed=7)
    assert first == profile_cold.sample(20, seed=7)
    assert len(set(first)) == 20
