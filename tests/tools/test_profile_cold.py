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
    # the stages that handle each image once are also timed per image
    assert report["images_per_job"] >= 1.0
    per_image = report["per_image_us"]
    assert set(per_image) == set(profile_cold.PER_IMAGE)
    assert all(value >= 0.0 for value in per_image.values())


def test_per_image_rows_divide_each_program_by_its_images(monkeypatch):
    """A per-image row is each program's stage time over its own image
    count, then the p50: with every stage at 3 ms on a 3-image program
    and 2 ms on a 1-image one, per image is 1 ms and 2 ms: p50 1.5 ms."""
    runs = iter([({stage: 3e-3 for stage in profile_cold.STAGES}, 3),
                 ({stage: 2e-3 for stage in profile_cold.STAGES}, 1)])

    def fake_profile_one(program, params, spent, store):
        if program[1] == 4:  # the warm-up programs
            return {stage: 0.0 for stage in profile_cold.STAGES}, 1
        return next(runs)

    monkeypatch.setattr(profile_cold, "profile_one", fake_profile_one)
    monkeypatch.setattr(profile_cold, "time_batch",
                        lambda programs, store: [1.0] * len(programs))
    monkeypatch.setattr(profile_cold, "count_calls",
                        lambda programs, params, store: 7.0)
    report = profile_cold.profile(2, seed=0)
    assert report["images_per_job"] == 2.0
    assert report["per_image_us"] == {stage: 1500.0
                                      for stage in profile_cold.PER_IMAGE}
    assert report["calls_per_job"] == 7.0


def test_sample_is_seeded_and_distinct():
    first = profile_cold.sample(20, seed=7)
    assert first == profile_cold.sample(20, seed=7)
    assert len(set(first)) == 20
