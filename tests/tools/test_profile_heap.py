"""Smoke test: the heap profiler runs, and its program cache stays bounded."""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import profile_heap  # noqa: E402
from repro.sim import fastpath  # noqa: E402


def test_profile_heap_reports_a_bounded_cache(capsys, monkeypatch):
    monkeypatch.setattr(fastpath, "PROGRAM_CACHE_SIZE", 2)
    fastpath.PLAN_CACHE.clear()  # a lowered bound trims on the next insert
    assert profile_heap.main(["-n", "3", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["programs"] == 3 and report["failed"] == 0
    # three warm-up programs and three sampled ones, two kept
    assert report["cache"]["misses"] == 6
    assert report["cache"]["entries"] == 2
    assert report["cache"]["evictions"] == 4
    assert report["plan_cache"]["entries"] == 2
    assert report["gen2_collections"] >= 0
    assert report["gc_s"] >= report["gen2_s"] >= 0.0
    assert report["objects_after"] > 0
    # two cached programs, each a few tens of kB of compact entries
    assert 1.0 < report["retained_kb_per_program"] < 1000.0
