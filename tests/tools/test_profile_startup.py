"""Smoke test: the start-up profiler runs fresh processes and reports."""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import profile_startup  # noqa: E402

#: Frozen dataclasses a fast cold job may load.  Every other immutable
#: record is a NamedTuple (docs/ARCHITECTURE.md, *Records*):
#: ``Endpoint`` interns and pickles by value (tests/arch/test_switch.py),
#: and ``DMAProgram`` loads its old-layout disk entries
#: (tests/service/test_cache_old_layout.py).
KEPT_FROZEN_DATACLASSES = [
    "repro.arch.dma.DMAProgram",
    "repro.arch.switch.Endpoint",
]


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
    assert p50["dataclasses"] == int(p50["dataclasses"])
    assert p50["dataclasses"] >= len(KEPT_FROZEN_DATACLASSES)
    assert p50["first_jobs_ms"] > 0


def test_cold_jobs_load_no_frozen_dataclass_outside_the_kept_list():
    report = profile_startup.child_report(profile_startup._env())
    assert report["failed"] == 0
    assert report["frozen_dataclasses"] == KEPT_FROZEN_DATACLASSES
    assert report["dataclasses"] > len(KEPT_FROZEN_DATACLASSES)
