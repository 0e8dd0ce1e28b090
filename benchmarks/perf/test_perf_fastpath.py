"""Perf suite: backend parity and BENCH artifact generation.

Runs the ``nsc-vpe bench`` scenarios in their quick configuration and
asserts the contract CI relies on: both backends agree exactly, and every
scenario emits a machine-readable ``BENCH_<scenario>.json``.  Artifacts go
to a temporary directory — the tracked tree stays clean.
"""

import json

import warnings

from repro.bench import SCENARIOS, format_record, run_bench, run_scenario
from repro.sim.fastpath import BACKENDS


def test_quick_scenarios_agree_and_emit_artifacts(tmp_path):
    records = run_bench(quick=True, out_dir=str(tmp_path))
    assert [r["scenario"] for r in records] == list(SCENARIOS)
    for record in records:
        assert record["ok"], (
            f"backend disagreement in {record['scenario']}: {record['checks']}"
        )
        path = tmp_path / f"BENCH_{record['scenario']}.json"
        assert path.exists()
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk["scenario"] == record["scenario"]
        line = format_record(record)
        if record.get("untimed"):
            # check-only scenario: no backend sides, no speedup
            assert record["checks"] and all(record["checks"].values())
            assert "checks ok" in line
            continue
        assert record["speedup"] > 0
        # batch_shm's sides are transports (pickle vs shm), not backends
        pair = on_disk.get("speedup_pair", ["reference", "fast"])
        assert set(on_disk["backends"]) >= set(pair)
        assert "parity ok" in line
    by_name = {r["scenario"]: r for r in records}
    assert set(by_name["jacobi_converge"]["backends"]) == set(BACKENDS)
    scaling = by_name["hypercube_scaling"]["scaling"]
    assert [entry["n_nodes"] for entry in scaling] == [8, 16, 32, 64]


def test_fused_coverage_quick_emits_no_runtime_warning():
    """The NaN/inf parity runs scope numpy's warnings, so a real
    RuntimeWarning would stand out in bench output."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = run_scenario("fused_coverage", quick=True)
    assert record["ok"], record["checks"]
