"""Smoke test: the simulator profiler runs and its sub-stages add up."""

import json
import random
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import profile_sim  # noqa: E402


def test_profile_sim_reports_every_stage(capsys):
    assert profile_sim.main(["-n", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ops"] == 1
    p50 = report["p50_ms"]
    assert set(p50) == set(profile_sim.STAGES) | {"total"}
    # both engines ran: kernels and bookkeeping of each are non-zero
    for stage in ("slab_kernel", "slab_condition", "slab_engine",
                  "slab_fold",
                  "multinode_setup", "multinode_kernel", "multinode_sweeps",
                  "halo"):
        assert p50[stage] > 0.0, stage
    # one op: the disjoint sub-stages sum to its wall time
    assert abs(sum(p50[s] for s in profile_sim.STAGES) - p50["total"]) < 1e-6
    # both engines issued: a positive kernel time per issue_compute call,
    # below the stage's whole op time
    for stage in profile_sim.PER_ISSUE:
        per_issue = report[f"{stage}_us_per_issue"]
        assert 0.0 < per_issue < p50[stage] * 1e3, stage


def test_step_counts_come_from_the_bound_kernels(capsys):
    """Counted from the images the engines issued, not timed: the
    hypercubes issue their mask load (no steps) then 20 sweeps of 12
    steps (the sweep's 13 minus the hoisted f * h^2: their issues
    always run the condition chain); every run hoists f * h^2 from each
    sweep image — one in a Jacobi run, two in an RB-SOR run (its red
    and black phases)."""
    assert profile_sim.main(["-n", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["multinode_passes_per_issue"] == 12 * 20 / 21
    assert report["multinode_hoisted_per_bind"] == 1.0
    # the Jacobi (12 steps) and RB-SOR slab sweeps (12 of 13: the PASS
    # of u is forwarded and has no step) and their one load issue each;
    # a settled Jacobi sweep runs 10 (its chain, u_new - u and the
    # residual's reduce, stays out), a settled red or black phase 11
    assert 9.5 < report["slab_passes_per_issue"] < 11.0
    assert report["slab_hoisted_per_bind"] == (1 + 2) / 2
    # nearly every slab sweep's condition is settled from witnesses
    assert report["slab_settled_frac"] >= 0.9


def test_step_counts_divide_by_issues_and_runs():
    raw = {"slab_kernel_calls": 4, "slab_passes": 30, "slab_binds": 2,
           "slab_hoisted": 3, "slab_tests": 4, "slab_settled": 3,
           "multinode_kernel_calls": 0}
    assert profile_sim.step_counts(raw) == {
        "slab_passes_per_issue": 7.5, "slab_hoisted_per_bind": 1.5,
        "slab_settled_frac": 0.75}
    assert profile_sim.step_counts({}) == {}


def test_per_issue_divides_kernel_seconds_by_calls():
    raw = {"slab_kernel": 0.006, "slab_kernel_calls": 300,
           "slab_condition": 0.003, "multinode_kernel": 0.0,
           "multinode_kernel_calls": 0}
    assert profile_sim.per_issue_us(raw) == {"slab_kernel": 20.0}
    # the multi-node kernel counts its issues' chains
    raw = {"multinode_kernel": 0.002, "multinode_condition": 0.001,
           "multinode_kernel_calls": 100}
    assert profile_sim.per_issue_us(raw) == {"multinode_kernel": 30.0}
    assert profile_sim.per_issue_us({}) == {}


def test_table_reports_per_issue_lines(capsys):
    assert profile_sim.main(["-n", "1"]) == 0
    out = capsys.readouterr().out
    for stage in profile_sim.PER_ISSUE:
        assert f"{stage}_us_per_issue" in out
    for engine in profile_sim.ENGINES:
        assert f"{engine}_passes_per_issue" in out
        assert f"{engine}_hoisted_per_bind" in out
    assert "slab_settled_frac" in out


def test_batches_are_seeded_and_sim_heavy_shaped():
    first = profile_sim.draw(random.Random(3))
    assert first == profile_sim.draw(random.Random(3))
    methods = sorted(j.method for j in first if j.hypercube_dim == 0)
    assert methods == ["jacobi"] * 4 + ["rb-sor"] * 2
    assert sorted(j.hypercube_dim for j in first if j.hypercube_dim) == [4, 6]
