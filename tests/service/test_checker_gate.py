"""run_checker: every compile is checked unless the mode is "never"."""

import pytest

from repro.checker.checker import Checker
from repro.service.cache import ProgramCache
from repro.service.jobs import CHECKER_MODES, JobSpecError, SimJob
from repro.service.results import ResultStore
from repro.service.runner import BatchRunner, execute_job
from repro.service.sweep import SweepSpec

FAST = dict(eps=1e-3, max_sweeps=500)


@pytest.fixture
def check_calls(monkeypatch):
    """Count (and still perform) every Checker.check_program call."""
    calls = []
    real = Checker.check_program

    def counting(self, program, *args, **kwargs):
        calls.append(program.name)
        return real(self, program, *args, **kwargs)

    monkeypatch.setattr(Checker, "check_program", counting)
    return calls


class TestSimJobValidation:
    def test_default_is_auto(self):
        assert SimJob().run_checker == "auto"
        assert SimJob().keep_fields is False

    def test_unknown_mode_rejected(self):
        with pytest.raises(JobSpecError, match="unknown run_checker"):
            SimJob(run_checker="sometimes")

    def test_keep_fields_rejected_for_saved_programs(self):
        with pytest.raises(JobSpecError, match="keep_fields"):
            SimJob(method="program", program_path="x.json",
                   keep_fields=True)

    def test_new_knobs_do_not_change_cache_key(self):
        plain = SimJob(shape=(5, 5, 5))
        tuned = SimJob(shape=(5, 5, 5), run_checker="never",
                       keep_fields=True)
        assert plain.cache_key() == tuned.cache_key()
        assert plain.job_id != tuned.job_id

    def test_roundtrips_through_dict(self):
        job = SimJob(shape=(5, 5, 5), run_checker="never", keep_fields=True)
        assert SimJob.from_dict(job.to_dict()) == job


class TestCheckerGating:
    def test_auto_and_static_recheck_after_clear(self, check_calls):
        cache = ProgramCache()
        job = SimJob(method="jacobi", shape=(5, 5, 5), **FAST)
        first = execute_job(job.to_dict(), cache=cache)
        assert first["checker"] == "ran"
        assert len(check_calls) == 1
        for n, mode in enumerate(("auto", "static"), start=2):
            cache.clear()  # forget the compiled program
            record = execute_job(dict(job.to_dict(), run_checker=mode),
                                 cache=cache)
            assert record["cache_hit"] is False
            assert record["checker"] == "ran"
            assert len(check_calls) == n
            assert (record["program_fingerprint"]
                    == first["program_fingerprint"])

    def test_cache_hit_reports_no_checker_at_all(self, check_calls):
        cache = ProgramCache()
        job = SimJob(method="jacobi", shape=(5, 5, 5), **FAST)
        execute_job(job.to_dict(), cache=cache)
        hit = execute_job(job.to_dict(), cache=cache)
        assert hit["cache_hit"] is True
        assert "checker" not in hit  # nothing compiled, nothing to gate

    def test_always_rechecks_even_when_verified(self, check_calls):
        cache = ProgramCache()
        job = SimJob(method="jacobi", shape=(5, 5, 5), **FAST)
        execute_job(job.to_dict(), cache=cache)
        cache.clear()
        spec = dict(job.to_dict(), run_checker="always")
        record = execute_job(spec, cache=cache)
        assert record["checker"] == "ran"
        assert len(check_calls) == 2

    def test_never_skips_and_leaves_no_trust_mark(self, check_calls):
        cache = ProgramCache()
        job = SimJob(method="jacobi", shape=(5, 5, 5),
                     run_checker="never", **FAST)
        record = execute_job(job.to_dict(), cache=cache)
        assert record["checker"] == "skipped"
        assert check_calls == []
        # an unchecked compile must not vouch for later auto compiles
        cache.clear()
        auto = execute_job(dict(job.to_dict(), run_checker="auto"),
                           cache=cache)
        assert auto["checker"] == "ran"
        assert len(check_calls) == 1

    def test_stale_trust_mark_triggers_checked_recompile(
        self, check_calls, tmp_path
    ):
        # files an older cache layout left behind vouch for nothing,
        # whether their fingerprint is right or wrong, and are not touched
        cache_dir = tmp_path / "cache"
        job = SimJob(method="jacobi", shape=(5, 5, 5), **FAST)
        key = job.cache_key()
        records, _ = BatchRunner(workers=1, cache_dir=str(cache_dir)).run(
            [job])
        (cache_dir / "verified").mkdir()
        (cache_dir / "analysis").mkdir()
        (cache_dir / "analysis" / f"{key}.json").write_text('{"ok": true}')
        for n, fingerprint in enumerate(
            (records[0]["program_fingerprint"], "not-the-real-fingerprint"),
            start=2,
        ):
            (cache_dir / f"{key}.pkl").unlink()
            (cache_dir / "verified" / f"{key}.fp").write_text(fingerprint)
            leftovers = {path: path.read_text()
                         for path in cache_dir.glob("*/*")}
            records, _ = BatchRunner(
                workers=1, cache_dir=str(cache_dir)).run([job])
            assert records[0]["ok"]
            assert records[0]["checker"] == "ran"
            assert len(check_calls) == n
            assert {path: path.read_text()
                    for path in cache_dir.glob("*/*")} == leftovers

    def test_runner_override_beats_job_setting(self, check_calls):
        job = SimJob(method="jacobi", shape=(5, 5, 5),
                     run_checker="never", **FAST)
        runner = BatchRunner(workers=1, run_checker="always")
        records, _ = runner.run([job])
        assert records[0]["checker"] == "ran"
        assert len(check_calls) == 1

    def test_multinode_compiles_are_gated_too(self, check_calls):
        cache = ProgramCache()
        job = SimJob(method="jacobi", shape=(5, 5, 6), hypercube_dim=1,
                     **FAST)
        first = execute_job(job.to_dict(), cache=cache)
        assert first["ok"] and first["checker"] == "ran"
        for n, mode in enumerate(("auto", "static"), start=2):
            cache.clear()
            record = execute_job(dict(job.to_dict(), run_checker=mode),
                                 cache=cache)
            assert record["ok"] and record["checker"] == "ran"
            assert len(check_calls) == n
        cache.clear()
        never = execute_job(dict(job.to_dict(), run_checker="never"),
                            cache=cache)
        assert never["checker"] == "skipped"
        assert len(check_calls) == 3

    def test_invalid_runner_configuration(self):
        with pytest.raises(ValueError, match="unknown transport"):
            BatchRunner(transport="carrier-pigeon")
        with pytest.raises(ValueError, match="unknown run_checker"):
            BatchRunner(run_checker="sometimes")

    def test_every_mode_records_are_digest_identical(self, tmp_path):
        # how (or whether) a compile is checked must not change a single
        # canonical byte of the batch output
        spec = SweepSpec(grids=(5, 6), methods=("jacobi", "rb-gs"), **FAST)
        digests = {}
        for mode in CHECKER_MODES:
            store = ResultStore(str(tmp_path / f"{mode}.jsonl"))
            runner = BatchRunner(workers=1, store=store, run_checker=mode)
            records, summary = runner.run(spec.expand())
            assert summary.failed == 0
            assert {r["checker"] for r in records} == {
                "skipped" if mode == "never" else "ran"}
            digests[mode] = store.digest()
        assert len(set(digests.values())) == 1, digests
