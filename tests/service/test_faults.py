"""Chaos suite: injected faults, retries, resume, degradation.

The claims under test are the reliability layer's contracts
(``docs/RELIABILITY.md``):

- a transient fault plus a retry budget produces a result store
  *canonically identical* to the fault-free run (per injection site);
- a run crashed mid-sweep leaves a clean store prefix, and ``resume``
  converges it to the uninterrupted run's digest — even when the crash
  tore the trailing record in half;
- a hard-killed pool worker loses zero jobs (the pool rebuilds once);
- shared-memory transport trouble demotes the batch to pickling with
  the demotion recorded, never failing the batch.

Digest-equality assertions run serially (``workers=1``): ``cache_hit``
on parallel runs depends on which worker a job landed in, which is
scheduling, not simulation.  Parallel chaos tests assert the stable
subset (converged / sweeps / cycles) instead.
"""

import json

import pytest

from repro.service import faults
from repro.service.faults import (
    ENV_VAR,
    FaultConfigError,
    FaultInjected,
    FaultPlan,
    FaultRule,
)
from repro.service.jobs import SimJob
from repro.service.results import ResultStore, canonical_record
from repro.service.retry import (
    PERMANENT,
    TRANSIENT,
    RetryPolicy,
    classify_error_type,
    classify_record,
)
from repro.service.runner import BatchRunner, reset_process_cache

FAST = dict(eps=1e-3, max_sweeps=500)
#: Distinct shapes so each job has its own job_id — identical specs
#: share a content hash, and a ``match`` rule would hit all of them.
SHAPES = [(5, 5, 5), (5, 5, 6), (5, 5, 7), (5, 5, 8)]


def _jobs(n=2, **extra):
    return [
        SimJob(method="jacobi", shape=SHAPES[i], **FAST, **extra)
        for i in range(n)
    ]


def _slab_jobs(n=2, **extra):
    """Same-program fast jobs told apart by their seed: distinct job_ids,
    one cache key — under ``batch_fusion="auto"`` they form one slab."""
    return [
        SimJob(method="jacobi", shape=(5, 5, 5), backend="fast", u0_seed=i,
               **FAST, **extra)
        for i in range(n)
    ]


def _runner(workers, **kwargs):
    """A runner on *workers* processes, starting from a fresh process's
    program cache as a CLI run does: pool workers fork from this process
    and inherit its per-process cache, so an earlier test's compiles
    would otherwise turn a worker's first lookup into a hit."""
    reset_process_cache()
    return BatchRunner(workers=workers, **kwargs)


#: The chaos matrix, ``(workers, batch_fusion, transport)``: serial or a
#: 2-worker pool, batch fusion off or auto, and shm on the pool only
#: (a serial run uses no transport).
MATRIX = [
    pytest.param((workers, fusion, transport),
                 id=f"{'serial' if workers == 1 else 'pool'}-{fusion}"
                    f"-{transport}")
    for workers in (1, 2)
    for fusion in ("off", "auto")
    for transport in ("pickle", "shm")
    if workers == 2 or transport == "pickle"
]


def _matrix_jobs(n, batch_fusion, **extra):
    """*n* fast seeded jobs.  Under ``"auto"`` they alternate between two
    programs, so slabs form and a pool gets two units; under ``"off"``
    every job is its own program (a repeated program's ``cache_hit``
    depends on which worker compiled it first, and a resumed job's on
    whether its runner had)."""
    return [
        SimJob(method="jacobi",
               shape=SHAPES[i % 2 if batch_fusion == "auto" else i],
               backend="fast", u0_seed=i // 2, **FAST, **extra)
        for i in range(n)
    ]


def _check_batch_level_policy(jobs, batch_fusion="off", workers=1,
                              transport="pickle"):
    """A batch-level retry policy overrides the jobs' own (one attempt
    each): the faulted first attempt is retried."""
    plan = FaultPlan(rules=(FaultRule(site="worker.exec"),))
    records, summary = _runner(
        workers, fault_plan=plan, retry=RetryPolicy(max_attempts=2),
        batch_fusion=batch_fusion, transport=transport,
    ).run(jobs)
    assert summary.failed == 0
    assert all(r["attempts"] == 2 for r in records)


def _check_exhausted_budget(jobs, batch_fusion="off", workers=1,
                            transport="pickle"):
    """Every attempt faults: each job fails transient-classified once its
    budget is spent."""
    plan = FaultPlan(
        rules=(FaultRule(site="worker.exec", attempts=()),)
    )
    runner = _runner(workers, fault_plan=plan, batch_fusion=batch_fusion,
                     transport=transport)
    records, summary = runner.run(jobs)
    assert summary.failed == len(jobs)
    assert all(r["attempts"] == 2 for r in records)
    assert all(r["error_type"] == "FaultInjected" for r in records)
    assert runner.last_telemetry.counters["retry.exhausted"] == len(jobs)


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    """Injection must never outlive a test."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    yield
    faults.install(None)


class TestFaultPlan:
    def test_decide_is_deterministic(self):
        plan = FaultPlan(
            rules=(FaultRule(site="worker.exec", rate=0.5, attempts=()),),
            seed=42,
        )
        triples = [("worker.exec", f"job{i}", a)
                   for i in range(20) for a in (1, 2)]
        first = [plan.decide(*t) is not None for t in triples]
        second = [plan.decide(*t) is not None for t in triples]
        assert first == second
        # a 0.5 rate over 40 draws fires some and skips some
        assert any(first) and not all(first)

    def test_rate_endpoints(self):
        always = FaultPlan(rules=(FaultRule(site="worker.exec"),))
        never = FaultPlan(
            rules=(FaultRule(site="worker.exec", rate=0.0),)
        )
        assert always.decide("worker.exec", "k") is not None
        assert never.decide("worker.exec", "k") is None

    def test_attempts_gate_defaults_to_first_only(self):
        plan = FaultPlan(rules=(FaultRule(site="worker.exec"),))
        assert plan.decide("worker.exec", "k", attempt=1) is not None
        assert plan.decide("worker.exec", "k", attempt=2) is None
        every = FaultPlan(
            rules=(FaultRule(site="worker.exec", attempts=()),)
        )
        assert every.decide("worker.exec", "k", attempt=7) is not None

    def test_match_targets_one_key(self):
        plan = FaultPlan(
            rules=(FaultRule(site="pool.submit", match="victim"),)
        )
        assert plan.decide("pool.submit", "victim") is not None
        assert plan.decide("pool.submit", "bystander") is None

    def test_sites_are_independent(self):
        plan = FaultPlan(rules=(FaultRule(site="store.append"),))
        assert plan.decide("store.append", "k") is not None
        assert plan.decide("worker.exec", "k") is None

    def test_json_round_trip(self):
        plan = FaultPlan(
            rules=(
                FaultRule(site="worker.exec", kind="hang", rate=0.25,
                          attempts=(1, 2), hang_s=3.0),
                FaultRule(site="shm.attach", match="abc"),
            ),
            seed=7,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_env_hook_round_trip(self, monkeypatch):
        plan = FaultPlan(rules=(FaultRule(site="worker.exec"),), seed=3)
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        assert faults.active_plan() == plan
        # the in-process plan wins over the environment
        other = FaultPlan(seed=99)
        with faults.active(other):
            assert faults.active_plan() == other
        assert faults.active_plan() == plan

    @pytest.mark.parametrize("bad", [
        dict(site="worker.explode"),
        dict(site="worker.exec", kind="meteor"),
        dict(site="pool.submit", kind="kill"),  # kill is worker-side
        dict(site="worker.exec", rate=1.5),
        dict(site="worker.exec", attempts=(0,)),
        dict(site="worker.exec", kind="hang", hang_s=0),
    ])
    def test_bad_rules_rejected(self, bad):
        with pytest.raises(FaultConfigError):
            FaultRule(**bad)

    def test_once_requires_latch_dir(self):
        with pytest.raises(FaultConfigError):
            FaultPlan(rules=(FaultRule(site="worker.exec", once=True),))

    def test_bad_env_json_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultPlan.from_json("not json")
        with pytest.raises(FaultConfigError):
            FaultPlan.from_json("[1, 2]")

    def test_check_without_plan_is_a_no_op(self):
        faults.check("worker.exec", "anything")  # must not raise

    def test_check_raises_fault_injected(self):
        plan = FaultPlan(rules=(FaultRule(site="worker.exec"),))
        with faults.active(plan):
            with pytest.raises(FaultInjected) as info:
                faults.check("worker.exec", "k")
        assert info.value.site == "worker.exec"
        assert info.value.attempt == 1

    def test_kill_demotes_to_transient_in_parent(self, tmp_path):
        # os._exit in the parent would take down the orchestrator (and
        # the test runner); in MainProcess a kill must raise instead
        plan = FaultPlan(
            rules=(FaultRule(site="worker.exec", kind="kill",
                             once=True),),
            latch_dir=str(tmp_path),
        )
        with faults.active(plan):
            with pytest.raises(FaultInjected):
                faults.check("worker.exec", "k")
            # once=True: the latch is claimed, a second check passes
            faults.check("worker.exec", "k")


class TestClassification:
    @pytest.mark.parametrize("name", [
        "TimeoutError", "BrokenProcessPool", "ShmAttachError",
        "FaultInjected",
    ])
    def test_infrastructure_failures_are_transient(self, name):
        assert classify_error_type(name) == TRANSIENT

    @pytest.mark.parametrize("name", [
        "DecompositionError", "CheckerError", "ValueError", None,
    ])
    def test_simulation_failures_are_permanent(self, name):
        assert classify_error_type(name) == PERMANENT

    def test_classify_record(self):
        assert classify_record({"ok": True}) is None
        assert classify_record(
            {"ok": False, "error_type": "TimeoutError"}
        ) == TRANSIENT
        # legacy records without the stamp: the "ExcName: msg" prefix
        assert classify_record(
            {"ok": False, "error": "TimeoutError: job exceeded 5s"}
        ) == TRANSIENT
        assert classify_record(
            {"ok": False, "error": "ValueError: bad"}
        ) == PERMANENT

    def test_retry_policy_schedule(self):
        policy = RetryPolicy(max_attempts=3, backoff_base=0.5)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.0
        assert policy.delay(3) == 2.0
        assert RetryPolicy(max_attempts=3).delay(2) == 0.0
        assert policy.should_retry(2, TRANSIENT)
        assert not policy.should_retry(3, TRANSIENT)
        assert not policy.should_retry(1, PERMANENT)
        assert not policy.should_retry(1, None)

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1)


class TestRetryDigestParity:
    """Per injection site: a fault plus retries changes *nothing* the
    store's canonical projection can see."""

    #: the faulty runs' executor and transport
    #: (:class:`TestRetryDigestParityMatrix` reruns the cases on a pool)
    workers = 1
    transport = "pickle"

    def _runner(self, **kwargs):
        return _runner(self.workers, transport=self.transport, **kwargs)

    def _fault_jobs(self, batch_fusion, **extra):
        return _slab_jobs(2, **extra)

    def _reference(self, tmp_path, jobs, batch_fusion="off"):
        store = ResultStore(str(tmp_path / "clean.jsonl"))
        _, summary = _runner(
            1, store=store, batch_fusion=batch_fusion
        ).run(jobs)
        assert summary.failed == 0
        return store

    @pytest.mark.parametrize("batch_fusion", ["off", "auto"])
    @pytest.mark.parametrize("site", ["worker.exec", "pool.submit"])
    def test_transient_fault_store_matches_fault_free(
        self, tmp_path, site, batch_fusion
    ):
        # under "auto" same-program jobs form one slab, so worker.exec
        # must fire per slab member and the retry must re-form the slab;
        # the reference is always a fault-free serial run
        jobs = self._fault_jobs(batch_fusion, max_attempts=3)
        n = len(jobs)
        clean = self._reference(tmp_path, jobs, batch_fusion)
        plan = FaultPlan(rules=(FaultRule(site=site),), seed=1)
        store = ResultStore(str(tmp_path / "faulty.jsonl"))
        runner = self._runner(store=store, fault_plan=plan,
                              batch_fusion=batch_fusion)
        records, summary = runner.run(jobs)
        assert summary.failed == 0
        if batch_fusion == "auto":
            assert [r["tier"] for r in records] == ["batch_fused"] * n
        assert summary.retried == n
        assert [r["attempts"] for r in records] == [2] * n
        assert all(
            r["retry_reasons"] == ["FaultInjected"] for r in records
        )
        assert store.digest() == clean.digest()
        counters = runner.last_telemetry.counters
        assert counters["retry.scheduled"] == n
        if site == "pool.submit":
            # parent-side site: its firings land in the batch tracer
            # (worker.exec fires under the job's own shadowing tracer)
            assert counters["fault.pool.submit"] == n

    def test_faulted_slab_member_gets_the_per_job_failure(self):
        """A member faulted at worker.exec leaves its slab with exactly
        the record execute_job produces; the rest still run as a slab."""
        jobs = _slab_jobs(3)
        plan = FaultPlan(
            rules=(FaultRule(site="worker.exec", match=jobs[1].job_id),)
        )
        runs = {
            mode: self._runner(fault_plan=plan,
                               batch_fusion=mode).run(jobs)[0]
            for mode in ("off", "auto")
        }
        auto = runs["auto"]
        assert [r["tier"] for r in auto] == ["batch_fused", None,
                                             "batch_fused"]
        assert [r.get("slab_size") for r in auto] == [2, None, 2]
        assert auto[1]["error_type"] == "FaultInjected"
        assert canonical_record(auto[1]) == canonical_record(runs["off"][1])

    def test_batch_level_policy_overrides_jobs(self, tmp_path):
        _check_batch_level_policy(_jobs(2), workers=self.workers,
                                  transport=self.transport)

    def test_exhausted_budget_fails_with_classification(self, tmp_path):
        _check_exhausted_budget(_jobs(2, max_attempts=2),
                                workers=self.workers,
                                transport=self.transport)

    def test_permanent_failure_is_not_retried(self):
        # nz=5 cannot split across 2 nodes: a simulation error, so the
        # retry budget must not burn attempts reproducing it
        job = SimJob(method="jacobi", shape=(5, 5, 5), hypercube_dim=1,
                     max_attempts=3, **FAST)
        records, summary = self._runner().run([job])
        assert summary.failed == 1
        assert records[0]["attempts"] == 1
        assert "DecompositionError" in records[0]["error"]

    def test_env_hook_drives_pool_workers(self, tmp_path, monkeypatch):
        # no fault_plan argument: the environment alone must reach the
        # parent and every pool worker (the CI chaos job's path)
        plan = FaultPlan(rules=(FaultRule(site="worker.exec"),), seed=5)
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        jobs = _jobs(2, max_attempts=3)
        records, summary = BatchRunner(workers=2).run(jobs)
        assert summary.failed == 0
        assert [r["attempts"] for r in records] == [2, 2]
        assert all(
            r["retry_reasons"] == ["FaultInjected"] for r in records
        )


class TestPoolRecovery:
    def test_hard_killed_worker_loses_zero_jobs(self, tmp_path):
        # one job's first execution hard-kills its worker process
        # (os._exit — no exception, no cleanup).  The pool must rebuild
        # once and finish every job; the runner never even retries.
        jobs = _jobs(4)
        plan = FaultPlan(
            rules=(FaultRule(site="worker.exec", kind="kill",
                             match=jobs[1].job_id, once=True),),
            latch_dir=str(tmp_path / "latches"),
        )
        runner = BatchRunner(workers=2, fault_plan=plan)
        records, summary = runner.run(jobs)
        assert summary.failed == 0
        assert len(records) == len(jobs)
        assert [r["attempts"] for r in records] == [1, 1, 1, 1]
        assert runner.last_telemetry.counters["pool.rebuild"] == 1

    def test_hang_is_timed_out_and_retried(self, tmp_path):
        # the victim's first execution sleeps past the pool timeout; the
        # pool kills the hung worker, the runner classifies the
        # TimeoutError transient and the retry completes the job
        jobs = _jobs(2, max_attempts=2)
        plan = FaultPlan(
            rules=(FaultRule(site="worker.exec", kind="hang",
                             match=jobs[0].job_id, hang_s=30.0),),
        )
        records, summary = BatchRunner(
            workers=2, timeout=1.5, fault_plan=plan
        ).run(jobs)
        assert summary.failed == 0
        assert records[0]["attempts"] == 2
        assert records[0]["retry_reasons"] == ["TimeoutError"]
        assert records[1]["attempts"] == 1


class TestTransportDegradation:
    def test_shm_attach_failure_demotes_to_pickle(self, tmp_path):
        jobs = _jobs(2, max_attempts=2)
        clean, _ = BatchRunner(workers=2, transport="shm").run(jobs)
        plan = FaultPlan(rules=(FaultRule(site="shm.attach"),), seed=2)
        runner = BatchRunner(
            workers=2, transport="shm", fault_plan=plan
        )
        records, summary = runner.run(jobs)
        assert summary.failed == 0
        assert all(r["attempts"] == 2 for r in records)
        assert all("shm.attach" in r["transport_fallback"]
                   for r in records)
        assert runner.last_telemetry.counters["transport.fallback"] == 1
        # the demotion is a transport decision: simulation output is
        # identical to the healthy shm run
        for healthy, degraded in zip(clean, records):
            for key in ("converged", "sweeps", "cycles",
                        "error_vs_analytic"):
                assert healthy[key] == degraded[key]


class TestCrashAndResume:
    #: the jobs' backend and the runners' executor, batch_fusion mode and
    #: transport (:class:`TestCrashAndResumeOnSlabs` reruns every case on
    #: the slab engine, :class:`TestCrashAndResumeMatrix` on every
    #: executor and transport)
    backend = "reference"
    workers = 1
    batch_fusion = "off"
    transport = "pickle"

    def _jobs(self, n):
        return _jobs(n, backend=self.backend)

    def _runner(self, **kwargs):
        return _runner(self.workers, batch_fusion=self.batch_fusion,
                       transport=self.transport, **kwargs)

    def _reference_digest(self, tmp_path, jobs):
        store = ResultStore(str(tmp_path / "reference.jsonl"))
        _, summary = self._runner(store=store).run(jobs)
        assert summary.failed == 0
        return store.digest()

    def test_resume_after_mid_sweep_crash_converges(self, tmp_path):
        jobs = self._jobs(4)
        reference = self._reference_digest(tmp_path, jobs)
        # crash the run at the third job's checkpoint append — the
        # moment a kill -9 mid-sweep would hit hardest
        plan = FaultPlan(
            rules=(FaultRule(site="store.append",
                             match=jobs[2].job_id),),
        )
        store = ResultStore(str(tmp_path / "crashed.jsonl"))
        with pytest.raises(FaultInjected):
            self._runner(store=store, fault_plan=plan).run(jobs)
        assert len(store) == 2  # a clean prefix, nothing torn
        resumed = self._runner(store=store, resume=True)
        records, summary = resumed.run(jobs)
        assert summary.failed == 0
        assert summary.resumed == 2
        assert store.digest() == reference
        counters = resumed.last_telemetry.counters
        assert counters["resume.skipped"] == 2

    def test_resume_after_torn_tail_converges(self, tmp_path):
        jobs = self._jobs(3)
        reference = self._reference_digest(tmp_path, jobs)
        store = ResultStore(str(tmp_path / "torn.jsonl"))
        _, summary = self._runner(store=store).run(jobs)
        assert summary.failed == 0
        # tear the last record in half, byte-level — the signature of a
        # writer killed inside its final write
        raw = store.path.read_bytes()
        cut = raw.rstrip(b"\n").rfind(b"\n") + 1
        store.path.write_bytes(raw[: cut + 25])
        with pytest.warns(RuntimeWarning, match="truncated trailing"):
            records, summary = self._runner(
                store=store, resume=True
            ).run(jobs)
        assert summary.failed == 0
        assert summary.resumed == 2  # the torn third record reran
        # the healed store still warns about the (now interior) torn
        # fragment on load, but decodes to the uninterrupted records
        with pytest.warns(RuntimeWarning, match="undecodable line"):
            assert store.digest() == reference
            assert store.truncated_tail is None

    def test_resume_over_empty_store_is_a_fresh_run(self, tmp_path):
        jobs = self._jobs(2)
        store = ResultStore(str(tmp_path / "fresh.jsonl"))
        records, summary = self._runner(
            store=store, resume=True
        ).run(jobs)
        assert summary.failed == 0
        assert summary.resumed == 0
        assert all("resumed" not in r for r in records)

    def test_resume_honors_repeats_as_a_multiset(self, tmp_path):
        # two instances of the same job share a job_id; one prior
        # success must redeem exactly one of them
        job = SimJob(method="jacobi", shape=(5, 5, 5),
                     backend=self.backend, **FAST)
        store = ResultStore(str(tmp_path / "repeats.jsonl"))
        _, summary = self._runner(store=store).run([job])
        assert summary.failed == 0
        records, summary = self._runner(
            store=store, resume=True
        ).run([job, job])
        assert summary.failed == 0
        assert summary.resumed == 1
        assert len(store) == 2

    def test_resume_requires_store(self):
        with pytest.raises(ValueError, match="resume"):
            self._runner(resume=True)


class TestCrashAndResumeOnSlabs(TestCrashAndResume):
    """Every crash/resume case on fast jobs, under both ``batch_fusion``
    modes: lone jobs run as slabs of one, and under ``"auto"`` repeated
    jobs form a slab of two."""

    backend = "fast"

    @pytest.fixture(autouse=True, params=["off", "auto"])
    def _batch_fusion(self, request):
        self.batch_fusion = request.param


class TestWorkerExecOnSlabs:
    """The ``worker.exec`` retry cases on fast jobs — lone slabs of one
    plus, under ``"auto"``, a seeded slab of two — under both
    ``batch_fusion`` modes."""

    @staticmethod
    def _jobs(**extra):
        return _jobs(2, backend="fast", **extra) + _slab_jobs(2, **extra)

    @pytest.mark.parametrize("batch_fusion", ["off", "auto"])
    def test_batch_level_policy_overrides_jobs(self, batch_fusion):
        _check_batch_level_policy(self._jobs(), batch_fusion)

    @pytest.mark.parametrize("batch_fusion", ["off", "auto"])
    def test_exhausted_budget_fails_with_classification(self, batch_fusion):
        _check_exhausted_budget(self._jobs(max_attempts=2), batch_fusion)

    def test_pool_workers_fault_and_retry(self, monkeypatch):
        plan = FaultPlan(rules=(FaultRule(site="worker.exec"),), seed=5)
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        records, summary = BatchRunner(workers=2).run(
            self._jobs(max_attempts=3)
        )
        assert summary.failed == 0
        assert [r["tier"] for r in records] == ["fused"] * 4
        assert [r["attempts"] for r in records] == [2] * 4


class TestRetryDigestParityMatrix(TestRetryDigestParity):
    """The retry cases on a 2-worker pool over both transports, each
    under its own ``batch_fusion`` axis where it has one: a faulty pool
    run must reproduce the fault-free serial store's digest."""

    workers = 2

    @pytest.fixture(autouse=True, params=["pickle", "shm"])
    def _transport(self, request):
        self.transport = request.param

    def _fault_jobs(self, batch_fusion, **extra):
        return _matrix_jobs(4, batch_fusion, **extra)

    # pool-specific already: nothing left to vary
    test_env_hook_drives_pool_workers = None


class TestCrashAndResumeMatrix(TestCrashAndResume):
    """Every crash/resume case on fast seeded jobs, over the whole chaos
    matrix: serial or pool, fusion off or auto, pickle or shm."""

    backend = "fast"

    @pytest.fixture(autouse=True, params=MATRIX)
    def _axes(self, request):
        self.workers, self.batch_fusion, self.transport = request.param

    def _jobs(self, n):
        return _matrix_jobs(n, self.batch_fusion)


@pytest.mark.parametrize("workers,transport", [
    pytest.param(1, "pickle", id="serial"),
    pytest.param(2, "pickle", id="pool-pickle"),
    pytest.param(2, "shm", id="pool-shm"),
])
class TestSlabChaos:
    """Slab guarantees under ``batch_fusion="auto"`` on every executor
    and transport."""

    def test_store_append_fault_mid_slab_then_resume(
        self, tmp_path, workers, transport
    ):
        # a 3-member slab plus another program: a pool gets two units
        jobs = _slab_jobs(3) + _jobs(2, backend="fast")[1:]

        def runner(**kwargs):
            return _runner(workers, transport=transport,
                           batch_fusion="auto", **kwargs)

        reference = ResultStore(str(tmp_path / "reference.jsonl"))
        assert runner(store=reference).run(jobs)[1].failed == 0
        plan = FaultPlan(
            rules=(FaultRule(site="store.append", match=jobs[1].job_id),)
        )
        store = ResultStore(str(tmp_path / "crashed.jsonl"))
        with pytest.raises(FaultInjected):
            runner(store=store, fault_plan=plan).run(jobs)
        assert len(store) == 1
        records, summary = runner(store=store, resume=True).run(jobs)
        assert (summary.failed, summary.resumed) == (0, 1)
        # the partly stored slab reran whole, so its missing members
        # keep the uninterrupted slab_size and cache hits
        assert [r.get("slab_size") for r in records] == [3, 3, 3, None]
        assert store.digest() == reference.digest()



def test_auto_sweep_digest_is_executor_independent(tmp_path):
    """One seeded ``auto`` sweep stores one digest, whether it ran
    serially, on a pool or on a pool over shm."""
    from repro.service.sweep import SweepSpec

    jobs = SweepSpec(grids=(5, 6), methods=("jacobi",), seeds=(0, 1),
                     backend="fast", batch_fusion="auto", **FAST).expand()
    digests = set()
    for workers, transport in ((1, "pickle"), (2, "pickle"), (2, "shm")):
        store = ResultStore(str(tmp_path / f"{workers}-{transport}.jsonl"))
        records, summary = _runner(
            workers, transport=transport, store=store, batch_fusion="auto"
        ).run(jobs)
        assert summary.failed == 0
        assert [r["slab_size"] for r in records] == [2] * len(jobs)
        digests.add(store.digest())
    assert len(digests) == 1


class TestFailureRecordSchema:
    def test_synthesized_failures_share_the_job_record_keys(self):
        """A record the runner synthesizes (timeout, pool.submit fault)
        carries the same keys as a failure execute_job returns."""
        job = _jobs(1)[0]

        def failed(workers, rule, **kwargs):
            plan = FaultPlan(rules=(rule,))
            records, _ = _runner(workers, fault_plan=plan,
                                 **kwargs).run([job])
            return records[0]

        exec_fault = failed(1, FaultRule(site="worker.exec"))
        timed_out = failed(2, FaultRule(site="worker.exec", kind="hang",
                                        hang_s=30.0), timeout=0.5)
        submit_fault = failed(1, FaultRule(site="pool.submit"))
        assert exec_fault["error_type"] == "FaultInjected"
        assert timed_out["error_type"] == "TimeoutError"
        assert set(timed_out) == set(exec_fault) == set(submit_fault)
        assert timed_out["cache_key"] == job.cache_key()


class TestStoreTruncation:
    def _store_with_records(self, tmp_path, n=3):
        store = ResultStore(str(tmp_path / "s.jsonl"))
        store.extend([{"job_id": f"j{i}", "ok": True, "i": i}
                      for i in range(n)])
        return store

    def test_truncated_tail_skipped_with_warning(self, tmp_path):
        store = self._store_with_records(tmp_path)
        raw = store.path.read_bytes()
        store.path.write_bytes(raw[:-10])  # tear the last record
        with pytest.warns(RuntimeWarning, match="truncated trailing"):
            records = store.load()
        assert [r["i"] for r in records] == [0, 1]
        assert store.truncated_tail is not None

    def test_append_after_tear_starts_a_clean_line(self, tmp_path):
        store = self._store_with_records(tmp_path)
        raw = store.path.read_bytes()
        store.path.write_bytes(raw[:-10])
        store.append({"job_id": "j9", "ok": True, "i": 9})
        # the torn fragment is now an interior undecodable line; the
        # new record must be whole, not glued to the fragment
        with pytest.warns(RuntimeWarning, match="undecodable line"):
            records = store.load()
        assert [r["i"] for r in records] == [0, 1, 9]
        lines = store.path.read_text().splitlines()
        json.loads(lines[-1])  # the appended record parses alone

    def test_interior_garbage_skipped(self, tmp_path):
        store = self._store_with_records(tmp_path, n=2)
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write("%% not json %%\n")
        store.append({"job_id": "j9", "ok": True, "i": 9})
        with pytest.warns(RuntimeWarning, match="undecodable line"):
            records = store.load()
        assert [r["i"] for r in records] == [0, 1, 9]
        assert store.truncated_tail is None

    def test_clean_file_loads_silently(self, tmp_path):
        store = self._store_with_records(tmp_path)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            records = store.load()
        assert len(records) == 3
        assert store.truncated_tail is None


class TestStatsReliability:
    def test_aggregate_reports_retries_resume_and_fallbacks(self):
        from repro.obs import aggregate_records, format_record_stats

        records = [
            {"ok": True, "attempts": 3,
             "retry_reasons": ["TimeoutError", "FaultInjected"]},
            {"ok": True, "attempts": 1, "resumed": True},
            {"ok": True, "attempts": 1,
             "transport_fallback": "ShmAttachError: gone"},
        ]
        stats = aggregate_records(records)
        rel = stats["reliability"]
        assert rel["retried_jobs"] == 1
        assert rel["extra_attempts"] == 2
        assert rel["retry_reasons"] == {
            "FaultInjected": 1, "TimeoutError": 1,
        }
        assert rel["resumed"] == 1 and rel["fresh"] == 2
        assert rel["transport_fallbacks"] == 1
        text = format_record_stats(stats)
        assert "reliability:" in text
        assert "1 retried jobs" in text
        assert "1 resumed" in text

    def test_fault_free_records_render_no_reliability_line(self):
        from repro.obs import aggregate_records, format_record_stats

        stats = aggregate_records([{"ok": True, "attempts": 1}])
        assert "reliability" not in format_record_stats(stats)
