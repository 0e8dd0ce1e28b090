"""WorkerPool: deterministic ordering, failure isolation, timeouts,
and graceful recovery from hard-killed workers."""

import os
import time

import pytest

from repro.service.pool import WorkerOutcome, WorkerPool


# top-level functions so the process pool can pickle them
def _square(x):
    return x * x


def _explode_on_three(x):
    if x == 3:
        raise ValueError(f"boom at {x}")
    return x


def _sleep_inverse(x):
    # later items finish first: exposes any completion-order leakage
    time.sleep(0.15 - 0.04 * x)
    return x


def _hang(x):
    time.sleep(20)
    return x


def _kill_worker_always(arg):
    """Hard-kill the worker on the victim value, every single time."""
    _latch, x = arg
    if x == 2:
        os._exit(9)
    return x * x


def _kill_worker_once(arg):
    """Hard-kill the worker the first time the victim value runs.

    ``arg`` is ``(latch_path, x)``: the exclusive-create latch makes the
    kill a one-shot across the rebuilt executor's fresh workers, so the
    resubmitted item completes.  ``os._exit`` skips all cleanup — the
    executor sees a vanished process, i.e. ``BrokenProcessPool``.
    """
    latch, x = arg
    if x == 2:
        try:
            with open(latch, "x"):
                pass
            os._exit(9)
        except FileExistsError:
            pass
    return x * x


class TestSerial:
    def test_results_in_order(self):
        pool = WorkerPool(max_workers=1)
        outcomes = pool.map(_square, [1, 2, 3])
        assert [o.value for o in outcomes] == [1, 4, 9]
        assert all(o.ok for o in outcomes)

    def test_failure_captured_not_raised(self):
        pool = WorkerPool(max_workers=1)
        outcomes = pool.map(_explode_on_three, [1, 3, 5])
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].error_type == "ValueError"
        assert "boom at 3" in outcomes[1].error
        assert "boom at 3" in outcomes[1].traceback

    def test_empty_items(self):
        assert WorkerPool(max_workers=1).map(_square, []) == []

    def test_on_outcome_reports_each_item_before_the_next_runs(self):
        events = []

        def fn(x):
            events.append(("run", x))
            return x

        WorkerPool(max_workers=1).map(
            fn, [1, 2], on_outcome=lambda o: events.append(("done", o.value))
        )
        assert events == [("run", 1), ("done", 1), ("run", 2), ("done", 2)]

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=0)
        with pytest.raises(ValueError):
            WorkerPool(timeout=0)


class TestParallel:
    def test_on_outcome_reports_every_item_in_order(self):
        seen = []
        outcomes = WorkerPool(max_workers=2).map(
            _sleep_inverse, [0, 1, 2], on_outcome=seen.append
        )
        assert seen == outcomes

    def test_results_ordered_despite_completion_order(self):
        pool = WorkerPool(max_workers=3)
        outcomes = pool.map(_sleep_inverse, [0, 1, 2])
        assert [o.index for o in outcomes] == [0, 1, 2]
        assert [o.value for o in outcomes] == [0, 1, 2]

    def test_one_bad_job_does_not_sink_the_batch(self):
        pool = WorkerPool(max_workers=2)
        outcomes = pool.map(_explode_on_three, [1, 2, 3, 4])
        assert [o.ok for o in outcomes] == [True, True, False, True]
        assert outcomes[2].error_type == "ValueError"
        assert [o.value for o in outcomes if o.ok] == [1, 2, 4]

    def test_timeout_reported_as_failure(self):
        # two items: a single item would short-circuit to the serial path
        outcomes = WorkerPool(max_workers=2, timeout=0.5).map(_hang, [1, 2])
        assert not outcomes[0].ok
        assert outcomes[0].error_type == "TimeoutError"


class TestChunkedSubmission:
    """Many small jobs ride a bounded number of futures, in order."""

    def test_ordering_preserved_across_chunks(self):
        pool = WorkerPool(max_workers=2)
        items = list(range(40))
        outcomes = pool.map(_square, items)
        assert [o.index for o in outcomes] == items
        assert [o.value for o in outcomes] == [i * i for i in items]

    def test_throughput_bounded_future_count(self):
        """The chunked path submits at most workers * CHUNKS_PER_WORKER
        futures — a 64-job batch must not pay 64 executor round-trips."""
        pool = WorkerPool(max_workers=2)
        outcomes = pool.map(_square, list(range(64)))
        assert len(outcomes) == 64
        assert 0 < pool.last_submitted <= 2 * WorkerPool.CHUNKS_PER_WORKER

    def test_failures_inside_chunks_stay_isolated(self):
        pool = WorkerPool(max_workers=2)
        outcomes = pool.map(_explode_on_three, list(range(10)))
        assert [o.ok for o in outcomes] == [i != 3 for i in range(10)]
        assert outcomes[3].error_type == "ValueError"
        assert "boom at 3" in outcomes[3].traceback

    def test_timeout_forces_per_item_futures(self):
        """A timeout must bound each job individually, so the chunked
        path is bypassed and every item gets its own future."""
        pool = WorkerPool(max_workers=2, timeout=30.0)
        outcomes = pool.map(_square, [1, 2, 3, 4])
        assert [o.value for o in outcomes] == [1, 4, 9, 16]
        assert pool.last_submitted == 4


class TestBrokenPoolRecovery:
    """A hard-killed worker costs a rebuild, never a result."""

    def test_chunked_path_rebuilds_once_and_loses_nothing(self, tmp_path):
        pool = WorkerPool(max_workers=2)
        items = [(str(tmp_path / "latch"), x) for x in range(6)]
        outcomes = pool.map(_kill_worker_once, items)
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == [x * x for x in range(6)]
        assert pool.last_rebuilds == 1

    def test_timeout_path_rebuilds_once_and_loses_nothing(self, tmp_path):
        # a timeout forces per-item futures; the rebuild must resubmit
        # exactly the items whose results the crash took down
        pool = WorkerPool(max_workers=2, timeout=30.0)
        items = [(str(tmp_path / "latch"), x) for x in range(4)]
        outcomes = pool.map(_kill_worker_once, items)
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == [0, 1, 4, 9]
        assert pool.last_rebuilds == 1

    def test_repeat_crashes_degrade_to_failures(self, tmp_path):
        # the victim kills its worker on every execution: the rebuild
        # happens once, the repeat crash is *captured* as a
        # BrokenProcessPool failure — never raised, and never an
        # endless rebuild loop
        pool = WorkerPool(max_workers=2, timeout=30.0)
        items = [(None, x) for x in range(4)]
        outcomes = pool.map(_kill_worker_always, items)
        assert pool.last_rebuilds == 1
        by_value = {x: o for (_l, x), o in zip(items, outcomes)}
        assert not by_value[2].ok
        assert by_value[2].error_type == "BrokenProcessPool"
        assert all(by_value[x].ok for x in (0, 1, 3))

    def test_timeout_cancels_stragglers(self):
        # both jobs hang: their futures are still running when the map
        # gives up, and the pool must count (and cancel) every one so
        # executor shutdown cannot block on them
        pool = WorkerPool(max_workers=2, timeout=0.5)
        outcomes = pool.map(_hang, [1, 2])
        assert all(o.error_type == "TimeoutError" for o in outcomes)
        assert pool.last_stragglers == 2


class TestOutcome:
    def test_failure_constructor(self):
        outcome = WorkerOutcome.failure(4, KeyError("missing"))
        assert outcome.index == 4
        assert not outcome.ok
        assert outcome.error_type == "KeyError"
