"""The engine oracle: reference machines against one stacked run
(imported by basename: ``tests/`` is on ``sys.path`` through its
``conftest.py``, and ``helpers_slab`` is unique repo-wide).

An :class:`~repro.sim.machine.NSCMachine` runs the reference
interpreter only; the fused engine
(:class:`~repro.sim.batchplan.BatchProgramRun`) runs over stacked
storage with no machine behind it.  A parity test loads one reference
machine per row and calls :func:`check_parity`: it fills one stacked row
from each loaded machine's planes and caches, runs the engine over the
stack, then runs every machine's reference walk, and asserts that the
two agree on

- every stored row (planes and both cache buffers, NaNs equal);
- each issue's condition result, and its condition value wherever the
  run logged one (NaNs equal): an issue whose condition witnesses
  settled (:mod:`repro.sim.settle`) logs its result alone;
- the :class:`~repro.sim.batchplan.JobRun` totals (cycles, issues,
  flops, FU activity, DMA transfers and words, condition outcomes);
- the :class:`~repro.sim.metrics.RunMetrics` (its summary and the
  delivered interrupt count);
- ``loop_iterations``, ``converged`` and ``halted``.

One machine is an exact run (the service's lone job); two or more are a
slab, which declines where a slab declines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence

import numpy as np

from repro.sim import batchplan, progplan
from repro.sim.sequencer import SequencerResult


@dataclass
class Parity:
    """What :func:`check_parity` ran: the engine's run and storage, and
    each reference machine's result (one per row)."""

    run: batchplan.BatchProgramRun
    storage: Any
    machines: List[Any]
    results: List[SequencerResult]

    def row(self, j: int, name: str) -> np.ndarray:
        """Variable *name* as the stacked run left it in row *j*."""
        var = self.storage.variables[name]
        return self.storage.planes[var.plane][j, var.offset:var.end]


def run_stacked(machines: Sequence, program,
                max_instructions: int = 1_000_000) -> batchplan.BatchProgramRun:
    """Run *program* over one stacked row per loaded machine, filled from
    the machine's planes and caches; the machines are not touched.
    Raises ``FusionUnsupported`` on a decline."""
    plan = progplan.compiled_plan(program, machines[0].node.params)
    storage = progplan.stacked_storage(
        plan.variables, len(machines), plan.plane_extent, plan.cache_extent,
    )
    for j, machine in enumerate(machines):
        for plane, arr in storage.planes.items():
            arr[j] = machine.memory.plane(plane).read(0, arr.shape[-1])
        for cache_id, arr in storage.cache_front.items():
            arr[j] = machine.caches[cache_id].front[: arr.shape[-1]]
        for cache_id, arr in storage.cache_back.items():
            arr[j] = machine.caches[cache_id].back[: arr.shape[-1]]
    run = batchplan.BatchProgramRun(plan, storage, len(machines),
                                    max_instructions)
    run.run()
    return run


def check_parity(machines: Sequence, program,
                 max_instructions: int = 1_000_000) -> Parity:
    """Run *program* stacked over *machines*' rows, then on each machine
    by the reference walk, and assert that they agree (see the module
    docstring).  Returns both sides for the caller's own assertions."""
    run = run_stacked(machines, program, max_instructions)
    storage = run.storage
    results = []
    for j, machine in enumerate(machines):
        stats = machine.dma.stats
        before = (stats.transfers, stats.words_read, stats.words_written)
        result = machine.run(program, max_instructions=max_instructions)
        results.append(result)
        for plane, arr in storage.planes.items():
            np.testing.assert_array_equal(
                arr[j], machine.memory.plane(plane).read(0, arr.shape[-1]),
                err_msg=f"row {j}, plane {plane}")
        for buffers, side in ((storage.cache_front, "front"),
                              (storage.cache_back, "back")):
            for cache_id, arr in buffers.items():
                np.testing.assert_array_equal(
                    arr[j],
                    getattr(machine.caches[cache_id], side)[: arr.shape[-1]],
                    err_msg=f"row {j}, cache {cache_id} {side}")
        logged = [(values, conds) for index, values, conds, active
                  in run.log
                  if index >= 0 and (active is None or j in active)]
        assert len(logged) == len(result.pipeline_results), \
            f"row {j}: issues"
        for k, ((values, conds), ref) in enumerate(
                zip(logged, result.pipeline_results)):
            assert (None if conds is None else conds[j]) \
                == ref.condition_result, f"row {j}, issue {k}: condition"
            if values is not None:  # an issue witnesses settled logs none
                assert repr(values[j]) == repr(ref.condition_value), \
                    f"row {j}, issue {k}: condition value"
        job = run.job(j)
        conditions = [r.condition_result for r in result.pipeline_results
                      if r.condition_result is not None]
        assert (job.cycles, job.instructions, job.flops,
                job.active_fu_cycles) == (
            result.total_cycles, result.instructions_issued,
            result.total_flops,
            sum(r.active_fus * r.vector_length
                for r in result.pipeline_results),
        ), f"row {j}: run totals"
        assert (job.transfers, job.words_read, job.words_written) == tuple(
            now - then for now, then in zip(
                (stats.transfers, stats.words_read, stats.words_written),
                before)
        ), f"row {j}: DMA charges"
        assert (job.conditions_true, job.conditions_false) == (
            conditions.count(True), conditions.count(False))
        metrics = machine.metrics(result)
        assert job.metrics(machine.node).summary() == metrics.summary()
        assert job.metrics(machine.node) == metrics
        assert run.loop_iterations[j] == result.loop_iterations
        assert run.converged[j] == result.converged
        assert run.halted == result.halted
    return Parity(run, storage, list(machines), results)


__all__ = ["Parity", "check_parity", "run_stacked"]
