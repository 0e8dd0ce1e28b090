"""A test-only stand-in for committing a stacked slab into N machines
(imported by basename: ``tests/`` is on ``sys.path`` through its
``conftest.py``, and ``helpers_slab`` is unique repo-wide).

The fused engine commits into one machine only
(:func:`repro.sim.batchplan.try_run_fused`).  Parity tests that compare
each row of a slab with its own single-machine run load the rows from
machines, run one :class:`~repro.sim.batchplan.BatchProgramRun` over
the stack and commit each row back with the engine's own
:func:`~repro.sim.batchplan.write_back` and
:func:`~repro.sim.batchplan.replay_interrupts`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.sim import batchplan, progplan
from repro.sim.sequencer import SequencerResult


def run_machines_stacked(machines: Sequence, program,
                         max_instructions: int = 1_000_000,
                         ) -> Optional[List[SequencerResult]]:
    """Run *program* over *machines* (one parameter set) as one stacked
    slab; return each machine's result, or None on a decline, which
    leaves every machine as it was."""
    try:
        plan = progplan.compiled_plan(program, machines[0].node.params)
        armed = [batchplan.machine_bindings(plan, m) for m in machines]
        storage = progplan.stacked_storage(
            plan.variables, len(machines), plan.plane_extent,
            plan.cache_extent,
        )
        for j, machine in enumerate(machines):
            batchplan._read_row(machine, storage, j)
        run = batchplan.BatchProgramRun(plan, storage, len(machines),
                                        max_instructions)
        run.run()
    except progplan.FusionUnsupported:
        return None
    results = []
    for j, machine in enumerate(machines):
        job = run.job(j, records=True)
        batchplan.write_back(machine, storage, j, job)
        machine.cycle = job.cycles
        batchplan.replay_interrupts(machine, job.irq_log, armed[j])
        machine.interrupts.drain()
        results.append(job.result)
    return results
