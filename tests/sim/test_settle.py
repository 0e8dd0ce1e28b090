"""Condition chains: the steps that only feed a sweep's reduced condition,
which the script walk skips when witnesses settle the condition
(:mod:`repro.sim.settle`).  The chains the registry solvers get, the
slab oracle over non-finite values landing on a witness mid-run, the
exact public ``issue()``, and the run's counters."""

import math

import numpy as np
import pytest

from helpers_slab import check_parity
from repro.arch.funcunit import Opcode
from repro.codegen.generator import MicrocodeGenerator
from repro.compose.builders import PipelineBuilder
from repro.compose.iterative import build_rbsor_program
from repro.compose.jacobi import build_jacobi_program
from repro.diagram.program import (
    ExecPipeline, LoopUntil, SwapVars, VisualProgram,
)
from repro.service.cache import ProgramCache
from repro.service.jobs import SimJob
from repro.service.runner import BatchRunner
from repro.sim import batchplan, progplan
from repro.sim.machine import NSCMachine

_N = 16
_SPIKE = 5  # the largest |x| of the poisoned rows: their first witness


def _kernel(node, setup, index=1):
    program = MicrocodeGenerator(node).generate(setup.program)
    return progplan.compiled_plan(program, node.params).kernels[index]


class TestChains:
    def test_jacobi_chain_is_the_residual(self, node):
        kernel = _kernel(node, build_jacobi_program(node, (6, 6, 6),
                                                    eps=1e-4))
        chain = kernel.chain
        modes = [kernel.steps[i][:2] for i in chain.steps]
        assert modes[0] == (progplan._M_BINARY, np.subtract)
        assert modes[1] == (progplan._M_REDUCE, np.maximum)
        assert chain.steps == kernel.runs[-2:]
        # the runner's own entry runs the rest
        assert len(kernel.runner_shape[1]) == len(kernel.runs) - 2

    def test_each_red_black_phase_chain_is_its_reduce(self, node):
        setup = build_rbsor_program(node, (6, 6, 6), omega=1.3, eps=1e-4,
                                    max_iterations=8)
        for index in (1, 2):
            kernel = _kernel(node, setup, index)
            (i,) = kernel.chain.steps
            assert kernel.steps[i][0] == progplan._M_REDUCE

    def test_a_watched_row_has_no_chain(self, node):
        """A condition on a unit's last element (not reduced) reads its
        row after the runner: nothing to settle."""
        prog = VisualProgram(name="last")
        prog.declare("x", plane=0, length=8)
        prog.declare("r", plane=1, length=8)
        b = PipelineBuilder(node, prog, vector_length=8)
        # a unit reads one plane or writes one: x comes through a PASS
        t = b.apply(Opcode.FADDC, b.apply(Opcode.PASS, b.read_var("x")),
                    constant=1.0)
        b.write_var(t, "r")
        b.condition(b.apply(Opcode.FNEG, t), "lt", 0.0)
        b.build()
        prog.add_control(ExecPipeline(0))
        program = MicrocodeGenerator(node).generate(prog)
        (kernel,) = progplan.compiled_plan(program,
                                           node.params).kernels.values()
        assert kernel.chain is None


def _growing(node, max_iterations=8):
    """``r = x * 1e200`` (written in place) and the condition
    ``max|r - x| < 1e-300`` under ``LoopUntil`` with ``SwapVars(x, r)``:
    each sweep scales ``x``, so a row's largest element overflows to inf
    on the second sweep and to nan in ``r - x`` on the third — at the
    position its first full reduction made its witness."""
    prog = VisualProgram(name="grow")
    prog.declare("x", plane=0, length=_N)
    prog.declare("r", plane=1, length=_N)
    b = PipelineBuilder(node, prog, vector_length=_N)
    x = b.read_var("x")
    # a unit reads one plane or writes one: x comes through a PASS
    r = b.apply(Opcode.FSCALE, b.apply(Opcode.PASS, x), constant=1e200)
    b.write_var(r, "r")
    b.condition(
        b.apply(Opcode.MAXABS, b.apply(Opcode.FSUB, r, x), b.feedback(0.0)),
        "lt", 1e-300)
    b.build()
    prog.add_control(LoopUntil(body=(ExecPipeline(0), SwapVars("x", "r")),
                               condition_pipeline=0,
                               max_iterations=max_iterations))
    return MicrocodeGenerator(node).generate(prog)


def _machines(node, program, rows):
    machines = []
    for row in rows:
        machine = NSCMachine(node)
        machine.load_program(program)
        machine.set_variable("x", np.asarray(row, dtype=np.float64))
        machines.append(machine)
    return machines


def _rows():
    spiked = np.full(_N, 1e-300)
    spiked[_SPIKE] = 10.0
    negative = spiked.copy()
    negative[_SPIKE] = -10.0
    return [spiked, np.zeros(_N), negative]


class TestSettledParity:
    @pytest.mark.parametrize("rows", [slice(0, 1), slice(0, 3)],
                             ids=["lone", "slab"])
    def test_nonfinite_at_a_witness_mid_run(self, node, rows):
        """inf, then nan, lands on the witness of the poisoned rows while
        the zero row fires on the first sweep and freezes; every issue's
        condition result, and every value logged, matches the
        reference."""
        program = _growing(node)
        with np.errstate(all="ignore"):
            parity = check_parity(_machines(node, program, _rows()[rows]),
                                  program)
        run = parity.run
        # the first sweep reduces (no witnesses yet); the later ones
        # settle on the spike, inf then nan
        assert run.reduced == 1
        assert run.settled == 7
        (bound,) = run.bound.values()
        assert bound._witnesses[0][0] == _SPIKE
        assert not math.isfinite(parity.row(0, "x")[_SPIKE])
        assert not parity.results[0].converged

    def test_a_settled_issue_logs_results_without_values(self, node):
        program = _growing(node)
        with np.errstate(all="ignore"):
            parity = check_parity(_machines(node, program, _rows()[:1]),
                                  program)
        sweeps = [entry for entry in parity.run.log if entry[0] >= 0]
        assert sweeps[0][1] is not None and sweeps[0][2] == [False]
        assert all(values is None and conds == [False]
                   for _index, values, conds, _active in sweeps[1:])


class TestExactIssue:
    def test_public_issue_returns_every_value(self, node):
        """The stepped path (a hypercube's) always reduces: its values
        feed the global residual."""
        program = _growing(node)
        plan = progplan.compiled_plan(program, node.params)
        storage = progplan.stacked_storage(
            plan.variables, 1, plan.plane_extent, plan.cache_extent)
        storage.set_variable("x", _rows()[0])
        run = batchplan.BatchProgramRun(plan, storage, 1, 100)
        values = []
        with np.errstate(all="ignore"):
            for _ in range(3):
                values.append(run.issue(0))
                run.swap_vars("x", "r")
        assert values[0] == [10.0 * 1e200 - 10.0]
        assert values[1] == [math.inf] and math.isnan(values[2][0])
        assert run.settled == run.reduced == 0


class TestCounters:
    def test_a_slab_counts_its_settled_and_reduced_issues(self,
                                                          monkeypatch):
        jobs = [SimJob(method="jacobi", shape=(6, 6, 6), eps=1e-6,
                       max_sweeps=500, backend="fast", u0_seed=seed)
                for seed in range(2)]
        runs = []
        real_run = batchplan.BatchProgramRun.run

        def spy(self):
            runs.append(self)
            return real_run(self)

        monkeypatch.setattr(batchplan.BatchProgramRun, "run", spy)
        runner = BatchRunner(workers=1, cache=ProgramCache(),
                             batch_fusion="auto")
        records, _ = runner.run(jobs)
        assert [r["tier"] for r in records] == ["batch_fused"] * 2
        (run,) = runs
        # every sweep issue of the slab, once
        assert run.settled + run.reduced == max(
            r["sweeps"] for r in records)
        assert run.settled > run.reduced > 0
        counters = runner.last_telemetry.counters
        assert counters["condition.settled"] == run.settled
        assert counters["condition.reduced"] == run.reduced
