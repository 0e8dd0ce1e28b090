"""The analysis acceptance bar on the real corpus.

Negative side: every program the repo actually ships — the registry
solvers at the bench shapes and the multinode local program — must
analyze with *zero* findings; a finding on a seed program is a CI
failure and the finding itself is the assertion message.  Positive
side: every seeded defect class must be flagged with its expected rule
on every solver (zero false negatives).  In between, the shared
plan-safety engine is pinned against the executors' own answers:
``reduce_fus`` against the units each :class:`ImageKernel` folds, and
``fusion_eligibility`` against an exact one-row
:class:`~repro.sim.batchplan.BatchProgramRun` of the whole script.
"""

import pytest

from repro.analysis import analyze_program, fusion_eligibility, reduce_fus
from repro.analysis.seeding import SEEDED_DEFECTS
from repro.codegen.generator import MicrocodeGenerator
from repro.compose.jacobi import build_jacobi_program
from repro.compose.registry import SOLVERS
from repro.diagram.program import ExecPipeline, Halt, LoopUntil, SwapVars
from repro.sim import batchplan, progplan
from repro.sim.machine import NSCMachine
from repro.sim.sequencer import SequencerError

from helpers_slab import check_parity


def _corpus(node):
    generator = MicrocodeGenerator(node, run_checker=False)
    for entry in SOLVERS.values():
        for n in (7, 9):
            setup = entry.build_setup(
                node, (n, n, n), eps=1e-4, max_iterations=100, omega=1.5
            )
            yield f"{entry.name}-{n}", generator.generate(setup.program)


@pytest.fixture(scope="module")
def corpus(node):
    return list(_corpus(node))


class TestCorpusClean:
    def test_registry_corpus_analyzes_clean(self, corpus):
        for name, program in corpus:
            verdict = analyze_program(program)
            assert verdict.clean, (
                f"{name} must analyze clean but reported:\n"
                + verdict.format()
            )
            assert verdict.ok and verdict.issues_walked > 0
            assert verdict.fusion_eligible

    def test_multinode_local_program_analyzes_clean(self, node):
        # the hypercube slab program (loop=False: fixed-sweep body)
        setup = build_jacobi_program(node, (6, 6, 12), eps=1e-30, loop=False)
        program = MicrocodeGenerator(node, run_checker=False).generate(
            setup.program
        )
        verdict = analyze_program(program)
        assert verdict.clean, verdict.format()


class TestSeededDefects:
    """Zero false negatives: every planted defect class is reported."""

    @pytest.mark.parametrize("rule", sorted(SEEDED_DEFECTS))
    def test_defect_class_flagged_on_every_solver(self, rule, corpus):
        injector = SEEDED_DEFECTS[rule]
        for name, program in corpus:
            mutant = injector(program)
            verdict = analyze_program(mutant)
            rules = {f.rule for f in verdict.findings}
            assert rule in rules, (
                f"seeded {rule} on {name} went undetected "
                f"(reported only {sorted(rules)})"
            )

    def test_error_defects_break_static_ok(self, corpus):
        _name, program = corpus[0]
        for rule in ("double-write", "uninit-read", "raw-race",
                     "port-conflict"):
            verdict = analyze_program(SEEDED_DEFECTS[rule](program))
            assert not verdict.ok, rule

    def test_mutation_leaves_original_untouched(self, corpus):
        name, program = corpus[0]
        before = program.fingerprint()
        n_writes = [len(im.write_programs) for im in program.images]
        for injector in SEEDED_DEFECTS.values():
            injector(program)
        assert program.fingerprint() == before
        assert [len(im.write_programs) for im in program.images] == n_writes
        assert analyze_program(program).clean


class TestReduceCrossCheck:
    """reduce_fus == the units the fused engine folds to reductions."""

    def test_matches_compiled_kernels_on_corpus(self, node, corpus):
        checked_any = False
        for name, program in corpus:
            plan = progplan.compiled_plan(program, node.params)
            for index, kernel in plan.kernels.items():
                # folded units are the kernel's reduction steps
                reduced = {step[-1] for step in kernel.steps
                           if step[0] == progplan._M_REDUCE}
                assert reduce_fus(program.images[index]) == reduced, (
                    f"{name} image {index}: reduce-FU sets diverge"
                )
                checked_any = True
        assert checked_any


class TestFusionCrossCheck:
    """fusion_eligibility against an exact one-row run of the script.

    A one-row run walks every script the reference walks and raises the
    reference-visible faults, so it is an answer of its own: it must
    fault where ``fusion_eligibility`` declines an invalid issue or a
    missing watch, and run where ``fusion_eligibility`` accepts.  The
    shapes only a slab declines (``Halt`` in a loop body, nested loops)
    it runs as the reference does.
    """

    def _mutated(self, node, control_ops):
        setup = build_jacobi_program(node, (5, 5, 5), eps=1e-3, loop=False)
        prog = setup.program
        prog.control.clear()
        for op in control_ops:
            prog.add_control(op)
        return MicrocodeGenerator(node, run_checker=False).generate(prog)

    def _dynamic_verdict(self, node, program):
        """The fault an exact one-row run of *program* (on the zeroed
        storage a freshly loaded machine holds) raises, or None."""
        plan = progplan.compiled_plan(program, node.params)
        storage = progplan.stacked_storage(
            plan.variables, 1, plan.plane_extent, plan.cache_extent)
        run = batchplan.BatchProgramRun(plan, storage, 1, 10_000)
        try:
            run.run()
        except SequencerError as exc:
            return str(exc)
        return None

    def test_corpus_is_batchable_both_ways(self, node, corpus):
        for name, program in corpus:
            eligible, reasons = fusion_eligibility(program)
            assert eligible and reasons == (), name
            assert self._dynamic_verdict(node, program) is None, name

    def test_bad_issue_index_declines_both_ways(self, node):
        # the diagram layer refuses out-of-range control entries, so a
        # dangling issue index can only appear in mutated machine code
        program = self._mutated(node, [ExecPipeline(0), Halt()])
        program.control.insert(1, ExecPipeline(7))
        eligible, reasons = fusion_eligibility(program)
        assert not eligible
        assert self._dynamic_verdict(node, program) \
            == "no pipeline 7 in this program"

    def test_missing_watch_declines_both_ways(self, node):
        # the diagram layer validates watches against pipeline
        # *declarations*; a body that never issues the watched pipeline
        # only appears in mutated machine code
        setup = build_jacobi_program(node, (5, 5, 5), eps=1e-3)
        program = MicrocodeGenerator(node, run_checker=False).generate(
            setup.program
        )
        loop = next(
            op for op in program.control if isinstance(op, LoopUntil)
        )
        key = loop.condition_pipeline
        other = next(
            i for i, image in enumerate(program.images)
            if image.number != key or image.condition is None
        )
        mutated = loop._replace(body=(ExecPipeline(other),))
        program.control = [
            mutated if op is loop else op for op in program.control
        ]
        eligible, reasons = fusion_eligibility(program)
        assert not eligible
        dynamic = self._dynamic_verdict(node, program)
        assert dynamic is not None and "never executed" in dynamic

    @pytest.mark.parametrize("ops_name", [
        "halt_in_loop", "nested_loop",
    ])
    def test_declining_scripts_agree(self, node, ops_name):
        scripts = {
            "halt_in_loop": [
                ExecPipeline(0),
                LoopUntil(
                    body=(ExecPipeline(1), Halt(), SwapVars("u", "u_new")),
                    condition_pipeline=1,
                    max_iterations=4,
                ),
            ],
            "nested_loop": [
                ExecPipeline(0),
                LoopUntil(
                    body=(
                        ExecPipeline(1),
                        LoopUntil(
                            body=(ExecPipeline(1),),
                            condition_pipeline=1,
                            max_iterations=2,
                        ),
                    ),
                    condition_pipeline=1,
                    max_iterations=4,
                ),
            ],
        }
        program = self._mutated(node, scripts[ops_name])
        eligible, reasons = fusion_eligibility(program)
        assert not eligible and reasons
        # a slab-only decline: one row walks the script without a
        # fault, as the reference does
        assert self._dynamic_verdict(node, program) is None
        machine = NSCMachine(node)
        machine.load_program(program)
        check_parity([machine], program, max_instructions=10_000)
