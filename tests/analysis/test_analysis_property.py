"""Property-based analyzer contract.

Soundness: programs the design-rule checker accepts must never earn an
*error*-severity finding (the analyzer's error class is "the machine
would fault or race", so a checker-clean, runnable program contradicting
that is an analyzer bug).  Usefulness: an analyzer-clean program runs
bit-identically on the reference interpreter and the fused fast path —
static cleanliness really does mean nothing execution-order-dependent.
Completeness: every seeded defect class is flagged on every (solver,
shape) draw — zero false negatives, the bar ``nsc-vpe analyze`` and
the CI ``analyze`` job rely on.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from helpers_slab import check_parity
from repro.analysis import analyze_program
from repro.analysis.seeding import SEEDED_DEFECTS
from repro.arch.funcunit import Opcode
from repro.arch.node import NodeConfig
from repro.checker.checker import Checker
from repro.codegen.generator import MicrocodeGenerator
from repro.compose.builders import BuilderError, ConstOperand, PipelineBuilder
from repro.compose.exprmap import (
    BinOp,
    Const,
    UnOp,
    Var,
    expr_fu_count,
    map_expression,
)
from repro.compose.registry import SOLVERS
from repro.diagram.program import ExecPipeline, Halt, VisualProgram
from repro.sim.machine import NSCMachine

NODE = NodeConfig()
VAR_NAMES = ("a", "b", "c")

_wrapped_var = st.builds(
    UnOp,
    opcode=st.sampled_from([Opcode.FABS, Opcode.FNEG]),
    operand=st.builds(Var, name=st.sampled_from(VAR_NAMES)),
)
_leaf = st.one_of(
    _wrapped_var,
    st.builds(Const, value=st.floats(-4, 4, allow_nan=False).map(
        lambda v: round(v, 3))),
)


def _exprs(max_leaves: int = 6):
    return st.recursive(
        _leaf,
        lambda children: st.one_of(
            st.builds(
                BinOp,
                opcode=st.sampled_from(
                    [Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.MAX,
                     Opcode.MIN]
                ),
                left=children,
                right=children,
            ),
            st.builds(
                UnOp,
                opcode=st.sampled_from([Opcode.FNEG, Opcode.FABS]),
                operand=children,
            ),
        ),
        max_leaves=max_leaves,
    )


def _compile_expression(expr, n=12):
    """Random expression -> MachineProgram, or None when unbuildable."""
    prog = VisualProgram(name="prop-analysis")
    for i, name in enumerate(VAR_NAMES):
        prog.declare(name, plane=i, length=n)
    prog.declare("result", plane=len(VAR_NAMES), length=n)
    b = PipelineBuilder(NODE, prog, vector_length=n)
    bound = {name: b.read_var(name) for name in VAR_NAMES}
    try:
        root = map_expression(b, expr, bound)
        if isinstance(root, ConstOperand):
            return None
        out = b.apply(Opcode.PASS, root)
    except BuilderError:
        return None
    b.write_var(out, "result")
    b.build()
    prog.add_control(ExecPipeline(0))
    prog.add_control(Halt())
    report = Checker(NODE).check_program(prog)
    assert report.ok, report.format()
    return MicrocodeGenerator(NODE).generate(prog)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(expr=_exprs(), data=st.data())
def test_checker_clean_programs_have_no_error_findings(expr, data):
    if not (1 <= expr_fu_count(expr) <= 24):
        return
    program = _compile_expression(expr)
    if program is None:
        assume(False)
        return
    verdict = analyze_program(program)
    errors = [f for f in verdict.findings if f.severity == "error"]
    assert not errors, verdict.format()

    # analyzer-clean => reference and fused agree bit for bit
    if not verdict.clean:
        return
    n = 12
    env = {
        name: np.array(
            data.draw(
                st.lists(
                    st.floats(-3, 3, allow_nan=False).map(
                        lambda v: round(v, 3)),
                    min_size=n, max_size=n,
                )
            )
        )
        for name in VAR_NAMES
    }
    machine = NSCMachine(NODE)
    machine.load_program(program)
    for name, values in env.items():
        machine.set_variable(name, values)
    parity = check_parity([machine], program)
    np.testing.assert_array_equal(machine.get_variable("result"),
                                  parity.row(0, "result"))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    rule=st.sampled_from(sorted(SEEDED_DEFECTS)),
    method=st.sampled_from(sorted(SOLVERS)),
    n=st.sampled_from([5, 6, 7]),
)
def test_seeded_defects_always_flagged(rule, method, n):
    entry = SOLVERS[method]
    setup = entry.build_setup(
        NODE, (n, n, n), eps=1e-4, max_iterations=50, omega=1.4
    )
    program = MicrocodeGenerator(NODE, run_checker=False).generate(
        setup.program
    )
    assert analyze_program(program).clean
    mutant = SEEDED_DEFECTS[rule](program)
    verdict = analyze_program(mutant)
    assert rule in {f.rule for f in verdict.findings}, (
        f"{rule} seeded into {method}-{n} went unflagged:\n"
        + verdict.format()
    )
