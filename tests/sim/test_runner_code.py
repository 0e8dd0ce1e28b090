"""Runner code is keyed by kernel shape: kernels whose runner text differs
never share a code object, and a ufunc that needs ``out=`` by keyword
always gets it."""

import numpy as np
import pytest

from helpers_slab import check_parity
from repro.arch.funcunit import Opcode
from repro.codegen.generator import MicrocodeGenerator
from repro.compose.builders import PipelineBuilder
from repro.diagram.program import ExecPipeline, Halt, SwapVars, VisualProgram
from repro.service.jobs import SimJob
from repro.service.runner import BatchRunner
from repro.sim.fastpath import PLAN_CACHE
from repro.sim.machine import NSCMachine
from repro.sim.progplan import _runner_code, compiled_plan

N = 16
X, Y = np.random.default_rng(5).standard_normal((2, N))


def _binary_program(node, opcode):
    """``out <- opcode(-x, y)``; the FNEG and a PASS keep each unit on
    one plane.  The script swaps ``x`` and ``y`` after the issue, so no
    step is loop-invariant: every step stays in the runner."""
    prog = VisualProgram(name=f"binary-{opcode.value}")
    prog.declare("x", plane=0, length=N, initializer="user")
    prog.declare("y", plane=1, length=N, initializer="user")
    prog.declare("out", plane=2, length=N)
    b = PipelineBuilder(node, prog, vector_length=N)
    x = b.apply(Opcode.FNEG, b.read_var("x"))
    z = b.apply(opcode, x, b.read_var("y"))
    b.write_var(b.apply(Opcode.PASS, z), "out")
    b.build()
    prog.add_control(ExecPipeline(0))
    prog.add_control(SwapVars("x", "y"))
    prog.add_control(Halt())
    return MicrocodeGenerator(node).generate(prog)


def _run_fast(node, program):
    """Run *program* on the fused engine against the reference: its
    kernel's runner code and the output."""
    machine = NSCMachine(node)
    machine.load_program(program)
    machine.set_variable("x", X)
    machine.set_variable("y", Y)
    parity = check_parity([machine], program)
    (kernel,) = compiled_plan(program, node.params).kernels.values()
    code = _runner_code(kernel.runner_shape)
    return code, parity.row(0, "out")


def _passes_out_by_keyword(code):
    return ("out",) in code.co_consts


@pytest.mark.parametrize("opcode,ufunc", [(Opcode.MAX, np.maximum),
                                          (Opcode.MIN, np.minimum)])
def test_keyword_out_never_shares_a_positional_runner(node, opcode, ufunc):
    add_code, add_out = _run_fast(node, _binary_program(node, Opcode.FADD))
    code, out = _run_fast(node, _binary_program(node, opcode))
    # the same steps but for the ufunc: only the out= flag tells them apart
    assert code.co_argcount == add_code.co_argcount
    assert code is not add_code
    assert _passes_out_by_keyword(code)
    assert not _passes_out_by_keyword(add_code)
    np.testing.assert_array_equal(add_out, -X + Y)
    np.testing.assert_array_equal(out, ufunc(-X, Y))


def test_same_shape_reuses_the_code_object(node):
    first = _run_fast(node, _binary_program(node, Opcode.FADD))[0]
    misses = _runner_code.cache_info().misses
    # FSUB is another positional binary ufunc: same shape, same code, and
    # no runner source formatted for it
    second = _run_fast(node, _binary_program(node, Opcode.FSUB))[0]
    assert second is first
    assert _runner_code.cache_info().misses == misses


def _kernel_shapes(method):
    job = SimJob(method=method, shape=(6, 6, 6), eps=1e-3, max_sweeps=200,
                 omega=1.3, backend="fast")
    (record,), _ = BatchRunner(workers=1).run([job])
    assert record["ok"] and record["tier"] == "fused"
    (plan,) = [p for p in PLAN_CACHE._data.values()
               if p.program.fingerprint() == record["program_fingerprint"]]
    return [kernel.runner_shape
            for kernel in plan.kernels.values()]


def test_jacobi_and_rb_sor_kernels_share_code_only_by_shape():
    PLAN_CACHE.clear()
    shapes = _kernel_shapes("jacobi") + _kernel_shapes("rb-sor")
    pairs = [(a, b) for i, a in enumerate(shapes) for b in shapes[i + 1:]]
    # the update kernels differ (red-black ordering, relaxation)
    assert any(a != b for a, b in pairs)
    for a, b in pairs:
        assert (_runner_code(a) is _runner_code(b)) == (a == b)
