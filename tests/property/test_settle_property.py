"""Property: a witness that settles a condition never contradicts the
reduction.

The fused engine's script walk skips a sweep's condition chain (the
steps that only feed a reduced condition, :mod:`repro.sim.settle`) when
every active row has a *witness*, a position at which the chain's value
fails the exit test.  That is exact only if the generated test computes
the chain's own IEEE results at the witness and the fold cannot then
fire.  This suite draws single-image programs whose chain is a binary
ufunc of ``x`` and a tap of ``x`` (unshifted: the stream itself;
shifted: a pad window), then optionally a unary and a constant step,
folded by a MAX/MAXABS reducer under ``lt``/``le`` or a MIN/MINABS one
under ``gt``/``ge``.  Rows hold nan, +-inf, +-0.0 and values equal to
the threshold; witnesses are any positions.  Whenever the test settles
a row, the bound image's full reduce and fold must give ``False`` for
that row.

Example counts follow the active hypothesis profile: a handful under the
default, the ``ci`` profile's count under ``--hypothesis-profile=ci``
(see ``tests/conftest.py``).
"""

import math

import numpy as np
from hypothesis import event, given, settings, strategies as st

from repro.arch.funcunit import Opcode
from repro.arch.node import NodeConfig
from repro.codegen.generator import MicrocodeGenerator
from repro.compose.builders import PipelineBuilder
from repro.diagram.program import ExecPipeline, VisualProgram
from repro.sim import progplan

_NODE = NodeConfig()
_EXAMPLES = (
    settings.default.max_examples
    if settings.get_current_profile_name() == "ci" else 15
)
_N = 6

_FOLDS = ((Opcode.MAX, "lt"), (Opcode.MAX, "le"), (Opcode.MAXABS, "lt"),
          (Opcode.MAXABS, "le"), (Opcode.MIN, "gt"), (Opcode.MIN, "ge"),
          (Opcode.MINABS, "gt"), (Opcode.MINABS, "ge"))
_SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 0.5,
            1e308, -1e308, 5e-324)


@st.composite
def chains(draw):
    """A program whose one image ends in a condition chain, and its
    threshold."""
    threshold = draw(st.sampled_from((0.0, -0.0, 0.5, 1.0, -1.0, math.inf,
                                      -math.inf)))
    reducer, comparison = draw(st.sampled_from(_FOLDS))
    prog = VisualProgram(name="settle-fuzz")
    prog.declare("x", plane=0, length=_N)
    b = PipelineBuilder(_NODE, prog, vector_length=_N)
    x = b.read_var("x")
    (tap,) = b.through_sd(x, [draw(st.sampled_from((0, 1, -1)))])
    binary = draw(st.sampled_from((Opcode.FADD, Opcode.FSUB, Opcode.FMUL,
                                   Opcode.MAX, Opcode.MIN)))
    ref = b.apply(binary, x, tap)
    unary = draw(st.sampled_from((None, Opcode.FNEG, Opcode.FABS)))
    if unary is not None:
        ref = b.apply(unary, ref)
    const = draw(st.sampled_from((None, Opcode.FSCALE, Opcode.FADDC)))
    if const is not None:
        ref = b.apply(const, ref, constant=draw(st.sampled_from(
            (2.0, -0.5, 0.0, -0.0, math.inf))))
    # only a finite seed folds to one reduction (plansafety.reduce_fus)
    init = draw(st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e308)))
    b.condition(b.apply(reducer, ref, b.feedback(init)), comparison,
                threshold)
    b.build()
    prog.add_control(ExecPipeline(0))
    return MicrocodeGenerator(_NODE).generate(prog), threshold


_WITNESSES = st.lists(st.integers(0, _N - 1), max_size=2, unique=True)


@settings(max_examples=_EXAMPLES, deadline=None)
@given(chains(), st.data())
def test_a_settled_row_never_fires(case, data):
    program, threshold = case
    # a small pool around the threshold, so folds that equal it are
    # common
    value = st.sampled_from(_SPECIAL + (threshold, -threshold)) \
        | st.floats(-4.0, 4.0)
    n_rows = data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(st.lists(value, min_size=_N, max_size=_N),
                              min_size=n_rows, max_size=n_rows))
    witnesses = data.draw(st.lists(_WITNESSES, min_size=n_rows,
                                   max_size=n_rows))
    plan = progplan.compiled_plan(program, _NODE.params)
    (kernel,) = plan.kernels.values()
    assert kernel.chain is not None
    storage = progplan.stacked_storage(plan.variables, n_rows,
                                       plan.plane_extent, plan.cache_extent)
    var = plan.variables["x"]
    storage.planes[var.plane][:, var.offset:var.end] = np.array(rows)
    bound = kernel.bind(storage, (n_rows,))
    bound._witnesses[:] = [tuple(w) for w in witnesses]
    with np.errstate(all="ignore"):
        bound.issue_compute()
        # one row at a time: a row the witnesses do not settle runs the
        # chain and refreshes that row's witnesses only
        settled = [j for j in range(n_rows)
                   if bound.issue_condition((j,))]
        bound.issue_condition(None)
    values = bound.condition_last()
    for j in settled:
        assert not kernel.cond_fn(values[j], threshold), (j, values[j])
    event(f"settled {len(settled)} of {n_rows} rows")
    event("a fold equals the threshold" if any(
        v == threshold for v in values) else "no fold equals the threshold")
