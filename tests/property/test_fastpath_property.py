"""Property: the fast backend agrees with the reference.

Two levels: builder jobs through the service, whose fast records (a
lone job on the slab engine) must equal their reference records, and
random Jacobi *control scripts* — nested ``Repeat``, ``LoopUntil``,
``SwapVars`` and ``CacheSwap`` ops, balanced or residual-skew
(ablation) builds — run through ``helpers_slab.check_parity``'s oracle
against a reference machine.  Both run a small example count in tier-1
and the ``ci`` profile's under ``--hypothesis-profile=ci``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers_slab import check_parity
from repro.arch.node import NodeConfig
from repro.codegen.generator import MicrocodeGenerator
from repro.compose.jacobi import build_jacobi_program, load_jacobi_inputs
from repro.compose.registry import SOLVERS
from repro.diagram.program import (
    CacheSwap,
    ExecPipeline,
    Halt,
    LoopUntil,
    Repeat,
    SwapVars,
)
from repro.service.cache import ProgramCache
from repro.service.jobs import SimJob
from repro.service.results import canonical_line
from repro.service.runner import execute_job
from repro.sim.machine import NSCMachine

#: a small count in tier-1, the ``ci`` profile's count in CI
_EXAMPLES = (
    settings.default.max_examples
    if settings.get_current_profile_name() == "ci" else None
)
_dims = st.integers(min_value=3, max_value=6)

#: record keys that name the backend or the tier that ran the job
_TIER_KEYS = ("job_id", "label", "backend", "tier")


@st.composite
def builder_jobs(draw):
    n = draw(st.integers(min_value=5, max_value=8))
    return SimJob(
        method=draw(st.sampled_from(sorted(SOLVERS))),
        shape=(n, n, n),
        eps=draw(st.sampled_from([1e-2, 1e-3, 1e-4])),
        omega=draw(st.sampled_from([1.0, 1.2, 1.5, 1.8])),
        u0_seed=draw(st.none() | st.integers(min_value=0, max_value=2**16)),
        subset=draw(st.booleans()),
        max_sweeps=60,
        keep_fields=True,
    )


@settings(max_examples=_EXAMPLES or 10, deadline=None)
@given(job=builder_jobs())
def test_fast_records_equal_reference_records(job):
    """``execute_job`` stores the same canonical record on both backends,
    apart from the keys naming the backend and tier; the fast job runs
    on the slab (no decline)."""
    records = {
        backend: execute_job(SimJob.from_dict({**job.to_dict(),
                                               "backend": backend}),
                             cache=ProgramCache())
        for backend in ("fast", "reference")
    }
    fast, reference = records["fast"], records["reference"]
    assert fast["ok"] and reference["ok"], (fast.get("error"),
                                            reference.get("error"))
    assert (fast["tier"], reference["tier"]) == ("fused", "reference")
    assert "fallback_reason" not in fast
    fields = [record.pop("fields")["u"] for record in (fast, reference)]
    np.testing.assert_array_equal(*fields)

    def computed(record):
        return canonical_line({k: v for k, v in record.items()
                               if k not in _TIER_KEYS})

    assert computed(fast) == computed(reference)


# ----------------------------------------------------------------------
# random control scripts
# ----------------------------------------------------------------------
@st.composite
def _control_blocks(draw, depth):
    """A random control block over the Jacobi program's two pipelines."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        choices = ["exec", "swap", "cacheswap"]
        if depth < 2:
            choices += ["repeat", "loop"]
        kind = draw(st.sampled_from(choices))
        if kind == "exec":
            ops.append(ExecPipeline(1))
        elif kind == "swap":
            ops.append(SwapVars("u", "u_new"))
        elif kind == "cacheswap":
            caches = draw(st.sampled_from([(0,), (1,), (0, 1)]))
            # swap twice so the update pipeline still sees valid masks
            ops.append(CacheSwap(caches=caches))
            ops.append(CacheSwap(caches=caches))
        elif kind == "repeat":
            body = tuple(draw(_control_blocks(depth=depth + 1)))
            ops.append(Repeat(body=body, times=draw(
                st.integers(min_value=0, max_value=3))))
        else:
            body = tuple(draw(_control_blocks(depth=depth + 1)))
            body += (ExecPipeline(1), SwapVars("u", "u_new"))
            ops.append(LoopUntil(
                body=body,
                condition_pipeline=1,
                max_iterations=draw(st.integers(min_value=1, max_value=12)),
            ))
    return ops


@st.composite
def control_script_cases(draw):
    shape = (draw(_dims), draw(_dims), draw(_dims))
    eps = draw(st.sampled_from([1e-1, 1e-2, 1e-4]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    script = [ExecPipeline(0), CacheSwap(caches=(0, 1))]
    script += draw(_control_blocks(depth=0))
    if draw(st.booleans()):
        script.append(Halt())
    # residual skew (auto_balance=False), a coverage dimension the
    # fused engine closed
    skewed = draw(st.booleans())
    return shape, eps, seed, script, skewed


@settings(max_examples=_EXAMPLES or 15, deadline=None)
@given(case=control_script_cases())
def test_random_control_scripts_agree(case):
    """Fused == reference on arbitrary nested control scripts, balanced
    or skewed: the oracle compares iteration counts, halts, relocations,
    end-state rows, charges and interrupt counts."""
    shape, eps, seed, script, skewed = case
    node = NodeConfig()
    setup = build_jacobi_program(node, shape, eps=eps, loop=False)
    prog = setup.program
    prog.control.clear()
    for op in script:
        prog.add_control(op)
    program = MicrocodeGenerator(node, auto_balance=not skewed).generate(prog)
    rng = np.random.default_rng(seed)
    machine = NSCMachine(node)
    machine.load_program(program)
    load_jacobi_inputs(machine, setup, rng.random(shape),
                       rng.standard_normal(shape))
    # the compiled engine must accept every drawn script: the oracle
    # raises on a decline, and compares every plane the run touches
    check_parity([machine], program)
