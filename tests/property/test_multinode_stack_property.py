"""Property: a fast hypercube's stack is what the per-node reference walk
leaves in its machines.

A fast :class:`~repro.sim.multinode.MultiNodeStencil` runs its nodes as
the rows of one stack (:func:`repro.sim.progplan.fused_stepper`); the
reference backend walks one :class:`~repro.sim.machine.NSCMachine` per
node.  This suite draws hypercubes of 1–8 nodes over small grids
(``nz`` a multiple of the node count), 1–6 sweeps, a convergence
threshold of ``0.0``, ``1e-30`` or a loose one, and seeded ``u`` and
``f`` grids with nan, +-inf and -0.0 at random cells, cells on the
planes next to a slab boundary included.  It runs both backends from
one compiled node program and checks that

- the fast run stays on the fused tier (no decline);
- every :class:`~repro.sim.multinode.MultiNodeResult` field equals the
  reference's, ``residual_history`` compared with NaNs equal;
- every variable's stack rows equal the reference machines'
  ``get_variable``, ghost planes included (NaNs equal, and the sign of
  every non-NaN value, zeros included);
- the router's ``link_stats`` (their insertion order too),
  ``messages_sent`` and ``busiest_link()`` match.

Each example runs in milliseconds, so the suite takes the active
hypothesis profile's example count: hypothesis's default in tier-1, the
``ci`` profile's under ``--hypothesis-profile=ci`` (see
``tests/conftest.py``).
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from hypothesis import event, given, settings, strategies as st

from repro.arch.node import node_config
from repro.arch.params import NSCParameters
from repro.obs import tracer as obs
from repro.sim.multinode import (
    MultiNodeStencil,
    compile_node_program,
    local_shape,
)

_SPECIAL = (math.nan, math.inf, -math.inf, -0.0)
#: thresholds: never met, met only by an exact fixed point, often met
_EPS = (0.0, 1e-30, 0.1)


@functools.lru_cache(maxsize=None)
def _program(dim, shape, eps):
    """The node program both backends run (one compile per drawn
    decomposition and threshold)."""
    params = NSCParameters().subset(hypercube_dim=dim)
    return compile_node_program(node_config(params),
                                local_shape(shape, 1 << dim), eps)


@st.composite
def _grid(draw, shape, n_nodes):
    """A seeded ``(nz, ny, nx)`` grid with special values at drawn
    cells; a drawn z is either anywhere or on a plane next to a slab
    boundary (a node's first or last real plane)."""
    nx, ny, nz = shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.random((nz, ny, nx))
    nzl = nz // n_nodes
    edges = sorted({z for k in range(n_nodes) for z in (k * nzl,
                                                        (k + 1) * nzl - 1)})
    for _ in range(draw(st.integers(0, 3))):
        z = draw(st.integers(0, nz - 1) | st.sampled_from(edges))
        y = draw(st.integers(0, ny - 1))
        x = draw(st.integers(0, nx - 1))
        grid[z, y, x] = draw(st.sampled_from(_SPECIAL))
    return grid


@st.composite
def hypercubes(draw):
    dim = draw(st.integers(0, 3))
    n_nodes = 1 << dim
    shape = (draw(st.integers(3, 5)), draw(st.integers(3, 5)),
             n_nodes * draw(st.integers(1, 3)))
    grids = {"u": draw(_grid(shape, n_nodes))}
    if draw(st.booleans()):
        grids["f"] = draw(_grid(shape, n_nodes))
    return (dim, shape, draw(st.sampled_from(_EPS)),
            draw(st.integers(1, 6)), grids)


def _run(backend, dim, shape, eps, sweeps, grids):
    stencil = MultiNodeStencil(
        hypercube_dim=dim, shape=shape, eps=eps, backend=backend,
        precompiled=_program(dim, shape, eps),
    )
    for name, grid in grids.items():
        stencil.scatter(name, grid)
    tracer = obs.Tracer()
    with obs.use(tracer), np.errstate(all="ignore"):
        result = stencil.run(max_iterations=sweeps)
    assert tracer.telemetry().annotations.get("tier") == (
        "fused" if backend == "fast" else "reference")
    return stencil, result


def _assert_rows_equal(ref, fast, name):
    np.testing.assert_array_equal(fast, ref, err_msg=name)
    numbers = ~np.isnan(ref)
    assert np.array_equal(np.signbit(fast[numbers]),
                          np.signbit(ref[numbers])), name


def _links(router):
    return [(key, stats.messages, stats.words)
            for key, stats in router.link_stats.items()]


@settings(deadline=None)
@given(case=hypercubes())
def test_fast_stack_equals_reference_machines(case):
    dim, shape, eps, sweeps, grids = case
    s_ref, r_ref = _run("reference", dim, shape, eps, sweeps, grids)
    s_fast, r_fast = _run("fast", dim, shape, eps, sweeps, grids)

    ref_fields = dataclasses.asdict(r_ref)
    fast_fields = dataclasses.asdict(r_fast)
    history_ref = ref_fields.pop("residual_history")
    history_fast = fast_fields.pop("residual_history")
    assert fast_fields == ref_fields
    np.testing.assert_array_equal(history_fast, history_ref)

    assert s_fast.stack is not None  # the fast state stayed stacked
    for name in s_fast.variables:
        _assert_rows_equal(
            np.stack([m.get_variable(name) for m in s_ref.machines]),
            s_fast._rows(name), name)

    assert _links(s_fast.router) == _links(s_ref.router)
    assert s_fast.router.messages_sent == s_ref.router.messages_sent
    assert s_fast.router.busiest_link() == s_ref.router.busiest_link()

    if r_fast.converged:
        event("converged")
    if any(h != h for h in r_fast.residual_history):
        event("nan residual")
