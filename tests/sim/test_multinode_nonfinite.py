"""Hypercube runs over non-finite data: the fast path stays fused.

inf and nan run through the node stack's kernels as values, so grids,
residuals and every node's stacked rows match the reference walk's
machines.  A fused run builds no node machines, so it has no interrupts
to compare: the FP exceptions the reference walk drops, unarmed, stay
with its machines.
"""

import numpy as np
import pytest

from repro.apps.poisson3d import manufactured_solution
from repro.obs import tracer as obs
from repro.sim.multinode import MultiNodeStencil

SHAPE = (6, 6, 8)


def _seeded_grid():
    grid = np.array(manufactured_solution(SHAPE)[0])
    grid[2, 3, 3] = np.inf   # node 0's interior
    grid[5, 2, 4] = np.nan   # node 2's interior
    grid[3, 1, 1] = -np.inf  # node 1, next to a slab boundary
    return grid


def _run(backend, sweeps=4):
    tracer = obs.Tracer()
    stencil = MultiNodeStencil(
        hypercube_dim=2, shape=SHAPE, eps=0.0, backend=backend
    )
    stencil.scatter("u", _seeded_grid())
    with obs.use(tracer):
        result = stencil.run(max_iterations=sweeps)
    return stencil, result, tracer.telemetry().annotations.get("tier")


@pytest.fixture(scope="module")
def runs():
    return _run("reference"), _run("fast")


class TestNonFiniteHypercube:
    def test_fast_run_stays_fused(self, runs):
        (_s_ref, _r_ref, tier_ref), (_s_fast, _r_fast, tier_fast) = runs
        assert tier_ref == "reference"
        assert tier_fast == "fused"

    def test_residuals_and_cycles_match(self, runs):
        (_s_ref, r_ref, _), (_s_fast, r_fast, _) = runs
        # a nan node residual makes the global one nan on both paths;
        # eps=0 never converges anyway
        assert r_fast.iterations == r_ref.iterations == 4
        assert all(np.isnan(r) for r in r_fast.residual_history)
        assert r_fast.compute_cycles == r_ref.compute_cycles
        assert r_fast.flops == r_ref.flops
        np.testing.assert_array_equal(
            r_fast.residual_history, r_ref.residual_history
        )

    def test_gathered_grid_matches(self, runs):
        (s_ref, _r, _), (s_fast, _r2, _) = runs
        u_ref, u_fast = s_ref.gather("u"), s_fast.gather("u")
        assert np.isnan(u_ref).any() and np.isinf(u_ref).any()
        # assert_array_equal treats nan == nan
        np.testing.assert_array_equal(u_fast, u_ref)

    def test_stack_rows_match_reference_machines(self, runs):
        """Every variable, ghost planes included."""
        (s_ref, _r, _), (s_fast, _r2, _) = runs
        for name in s_fast.variables:
            np.testing.assert_array_equal(
                s_fast._rows(name),
                np.stack([m.get_variable(name) for m in s_ref.machines]),
                err_msg=name)


@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_nan_residual_never_converges(backend):
    """An all-NaN grid has a NaN residual on every node: the global
    residual stays NaN, so even a loose eps runs to the bound, as a
    single node's LoopUntil never fires on NaN."""
    stencil = MultiNodeStencil(
        hypercube_dim=2, shape=SHAPE, eps=1e-3, backend=backend
    )
    stencil.scatter("u", np.full(SHAPE[::-1], np.nan))
    result = stencil.run(max_iterations=5)
    assert not result.converged
    assert result.iterations == 5
    assert len(result.residual_history) == 5
    assert all(np.isnan(r) for r in result.residual_history)
