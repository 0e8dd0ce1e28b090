"""The batched multi-node engine: whole-run parity with the reference loop."""

import numpy as np
import pytest

from repro.apps.poisson3d import manufactured_solution
from repro.sim.multinode import MultiNodeStencil

RESULT_FIELDS = (
    "n_nodes",
    "iterations",
    "converged",
    "compute_cycles",
    "comm_cycles",
    "words_exchanged",
    "flops",
    "clock_mhz",
    "peak_gflops",
    "residual_history",
)


def _pair(dim, shape, eps, max_iterations, seed_grid=None):
    """Run the same problem on both backends; returns both (stencil, result)."""
    out = {}
    for backend in ("reference", "fast"):
        stencil = MultiNodeStencil(
            hypercube_dim=dim, shape=shape, eps=eps, backend=backend
        )
        if seed_grid is not None:
            stencil.scatter("u", seed_grid)
        result = stencil.run(max_iterations=max_iterations)
        out[backend] = (stencil, result)
    return out["reference"], out["fast"]


class TestMultiNodeParity:
    def test_converging_run_identical(self):
        shape = (6, 6, 8)
        u_star, _f, _h = manufactured_solution(shape)
        (s_ref, r_ref), (s_fast, r_fast) = _pair(
            dim=2, shape=shape, eps=1e-4, max_iterations=500, seed_grid=u_star
        )
        for field in RESULT_FIELDS:
            assert getattr(r_ref, field) == getattr(r_fast, field), field
        assert r_fast.converged
        np.testing.assert_array_equal(s_ref.gather("u"), s_fast.gather("u"))
        np.testing.assert_array_equal(
            s_ref.gather("u_new"), s_fast.gather("u_new")
        )

    def test_bounded_run_identical(self):
        """A run that hits the iteration bound (the bench configuration)."""
        shape = (5, 5, 8)
        u_star, _f, _h = manufactured_solution(shape)
        (s_ref, r_ref), (s_fast, r_fast) = _pair(
            dim=3, shape=shape, eps=1e-30, max_iterations=7, seed_grid=u_star
        )
        for field in RESULT_FIELDS:
            assert getattr(r_ref, field) == getattr(r_fast, field), field
        assert not r_fast.converged
        assert r_fast.iterations == 7
        np.testing.assert_array_equal(s_ref.gather("u"), s_fast.gather("u"))

    def test_single_node_system(self):
        """dim=0: no halo traffic, the batch has one row."""
        shape = (5, 5, 5)
        u_star, _f, _h = manufactured_solution(shape)
        (s_ref, r_ref), (s_fast, r_fast) = _pair(
            dim=0, shape=shape, eps=1e-3, max_iterations=300, seed_grid=u_star
        )
        for field in RESULT_FIELDS:
            assert getattr(r_ref, field) == getattr(r_fast, field), field
        assert r_fast.comm_cycles == 0
        np.testing.assert_array_equal(s_ref.gather("u"), s_fast.gather("u"))

    def test_router_statistics_identical(self):
        shape = (4, 4, 8)
        u_star, _f, _h = manufactured_solution(shape)
        (s_ref, _), (s_fast, _) = _pair(
            dim=2, shape=shape, eps=1e-30, max_iterations=5, seed_grid=u_star
        )
        ref_stats = {
            key: (stats.messages, stats.words)
            for key, stats in s_ref.router.link_stats.items()
        }
        fast_stats = {
            key: (stats.messages, stats.words)
            for key, stats in s_fast.router.link_stats.items()
        }
        assert ref_stats == fast_stats
        assert s_ref.router.messages_sent == s_fast.router.messages_sent

    def test_stack_rows_equal_reference_machines(self):
        """The fast run leaves in its stack, row by row, what the
        reference run leaves in each node's machine."""
        shape = (4, 4, 8)
        u_star, _f, _h = manufactured_solution(shape)
        (s_ref, _), (s_fast, _) = _pair(
            dim=1, shape=shape, eps=1e-30, max_iterations=4, seed_grid=u_star
        )
        for name in ("u", "u_new", "f", "mask", "invmask"):
            np.testing.assert_array_equal(
                s_fast._rows(name),
                np.stack([m.get_variable(name) for m in s_ref.machines]),
                err_msg=name,
            )

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            MultiNodeStencil(hypercube_dim=1, shape=(4, 4, 4), backend="warp")
