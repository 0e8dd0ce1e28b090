"""Multi-node hypercube simulation: decomposition, exchange, scaling."""

import numpy as np
import pytest

from repro.apps.poisson3d import jacobi_reference_run
from repro.sim.multinode import (
    DecompositionError,
    MultiNodeStencil,
    gray_code,
    local_shape,
)


class TestGrayCode:
    def test_adjacent_codes_differ_by_one_bit(self):
        for i in range(31):
            assert bin(gray_code(i) ^ gray_code(i + 1)).count("1") == 1

    def test_codes_are_a_permutation(self):
        codes = [gray_code(i) for i in range(16)]
        assert sorted(codes) == list(range(16))

    def test_slab_neighbours_are_hypercube_neighbours(self):
        """The instance mapping: adjacent slabs must land on nodes whose
        ids differ in exactly one bit (one router hop apart)."""
        mn = MultiNodeStencil(hypercube_dim=3, shape=(4, 4, 8))
        assert sorted(mn.node_of_slab) == list(range(8))
        for slab in range(mn.n_nodes - 1):
            lo, hi = mn.node_of_slab[slab], mn.node_of_slab[slab + 1]
            assert bin(lo ^ hi).count("1") == 1

    def test_slab_zero_maps_to_node_zero(self):
        mn = MultiNodeStencil(hypercube_dim=2, shape=(4, 4, 8))
        assert mn.node_of_slab[0] == 0


class TestDecomposition:
    def test_indivisible_grid_rejected(self):
        with pytest.raises(DecompositionError):
            MultiNodeStencil(hypercube_dim=2, shape=(6, 6, 6))  # 6 % 4 != 0

    def test_error_message_names_the_mismatch(self):
        with pytest.raises(DecompositionError, match="nz=6.*4 nodes"):
            MultiNodeStencil(hypercube_dim=2, shape=(6, 6, 6))

    def test_more_nodes_than_planes_rejected(self):
        with pytest.raises(DecompositionError):
            MultiNodeStencil(hypercube_dim=3, shape=(6, 6, 4))  # 4 % 8 != 0

    def test_empty_z_extent_rejected(self):
        # nz=0 divides evenly but leaves no plane per node
        with pytest.raises(DecompositionError):
            MultiNodeStencil(hypercube_dim=2, shape=(6, 6, 0))

    def test_one_plane_per_node_is_allowed(self):
        mn = MultiNodeStencil(hypercube_dim=2, shape=(4, 4, 4))
        assert mn.nz_local == 1
        assert mn.local_shape == (4, 4, 3)

    def test_local_shape_is_the_one_decomposition(self):
        """The stencil, the service runner and the bench all split a
        grid through ``local_shape``: the same shapes, the same errors."""
        assert local_shape((6, 8, 32), 8) == (6, 8, 6)
        assert local_shape((4, 4, 4), 4) == (4, 4, 3)
        with pytest.raises(DecompositionError, match="nz=6.*4 nodes"):
            local_shape((6, 6, 6), 4)
        with pytest.raises(DecompositionError, match="fewer than one"):
            local_shape((6, 6, 0), 4)

    def test_scatter_gather_round_trip(self, rng):
        mn = MultiNodeStencil(hypercube_dim=1, shape=(6, 6, 8))
        grid = rng.random((8, 6, 6))
        mn.scatter("u", grid)
        np.testing.assert_allclose(mn.gather("u"), grid)

    def test_ghost_planes_filled_on_scatter(self, rng):
        mn = MultiNodeStencil(hypercube_dim=1, shape=(4, 4, 8))
        grid = rng.random((8, 4, 4))
        mn.scatter("u", grid)
        lo = mn.machines[1].get_variable("u").reshape(6, 4, 4)
        np.testing.assert_allclose(lo[0], grid[3])  # neighbour's last plane


class TestCorrectness:
    def test_multinode_matches_reference(self, rng):
        shape = (6, 6, 8)
        u0 = rng.random((8, 6, 6))
        u0[0] = u0[-1] = 0
        u0[:, 0] = u0[:, -1] = 0
        u0[:, :, 0] = u0[:, :, -1] = 0
        f = np.zeros((8, 6, 6))
        mn = MultiNodeStencil(hypercube_dim=1, shape=shape, eps=1e-4)
        mn.scatter("u", u0)
        mn.scatter("f", f)
        res = mn.run(max_iterations=400)
        assert res.converged
        ref, iters, _ = jacobi_reference_run(
            u0, f, shape, mn.setup.h, eps=1e-4, max_iterations=400
        )
        # the multi-node residual is checked against the same eps, so the
        # iteration counts agree and the fields match exactly
        assert res.iterations == iters
        np.testing.assert_allclose(mn.gather("u").reshape(-1), ref)

    def test_single_node_degenerate_case(self, rng):
        mn = MultiNodeStencil(hypercube_dim=0, shape=(5, 5, 5), eps=1e-3)
        u0 = rng.random((5, 5, 5))
        mn.scatter("u", u0)
        mn.scatter("f", np.zeros((5, 5, 5)))
        res = mn.run(max_iterations=200)
        assert res.n_nodes == 1
        assert res.comm_cycles == 0  # nothing to exchange

    def test_single_node_matches_reference(self, rng):
        """The degenerate decomposition must still be the same Jacobi."""
        shape = (5, 5, 5)
        u0 = rng.random(shape)
        u0[0] = u0[-1] = 0
        u0[:, 0] = u0[:, -1] = 0
        u0[:, :, 0] = u0[:, :, -1] = 0
        f = np.zeros(shape)
        mn = MultiNodeStencil(hypercube_dim=0, shape=shape, eps=1e-4)
        mn.scatter("u", u0)
        mn.scatter("f", f)
        res = mn.run(max_iterations=400)
        ref, iters, _ = jacobi_reference_run(
            u0, f, shape, mn.setup.h, eps=1e-4, max_iterations=400
        )
        assert res.iterations == iters
        np.testing.assert_allclose(mn.gather("u").reshape(-1), ref)

    def test_single_node_exchanges_no_words(self, rng):
        mn = MultiNodeStencil(hypercube_dim=0, shape=(5, 5, 5), eps=0.0)
        mn.scatter("u", rng.random((5, 5, 5)))
        mn.scatter("f", np.zeros((5, 5, 5)))
        res = mn.run(max_iterations=3)
        assert res.words_exchanged == 0


class TestPrecompiled:
    def test_precompiled_program_reused(self, rng):
        """The service hands MultiNodeStencil an already-compiled program;
        results must match a self-compiled stencil exactly."""
        first = MultiNodeStencil(hypercube_dim=1, shape=(4, 4, 8), eps=1e-3)
        second = MultiNodeStencil(
            hypercube_dim=1, shape=(4, 4, 8), eps=1e-3,
            precompiled=(first.setup, first.machine_program),
        )
        assert second.machine_program is first.machine_program
        u0 = rng.random((8, 4, 4))
        for mn in (first, second):
            mn.scatter("u", u0)
            mn.scatter("f", np.zeros((8, 4, 4)))
        res1 = first.run(max_iterations=50)
        res2 = second.run(max_iterations=50)
        assert res1.iterations == res2.iterations
        assert res1.compute_cycles == res2.compute_cycles
        np.testing.assert_allclose(first.gather("u"), second.gather("u"))

    def test_precompiled_shape_mismatch_rejected(self):
        donor = MultiNodeStencil(hypercube_dim=1, shape=(4, 4, 8))
        with pytest.raises(DecompositionError, match="local shape"):
            MultiNodeStencil(
                hypercube_dim=1, shape=(6, 6, 8),
                precompiled=(donor.setup, donor.machine_program),
            )


class TestNodeProgram:
    def test_both_compiles_build_through_the_module_at_call_time(
        self, monkeypatch
    ):
        """The stencil's own compile and the service's share
        ``compile_node_program``, which looks the Jacobi builder up on
        ``repro.compose.jacobi`` when it runs (a tracer wraps that
        attribute); the service compiles before the stencil is built and
        hands it the program."""
        from repro.compose import jacobi
        from repro.service.cache import ProgramCache
        from repro.service.jobs import SimJob
        from repro.service.runner import execute_job

        calls = []
        inside = []
        real_build = jacobi.build_jacobi_program
        real_init = MultiNodeStencil.__init__

        def build(node_cfg, shape, **kwargs):
            calls.append((tuple(shape), bool(inside)))
            return real_build(node_cfg, shape, **kwargs)

        def init(self, *args, **kwargs):
            inside.append(True)
            try:
                real_init(self, *args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(jacobi, "build_jacobi_program", build)
        monkeypatch.setattr(MultiNodeStencil, "__init__", init)
        MultiNodeStencil(hypercube_dim=1, shape=(4, 4, 8))
        assert calls == [((4, 4, 6), True)]
        record = execute_job(
            SimJob(method="jacobi", shape=(4, 4, 8), hypercube_dim=1,
                   max_sweeps=3, backend="fast"),
            cache=ProgramCache())
        assert record["ok"]
        assert calls == [((4, 4, 6), True), ((4, 4, 6), False)]


class TestPerformanceShape:
    def test_comm_fraction_grows_with_nodes(self, rng):
        """More nodes, same grid: communication share must rise."""
        results = {}
        for dim in (0, 2):
            mn = MultiNodeStencil(hypercube_dim=dim, shape=(6, 6, 8), eps=1e-3)
            mn.scatter("u", rng.random((8, 6, 6)))
            mn.scatter("f", np.zeros((8, 6, 6)))
            results[dim] = mn.run(max_iterations=50)
        assert results[2].comm_fraction > results[0].comm_fraction

    def test_words_exchanged_accounting(self, rng):
        mn = MultiNodeStencil(hypercube_dim=1, shape=(4, 4, 8), eps=0.0)
        mn.scatter("u", rng.random((8, 4, 4)))
        mn.scatter("f", np.zeros((8, 4, 4)))
        res = mn.run(max_iterations=3)
        # 2 transfers of one 4x4 plane per sweep between 2 nodes
        assert res.words_exchanged == 3 * 2 * 16

    def test_peak_gflops_scales_with_nodes(self):
        mn1 = MultiNodeStencil(hypercube_dim=0, shape=(4, 4, 4))
        mn4 = MultiNodeStencil(hypercube_dim=2, shape=(4, 4, 8))
        assert mn4.n_nodes == 4
        assert mn4.run(max_iterations=1).peak_gflops == pytest.approx(
            4 * mn1.run(max_iterations=1).peak_gflops
        )

    def test_aggregate_flops_counted(self, rng):
        mn = MultiNodeStencil(hypercube_dim=1, shape=(4, 4, 8), eps=0.0)
        mn.scatter("u", rng.random((8, 4, 4)))
        mn.scatter("f", np.zeros((8, 4, 4)))
        res = mn.run(max_iterations=2)
        per_sweep = mn.machine_program.images[1].flops_per_element
        local_points = 4 * 4 * (4 + 2)
        assert res.flops == 2 * 2 * per_sweep * local_points  # 2 sweeps x 2 nodes
