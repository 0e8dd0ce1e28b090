"""Node storage materializes on first touch.

Building a machine must cost memory proportional to what its program
touches, not to the 16 double-buffered caches of the stock node.  The
guards count allocations with ``tracemalloc``, so they are deterministic
where a timing check would not be.
"""

import tracemalloc

import pytest

from repro.codegen.generator import MicrocodeGenerator
from repro.compose.jacobi import build_jacobi_program, load_jacobi_inputs
from repro.sim import progplan
from repro.sim.machine import NSCMachine
from repro.sim.multinode import MultiNodeStencil

KIB = 1024
MIB = 1024 * KIB


def _peak_bytes(build):
    """Peak bytes traced while *build()* runs (its result is kept alive)."""
    tracemalloc.start()
    try:
        result = build()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak


class TestAllocationGuards:
    def test_machine_construction_is_small(self, node):
        NSCMachine(node)  # first-use imports stay outside the trace
        # the eager build zero-filled 16 caches x 2 x 8K words: 2 MiB
        assert _peak_bytes(lambda: NSCMachine(node)) < 64 * KIB

    def test_64_node_bind_is_small(self):
        shape = (16, 16, 64)
        first = MultiNodeStencil(hypercube_dim=6, shape=shape)
        precompiled = (first.setup, first.machine_program)
        del first
        peak = _peak_bytes(lambda: MultiNodeStencil(
            hypercube_dim=6, shape=shape, precompiled=precompiled
        ))
        # the eager build allocated 64 machines x 2 MiB of caches
        assert peak < 8 * MIB


class TestObservableState:
    def test_run_materializes_only_planned_caches(self, node, rng):
        setup = build_jacobi_program(node, (6, 6, 6), eps=1e-4)
        program = MicrocodeGenerator(node).generate(setup.program)
        machine = NSCMachine(node)
        machine.load_program(program)
        load_jacobi_inputs(
            machine, setup, rng.random((6, 6, 6)), rng.standard_normal((6, 6, 6))
        )
        assert not any(cache.materialized for cache in machine.caches)
        machine.run()
        plan = progplan.compiled_plan(program, node.params)
        assert plan.cache_extent  # Jacobi streams its masks through caches
        touched = {c.cache_id for c in machine.caches if c.materialized}
        assert touched == set(plan.cache_extent)
        storage = progplan.stacked_storage(plan.variables, 1,
                                           plan.plane_extent,
                                           plan.cache_extent)
        assert set(storage.cache_front) == set(storage.cache_back) == touched

    @pytest.mark.parametrize("hypercube_dim", [0, 2])
    def test_fresh_stencil_fields_read_as_zeros(self, hypercube_dim):
        stencil = MultiNodeStencil(hypercube_dim=hypercube_dim, shape=(6, 6, 8))
        for name in ("u", "f", "u_new"):
            assert not stencil.gather(name).any()
            for machine in stencil.machines:
                values = machine.get_variable(name)
                assert values.size == machine.memory.lookup(name).length
                assert not values.any()
