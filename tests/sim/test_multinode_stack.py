"""The fused multi-node engine keeps node state stacked, not in machines.

A fast :class:`MultiNodeStencil` holds every node's planes and cache
buffers as ``(n_nodes, extent)`` rows; its machines are built only when
``stencil.machines`` is read, and must then be exactly what a reference
run leaves behind — memory, caches, DMA statistics, queued interrupts.
"""

import tracemalloc

import numpy as np
import pytest

from repro.apps.poisson3d import manufactured_solution
from repro.sim.machine import NSCMachine
from repro.sim.multinode import MultiNodeStencil

MIB = 1 << 20


def _count_machines(monkeypatch):
    built = {"n": 0}
    real_init = NSCMachine.__init__

    def counting_init(self, *args, **kwargs):
        built["n"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(NSCMachine, "__init__", counting_init)
    return built


def _run(backend, dim, shape, sweeps, mutate=None):
    stencil = MultiNodeStencil(
        hypercube_dim=dim, shape=shape, eps=1e-30, backend=backend
    )
    stencil.scatter("u", manufactured_solution(shape)[0])
    if mutate is not None:
        mutate(stencil)
    result = stencil.run(max_iterations=sweeps)
    return stencil, result


def _irq(stream):
    return [(i.cycle, i.kind, i.source, i.payload) for i in stream]


def _assert_machines_equal(ref, fast):
    assert len(ref) == len(fast)
    for m_ref, m_fast in zip(ref, fast):
        for name in m_ref.memory.variables:
            np.testing.assert_array_equal(
                m_ref.get_variable(name), m_fast.get_variable(name)
            )
        for c_ref, c_fast in zip(m_ref.caches, m_fast.caches):
            assert c_ref.swaps == c_fast.swaps
            assert c_ref.materialized == c_fast.materialized
            if c_ref.materialized:
                np.testing.assert_array_equal(c_ref.front, c_fast.front)
                np.testing.assert_array_equal(c_ref.back, c_fast.back)
        assert m_ref.dma.stats == m_fast.dma.stats
        assert m_ref.dma.device_busy == m_fast.dma.device_busy
        assert m_ref.cycle == m_fast.cycle
        irq_ref, irq_fast = m_ref.interrupts, m_fast.interrupts
        assert _irq(irq_ref._queue) == _irq(irq_fast._queue)
        assert _irq(irq_ref.delivered) == _irq(irq_fast.delivered)
        assert _irq(irq_ref.dropped) == _irq(irq_fast.dropped)


class TestStackedState:
    def test_64_node_run_builds_one_machine_and_stays_small(self, monkeypatch):
        shape = (16, 16, 64)
        warm = MultiNodeStencil(hypercube_dim=6, shape=shape, backend="fast")
        warm.run(max_iterations=1)  # plan, runner code: process-wide caches
        precompiled = (warm.setup, warm.machine_program)
        u_star = manufactured_solution(shape)[0]
        built = _count_machines(monkeypatch)

        tracemalloc.start()
        try:
            stencil = MultiNodeStencil(
                hypercube_dim=6, shape=shape, precompiled=precompiled,
                backend="fast",
            )
            stencil.scatter("u", u_star)
            _current, bind_peak = tracemalloc.get_traced_memory()
            result = stencil.run(max_iterations=20)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.iterations == 20
        assert built["n"] <= 1  # the template; no per-node machines
        # bind + scatter, and the state the stencil keeps after the run
        # (the run's transient peak is the kernels' working rows)
        assert bind_peak < 4 * MIB
        assert held < 4 * MIB

    @pytest.mark.parametrize("dim, shape", [
        (0, (6, 6, 8)), (2, (6, 6, 8)), (4, (4, 4, 16)),
    ])
    def test_machines_after_fast_run_equal_reference(self, dim, shape):
        s_ref, r_ref = _run("reference", dim, shape, sweeps=5)
        s_fast, r_fast = _run("fast", dim, shape, sweeps=5)
        assert r_ref.residual_history == r_fast.residual_history
        assert s_fast.stack is not None  # nothing built yet
        _assert_machines_equal(s_ref.machines, s_fast.machines)
        assert s_fast.stack is None  # the machines own the state now

    def test_dma_stats_of_a_fast_node(self):
        s_fast, _ = _run("fast", 2, (6, 6, 8), sweeps=5)
        stats = s_fast.machines[1].dma.stats
        assert (stats.transfers, stats.words_read, stats.words_written,
                stats.busy_cycles) == (39, 4608, 2448, 4684)
        assert len(s_fast.machines[1].dma.device_busy) == 5

    def test_scatter_gather_round_trip_builds_no_machines(
        self, monkeypatch, rng
    ):
        stencil = MultiNodeStencil(
            hypercube_dim=2, shape=(4, 4, 8), backend="fast"
        )
        built = _count_machines(monkeypatch)
        grid = rng.random((8, 4, 4))
        stencil.scatter("u", grid)
        np.testing.assert_array_equal(stencil.gather("u"), grid)
        assert built["n"] == 0
        assert stencil.stack is not None

    def test_scatter_matches_per_machine_ghost_fill(self, rng):
        shape = (4, 4, 12)
        grid = rng.random((12, 4, 4))
        stencil = MultiNodeStencil(hypercube_dim=2, shape=shape)
        stencil.scatter("u", grid)
        for slab, machine in enumerate(stencil.machines):
            local = machine.get_variable("u").reshape(5, 4, 4)
            z0 = slab * 3
            np.testing.assert_array_equal(local[1:-1], grid[z0:z0 + 3])
            low = grid[z0 - 1] if slab > 0 else np.zeros((4, 4))
            high = grid[z0 + 3] if slab < 3 else np.zeros((4, 4))
            np.testing.assert_array_equal(local[0], low)
            np.testing.assert_array_equal(local[-1], high)

    def test_machine_touched_before_run_keeps_its_mutation(self, rng):
        """Reading ``machines`` hands the state to them; a later fast run
        must not lose what a caller wrote into a machine."""
        shape = (6, 6, 8)
        f_rows = rng.standard_normal(6 * 6 * 4)

        def mutate(stencil):
            stencil.machines[1].set_variable("f", f_rows)

        s_ref, r_ref = _run("reference", 2, shape, 5, mutate)
        s_fast, r_fast = _run("fast", 2, shape, 5, mutate)
        np.testing.assert_array_equal(
            s_fast.machines[1].get_variable("f"), f_rows
        )
        assert r_ref.residual_history == r_fast.residual_history
        np.testing.assert_array_equal(s_ref.gather("u"), s_fast.gather("u"))
        _assert_machines_equal(s_ref.machines, s_fast.machines)

    def test_second_fast_run_continues_from_the_stack(self):
        shape = (6, 6, 8)
        s_ref, _ = _run("reference", 2, shape, 3)
        s_fast, _ = _run("fast", 2, shape, 3)
        assert s_ref.run(max_iterations=4).residual_history \
            == s_fast.run(max_iterations=4).residual_history
        _assert_machines_equal(s_ref.machines, s_fast.machines)


class TestHaloReplay:
    def test_router_state_equals_reference_after_run(self):
        shape = (4, 4, 16)
        s_ref, _ = _run("reference", 3, shape, sweeps=6)
        s_fast, _ = _run("fast", 3, shape, sweeps=6)
        ref, fast = s_ref.router, s_fast.router
        assert list(ref.link_stats) == list(fast.link_stats)  # tie order
        assert {k: (s.messages, s.words) for k, s in ref.link_stats.items()} \
            == {k: (s.messages, s.words) for k, s in fast.link_stats.items()}
        assert ref.messages_sent == fast.messages_sent
        assert ref.busiest_link() == fast.busiest_link()

    def test_replayed_traffic_settles_once_at_the_end(self, monkeypatch):
        from repro.sim import progplan

        settled = []
        real_settle = progplan.HaloCommPlan.settle

        def spying_settle(self):
            settled.append(self.replays)
            real_settle(self)

        monkeypatch.setattr(progplan.HaloCommPlan, "settle", spying_settle)
        s_fast, result = _run("fast", 2, (4, 4, 8), sweeps=7)
        assert settled == [result.iterations - 1]
        assert s_fast.router.messages_sent == 6 * result.iterations
