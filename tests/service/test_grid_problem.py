"""Per-grid problem arrays: built once, shared read-only by every path.

The manufactured problem ``(u*, f)`` and the solvers' interior and
red/black masks depend only on the grid, so each is computed once per
grid (and spacing) and handed out read-only: a write raises instead of
corrupting every later job on that grid.  The single-node run, the
multi-node run and the shm transport's input placement all read the
same ``u*``.
"""

import numpy as np
import pytest

import repro.apps.poisson3d as poisson3d
from repro.compose.iterative import color_masks
from repro.compose.jacobi import interior_masks
from repro.service import runner
from repro.service.cache import ProgramCache
from repro.service.jobs import SimJob
from repro.service.runner import BatchRunner, execute_job, grid_problem
from repro.service.shm import ShmArena

SHAPE = (4, 4, 8)


@pytest.fixture
def solutions(monkeypatch):
    """A fresh problem memo that records every ``manufactured_solution``
    call (the memo is cleared again afterwards)."""
    calls = []
    real = poisson3d.manufactured_solution

    def counting(shape, h=None):
        calls.append((tuple(shape), h))
        return real(shape, h)

    monkeypatch.setattr(poisson3d, "manufactured_solution", counting)
    runner._grid_problem.cache_clear()
    yield calls
    runner._grid_problem.cache_clear()


def _read_only(*arrays):
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.reshape(-1)[0] = 1.0


def test_problem_arrays_are_read_only_and_memoized(solutions):
    u_star, f, h = grid_problem(SHAPE)
    _read_only(u_star, f)
    # a default call and the builders' explicit spacing share one entry
    assert h == 1.0 / (max(SHAPE) - 1)
    assert grid_problem(list(SHAPE), h)[0] is u_star
    assert len(solutions) == 1
    want_u, want_f, _h = poisson3d.manufactured_solution(SHAPE)
    assert np.array_equal(u_star, want_u) and np.array_equal(f, want_f)


def test_solver_masks_are_read_only_and_memoized():
    mask, invmask = interior_masks(SHAPE)
    red, black = color_masks(SHAPE)
    _read_only(mask, invmask, red, black)
    assert interior_masks(list(SHAPE))[0] is mask
    assert color_masks(SHAPE)[1] is black
    assert np.array_equal(red + black, mask)


def test_one_problem_serves_single_node_multinode_and_shm(solutions,
                                                          monkeypatch):
    from repro.sim.multinode import MultiNodeStencil

    u_star = grid_problem(SHAPE)[0]
    scattered, placed = [], []
    real_scatter, real_place = MultiNodeStencil.scatter, ShmArena.place

    def scatter(self, name, grid):
        scattered.append(grid)
        return real_scatter(self, name, grid)

    def place(self, array):
        placed.append(array)
        return real_place(self, array)

    monkeypatch.setattr(MultiNodeStencil, "scatter", scatter)
    monkeypatch.setattr(ShmArena, "place", place)
    cache = ProgramCache()
    jobs = [SimJob(method="jacobi", shape=SHAPE, eps=1e-3, max_sweeps=50,
                   backend="fast", hypercube_dim=dim) for dim in (0, 1)]
    for job in jobs:
        record = execute_job(job.to_dict(), cache=cache)
        assert record["ok"], record.get("error")
    assert scattered and scattered[0] is u_star

    shm = BatchRunner(workers=2, transport="shm")
    with shm._tasks(jobs, [job.to_dict() for job in jobs],
                    [[0], [1]]) as (tasks, arena):
        assert arena is not None and "inputs" in tasks[0]
    assert placed[0] is u_star
    assert len(solutions) == 1
