"""The paper's running example: point Jacobi for the 3-D Poisson equation.

Paper §4, Eq. 1 (after Nosenchuck, Krist & Zang): each grid point is
replaced by the average of its six neighbours minus the scaled source term,

    u'[i,j,k] = (u[i-1,j,k] + u[i+1,j,k] + u[i,j-1,k] + u[i,j+1,k]
                 + u[i,j,k-1] + u[i,j,k+1] - h^2 f[i,j,k]) / 6,

iterated "with a residual convergence check" — Fig. 2 is the hand-drawn
pipeline for this update and Fig. 11 the editor-drawn version.

Mapping onto the machine (one instruction, full-grid vector):

- the grid streams from its plane through a **shift/delay unit**, whose taps
  emit the six neighbour streams plus the centre (flattened-index shifts of
  ±1, ±nx, ±nx*ny);
- Dirichlet boundaries are enforced with mask streams (1 at interior
  points, 0 on the boundary) held in two **double-buffered caches**, so the
  masking units touch no second memory plane (the §3 one-plane rule);
- the residual max|u'-u| accumulates in a **min/max unit with a feedback
  loop** through its register file, and its final element drives the
  **condition interrupt** the sequencer's convergence loop watches;
- a **SwapVars** sequencer step exchanges ``u``/``u_new`` between
  iterations (the paper's relocate-between-phases device).
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.arch.funcunit import Opcode
from repro.arch.node import NodeConfig
from repro.compose.builders import BuilderError, PipelineBuilder
from repro.diagram.program import (
    CacheSwap,
    ExecPipeline,
    Halt,
    LoopUntil,
    SwapVars,
    VisualProgram,
)


class JacobiSetup(NamedTuple):
    """Everything a host needs to load and run the Jacobi program.

    ``program`` is the source diagram.  It is ``None`` in a setup that a
    program cache keeps next to the generated code: loading inputs and
    running read only the other fields.
    """

    program: Optional[VisualProgram]
    shape: Tuple[int, int, int]
    h: float
    eps: float
    load_pipeline: int
    update_pipeline: int
    residual_fu: int
    mask_cache: int
    invmask_cache: int

    @property
    def n_points(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz


def jacobi_grid_index(i: int, j: int, k: int, shape: Tuple[int, int, int]) -> int:
    """Flattened word index of grid point (i, j, k); x varies fastest."""
    nx, ny, nz = shape
    if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
        raise IndexError(f"({i},{j},{k}) outside grid {shape}")
    return i + nx * (j + ny * k)


def grid_shape(shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """Array shape of a flattened problem grid: ``(nz, ny, nx)``.

    Problem shapes are quoted ``(nx, ny, nz)`` throughout (the paper's
    convention), but the flattening order is x-fastest
    (:func:`jacobi_grid_index`: ``i + nx*(j + ny*k)``), so the NumPy
    view of a flat grid is z-major.  Every ``reshape`` of machine grid
    data must use this — on a cubic grid the two orders coincide, which
    is exactly how transposed-axis bugs hide until a non-cubic run.
    """
    nx, ny, nz = shape
    return (nz, ny, nx)


def build_jacobi_program(
    node: NodeConfig,
    shape: Tuple[int, int, int],
    h: Optional[float] = None,
    eps: float = 1e-6,
    max_iterations: int = 10_000,
    loop: bool = True,
) -> JacobiSetup:
    """Construct the complete visual program for Eq. 1 on an ``nx*ny*nz``
    grid.  With ``loop=False`` the control script runs the cache load and a
    single update (hosts that drive iterations themselves — e.g. the
    multi-node layer — use this)."""
    nx, ny, nz = shape
    if min(shape) < 3:
        raise BuilderError("Jacobi needs at least 3 points per dimension")
    n = nx * ny * nz
    if h is None:
        h = 1.0 / (max(shape) - 1)
    params = node.params
    if n > params.cache_buffer_words:
        raise BuilderError(
            f"grid of {n} points exceeds the cache buffer "
            f"({params.cache_buffer_words} words); raise cache_buffer_words "
            f"or shrink the grid"
        )
    if params.n_memory_planes < 5:
        raise BuilderError("Jacobi layout needs at least 5 memory planes")
    if params.shift_delay_taps < 7:
        raise BuilderError("Jacobi needs a shift/delay unit with 7 taps")

    prog = VisualProgram(name=f"jacobi3d-{nx}x{ny}x{nz}")
    prog.declare("u", plane=0, length=n, initializer="user")
    prog.declare("f", plane=1, length=n, initializer="user")
    prog.declare("mask", plane=2, length=n, initializer="interior-mask")
    prog.declare("invmask", plane=3, length=n, initializer="boundary-mask")
    prog.declare("u_new", plane=4, length=n)

    # -- pipeline 0: stream the masks from their planes into caches --------
    b0 = PipelineBuilder(node, prog, label="load mask caches", vector_length=n)
    mask_src = b0.read_var("mask")
    inv_src = b0.read_var("invmask")
    b0.write_cache(mask_src, cache=0, count=n)
    b0.write_cache(inv_src, cache=1, count=n)
    b0.build()

    # -- pipeline 1: the Eq. 1 update with residual reduction --------------
    b = PipelineBuilder(node, prog, label="point Jacobi update", vector_length=n)
    u_src = b.read_var("u")
    taps = b.through_sd(
        u_src, shifts=[0, +1, -1, +nx, -nx, +nx * ny, -(nx * ny)]
    )
    u0, xp, xm, yp, ym, zp, zm = taps
    f_src = b.read_var("f")
    mask_c = b.read_cache(0, count=n)
    inv_c = b.read_cache(1, count=n)

    n1 = b.apply(Opcode.FADD, xp, xm)
    n2 = b.apply(Opcode.FADD, yp, ym)
    n3 = b.apply(Opcode.FADD, zp, zm)
    s1 = b.apply(Opcode.FADD, n1, n2)
    s2 = b.apply(Opcode.FADD, s1, n3)
    fh2 = b.apply(Opcode.FSCALE, f_src, constant=h * h)
    s3 = b.apply(Opcode.FSUB, s2, fh2)
    u_prime = b.apply(Opcode.FSCALE, s3, constant=1.0 / 6.0)
    m1 = b.apply(Opcode.FMUL, u_prime, mask_c)
    m2 = b.apply(Opcode.FMUL, u0, inv_c)
    out = b.apply(Opcode.FADD, m1, m2)
    diff = b.apply(Opcode.FSUB, out, u0)
    resid = b.apply(Opcode.MAXABS, diff, b.feedback(0.0))

    b.write_var(out, "u_new")
    b.condition(resid, comparison="lt", threshold=eps)
    b.build()

    # the load pipeline fills the caches' back buffers; the swap exposes
    # them to the update pipeline (the double-buffer protocol of §2)
    prog.add_control(ExecPipeline(0))
    prog.add_control(CacheSwap(caches=(0, 1)))
    if loop:
        prog.add_control(
            LoopUntil(
                body=(ExecPipeline(1), SwapVars("u", "u_new")),
                condition_pipeline=1,
                max_iterations=max_iterations,
            )
        )
        prog.add_control(Halt())
    else:
        prog.add_control(ExecPipeline(1))
        prog.add_control(SwapVars("u", "u_new"))
        prog.add_control(Halt())

    return JacobiSetup(
        program=prog,
        shape=shape,
        h=h,
        eps=eps,
        load_pipeline=0,
        update_pipeline=1,
        residual_fu=resid.fu,
        mask_cache=0,
        invmask_cache=1,
    )


def interior_masks(shape: Tuple[int, int, int]) -> Tuple[np.ndarray, np.ndarray]:
    """(mask, invmask) flattened arrays: 1/0 at interior, 0/1 on boundary.

    Built once per grid and shared: the arrays are read-only."""
    return _interior_masks(tuple(shape))


@functools.lru_cache(maxsize=16)
def _interior_masks(shape: Tuple[int, int, int]) -> Tuple[np.ndarray, np.ndarray]:
    nx, ny, nz = shape
    mask = np.zeros((nz, ny, nx), dtype=np.float64)
    mask[1:-1, 1:-1, 1:-1] = 1.0
    flat = mask.reshape(-1)  # z-major matches i + nx*(j + ny*k) ordering
    return read_only(flat, 1.0 - flat)


def read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """*arrays*, marked read-only so a memo can hand them out."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def load_jacobi_inputs(
    machine,
    setup: JacobiSetup,
    u0: np.ndarray,
    f: np.ndarray,
) -> None:
    """Write the initial guess, source term, and masks into plane memory.

    ``u0`` and ``f`` may be 3-D ``(nz, ny, nx)`` arrays or flattened; the
    flattening convention matches :func:`jacobi_grid_index`.
    """
    n = setup.n_points
    u_flat = np.asarray(u0, dtype=np.float64).reshape(-1)
    f_flat = np.asarray(f, dtype=np.float64).reshape(-1)
    if u_flat.size != n or f_flat.size != n:
        raise ValueError(
            f"grid arrays must have {n} points, got {u_flat.size} and {f_flat.size}"
        )
    mask, invmask = interior_masks(setup.shape)
    machine.set_variable("u", u_flat)
    machine.set_variable("f", f_flat)
    machine.set_variable("mask", mask)
    machine.set_variable("invmask", invmask)
    machine.set_variable("u_new", np.zeros(n))


__all__ = [
    "JacobiSetup",
    "build_jacobi_program",
    "grid_shape",
    "jacobi_grid_index",
    "interior_masks",
    "load_jacobi_inputs",
]
