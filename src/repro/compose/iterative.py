"""Further iterative solvers for the NSC: red-black Gauss-Seidel and SOR.

The paper's Jacobi walk-through comes from the NSC multigrid work
(Nosenchuck, Krist & Zang, the paper's ref. [6]); production CFD codes of
the era used stronger smoothers.  These builders show how the visual
environment expresses *multi-phase* methods: one pipeline per colour phase,
reconfigured between phases under sequencer control — exactly the "pipeline
configurations may be rapidly modified under program control as the
computation proceeds through different phases" behaviour of §2.

Red-black SOR over the 7-point Poisson stencil:

    phase A:  u <- u + omega * red_mask   * (jacobi(u) - u)
    phase B:  u <- u + omega * black_mask * (jacobi(u) - u)

``omega = 1`` is red-black Gauss-Seidel; ``1 < omega < 2`` over-relaxes.
Each phase streams the whole grid but masks its colour, so both phases fit
the same resource budget as the plain Jacobi pipeline; the double-buffered
``u``/``u_new`` swap realizes the in-place colour update.

The convergence monitor watches the black phase's update norm; for this
splitting the black update bounds the sweep's update, so the loop
terminates within one sweep of the true criterion (asserted in tests).
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.arch.funcunit import Opcode
from repro.arch.node import NodeConfig
from repro.compose.builders import BuilderError, PipelineBuilder
from repro.compose.jacobi import interior_masks, read_only
from repro.diagram.program import (
    CacheSwap,
    ExecPipeline,
    Halt,
    LoopUntil,
    Repeat,
    SwapVars,
    VisualProgram,
)


class RBSORSetup(NamedTuple):
    """Host handle for a red-black SOR program.

    ``program`` is ``None`` in a program cache's copy, as for
    :class:`~repro.compose.jacobi.JacobiSetup`.
    """

    program: Optional[VisualProgram]
    shape: Tuple[int, int, int]
    h: float
    eps: float
    omega: float
    load_pipeline: int
    red_pipeline: int
    black_pipeline: int

    @property
    def n_points(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz


def color_masks(
    shape: Tuple[int, int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """(red, black) interior masks: colour by parity of i+j+k.

    Built once per grid and shared: the arrays are read-only."""
    return _color_masks(tuple(shape))


@functools.lru_cache(maxsize=16)
def _color_masks(
    shape: Tuple[int, int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    nx, ny, nz = shape
    interior, _ = interior_masks(shape)
    k, j, i = np.meshgrid(
        np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij"
    )
    red = (((i + j + k) % 2) == 0).astype(np.float64).reshape(-1) * interior
    black = interior - red
    return read_only(red, black)


def _phase_pipeline(
    node: NodeConfig,
    prog: VisualProgram,
    label: str,
    shape: Tuple[int, int, int],
    h: float,
    omega: float,
    mask_cache: int,
    eps: Optional[float],
) -> int:
    """One colour phase: u_new = u + omega*mask*(jacobi(u) - u)."""
    nx, ny, nz = shape
    n = nx * ny * nz
    b = PipelineBuilder(node, prog, label=label, vector_length=n)
    u = b.read_var("u")
    taps = b.through_sd(u, shifts=[0, +1, -1, +nx, -nx, +nx * ny, -(nx * ny)])
    u0, xp, xm, yp, ym, zp, zm = taps
    f_src = b.read_var("f")
    mask_c = b.read_cache(mask_cache, count=n)

    n1 = b.apply(Opcode.FADD, xp, xm)
    n2 = b.apply(Opcode.FADD, yp, ym)
    n3 = b.apply(Opcode.FADD, zp, zm)
    s1 = b.apply(Opcode.FADD, n1, n2)
    s2 = b.apply(Opcode.FADD, s1, n3)
    fh2 = b.apply(Opcode.FSCALE, f_src, constant=h * h)
    s3 = b.apply(Opcode.FSUB, s2, fh2)
    jac = b.apply(Opcode.FSCALE, s3, constant=1.0 / 6.0)
    delta = b.apply(Opcode.FSUB, jac, u0)
    relaxed = b.apply(Opcode.FSCALE, delta, constant=omega)
    masked = b.apply(Opcode.FMUL, relaxed, mask_c)
    # stage u through a PASS unit so the adder (which writes the output
    # plane) does not also read the input plane (§3 one-plane rule)
    kept = b.apply(Opcode.PASS, u0)
    out = b.apply(Opcode.FADD, kept, masked)
    resid = b.apply(Opcode.MAXABS, masked, b.feedback(0.0))

    b.write_var(out, "u_new")
    if eps is not None:
        b.condition(resid, comparison="lt", threshold=eps)
    diagram = b.build()
    return diagram.number


def build_rbsor_program(
    node: NodeConfig,
    shape: Tuple[int, int, int],
    omega: float = 1.0,
    h: Optional[float] = None,
    eps: float = 1e-6,
    max_iterations: int = 10_000,
    fixed_sweeps: Optional[int] = None,
) -> RBSORSetup:
    """Red-black SOR; ``fixed_sweeps`` trades the convergence loop for a
    fixed Repeat (used by convergence-rate comparisons)."""
    nx, ny, nz = shape
    if min(shape) < 3:
        raise BuilderError("red-black SOR needs at least 3 points per axis")
    if not (0.0 < omega < 2.0):
        raise BuilderError(f"omega={omega} outside the convergent range (0, 2)")
    n = nx * ny * nz
    if h is None:
        h = 1.0 / (max(shape) - 1)
    if n > node.params.cache_buffer_words:
        raise BuilderError(
            f"grid of {n} points exceeds the cache buffer "
            f"({node.params.cache_buffer_words} words)"
        )

    prog = VisualProgram(name=f"rbsor-{omega:g}-{nx}x{ny}x{nz}")
    prog.declare("u", plane=0, length=n, initializer="user")
    prog.declare("f", plane=1, length=n, initializer="user")
    prog.declare("red", plane=2, length=n, initializer="red-mask")
    prog.declare("black", plane=3, length=n, initializer="black-mask")
    prog.declare("u_new", plane=4, length=n)

    b0 = PipelineBuilder(node, prog, label="load colour caches", vector_length=n)
    red_src = b0.read_var("red")
    black_src = b0.read_var("black")
    b0.write_cache(red_src, cache=0, count=n)
    b0.write_cache(black_src, cache=1, count=n)
    b0.build()

    red_idx = _phase_pipeline(
        node, prog, "red phase", shape, h, omega, mask_cache=0, eps=eps
    )
    black_idx = _phase_pipeline(
        node, prog, "black phase", shape, h, omega, mask_cache=1, eps=eps
    )

    sweep = (
        ExecPipeline(red_idx),
        SwapVars("u", "u_new"),
        ExecPipeline(black_idx),
        SwapVars("u", "u_new"),
    )
    prog.add_control(ExecPipeline(0))
    prog.add_control(CacheSwap(caches=(0, 1)))
    if fixed_sweeps is not None:
        prog.add_control(Repeat(body=sweep, times=fixed_sweeps))
    else:
        prog.add_control(
            LoopUntil(
                body=sweep,
                condition_pipeline=black_idx,
                max_iterations=max_iterations,
            )
        )
    prog.add_control(Halt())
    return RBSORSetup(
        program=prog,
        shape=shape,
        h=h,
        eps=eps,
        omega=omega,
        load_pipeline=0,
        red_pipeline=red_idx,
        black_pipeline=black_idx,
    )


def load_rbsor_inputs(machine, setup: RBSORSetup, u0, f) -> None:
    """Write the initial guess, source term and colour masks."""
    n = setup.n_points
    u_flat = np.asarray(u0, dtype=np.float64).reshape(-1)
    f_flat = np.asarray(f, dtype=np.float64).reshape(-1)
    if u_flat.size != n or f_flat.size != n:
        raise ValueError(f"grid arrays must have {n} points")
    red, black = color_masks(setup.shape)
    machine.set_variable("u", u_flat)
    machine.set_variable("f", f_flat)
    machine.set_variable("red", red)
    machine.set_variable("black", black)
    machine.set_variable("u_new", np.zeros(n))


def rbsor_reference_run(
    u0: np.ndarray,
    f: np.ndarray,
    shape: Tuple[int, int, int],
    h: float,
    omega: float = 1.0,
    eps: float = 1e-6,
    max_iterations: int = 10_000,
):
    """Machine-order NumPy reference for the two-phase sweep.

    Returns ``(u, sweeps, history)`` with one history entry per sweep (the
    black phase's update norm, matching the machine's monitor).
    """
    from repro.arch.shift_delay import shift_stream

    nx, ny, _nz = shape
    red, black = color_masks(shape)
    u = np.asarray(u0, dtype=np.float64).reshape(-1).copy()
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    history = []

    def phase(u, mask):
        xp = shift_stream(u, +1)
        xm = shift_stream(u, -1)
        yp = shift_stream(u, +nx)
        ym = shift_stream(u, -nx)
        zp = shift_stream(u, +nx * ny)
        zm = shift_stream(u, -(nx * ny))
        s2 = ((xp + xm) + (yp + ym)) + (zp + zm)
        jac = (s2 - f * (h * h)) * (1.0 / 6.0)
        masked = ((jac - u) * omega) * mask
        return u + masked, float(np.max(np.abs(masked)))

    for sweep in range(1, max_iterations + 1):
        u, _red_norm = phase(u, red)
        u, black_norm = phase(u, black)
        history.append(black_norm)
        if black_norm < eps:
            return u, sweep, history
    return u, max_iterations, history


__all__ = [
    "RBSORSetup",
    "build_rbsor_program",
    "load_rbsor_inputs",
    "rbsor_reference_run",
    "color_masks",
]
