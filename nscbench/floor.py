"""Hand-written NumPy sweeps: the floor the simulator is measured against.

One Jacobi sweep and one red-black SOR sweep (red half, then black) of
the 7-point Poisson stencil, each with the max-update residual the
solvers test for convergence, on the same grid the simulated job uses.
``sim.x_floor`` divides simulated execute time by the time these take
for the same number of sweeps.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

import numpy as np


def _neighbours(u: np.ndarray) -> np.ndarray:
    return (u[:-2, 1:-1, 1:-1] + u[2:, 1:-1, 1:-1]
            + u[1:-1, :-2, 1:-1] + u[1:-1, 2:, 1:-1]
            + u[1:-1, 1:-1, :-2] + u[1:-1, 1:-1, 2:])


def jacobi_sweep(u: np.ndarray, out: np.ndarray, rhs: np.ndarray) -> float:
    """``out`` interior <- Jacobi update of ``u``; returns max |change|."""
    inner = out[1:-1, 1:-1, 1:-1]
    np.subtract(_neighbours(u), rhs, out=inner)
    inner /= 6.0
    return float(np.max(np.abs(inner - u[1:-1, 1:-1, 1:-1])))


def rbsor_sweep(u: np.ndarray, rhs: np.ndarray, omega: float,
                colours: Tuple[np.ndarray, np.ndarray]) -> float:
    """One in-place red-black SOR sweep of ``u``; returns max |change|."""
    inner = u[1:-1, 1:-1, 1:-1]
    residual = 0.0
    for mask in colours:
        delta = omega * ((_neighbours(u) - rhs) / 6.0 - inner)
        delta = delta[mask]
        inner[mask] += delta
        residual = max(residual, float(np.max(np.abs(delta))))
    return residual


def _problem(shape: Tuple[int, int, int], seed: int):
    from repro.apps.poisson3d import manufactured_solution

    _u_star, f, h = manufactured_solution(shape)
    u = np.random.default_rng(seed).random(f.shape)
    u[0, :, :] = u[-1, :, :] = 0.0
    u[:, 0, :] = u[:, -1, :] = 0.0
    u[:, :, 0] = u[:, :, -1] = 0.0
    return u, h * h * f[1:-1, 1:-1, 1:-1]


def seconds_per_sweep(shape: Tuple[int, int, int], sweeps: int = 200,
                      repeats: int = 3) -> Dict[str, float]:
    """Best-of-*repeats* host seconds per sweep, per solver family."""
    u, rhs = _problem(shape, seed=0)
    idx = np.indices(rhs.shape).sum(axis=0)
    colours = (idx % 2 == 0, idx % 2 == 1)
    best = {"jacobi": float("inf"), "rb-sor": float("inf")}
    for _ in range(repeats):
        a, b = u.copy(), u.copy()
        start = time.perf_counter()
        for _ in range(sweeps):
            jacobi_sweep(a, b, rhs)
            a, b = b, a
        best["jacobi"] = min(best["jacobi"],
                             (time.perf_counter() - start) / sweeps)
        c = u.copy()
        start = time.perf_counter()
        for _ in range(sweeps):
            rbsor_sweep(c, rhs, 1.5, colours)
        best["rb-sor"] = min(best["rb-sor"],
                             (time.perf_counter() - start) / sweeps)
    return best


__all__ = ["jacobi_sweep", "rbsor_sweep", "seconds_per_sweep"]
