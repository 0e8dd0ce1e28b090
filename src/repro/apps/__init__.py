"""Reference applications: NumPy ground truth for the simulated programs."""

from repro._lazy import lazy_exports

__all__ = [
    "jacobi_step_flat",
    "jacobi_reference_run",
    "manufactured_solution",
    "poisson_residual",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "poisson3d": (
            "jacobi_step_flat",
            "jacobi_reference_run",
            "manufactured_solution",
            "poisson_residual",
        ),
    },
)
