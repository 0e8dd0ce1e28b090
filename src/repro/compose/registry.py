"""Named solver registry: the service layer's view of this package.

The batch service addresses solvers by name ("jacobi", "rb-gs", "rb-sor")
and needs, for each, a uniform way to build the visual program, load the
machine's input variables, and find the pipeline whose loop count is the
sweep counter.  :data:`SOLVERS` packages those three things so adding a
solver to the sweep space is one registry entry, not a new branch in the
runner.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.compose.iterative import (
    build_rbsor_program,
    load_rbsor_inputs,
)
from repro.compose.jacobi import build_jacobi_program, load_jacobi_inputs


class SolverEntry(NamedTuple):
    """How to drive one named solver end to end."""

    name: str
    #: (node, shape, eps=..., max_iterations=..., omega=...) -> setup
    build: Callable[..., Any]
    #: (machine, setup, u0, f) -> None
    load: Callable[..., None]
    #: setup attribute naming the convergence-monitor pipeline
    watch_attr: str
    #: forces omega when set (red-black Gauss-Seidel is SOR at 1.0)
    fixed_omega: Optional[float] = None

    def build_setup(self, node, shape: Tuple[int, int, int], eps: float,
                    max_iterations: int, omega: float) -> Any:
        if self.fixed_omega is not None:
            omega = self.fixed_omega
        if self.name == "jacobi":
            return self.build(node, shape, eps=eps,
                              max_iterations=max_iterations)
        return self.build(node, shape, omega=omega, eps=eps,
                          max_iterations=max_iterations)

    def watch_pipeline(self, setup: Any) -> int:
        return getattr(setup, self.watch_attr)


SOLVERS: Dict[str, SolverEntry] = {
    "jacobi": SolverEntry(
        name="jacobi",
        build=build_jacobi_program,
        load=load_jacobi_inputs,
        watch_attr="update_pipeline",
    ),
    "rb-gs": SolverEntry(
        name="rb-gs",
        build=build_rbsor_program,
        load=load_rbsor_inputs,
        watch_attr="black_pipeline",
        fixed_omega=1.0,
    ),
    "rb-sor": SolverEntry(
        name="rb-sor",
        build=build_rbsor_program,
        load=load_rbsor_inputs,
        watch_attr="black_pipeline",
    ),
}


__all__ = ["SolverEntry", "SOLVERS"]
