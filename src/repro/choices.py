"""The name tuples the command line offers as choices.

``nsc-vpe``'s parser lists the execution backends and the bench
scenarios in its options and help; keeping the tuples here, free of
imports, lets :func:`repro.cli.build_parser` run without loading the
simulator or the bench harness.  :mod:`repro.sim.fastpath` (home of
``validate_backend`` and the program caches) and :mod:`repro.bench`
re-export them under the same names.
"""

#: The selectable execution backends, in documentation order.
BACKENDS = ("reference", "fast")

#: Bench scenario names in canonical execution order.
SCENARIOS = (
    "jacobi_single",
    "jacobi_multinode",
    "batch_service",
    "jacobi_converge",
    "hypercube_scaling",
    "fused_coverage",
    "batch_fused",
    "analysis_coverage",
)

__all__ = ["BACKENDS", "SCENARIOS"]
