"""Batch simulation job service.

The paper's environment compiles one visual program and runs it on one
simulated node; this package treats simulations as cacheable, schedulable
*jobs*:

- :mod:`repro.service.jobs`    — the :class:`SimJob` spec with stable
  content hashing;
- :mod:`repro.service.cache`   — a compile-once :class:`ProgramCache`
  (in-memory plus an optional on-disk layer) keyed by
  ``(program hash, params hash)``;
- :mod:`repro.service.pool`    — a :class:`WorkerPool` fanning jobs out
  across processes with deterministic result ordering and failure capture;
- :mod:`repro.service.sweep`   — declarative parameter sweeps expanding
  into job batches;
- :mod:`repro.service.results` — a JSONL result store for later comparison;
- :mod:`repro.service.retry`   — retry policies and transient-vs-permanent
  failure classification;
- :mod:`repro.service.faults`  — deterministic fault injection for chaos
  tests (:class:`FaultPlan`, the ``NSC_VPE_FAULTS`` env hook);
- :mod:`repro.service.runner`  — the orchestrator wiring it together.

Like every ``repro`` package, this one imports a submodule only when one
of its names is first read (:mod:`repro._lazy`), so a serial job never
loads the sweep module.

The ``nsc-vpe batch`` and ``nsc-vpe sweep`` CLI subcommands are the
front door; ``docs/SERVICE.md`` is the cookbook (batch and sweep recipes
and checker gating) and
``docs/ARCHITECTURE.md`` places this package in the system.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CacheStats",
    "ProgramCache",
    "CHECKER_MODES",
    "JobSpecError",
    "SimJob",
    "WorkerOutcome",
    "WorkerPool",
    "ResultStore",
    "RetryPolicy",
    "FaultInjected",
    "FaultPlan",
    "FaultRule",
    "SweepSpec",
    "BatchRunner",
    "BatchSummary",
    "execute_job",
    "execute_unit",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cache": ("CacheStats", "ProgramCache"),
        "jobs": ("CHECKER_MODES", "JobSpecError", "SimJob"),
        "pool": ("WorkerOutcome", "WorkerPool"),
        "results": ("ResultStore",),
        "retry": ("RetryPolicy",),
        "faults": ("FaultInjected", "FaultPlan", "FaultRule"),
        "sweep": ("SweepSpec",),
        "runner": (
            "BatchRunner",
            "BatchSummary",
            "execute_job",
            "execute_unit",
        ),
    },
)
