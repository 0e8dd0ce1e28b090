"""``repro.analysis`` — static dataflow and hazard analysis for microcode.

The machine is statically scheduled: every stream a program will ever
move is spelled out in its microwords, DMA programs, and control script,
so correctness properties are decidable *before* execution.  This
package proves them:

- :mod:`repro.analysis.sites` — exact arithmetic-progression span math
  over storage sites (memory planes, cache buffers, shift/delay taps,
  FU rows);
- :mod:`repro.analysis.dataflow` — the whole-program def-use walk:
  per-issue reads/writes resolved against an abstract machine state,
  driving uninitialized-read, same-issue race, write-after-write, and
  dead-write detection;
- :mod:`repro.analysis.hazards` — per-issue structural checks: operand
  wiring, shift/delay configuration, switch port conflicts and fan-out;
- :mod:`repro.analysis.plansafety` — the units the fused engine folds to
  reductions, and the control-script fusion-eligibility rules
  ``check_batchable`` declines by;
- :mod:`repro.analysis.engine` — :func:`analyze_program`, the entry
  point producing an :class:`AnalysisVerdict`.

``docs/ANALYSIS.md`` is the catalogue; ``nsc-vpe analyze`` is the CLI.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.engine import analyze_program
    from repro.analysis.plansafety import (
        REDUCIBLE_OPS,
        fusion_eligibility,
        reduce_fus,
    )
    from repro.analysis.sites import SiteKey, Span
    from repro.analysis.verdict import (
        SEVERITIES,
        AnalysisVerdict,
        Finding,
        FindingCollector,
        severity_rank,
    )

__all__ = [
    "analyze_program",
    "AnalysisVerdict",
    "Finding",
    "FindingCollector",
    "SEVERITIES",
    "severity_rank",
    "Span",
    "SiteKey",
    "REDUCIBLE_OPS",
    "reduce_fus",
    "fusion_eligibility",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "engine": ("analyze_program",),
        "verdict": (
            "AnalysisVerdict",
            "Finding",
            "FindingCollector",
            "SEVERITIES",
            "severity_rank",
        ),
        "sites": ("Span", "SiteKey"),
        "plansafety": (
            "REDUCIBLE_OPS",
            "reduce_fus",
            "fusion_eligibility",
        ),
    },
)
