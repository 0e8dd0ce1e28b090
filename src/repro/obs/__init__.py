"""``repro.obs`` — the observability substrate.

Two halves:

- :mod:`repro.obs.tracer` — in-process telemetry: nestable timed spans,
  monotonic counters, annotations, and a structured JSONL event sink,
  summarized into :class:`Telemetry` objects that result records and
  ``nsc-vpe stats`` consume;
- :mod:`repro.obs.alerts` — trend infrastructure over the bench history:
  the JSONL history file, :class:`AlertTrigger` conditions, and the
  :class:`RegressionDetector` that turns a sliding speedup into a fired
  alert record and a non-zero exit.

:mod:`repro.obs.stats` sits on top: the offline aggregators behind
``nsc-vpe stats``.  ``docs/OBSERVABILITY.md`` documents all of it.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.alerts import (
        DEFAULT_TRIGGERS,
        HISTORY_METRICS,
        AlertTrigger,
        RegressionDetector,
        append_history,
        detect_alerts,
        format_alerts,
        history_entries,
        load_history,
        write_alerts,
    )
    from repro.obs.stats import (
        aggregate_history,
        aggregate_records,
        format_history_stats,
        format_record_stats,
    )
    from repro.obs.tracer import (
        STAGES,
        ZERO_TIMINGS,
        JsonlSink,
        Telemetry,
        Tracer,
        annotate,
        count,
        current,
        default_sink,
        event,
        set_default_sink,
        span,
        use,
    )

__all__ = [
    # tracer
    "STAGES",
    "ZERO_TIMINGS",
    "Telemetry",
    "JsonlSink",
    "Tracer",
    "current",
    "use",
    "span",
    "count",
    "annotate",
    "event",
    "set_default_sink",
    "default_sink",
    # alerts
    "HISTORY_METRICS",
    "AlertTrigger",
    "DEFAULT_TRIGGERS",
    "RegressionDetector",
    "detect_alerts",
    "history_entries",
    "append_history",
    "load_history",
    "write_alerts",
    "format_alerts",
    # stats
    "aggregate_records",
    "format_record_stats",
    "aggregate_history",
    "format_history_stats",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "tracer": (
            "STAGES",
            "ZERO_TIMINGS",
            "Telemetry",
            "JsonlSink",
            "Tracer",
            "current",
            "use",
            "span",
            "count",
            "annotate",
            "event",
            "set_default_sink",
            "default_sink",
        ),
        "alerts": (
            "HISTORY_METRICS",
            "AlertTrigger",
            "DEFAULT_TRIGGERS",
            "RegressionDetector",
            "detect_alerts",
            "history_entries",
            "append_history",
            "load_history",
            "write_alerts",
            "format_alerts",
        ),
        "stats": (
            "aggregate_records",
            "format_record_stats",
            "aggregate_history",
            "format_history_stats",
        ),
    },
)
