"""Threshold alerting over the bench-history trend.

The committed baseline (``benchmarks/perf/baseline.json``) guards
against regressions relative to one frozen floor; this layer guards
against *drift* — a speedup sliding run over run while staying above the
static floor.  The pieces, detector → triggers → alert records:

- :func:`append_history` / :func:`load_history` maintain the JSONL
  **history file**: one line per scenario per bench run, carrying the
  run's guarded metrics (``nsc-vpe bench --history`` appends on every
  run, so CI accumulates a trajectory as an artifact).
- an :class:`AlertTrigger` names one condition to watch: a metric, a
  rolling window of prior runs, and the fractional drop below the
  window's median that fires.
- the :class:`RegressionDetector` evaluates its triggers over the
  history: for each scenario's latest entry it compares the metric
  against the median of the preceding window (quick and full runs trend
  separately — they measure different problems).  Windows with fewer
  than ``min_samples`` prior entries never fire; a fresh history warms
  up silently.
- the result is a list of **alert records** — plain dicts, written as
  ``BENCH_alerts.json`` next to the other bench artifacts — and a
  non-zero exit from ``nsc-vpe bench`` when any fired.

The median (not the mean) anchors the window so one anomalously slow CI
runner in the history does not drag the floor down with it.

Workflow documentation: ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Bench-record metrics the history carries and the detector can watch.
HISTORY_METRICS = ("speedup",)


def metric_value(entry: Dict[str, Any], metric: str) -> Optional[float]:
    """The entry's finite numeric value for *metric*, else ``None``.

    A history file accumulates across bench versions, so individual
    entries may predate a metric entirely or carry it with a shape a
    different version wrote (``null``, a nested dict, a non-finite
    float).  Schema drift is per-entry data, not corruption: such
    entries are skipped for that metric, never allowed to fail the
    whole detection pass.
    """
    value = entry.get(metric)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if not math.isfinite(value):
        return None
    return float(value)


# ----------------------------------------------------------------------
# the history file
# ----------------------------------------------------------------------
def history_entries(
    records: Sequence[Dict[str, Any]],
    timestamp: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """Distill bench records into history lines (one per scenario)."""
    ts = time.time() if timestamp is None else timestamp
    entries: List[Dict[str, Any]] = []
    for record in records:
        entry: Dict[str, Any] = {
            "ts": round(float(ts), 3),
            "scenario": record["scenario"],
            "quick": bool(record.get("quick", False)),
            "ok": bool(record.get("ok", False)),
        }
        for metric in HISTORY_METRICS:
            if metric in record:
                entry[metric] = float(record[metric])
        wall = {
            side: data["wall_s"]
            for side, data in record.get("backends", {}).items()
            if isinstance(data, dict) and "wall_s" in data
        }
        if wall:
            entry["wall_s"] = wall
        entries.append(entry)
    return entries


def append_history(
    records: Sequence[Dict[str, Any]],
    path: str,
    timestamp: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """Append one history line per bench record; returns the new lines."""
    entries = history_entries(records, timestamp=timestamp)
    if not entries:
        return entries
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "a", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entries


def load_history(path: str) -> List[Dict[str, Any]]:
    """All history entries in append order; missing file reads empty.

    Unparseable lines are skipped (a truncated final line from a killed
    CI run must not poison every later bench)."""
    target = Path(path)
    if not target.exists():
        return []
    entries: List[Dict[str, Any]] = []
    with open(target, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and "scenario" in entry:
                entries.append(entry)
    return entries


# ----------------------------------------------------------------------
# triggers and the detector
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AlertTrigger:
    """One watched condition: *metric* dropping more than *drop* below
    the median of the last *window* prior runs (needing at least
    *min_samples* of them to make a trend claim at all)."""

    metric: str = "speedup"
    window: int = 5
    min_samples: int = 3
    drop: float = 0.25

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not (0 < self.min_samples <= self.window):
            raise ValueError("min_samples must be in [1, window]")
        if not (0.0 < self.drop < 1.0):
            raise ValueError("drop must be a fraction in (0, 1)")


#: Default watch list: the guarded speedup metric.
DEFAULT_TRIGGERS = (AlertTrigger(metric="speedup"),)


class RegressionDetector:
    """Evaluates triggers over a bench history.

    For every ``(scenario, quick)`` series in the history, the latest
    entry is the run under test and the preceding entries (newest
    ``window`` of them) are the trend it is judged against.
    """

    def __init__(
        self, triggers: Sequence[AlertTrigger] = DEFAULT_TRIGGERS
    ) -> None:
        self.triggers = tuple(triggers)

    def detect(
        self, history: Sequence[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Run every trigger; returns the alert document.

        ``{"ok": bool, "fired": [...], "evaluated": [...]}`` — ``fired``
        holds the alert records, ``evaluated`` one status entry per
        (series, trigger) pair including the quiet ones, so the artifact
        shows what was checked, not only what failed.
        """
        series: Dict[Any, List[Dict[str, Any]]] = {}
        for entry in history:
            key = (entry["scenario"], bool(entry.get("quick", False)))
            series.setdefault(key, []).append(entry)

        fired: List[Dict[str, Any]] = []
        evaluated: List[Dict[str, Any]] = []
        for (scenario, quick), entries in sorted(series.items()):
            current = entries[-1]
            prior = entries[:-1]
            for trigger in self.triggers:
                metric = trigger.metric
                value = metric_value(current, metric)
                if value is None:
                    continue
                window = [
                    v
                    for v in (
                        metric_value(e, metric)
                        for e in prior[-trigger.window:]
                    )
                    if v is not None
                ]
                status: Dict[str, Any] = {
                    "scenario": scenario,
                    "quick": quick,
                    "metric": metric,
                    "current": value,
                    "window_size": len(window),
                }
                if len(window) < trigger.min_samples:
                    status["fired"] = False
                    status["note"] = (
                        f"insufficient history "
                        f"({len(window)} < {trigger.min_samples} runs)"
                    )
                    evaluated.append(status)
                    continue
                median = statistics.median(window)
                floor = median * (1.0 - trigger.drop)
                status.update(
                    {
                        "window_median": median,
                        "floor": floor,
                        "fired": value < floor,
                    }
                )
                evaluated.append(status)
                if status["fired"]:
                    fired.append(
                        {
                            **status,
                            "reason": (
                                f"{scenario}.{metric} "
                                f"{value:.2f}x fell below "
                                f"{floor:.2f}x (median {median:.2f}x of "
                                f"last {len(window)} runs, "
                                f"drop tolerance {trigger.drop:.0%})"
                            ),
                        }
                    )
        return {"ok": not fired, "fired": fired, "evaluated": evaluated}


def detect_alerts(
    history: Sequence[Dict[str, Any]],
    triggers: Sequence[AlertTrigger] = DEFAULT_TRIGGERS,
) -> Dict[str, Any]:
    """Functional shorthand for ``RegressionDetector(triggers).detect``."""
    return RegressionDetector(triggers).detect(history)


def write_alerts(alerts: Dict[str, Any], out_dir: str) -> Path:
    """Write ``BENCH_alerts.json`` under *out_dir*; returns the path."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "BENCH_alerts.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(alerts, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def format_alerts(alerts: Dict[str, Any]) -> str:
    """Human-readable alert summary, one line per fired alert."""
    evaluated = alerts.get("evaluated", [])
    fired = alerts.get("fired", [])
    header = (
        f"history alerts ({len(evaluated)} checks): "
        + ("ok" if alerts.get("ok") else f"{len(fired)} FIRED")
    )
    lines = [f"  ALERT {alert['reason']}" for alert in fired]
    quiet = [
        e for e in evaluated if not e.get("fired") and "note" in e
    ]
    if not fired and evaluated and len(quiet) == len(evaluated):
        lines.append(f"  ({quiet[0]['note']})")
    return "\n".join([header] + lines)


__all__ = [
    "HISTORY_METRICS",
    "metric_value",
    "AlertTrigger",
    "DEFAULT_TRIGGERS",
    "RegressionDetector",
    "detect_alerts",
    "history_entries",
    "append_history",
    "load_history",
    "write_alerts",
    "format_alerts",
]
