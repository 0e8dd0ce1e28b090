"""Offline aggregation behind ``nsc-vpe stats``.

Two sources, two aggregators:

- :func:`aggregate_records` folds a result store's job records (the
  ``--results`` JSONL from ``nsc-vpe batch`` / ``sweep``) into one
  summary: per-stage time totals and means, the tier distribution and
  batch-fusion slab mix (how many jobs rode slabs, and how wide),
  cache-hit accounting, fallback count, total measured wall time, and
  the reliability picture — retries by reason, resumed-vs-fresh record
  mix, transport fallbacks (see ``docs/RELIABILITY.md``).
- :func:`aggregate_history` folds a bench history file (``nsc-vpe bench
  --history``) into one summary per ``(scenario, quick)`` series: run
  count, the latest value and rolling median of every guarded metric.

Both return plain JSON-ready dicts; the ``format_*`` twins render the
human-readable report the CLI prints.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from statistics import median
from typing import Any, Dict, List, Sequence

from repro.obs.alerts import HISTORY_METRICS, metric_value
from repro.obs.tracer import STAGES


def aggregate_records(
    records: Sequence[Dict[str, Any]]
) -> Dict[str, Any]:
    """Fold job records into one stats document."""
    timings = {stage: 0.0 for stage in STAGES}
    tiers: Dict[str, int] = {}
    cache = {"hits": 0, "misses": 0}
    slab_sizes: Dict[int, int] = {}
    jobs = ok = fallbacks = 0
    duration_s = 0.0
    retried_jobs = extra_attempts = resumed = transport_fallbacks = 0
    retry_reasons: Dict[str, int] = {}
    for record in records:
        jobs += 1
        if record.get("ok"):
            ok += 1
        attempts = int(record.get("attempts") or 1)
        if attempts > 1:
            retried_jobs += 1
            extra_attempts += attempts - 1
        for reason in record.get("retry_reasons") or ():
            retry_reasons[reason] = retry_reasons.get(reason, 0) + 1
        if record.get("resumed"):
            resumed += 1
        if record.get("transport_fallback"):
            transport_fallbacks += 1
        for stage, seconds in (record.get("timings") or {}).items():
            timings[stage] = timings.get(stage, 0.0) + float(seconds)
        tier = record.get("tier")
        if tier is not None:
            tiers[tier] = tiers.get(tier, 0) + 1
        if record.get("fallback_reason") is not None:
            fallbacks += 1
        if "cache_hit" in record:
            cache["hits" if record["cache_hit"] else "misses"] += 1
        size = record.get("slab_size")
        if size:
            slab_sizes[int(size)] = slab_sizes.get(int(size), 0) + 1
        duration_s += float(record.get("duration_s") or 0.0)
    slabs = {
        "jobs": sum(slab_sizes.values()),
        # each job of slab_size k belonged to a k-wide slab, so k jobs
        # at size k mean one slab ran
        "slabs": sum(n // k for k, n in slab_sizes.items()),
        "sizes": {str(k): n for k, n in sorted(slab_sizes.items())},
    }
    return {
        "jobs": jobs,
        "ok": ok,
        "failed": jobs - ok,
        "duration_s": round(duration_s, 6),
        "timings": {k: round(v, 6) for k, v in timings.items()},
        "timings_mean": {
            k: round(v / jobs, 6) if jobs else 0.0
            for k, v in timings.items()
        },
        "tiers": tiers,
        "slabs": slabs,
        "fallbacks": fallbacks,
        "cache": cache,
        "reliability": {
            "retried_jobs": retried_jobs,
            "extra_attempts": extra_attempts,
            "retry_reasons": {
                k: retry_reasons[k] for k in sorted(retry_reasons)
            },
            "resumed": resumed,
            "fresh": jobs - resumed,
            "transport_fallbacks": transport_fallbacks,
        },
    }


def format_record_stats(stats: Dict[str, Any]) -> str:
    """Human-readable report for :func:`aggregate_records`."""
    lines = [
        f"{stats['jobs']} jobs ({stats['ok']} ok, {stats['failed']} "
        f"failed), {stats['duration_s']:.3f}s measured wall",
    ]
    total = sum(stats["timings"].values())
    for stage in STAGES:
        seconds = stats["timings"].get(stage, 0.0)
        share = seconds / total if total > 0 else 0.0
        lines.append(
            f"  {stage:<10} {seconds:8.3f}s total  "
            f"{stats['timings_mean'].get(stage, 0.0):8.4f}s/job  "
            f"{share:6.1%}"
        )
    if stats["tiers"]:
        tiers = ", ".join(
            f"{tier}={n}" for tier, n in sorted(stats["tiers"].items())
        )
        line = f"  tiers: {tiers}"
        if stats["fallbacks"]:
            line += f" ({stats['fallbacks']} engine fallbacks)"
        lines.append(line)
    slabs = stats.get("slabs") or {}
    if slabs.get("jobs"):
        sizes = ", ".join(
            f"{n} jobs @ width {k}"
            for k, n in sorted(
                slabs["sizes"].items(), key=lambda kv: int(kv[0])
            )
        )
        lines.append(
            f"  slabs: {slabs['jobs']} batch-fused jobs across "
            f"{slabs['slabs']} slabs ({sizes})"
        )
    cache = stats["cache"]
    if cache["hits"] or cache["misses"]:
        lines.append(
            f"  cache: {cache['hits']} hits, {cache['misses']} misses"
        )
    rel = stats.get("reliability") or {}
    if rel.get("retried_jobs") or rel.get("resumed") \
            or rel.get("transport_fallbacks"):
        parts = []
        if rel.get("retried_jobs"):
            reasons = ", ".join(
                f"{reason}={n}"
                for reason, n in sorted(rel["retry_reasons"].items())
            )
            parts.append(
                f"{rel['retried_jobs']} retried jobs "
                f"({rel['extra_attempts']} extra attempts"
                + (f"; {reasons}" if reasons else "") + ")"
            )
        if rel.get("resumed"):
            parts.append(
                f"{rel['resumed']} resumed / {rel['fresh']} fresh records"
            )
        if rel.get("transport_fallbacks"):
            parts.append(
                f"{rel['transport_fallbacks']} transport fallbacks"
            )
        lines.append("  reliability: " + ", ".join(parts))
    return "\n".join(lines)


def aggregate_history(
    entries: Sequence[Dict[str, Any]], window: int = 5
) -> List[Dict[str, Any]]:
    """Fold history entries into one summary per (scenario, quick).

    Each summary carries the series' run count and, per guarded metric,
    the latest value plus the median over the newest *window* entries
    (the same trend statistic the alert detector floors against).
    """
    series: Dict[Any, List[Dict[str, Any]]] = {}
    for entry in entries:
        key = (entry["scenario"], bool(entry.get("quick", False)))
        series.setdefault(key, []).append(entry)
    summaries: List[Dict[str, Any]] = []
    for (scenario, quick), items in sorted(series.items()):
        summary: Dict[str, Any] = {
            "scenario": scenario,
            "quick": quick,
            "runs": len(items),
            "metrics": {},
        }
        for metric in HISTORY_METRICS:
            # metric_value skips entries that predate the metric or carry
            # a drifted shape (see repro.obs.alerts) instead of raising
            values = [
                v
                for v in (metric_value(e, metric) for e in items)
                if v is not None
            ]
            if not values:
                continue
            summary["metrics"][metric] = {
                "latest": round(values[-1], 3),
                "median": round(median(values[-window:]), 3),
                "best": round(max(values), 3),
            }
        summaries.append(summary)
    return summaries


def format_history_stats(summaries: Sequence[Dict[str, Any]]) -> str:
    """Human-readable report for :func:`aggregate_history`."""
    if not summaries:
        return "(empty history)"
    lines = []
    for summary in summaries:
        kind = "quick" if summary["quick"] else "full"
        lines.append(
            f"{summary['scenario']} [{kind}]: {summary['runs']} runs"
        )
        for metric, stats in sorted(summary["metrics"].items()):
            lines.append(
                f"  {metric:<20} latest {stats['latest']:.2f}x  "
                f"median {stats['median']:.2f}x  "
                f"best {stats['best']:.2f}x"
            )
    return "\n".join(lines)


__all__ = [
    "aggregate_records",
    "format_record_stats",
    "aggregate_history",
    "format_history_stats",
]
