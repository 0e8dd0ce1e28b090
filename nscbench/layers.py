"""Per-layer metrics from the spans of a traced run.

Input: the ops of the run (``run.measure``), the spans both processes
recorded (``tracing.Recorder``), and the daemon's readings for
``daemon_warm``.  Output: every per-layer metric as ``(value, unit)``;
a metric that does not apply to the workload reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, Iterator, List

#: Layers whose self time is reported as a share of the op wall.
LAYERS = ("server", "service", "compose", "checker", "codegen", "sim")

#: Spans that execute simulated cycles.
EXEC_SPANS = ("sim.execute", "sim.slab_execute", "sim.multinode_execute")

#: Record stages that partition a job's runner time ("check" nests
#: inside "compile").
STAGES = ("compile", "bind", "execute", "transport")

#: Per-job sums use a span's self time for these, its full time otherwise.
SELF_TIMED = ("codegen.generate", "sim.bind")

SERVER_METRICS = (
    "server.submit_ms_p50", "server.wait_ms_p50", "server.result_ms_p50",
    "server.queue_wait_ms_p50", "server.overhead_ms_p50",
    "server.rejected", "server.dedup_hits",
    "server.rss_growth_kb_per_submission",
)

COUNTS = ("server.rejected", "server.dedup_hits", "service.fallback_count")


def p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def unit(name: str) -> str:
    if name.endswith("_ms_p50"):
        return "ms"
    if name in COUNTS:
        return "count"
    if name.endswith(("_ratio", "_frac")) or name.startswith("share.") \
            or name == "unattributed":
        return "frac"
    if name.endswith("_kb_per_submission"):
        return "kB"
    if name.endswith("_ns_per_sim_cycle"):
        return "ns"
    return "x"


# ----------------------------------------------------------------------
# the span tree
# ----------------------------------------------------------------------
def link_ops(spans: List[Dict[str, Any]]) -> None:
    """Parent every top-level daemon span to its op's request span.

    The client binds the op id as the request's correlation id, and the
    daemon records its spans under that id.
    """
    anchors: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        if span["name"] == "server.request":
            anchors[span["op"]] = span
        elif span["name"] == "bench.op":
            anchors.setdefault(span["op"], span)
    for span in spans:
        if span["overlay"] or span["parent"] is not None \
                or span["name"] in ("bench.op", "server.request"):
            continue
        anchor = anchors.get(span["op"])
        if anchor is not None:
            span["parent"] = anchor["id"]


def _covered(intervals: List[tuple], lo: float, hi: float) -> float:
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Dict[str, Any]]) -> None:
    """Stamp ``dur`` and ``self`` (span time minus the time its
    children cover) on every span."""
    children: Dict[str, List[tuple]] = defaultdict(list)
    for span in spans:
        if not span["overlay"] and span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        span["self"] = span["dur"] - _covered(
            children[span["id"]], span["start"], span["end"])


def _ancestors(span: Dict[str, Any],
               by_id: Dict[str, Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    parent = by_id.get(span["parent"])
    while parent is not None:
        yield parent
        parent = by_id.get(parent["parent"])


# ----------------------------------------------------------------------
def layer_metrics(workload: str, ops: List[Dict[str, Any]],
                  spans: List[Dict[str, Any]],
                  daemon: Dict[str, Any]) -> Dict[str, Any]:
    link_ops(spans)
    self_times(spans)
    traced = [op for op in ops if op["traced"]]
    traced_records = [r for op in traced for r in op["records"]]
    all_records = [r for op in ops for r in op["records"]]
    tree = [s for s in spans if not s["overlay"]]
    by_id = {s["id"]: s for s in tree}
    by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def durs(name: str) -> List[float]:
        return [s["dur"] * 1e3 for s in by_name[name]]

    # per-job sums over the spans nested in each execute_job call
    job_of: Dict[str, str] = {}
    per_job: Dict[str, Dict[str, float]] = {
        s["id"]: defaultdict(float) for s in by_name["service.job"]
    }
    for span in tree:
        job = next((a["id"] for a in _ancestors(span, by_id)
                    if a["name"] == "service.job"), None)
        if job is None:
            continue
        job_of[span["id"]] = job
        value = span["self"] if span["name"] in SELF_TIMED else span["dur"]
        per_job[job][span["name"]] += value * 1e3

    def job_p50(name: str) -> float:
        return p50([sums[name] for sums in per_job.values()])

    # the first plan lookup of a job (or of a slab) says whether the
    # plan was built before
    first_lookup: Dict[str, Dict[str, Any]] = {}
    for span in sorted(by_name["sim.plan_compile"], key=lambda s: s["start"]):
        first_lookup.setdefault(job_of.get(span["id"], span["id"]), span)
    plan_hits = [not s["miss"] for s in first_lookup.values()]

    exec_spans = [
        s for s in tree if s["name"] in EXEC_SPANS
        and not any(a["name"] in EXEC_SPANS for a in _ancestors(s, by_id))
    ]
    cycles = sum(r.get("cycles") or 0 for r in traced_records)
    exec_s = sum(s["dur"] for s in exec_spans)

    x_floor = 0.0
    if workload == "sim_heavy":
        from floor import seconds_per_sweep

        per_sweep = seconds_per_sweep((16, 16, 16))
        floor_s = sum(
            r["sweeps"] * per_sweep["jacobi" if r["method"] == "jacobi"
                                    else "rb-sor"]
            for r in traced_records if not r.get("hypercube_dim")
        )
        single_s = sum(s["dur"] for s in exec_spans
                       if s["name"] != "sim.multinode_execute")
        x_floor = single_s / floor_s if floor_s else 0.0

    with_hit = [r for r in all_records if "cache_hit" in r]
    walls = [op for op in traced if "wall_s" in op["summary"]]
    metrics: Dict[str, float] = dict.fromkeys(SERVER_METRICS, 0.0)
    if workload == "daemon_warm":
        enqueued = {s["op"]: s["end"] for s in by_name["server.enqueue"]}
        started: Dict[str, float] = {}
        for span in by_name["service.runner"]:
            started[span["op"]] = min(started.get(span["op"], span["start"]),
                                      span["start"])
        metrics.update({
            "server.submit_ms_p50": p50(durs("server.submit")),
            "server.wait_ms_p50": p50(durs("server.wait")),
            "server.result_ms_p50": p50(durs("server.result")),
            "server.queue_wait_ms_p50": p50([
                (started[op] - end) * 1e3 for op, end in enqueued.items()
                if op in started]),
            "server.overhead_ms_p50": p50([
                (op["t1"] - op["t0"] - op["summary"]["wall_s"]) * 1e3
                for op in walls]),
            "server.rejected": daemon["rejected"],
            "server.dedup_hits": daemon["dedup_hits"],
            "server.rss_growth_kb_per_submission":
                (daemon["rss_end_kb"] - daemon["rss_setup_kb"]) / len(ops),
        })
    metrics.update({
        "service.runner_ms_p50": p50(durs("service.runner")),
        "service.runner_overhead_ms_p50": p50([
            (op["summary"]["wall_s"] - sum(
                r.get("timings", {}).get(stage, 0.0)
                for r in op["records"] for stage in STAGES)) * 1e3
            for op in walls]),
        "service.store_append_ms_p50": p50(durs("service.store_append")),
        "service.cache_hit_ratio":
            sum(1 for r in with_hit if r["cache_hit"]) / len(with_hit)
            if with_hit else 0.0,
        "service.slab_job_ratio":
            sum(1 for r in all_records if r.get("tier") == "batch_fused")
            / max(1, len(all_records)),
        "service.fallback_count":
            sum(1 for r in all_records if r.get("fallback_reason")),
        "compose.build_ms_p50": job_p50("compose.build"),
        "checker.check_ms_p50": job_p50("checker.check"),
        "codegen.generate_self_ms_p50": job_p50("codegen.generate"),
        "sim.plan_compile_ms_p50": job_p50("sim.plan_compile"),
        "sim.plan_cache_hit_ratio":
            sum(plan_hits) / len(plan_hits) if plan_hits else 0.0,
        "sim.bind_self_ms_p50": job_p50("sim.bind"),
        "sim.execute_ms_p50": p50(durs("sim.execute")),
        "sim.slab_execute_ms_p50": p50(durs("sim.slab_execute")),
        "sim.multinode_bind_ms_p50": p50(durs("sim.multinode_bind")),
        "sim.multinode_execute_ms_p50": p50(durs("sim.multinode_execute")),
        "sim.host_ns_per_sim_cycle": exec_s / cycles * 1e9 if cycles else 0.0,
        "sim.x_floor": x_floor,
    })

    # traced ops against their untraced twins (complete pairs only)
    pairs = len(ops) // 2 * 2
    twin_walls = {flag: sum(op["t1"] - op["t0"] for op in ops[:pairs]
                            if op["traced"] is flag) for flag in (True, False)}
    metrics["trace.overhead_frac"] = (
        twin_walls[True] / twin_walls[False] - 1.0
        if twin_walls[False] else 0.0)
    wall = sum(s["dur"] for s in by_name["bench.op"])
    for layer in LAYERS:
        metrics[f"share.{layer}"] = sum(
            s["self"] for s in tree if s["layer"] == layer) / wall
    metrics["unattributed"] = sum(s["self"] for s in by_name["bench.op"]) / wall
    return {name: (value, unit(name)) for name, value in metrics.items()}


__all__ = ["LAYERS", "layer_metrics", "link_ops", "self_times"]
