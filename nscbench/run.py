"""Benchmark runner for the NSC toolchain.

    python3 nscbench/run.py --workload {daemon_warm,cold_programs,sim_heavy}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
``src/``).  It sets the workload up, runs its seeded ops in a
closed loop for ``--seconds``, checks every record against the golden
digests in ``expected.json`` and the workload's premise, and prints one
line per metric followed by a JSON result line:

- ``--trace 0`` reports the end-to-end metrics;
- ``--trace 1`` alternates traced and untraced ops, writes the spans to
  ``.nscbench_out/trace-<workload>-s<seed>.jsonl`` and reports the
  per-layer metrics (see ``README.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from hostspeed import Meter
from layers import layer_metrics, p50

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_SAMPLES = 5

#: Printed but left out of the result line: on a shared host the
#: ten-seed spread of the p90s reached 20-35% (host slow-downs come in
#: bursts, and a p90 picks them up), too wide to gate a change on.
PRINTED_ONLY = ("request_p90_ms", "job_p90_ms")


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh set-up process to its ``ready``."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def set_up(wl: Any, seed: int, meter: Meter) -> List[float]:
    """Set *wl* up; returns every set-up sample taken (seconds).  The
    host speed is calibrated just before each sample."""
    samples = []
    for k in range(SETUP_SAMPLES):
        for _ in range(5):
            meter.tick(force=True)
        start = time.perf_counter()
        if wl.name != "daemon_warm":
            samples.append(probe_setup(wl.name, seed))
            continue
        wl.setup()
        samples.append(time.perf_counter() - start)
        if k < SETUP_SAMPLES - 1:
            wl.discard()
    if wl.name != "daemon_warm":
        wl.setup()
    return samples


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def measure(wl: Any, seconds: float, rec: Any,
            meter: Meter) -> List[Dict[str, Any]]:
    """Closed loop: run ops until *seconds* have passed (or the pool is
    used up).  With a recorder, one op of each twin pair is traced, the
    first and the second in turn.  The host speed is calibrated between
    ops.  The op that completes ``wl.rss_ops`` ops carries the peak RSS
    so far as ``op["hwm_kb"]``, so memory compares at equal work."""
    from tracing import TRACED, bind_op

    ops: List[Dict[str, Any]] = []
    start = time.perf_counter()
    i = 0
    while True:
        jobs = wl.op(i)
        if jobs is None:
            break
        traced = rec is not None and i % 2 == (i // 2) % 2
        op_id = f"{TRACED if traced else 'plain-'}{i}"
        meter.tick()
        op: Dict[str, Any] = {"jobs": jobs, "traced": traced,
                              "records": [], "summary": {}, "error": None}
        with bind_op(op_id):
            span = rec.span("bench.op", "bench") if rec is not None \
                else contextlib.nullcontext()
            op["t0"] = time.perf_counter()
            with span:
                try:
                    op["records"], op["summary"] = wl.run(jobs)
                except Exception as exc:  # counted as failed jobs
                    op["error"] = f"{type(exc).__name__}: {exc}"
            op["t1"] = time.perf_counter()
        ops.append(op)
        if len(ops) == wl.rss_ops:
            op["hwm_kb"] = wl.peak_rss_kb()
        i += 1
        if op["t1"] - start >= seconds:
            break
    return ops


def verify(wl: Any, ops: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Golden-digest gate plus per-record premise checks."""
    from pools import canonical_digest, load_expected

    expected = load_expected()[wl.name]
    attempted = sum(len(op["jobs"]) for op in ops)
    failed = mismatches = 0
    invalid: List[str] = []
    for op in ops:
        if op["error"] or len(op["records"]) != len(op["jobs"]):
            failed += len(op["jobs"])
            if op["error"] and len(invalid) < 3:
                invalid.append(op["error"])
            continue
        for (index, _spec), record in zip(op["jobs"], op["records"]):
            if not record.get("ok"):
                failed += 1
            elif canonical_digest(record) != expected[index]:
                mismatches += 1
            check = getattr(wl, "record_premise", None)
            problem = check(record) if check is not None else None
            if problem is None and wl.name != "cold_programs" \
                    and record.get("cache_hit") is not True:
                problem = f"{record.get('label')} missed the cache"
            if problem and len(invalid) < 3:
                invalid.append(problem)
    return {"attempted": attempted, "failed": failed,
            "mismatches": mismatches, "invalid": invalid}


def end_to_end(wl: Any, ops: List[Dict[str, Any]], setup: List[float],
               peak_kb: int, factor: float = 1.0) -> Dict[str, Any]:
    """End-to-end metrics, ``name -> (value, unit)``.  Times are
    multiplied and rates divided by the host-speed *factor*
    (``hostspeed.py``; 1.0 gives raw values).  Memory is never scaled,
    nor are daemon_warm's request-bound metrics, which the daemon's
    fixed 20 ms result poll dominates rather than CPU speed."""
    f_request = 1.0 if wl.name == "daemon_warm" else factor
    requests = [(op["t1"] - op["t0"]) * f_request * 1e3 for op in ops]
    records = [r for op in ops for r in op["records"]]
    if wl.name == "cold_programs":  # one job per BatchRunner.run call
        jobs = requests
    else:
        jobs = [r["duration_s"] * factor * 1e3
                for r in records if "duration_s" in r]
    wall = sum(requests) / 1e3
    ok = sum(1 for r in records if r.get("ok"))
    cycles = sum(r.get("cycles") or 0 for r in records)
    return {
        "setup_s": (statistics.median(setup) * factor, "s"),
        "request_p50_ms": (p50(requests), "ms"),
        "request_p90_ms": (p90(requests), "ms"),
        "job_p50_ms": (p50(jobs), "ms"),
        "job_p90_ms": (p90(jobs), "ms"),
        "jobs_per_s": (ok / wall, "1/s"),
        "sim_cycles_per_s": (cycles / wall, "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("daemon_warm", "cold_programs", "sim_heavy"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    out_root = os.path.join(ROOT, ".nscbench_out")
    tag = f"{args.workload}-s{args.seed}"
    out_dir = os.path.join(out_root, f"{tag}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        cls = WORKLOADS[args.workload]
        trace_path = os.path.join(out_root, f"trace-{tag}.jsonl")
        daemon_spans = os.path.join(out_dir, "daemon-spans.jsonl")
        if args.workload == "daemon_warm":
            wl = cls(args.seed, out_dir, ROOT,
                     daemon_spans if args.trace else None)
        else:
            wl = cls(args.seed, out_dir)
        if args.setup_probe:
            wl.setup()
            print("ready", flush=True)
            return 0
        return run(wl, args, trace_path, daemon_spans)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run(wl: Any, args: argparse.Namespace, trace_path: str,
        daemon_spans: str) -> int:
    from tracing import Recorder, install, install_client, write_spans

    meter = Meter(0.1)
    try:
        setup = set_up(wl, args.seed, meter)
        rec = None
        if args.trace:
            rec = Recorder()
            (install_client if wl.name == "daemon_warm" else install)(rec)
        ops = measure(wl, args.seconds, rec, meter)
        peak_kb = next((op["hwm_kb"] for op in ops if "hwm_kb" in op),
                       None) or wl.peak_rss_kb()
        if rec is not None:
            rec.uninstall()
        if wl.name == "daemon_warm":
            daemon = wl.end()
            daemon["rss_setup_kb"] = wl.rss_setup_kb
            premise = [f"{daemon[k]} {k.replace('_', ' ')} after set-up"
                       for k in ("cache_misses", "rejected", "dedup_hits")
                       if daemon[k]]
        else:
            daemon = {}
            premise = wl.premise([r for op in ops for r in op["records"]])
    finally:
        wl.close()

    check = verify(wl, ops)
    invalid = premise + check["invalid"]
    correct = check["mismatches"] == 0 and not invalid and bool(ops)
    attempted = check["attempted"]
    failed = attempted if not correct else check["failed"]
    print(f"workload {wl.name} seed {args.seed}: {len(ops)} ops, "
          f"{attempted} jobs, {check['mismatches']} digest mismatches")
    for problem in invalid:
        print(f"invalid: {problem}")

    if args.trace:
        spans = list(rec.spans)
        if os.path.exists(daemon_spans):
            with open(daemon_spans, "r", encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
        metrics = layer_metrics(wl.name, ops, spans, daemon)
        metrics["host.speed_factor"] = (meter.factor(), "x")
        write_spans(spans, trace_path)
        print(f"spans -> {os.path.relpath(trace_path, ROOT)}")
    else:
        raw = end_to_end(wl, ops, setup, peak_kb)
        metrics = end_to_end(wl, ops, setup, peak_kb, meter.factor())
        print(f"failed_frac {failed / max(1, attempted):.4f} frac")
        print(f"host speed factor {meter.factor():.4f} "
              f"({len(meter.samples)} calibrations)")
        for name, (value, unit) in raw.items():
            print(f"raw.{name} {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if name not in PRINTED_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
