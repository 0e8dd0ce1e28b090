"""Command-line interface: ``nsc-vpe``.

Subcommands mirror the toolchain:

- ``info``       — the machine inventory (Fig. 1 as text)
- ``icons``      — the ALS icon catalog (Fig. 4)
- ``check``      — validate a saved visual program
- ``analyze``    — static dataflow/hazard analysis of compiled microcode
- ``disasm``     — generate microcode and print the textual disassembly
- ``render``     — render a pipeline diagram from a saved program
- ``jacobi``     — build, run, and report the paper's Eq. 1 example
- ``solve``      — run jacobi / rb-gs / rb-sor on a Poisson problem
- ``batch``      — run a JSON file of simulation jobs through the service
- ``sweep``      — expand a parameter sweep into a job batch and run it
- ``bench``      — compare the reference and fast execution backends
- ``stats``      — aggregate telemetry from a result store or history
- ``serve``      — host the service as a resident HTTP daemon

Programs are the JSON files written by
:func:`repro.diagram.serialize.save` or :meth:`EditorSession.save`.

``--subset`` (target the §6 architectural-subset machine) is accepted
uniformly: either before the subcommand (``nsc-vpe --subset info``) or
after it (``nsc-vpe info --subset``).  Machine-running commands resolve
it through the shared :func:`_node` helper; for ``batch`` it sets the
default for jobs that do not specify ``subset`` themselves, and for
``sweep`` it selects the subset machine axis.  ``bench`` is the one
exception: its scenarios are fixed full-machine workloads, so it rejects
``--subset`` rather than silently ignoring it.

``--backend {reference,fast}`` on the executing commands (``jacobi``,
``solve``, ``batch``, ``sweep``) selects the execution backend; results
are bit-identical either way (``nsc-vpe bench`` proves it and measures
the speedup — see ``docs/BACKENDS.md`` for the full matrix).

``batch`` and ``sweep`` additionally take ``--workers``, ``--timeout``,
``--cache-dir``, ``--results``, ``--run-checker`` (whether compiles run
the design-rule checker; the modes are described on
:class:`repro.service.jobs.SimJob`) and ``--batch-fusion
{off,auto}`` (``auto`` runs fusable same-program jobs as one stacked
batch-fused slab, serial or pooled — see ``docs/BACKENDS.md``).  ``sweep``
also takes ``--seeds`` to add a seeded-initial-guess axis.

The reliability knobs (``docs/RELIABILITY.md``): ``--max-attempts`` and
``--backoff-base`` give every job a deterministic retry budget for
transient failures (timeouts, dead workers), and
``--resume`` (requires ``--results``) skips jobs the store already
holds a success record for, so an interrupted sweep picks up where it
stopped and converges to the uninterrupted store, byte for byte.
``docs/SERVICE.md`` is the cookbook.

``serve`` keeps all of the above resident: one daemon process holds the
warm program/plan caches across requests, so repeat batches skip
recompilation entirely.
``batch`` and ``sweep`` gain ``--server URL`` to submit to a daemon
instead of executing locally — same records, same summary line, and
(when the daemon runs with ``--results``) a digest-compatible store.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.arch.node import NodeConfig
from repro.arch.params import NSCParameters, SUBSET_PARAMS


def _node(args: argparse.Namespace) -> NodeConfig:
    return NodeConfig(SUBSET_PARAMS if getattr(args, "subset", False) else
                      NSCParameters())


def _load_program(path: str):
    from repro.diagram import serialize

    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    # accept both bare programs and editor-session saves
    if "program" in payload and "format" not in payload:
        return serialize.program_from_dict(payload["program"])
    return serialize.program_from_dict(payload)


def cmd_info(args: argparse.Namespace) -> int:
    from repro.editor.render_ascii import render_datapath

    node = _node(args)
    print(render_datapath(node))
    print(f"\nregister file: {node.params.regfile_words} words/unit; "
          f"switch fan-out limit {node.params.switch_max_fanout}; "
          f"hypercube dimension {node.params.hypercube_dim} "
          f"({node.params.n_nodes} nodes, "
          f"{node.params.peak_gflops_system:.1f} GFLOPS system peak)")
    return 0


def cmd_icons(args: argparse.Namespace) -> int:
    from repro.editor.render_ascii import render_icon_catalog

    print(render_icon_catalog())
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.checker.checker import Checker

    node = _node(args)
    program = _load_program(args.program)
    report = Checker(node).check_program(program)
    print(report.format())
    return 0 if report.ok else 1


def _registry_programs(node: NodeConfig):
    """Compiled (name, MachineProgram) pairs for the analyze/bench corpus:
    every registry solver at the standard quick and full bench shapes."""
    from repro.codegen.generator import MicrocodeGenerator
    from repro.compose.registry import SOLVERS

    generator = MicrocodeGenerator(node, run_checker=False)
    for entry in SOLVERS.values():
        for n in (7, 9):
            setup = entry.build_setup(
                node, (n, n, n), eps=1e-4, max_iterations=100, omega=1.5
            )
            yield f"{entry.name}-{n}", generator.generate(setup.program)


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_program, severity_rank
    from repro.codegen.generator import MicrocodeGenerator

    node = _node(args)
    if args.registry == (args.program is not None):
        print("error: give a program file or --registry (not both)",
              file=sys.stderr)
        return 2
    if args.registry:
        targets = list(_registry_programs(node))
    else:
        generator = MicrocodeGenerator(node, run_checker=False)
        machine_program = generator.generate(_load_program(args.program))
        targets = [(machine_program.name, machine_program)]

    verdicts = [(name, analyze_program(program))
                for name, program in targets]
    if args.json:
        print(json.dumps(
            [dict(verdict.to_dict(), target=name)
             for name, verdict in verdicts],
            indent=2, sort_keys=True,
        ))
    else:
        for name, verdict in verdicts:
            print(verdict.format())
    if args.fail_on == "never":
        return 0
    floor = severity_rank(args.fail_on)
    failed = any(
        severity_rank(f.severity) >= floor
        for _name, verdict in verdicts
        for f in verdict.findings
    )
    return 1 if failed else 0


def cmd_disasm(args: argparse.Namespace) -> int:
    from repro.codegen.asmtext import disassemble_program
    from repro.codegen.generator import MicrocodeGenerator

    node = _node(args)
    program = _load_program(args.program)
    machine_program = MicrocodeGenerator(node).generate(program)
    print(disassemble_program(machine_program))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from repro.editor.render_ascii import render_pipeline_diagram
    from repro.editor.render_svg import render_pipeline_svg

    program = _load_program(args.program)
    if not (0 <= args.pipeline < len(program.pipelines)):
        print(f"error: program has {len(program.pipelines)} pipelines",
              file=sys.stderr)
        return 1
    diagram = program.pipelines[args.pipeline]
    if args.svg:
        print(render_pipeline_svg(diagram))
    else:
        print(render_pipeline_diagram(diagram))
    return 0


def _solve_job(args: argparse.Namespace, method: str) -> Dict[str, Any]:
    """Run one Poisson job of the command's grid and options through the
    service (from zeros, to ``--eps`` or ``--max-sweeps``) and return
    its record; a failed job's error goes to stderr."""
    from repro.service.jobs import SimJob
    from repro.service.runner import execute_job

    record = execute_job(SimJob(
        method=method, shape=(args.n, args.n, args.n), eps=args.eps,
        max_sweeps=args.max_sweeps, omega=getattr(args, "omega", 1.5),
        subset=bool(getattr(args, "subset", False)), backend=args.backend,
    ))
    if not record["ok"]:
        print(f"error: {record['error']}", file=sys.stderr)
    return record


def cmd_jacobi(args: argparse.Namespace) -> int:
    from repro.sim.metrics import format_summary

    record = _solve_job(args, "jacobi")
    if not record["ok"]:
        return 1
    print(f"converged: {record['converged']} in {record['sweeps']} sweeps")
    print(f"error vs analytic solution: "
          f"{record['error_vs_analytic']:.3e}")
    print(format_summary(record["metrics"]))
    return 0 if record["converged"] else 1


def cmd_solve(args: argparse.Namespace) -> int:
    record = _solve_job(args, args.method)
    if not record["ok"]:
        return 1
    print(f"{args.method}: converged={record['converged']} "
          f"sweeps={record['sweeps']} "
          f"cycles={record['cycles']} "
          f"err={record['error_vs_analytic']:.3e}")
    return 0 if record["converged"] else 1


def _parse_int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_str_list(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.service.jobs import JobSpecError, SimJob
    from repro.service.results import ResultStore
    from repro.service.runner import BatchRunner

    try:
        with open(args.jobs, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read jobs file: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: jobs file is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if isinstance(payload, dict):
        if "jobs" not in payload:
            print('error: jobs file object must have a "jobs" list',
                  file=sys.stderr)
            return 2
        specs = payload["jobs"]
    else:
        specs = payload
    if not isinstance(specs, list):
        print("error: jobs file must be a list of job specs",
              file=sys.stderr)
        return 2
    jobs = []
    try:
        for spec in specs:
            spec = dict(spec)
            if getattr(args, "subset", False):
                spec.setdefault("subset", True)
            spec.setdefault("backend", args.backend)
            spec.setdefault("run_checker", args.run_checker)
            jobs.append(SimJob.from_dict(spec))
    except (JobSpecError, TypeError, ValueError) as exc:
        print(f"error: bad job spec: {exc}", file=sys.stderr)
        return 2
    if args.server:
        return _run_via_server(args, [job.to_dict() for job in jobs])
    if args.resume and not args.results:
        print("error: --resume needs --results (the store to resume "
              "from)", file=sys.stderr)
        return 2
    store = ResultStore(args.results) if args.results else None
    runner = BatchRunner(workers=args.workers, timeout=args.timeout,
                         cache_dir=args.cache_dir, store=store,
                         batch_fusion=args.batch_fusion,
                         retry=_retry_policy(args), resume=args.resume)
    records, summary = runner.run(jobs)
    _print_batch(records, summary)
    return 0 if summary.failed == 0 else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.service.jobs import JobSpecError
    from repro.service.results import ResultStore
    from repro.service.runner import BatchRunner
    from repro.service.sweep import SweepSpec

    subset_axis: tuple
    if args.include_subset:
        subset_axis = (False, True)
    elif getattr(args, "subset", False):
        subset_axis = (True,)
    else:
        subset_axis = (False,)
    try:
        spec = SweepSpec(
            grids=tuple(_parse_int_list(args.grids)),
            methods=tuple(_parse_str_list(args.methods)),
            dims=tuple(_parse_int_list(args.dims)),
            subset=subset_axis,
            seeds=tuple(_parse_int_list(args.seeds)) if args.seeds else (),
            eps=args.eps,
            max_sweeps=args.max_sweeps,
            omega=args.omega,
            repeats=args.repeats,
            backend=args.backend,
            run_checker=args.run_checker,
            batch_fusion=args.batch_fusion,
            max_attempts=args.max_attempts,
            backoff_base=args.backoff_base,
        )
    except (JobSpecError, ValueError) as exc:
        print(f"error: bad sweep axes: {exc}", file=sys.stderr)
        return 2
    if args.resume and not args.results and not args.server:
        print("error: --resume needs --results (the store to resume "
              "from)", file=sys.stderr)
        return 2
    print(f"sweep: {spec.describe()}")
    jobs = spec.expand()
    if args.server:
        return _run_via_server(args, [job.to_dict() for job in jobs])
    store = ResultStore(args.results) if args.results else None
    runner = BatchRunner(workers=args.workers, timeout=args.timeout,
                         cache_dir=args.cache_dir, store=store,
                         batch_fusion=spec.batch_fusion,
                         resume=args.resume)
    records, summary = runner.run(jobs)
    _print_batch(records, summary)
    return 0 if summary.failed == 0 else 1


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        SCENARIOS,
        BenchError,
        compare_records,
        format_comparison,
        format_record,
        load_baseline,
        run_scenario,
        write_baseline,
        write_comparison,
        write_record,
    )

    if getattr(args, "subset", False):
        # scenario configurations are fixed full-machine workloads; a
        # silently ignored --subset would misrepresent the results
        print("error: bench scenarios target the full machine; "
              "--subset is not supported", file=sys.stderr)
        return 2
    names = (_parse_str_list(args.scenarios) if args.scenarios
             else list(SCENARIOS))
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"error: unknown scenario(s) {', '.join(unknown)}; "
              f"expected from {', '.join(SCENARIOS)}", file=sys.stderr)
        return 2
    if args.compare:
        try:
            baseline = load_baseline(args.compare)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read baseline: {exc}", file=sys.stderr)
            return 2
    ok = True
    records = []
    for name in names:
        try:
            record = run_scenario(name, quick=args.quick)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        records.append(record)
        path = write_record(record, args.out)
        print(format_record(record))
        print(f"  -> {path}")
        if not record["ok"]:
            ok = False
        # untimed scenarios (e.g. analysis_coverage) have no timing
        if args.min_speedup > 0 and "speedup" in record \
                and record["speedup"] < args.min_speedup:
            print(f"  speedup {record['speedup']:.1f}x below required "
                  f"{args.min_speedup:g}x", file=sys.stderr)
            ok = False
    if args.save_baseline:
        base_path = write_baseline(records, args.save_baseline)
        print(f"baseline -> {base_path}")
    if args.compare:
        comparison = compare_records(records, baseline)
        out_path = write_comparison(comparison, args.out)
        print(format_comparison(comparison))
        print(f"  -> {out_path}")
        if not comparison["ok"]:
            ok = False
    if args.history:
        from repro.obs import (
            append_history,
            detect_alerts,
            format_alerts,
            load_history,
            write_alerts,
        )

        append_history(records, args.history)
        print(f"history -> {args.history}")
        alerts = detect_alerts(load_history(args.history))
        alerts_path = write_alerts(alerts, args.out)
        print(format_alerts(alerts))
        print(f"  -> {alerts_path}")
        if not alerts["ok"]:
            ok = False
    print("bench: all backends agree" if ok
          else "bench: FAILURES (see above)")
    return 0 if ok else 1


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import (
        aggregate_history,
        aggregate_records,
        format_history_stats,
        format_record_stats,
        load_history,
    )
    from repro.service.results import ResultStore

    if bool(args.results) == bool(args.history):
        print("error: give exactly one of --results or --history",
              file=sys.stderr)
        return 2
    if args.results:
        store = ResultStore(args.results)
        if not store.path.exists():
            print(f"error: no result store at {args.results}",
                  file=sys.stderr)
            return 2
        stats = aggregate_records(store.load())
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            print(format_record_stats(stats))
        return 0
    entries = load_history(args.history)
    summaries = aggregate_history(entries, window=args.window)
    if args.json:
        print(json.dumps(summaries, indent=2, sort_keys=True))
    else:
        print(format_history_stats(summaries))
    return 0


def _run_via_server(args: argparse.Namespace, specs: List[dict]) -> int:
    """Thin-client mode shared by ``batch``/``sweep --server URL``:
    submit the (already normalized) specs to a resident daemon, wait,
    and print the same per-record lines and summary an offline run
    would."""
    from repro.server.client import ServerError, ServiceClient
    from repro.service.runner import BatchSummary

    client = ServiceClient(args.server)
    try:
        result = client.run(jobs=specs, tag=getattr(args, "tag", "") or "",
                            resume=args.resume)
    except ServerError as exc:
        print(f"error: server refused the batch: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # URLError, ConnectionError: no daemon there
        print(f"error: cannot reach server {args.server}: {exc}",
              file=sys.stderr)
        return 2
    summary = BatchSummary(**result["summary"])
    _print_batch(result["records"], summary)
    return 0 if summary.failed == 0 else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.tracer import JsonlSink
    from repro.server.app import serve_forever
    from repro.server.events import EventBuffer
    from repro.server.rate_limiter import RateLimiter
    from repro.server.service import SimService

    downstream = JsonlSink(args.events_log) if args.events_log else None
    events = EventBuffer(maxlen=args.events_buffer, downstream=downstream)
    service = SimService(
        store_path=args.results,
        cache_dir=args.cache_dir,
        workers=args.workers,
        timeout=args.timeout,
        batch_fusion=args.batch_fusion,
        run_checker=args.run_checker,
        retry=_retry_policy(args),
        events=events,
        max_queued=args.max_queued,
    )
    limiter = RateLimiter(capacity=args.rate_capacity,
                          refill_rate=args.rate_refill)
    service.start()
    try:
        serve_forever(service, host=args.host, port=args.port,
                      limiter=limiter)
    finally:
        service.stop()
        if downstream is not None:
            downstream.close()
    print("serve: stopped")
    return 0


def _print_batch(records, summary) -> None:
    for r in records:
        if r.get("ok"):
            line = (f"  ok   {r['label']:<24} converged={r.get('converged')} "
                    f"sweeps={r.get('sweeps')} cycles={r.get('cycles')}")
        else:
            line = f"  FAIL {r['label']:<24} {r.get('error', '')}"
        if r.get("tier"):
            line += f"  tier={r['tier']}"
        if "cache_hit" in r:
            line += "  [cache hit]" if r["cache_hit"] else "  [compiled]"
        print(line)
    print(summary.format())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsc-vpe",
        description="Visual programming environment for the Navier-Stokes "
        "Computer (ICPP 1988 reproduction)",
    )
    parser.add_argument(
        "--subset",
        action="store_true",
        help="target the §6 architectural-subset machine",
    )
    # every subcommand also accepts --subset after its name; SUPPRESS keeps
    # the subparser from clobbering a --subset given before the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--subset",
        action="store_true",
        default=argparse.SUPPRESS,
        help="target the §6 architectural-subset machine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="machine inventory (Fig. 1)",
                   parents=[common])
    sub.add_parser("icons", help="ALS icon catalog (Fig. 4)",
                   parents=[common])

    p = sub.add_parser("check", help="validate a saved program",
                       parents=[common])
    p.add_argument("program", help="path to a saved .json program")

    p = sub.add_parser(
        "analyze",
        help="static dataflow/hazard analysis of compiled microcode",
        parents=[common],
    )
    p.add_argument("program", nargs="?", default=None,
                   help="path to a saved .json program (omit with "
                   "--registry)")
    p.add_argument("--registry", action="store_true",
                   help="analyze every registry solver program instead of "
                   "a file (jacobi, rb-gs, rb-sor at the standard bench "
                   "shapes)")
    p.add_argument("--json", action="store_true",
                   help="emit verdicts as a JSON array instead of text")
    p.add_argument("--fail-on", choices=("error", "warning", "info",
                                         "never"),
                   default="error", dest="fail_on",
                   help="exit non-zero when any finding reaches this "
                   "severity (default error; 'never' always exits 0)")

    p = sub.add_parser("disasm", help="microcode disassembly of a program",
                       parents=[common])
    p.add_argument("program")

    p = sub.add_parser("render", help="render a pipeline diagram",
                       parents=[common])
    p.add_argument("program")
    p.add_argument("--pipeline", type=int, default=0)
    p.add_argument("--svg", action="store_true")

    p = sub.add_parser("jacobi", help="run the paper's Eq. 1 example",
                       parents=[common])
    p.add_argument("-n", type=int, default=9, help="grid points per axis")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--max-sweeps", type=int, default=10_000)
    _add_backend_option(p)

    p = sub.add_parser("solve", help="run an iterative Poisson solver",
                       parents=[common])
    p.add_argument("method", choices=["jacobi", "rb-gs", "rb-sor"])
    p.add_argument("-n", type=int, default=9)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--omega", type=float, default=1.5)
    p.add_argument("--max-sweeps", type=int, default=10_000)
    _add_backend_option(p)

    p = sub.add_parser(
        "batch",
        help="run a JSON jobs file through the simulation service",
        parents=[common],
    )
    p.add_argument("jobs", help="JSON file: a list of job specs (or "
                   '{"jobs": [...]})')
    _add_service_options(p)

    p = sub.add_parser(
        "sweep",
        help="expand a parameter sweep into jobs and run the batch",
        parents=[common],
    )
    p.add_argument("--grids", default="7,9",
                   help="comma-separated grid sizes (points per axis)")
    p.add_argument("--methods", default="jacobi,rb-gs",
                   help="comma-separated solvers (jacobi, rb-gs, rb-sor)")
    p.add_argument("--dims", default="0",
                   help="comma-separated hypercube dimensions (0 = one node)")
    p.add_argument("--include-subset", action="store_true",
                   help="sweep both the full and §6 subset machines")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--omega", type=float, default=1.5)
    p.add_argument("--max-sweeps", type=int, default=10_000)
    p.add_argument("--repeats", type=int, default=2,
                   help="run the whole grid this many times (repeats land "
                   "in the program cache)")
    p.add_argument("--seeds", default=None,
                   help="comma-separated u0 seeds: adds a seeded "
                   "initial-guess axis (same program, different "
                   "convergence trajectories — the slab shape "
                   "--batch-fusion auto groups)")
    _add_service_options(p)

    p = sub.add_parser(
        "bench",
        help="benchmark the execution backends against each other",
        parents=[common],
    )
    from repro.choices import SCENARIOS as _BENCH_SCENARIOS

    p.add_argument("--quick", action="store_true",
                   help="smaller problems / fewer sweeps (the CI smoke "
                   "configuration)")
    p.add_argument("--scenarios", default=None,
                   help="comma-separated scenario names (default: run all "
                   f"of: {', '.join(_BENCH_SCENARIOS)})")
    p.add_argument("--out", default="benchmarks/perf/out",
                   help="directory for BENCH_<scenario>.json artifacts")
    p.add_argument("--min-speedup", type=float, default=0.0,
                   help="fail unless every scenario reaches this speedup")
    p.add_argument("--compare", default=None, metavar="BASELINE",
                   help="diff speedups against a baseline JSON and fail on "
                   ">20%% regression (writes BENCH_compare.json)")
    p.add_argument("--save-baseline", default=None, metavar="PATH",
                   help="write this run's speedups as a new baseline JSON")
    p.add_argument("--history", default=None, metavar="PATH",
                   help="append this run's per-scenario metrics to a JSONL "
                   "history file, then run the rolling-window alert "
                   "detector over it (writes BENCH_alerts.json; fires "
                   "fail the command)")

    p = sub.add_parser(
        "stats",
        help="aggregate telemetry from a result store or bench history",
        parents=[common],
    )
    p.add_argument("--results", default=None, metavar="JSONL",
                   help="result store written by batch/sweep --results: "
                   "report per-stage timings, tier mix, cache hits, and "
                   "the reliability picture (retries by reason, "
                   "resumed-vs-fresh mix)")
    p.add_argument("--history", default=None, metavar="JSONL",
                   help="bench history written by bench --history: report "
                   "per-scenario run counts and metric trends")
    p.add_argument("--window", type=int, default=5,
                   help="rolling window for history medians (default 5)")
    p.add_argument("--json", action="store_true",
                   help="emit the aggregate as JSON instead of text")

    p = sub.add_parser(
        "serve",
        help="host the simulation service as a resident HTTP daemon",
        parents=[common],
    )
    from repro.service.jobs import CHECKER_MODES as _CHECKER_MODES

    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8787,
                   help="bind port; 0 picks an ephemeral port and prints "
                   "it in the startup banner")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes per batch (1 = in-process "
                   "serial, which shares the daemon's warm cache)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job timeout in seconds (forces the process "
                   "pool)")
    p.add_argument("--results", default=None, metavar="JSONL",
                   help="append every record to this store; enables "
                   "GET /runs and resume=true submissions")
    p.add_argument("--cache-dir", default=None,
                   help="disk layer under the daemon's warm program cache")
    p.add_argument("--run-checker", choices=_CHECKER_MODES, default=None,
                   dest="run_checker",
                   help="override every submitted job's checker mode "
                   "(default: honor each job's own setting; modes: "
                   "see SimJob)")
    p.add_argument("--batch-fusion", choices=("off", "auto"),
                   default="off", dest="batch_fusion",
                   help="slab-fuse fusable same-program jobs, on any "
                   "executor")
    p.add_argument("--max-attempts", type=int, default=1,
                   dest="max_attempts",
                   help="daemon-wide retry budget for transient job "
                   "failures (overrides per-job budgets when > 1)")
    p.add_argument("--backoff-base", type=float, default=0.0,
                   dest="backoff_base",
                   help="base delay for retry backoff (deterministic, "
                   "no jitter)")
    p.add_argument("--events-log", default=None, metavar="JSONL",
                   dest="events_log",
                   help="also append every event on the live stream to "
                   "this JSONL file (the durable telemetry artifact)")
    p.add_argument("--events-buffer", type=int, default=4096,
                   dest="events_buffer",
                   help="size of the in-memory event ring GET /events "
                   "serves; older events are dropped (and counted)")
    p.add_argument("--rate-capacity", type=float, default=60,
                   dest="rate_capacity",
                   help="token-bucket burst size per client")
    p.add_argument("--rate-refill", type=float, default=10.0,
                   dest="rate_refill",
                   help="token-bucket refill rate per client "
                   "(requests/second)")
    p.add_argument("--max-queued", type=int, default=256,
                   dest="max_queued",
                   help="refuse new submissions beyond this many "
                   "queued+running")
    return parser


def _add_backend_option(p: argparse.ArgumentParser) -> None:
    from repro.choices import BACKENDS

    p.add_argument("--backend", choices=BACKENDS, default="reference",
                   help="execution backend (results are bit-identical; "
                   "'fast' is the vectorized path)")


def _retry_policy(args: argparse.Namespace):
    """A RetryPolicy when the CLI asked for retries, else None.

    None keeps per-job ``max_attempts`` / ``backoff_base`` authoritative
    (a runner-level policy overrides them for every job in the batch).
    """
    if args.max_attempts > 1 or args.backoff_base > 0:
        from repro.service.retry import RetryPolicy

        return RetryPolicy(max_attempts=args.max_attempts,
                           backoff_base=args.backoff_base)
    return None


def _add_service_options(p: argparse.ArgumentParser) -> None:
    from repro.service.jobs import CHECKER_MODES

    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = in-process serial)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job timeout in seconds")
    p.add_argument("--results", default=None,
                   help="append JSONL records to this file")
    p.add_argument("--cache-dir", default=None,
                   help="on-disk program cache shared across workers/runs")
    p.add_argument("--run-checker", choices=CHECKER_MODES, default="auto",
                   dest="run_checker",
                   help="whether compiles run the design-rule checker "
                   "('never' skips it; modes: see SimJob)")
    p.add_argument("--batch-fusion", choices=("off", "auto"),
                   default="off", dest="batch_fusion",
                   help="'auto' stacks fusable same-program jobs into "
                   "one batch-fused slab per group, serial or pooled "
                   "(records gain tier=batch_fused and slab_size); "
                   "anything unfusable falls back per job")
    p.add_argument("--max-attempts", type=int, default=1,
                   dest="max_attempts",
                   help="run each job up to this many times before its "
                   "failure is final; only transient failures "
                   "(timeouts, dead workers) are retried — see "
                   "docs/RELIABILITY.md")
    p.add_argument("--backoff-base", type=float, default=0.0,
                   dest="backoff_base",
                   help="base delay in seconds before retry rounds; "
                   "attempt k waits base * 2^(k-1) (deterministic, "
                   "no jitter)")
    p.add_argument("--resume", action="store_true",
                   help="skip jobs the --results store already holds a "
                   "success record for and rerun the rest; the "
                   "completed store matches an uninterrupted run "
                   "(with --server, resumes from the daemon's store)")
    p.add_argument("--server", default=None, metavar="URL",
                   help="submit to a resident 'nsc-vpe serve' daemon at "
                   "URL instead of executing locally; local execution "
                   "flags (--workers, --cache-dir, ...) are ignored — "
                   "the daemon's configuration governs")
    p.add_argument("--tag", default="",
                   help="submission tag for --server mode: identical "
                   "payloads with the same tag coalesce onto one "
                   "execution; send a fresh tag to run the same jobs "
                   "again (warm caches make the rerun cheap)")
    _add_backend_option(p)


_COMMANDS = {
    "info": cmd_info,
    "icons": cmd_icons,
    "check": cmd_check,
    "analyze": cmd_analyze,
    "disasm": cmd_disasm,
    "render": cmd_render,
    "jacobi": cmd_jacobi,
    "solve": cmd_solve,
    "batch": cmd_batch,
    "sweep": cmd_sweep,
    "bench": cmd_bench,
    "stats": cmd_stats,
    "serve": cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
