"""Span recording around the public entry points of each layer.

The benchmark never edits the program to trace it.  :func:`install`
wraps public functions and methods of each layer from the outside, and
every wrapper records a span (name, layer, start, end, parent span, op
id) into an in-memory :class:`Recorder`.  A wrapper records only while
the current op id starts with :data:`TRACED`, so one process can
alternate traced and untraced ops and measure what tracing costs.

Clocks: spans use :func:`time.perf_counter`, which on Linux reads
``CLOCK_MONOTONIC``, one clock for every process on the host.  That is
what lets spans recorded inside the daemon nest under the client's
request span (:func:`layers.link_ops`).

Layers and the spans that stand for them:

==========  ==========================================================
``server``  ``server.request`` (one ``ServiceClient.run``; client side)
``service`` ``BatchRunner.run``, ``execute_job``,
            ``ProgramCache.get_or_compile``, ``ResultStore.append``
``compose`` ``SolverEntry.build_setup``, ``build_jacobi_program``
``checker`` ``Checker.check_program``
``codegen`` ``MicrocodeGenerator.generate``
``sim``     ``compiled_plan``, the runner's ``bind`` stage,
            ``NSCMachine.run``, ``BatchProgramRun.run``,
            ``MultiNodeStencil.__init__`` / ``.run``
``bench``   the benchmark's own loop (reported as ``unattributed``)
==========  ==========================================================

*Overlay* spans (the client's submit / wait / result calls and the
daemon's enqueue) overlap the tree above, so they feed only their own
latency metrics and never the self-time accounting.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Op ids starting with this prefix are traced; others run untraced.
TRACED = "trace-"

_OP: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "nscbench_op", default=None
)


@contextmanager
def bind_op(op_id: str) -> Iterator[None]:
    """Make *op_id* the current op for the extent of the ``with`` body."""
    token = _OP.set(op_id)
    try:
        yield
    finally:
        _OP.reset(token)


def current_op() -> Optional[str]:
    return _OP.get()


class Recorder:
    """Keeps spans in memory until :meth:`write` dumps them as JSONL."""

    def __init__(self, op_of: Callable[[], Optional[str]] = current_op) -> None:
        self.op_of = op_of
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[tuple] = []
        self._pid = os.getpid()

    def _traced_op(self) -> Optional[str]:
        op = self.op_of()
        return op if op is not None and op.startswith(TRACED) else None

    @contextmanager
    def span(self, name: str, layer: str, overlay: bool = False,
             **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Record one span; yields its dict so callers can add attributes."""
        op = self._traced_op()
        if op is None:
            yield {}
            return
        stack = self._local.__dict__.setdefault("stack", [])
        record: Dict[str, Any] = {
            "id": f"{self._pid}:{next(self._ids)}",
            "parent": None if overlay or not stack else stack[-1],
            "name": name,
            "layer": layer,
            "op": op,
            "pid": self._pid,
            "overlay": overlay,
            **attrs,
        }
        if not overlay:
            stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            if not overlay:
                stack.pop()
            self.spans.append(record)

    def wrap(self, owner: Any, attr: str, name: str, layer: str,
             overlay: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._traced_op() is None:
                return original(*args, **kwargs)
            with self.span(name, layer, overlay):
                return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def write_spans(spans: List[Dict[str, Any]], path: str) -> None:
    """Write *spans* to *path* as JSONL, in start order."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in sorted(spans, key=lambda s: s["start"]):
            fh.write(json.dumps(span, sort_keys=True) + "\n")


def install(rec: Recorder) -> None:
    """Wrap the public entry points of every layer the program runs."""
    from repro.checker.checker import Checker
    from repro.codegen.generator import MicrocodeGenerator
    from repro.compose import jacobi
    from repro.compose.registry import SolverEntry
    from repro.obs.tracer import Tracer
    from repro.service import runner
    from repro.service.cache import ProgramCache
    from repro.service.results import ResultStore
    from repro.sim import batchplan, progplan
    from repro.sim.fastpath import PLAN_CACHE
    from repro.sim.machine import NSCMachine
    from repro.sim.multinode import MultiNodeStencil

    rec.wrap(runner.BatchRunner, "run", "service.runner", "service")
    rec.wrap(runner, "execute_job", "service.job", "service")
    rec.wrap(ProgramCache, "get_or_compile", "service.cache_lookup", "service")
    rec.wrap(ResultStore, "append", "service.store_append", "service")
    rec.wrap(SolverEntry, "build_setup", "compose.build", "compose")
    # the multi-node compile calls the builder directly, not via SOLVERS
    rec.wrap(jacobi, "build_jacobi_program", "compose.build", "compose")
    rec.wrap(Checker, "check_program", "checker.check", "checker")
    rec.wrap(MicrocodeGenerator, "generate", "codegen.generate", "codegen")
    rec.wrap(NSCMachine, "run", "sim.execute", "sim")
    rec.wrap(batchplan.BatchProgramRun, "run", "sim.slab_execute", "sim")
    rec.wrap(MultiNodeStencil, "__init__", "sim.multinode_bind", "sim")
    rec.wrap(MultiNodeStencil, "run", "sim.multinode_execute", "sim")

    original_plan = progplan.compiled_plan

    @functools.wraps(original_plan)
    def compiled_plan(*args: Any, **kwargs: Any) -> Any:
        if rec._traced_op() is None:
            return original_plan(*args, **kwargs)
        misses = PLAN_CACHE.stats.misses
        with rec.span("sim.plan_compile", "sim") as span:
            try:
                return original_plan(*args, **kwargs)
            finally:
                span["miss"] = PLAN_CACHE.stats.misses > misses

    rec._patch(progplan, "compiled_plan", compiled_plan)
    rec._patch(batchplan, "compiled_plan", compiled_plan)

    # the runner's own "bind" stage (machine set-up, input load, plan
    # warm) is a span of the program's tracer: mirror it
    original_span = Tracer.span

    @contextmanager
    def stage_span(tracer: Any, name: str, **attrs: Any) -> Iterator[None]:
        with original_span(tracer, name, **attrs):
            if name != "bind":
                yield
                return
            with rec.span("sim.bind", "sim"):
                yield

    rec._patch(Tracer, "span", stage_span)


def install_client(rec: Recorder) -> None:
    """``ServiceClient.run`` as the request span, with overlay spans
    around its three HTTP calls."""
    from repro.server.client import ServiceClient

    rec.wrap(ServiceClient, "run", "server.request", "server")
    for attr in ("submit", "wait", "result"):
        rec.wrap(ServiceClient, attr, f"server.{attr}", "server", overlay=True)


def install_daemon(rec: Recorder) -> None:
    """Daemon-side spans: every layer, plus the submission enqueue."""
    from repro.server.service import SimService

    install(rec)
    rec.wrap(SimService, "submit", "server.enqueue", "server", overlay=True)


__all__ = [
    "Recorder",
    "TRACED",
    "bind_op",
    "current_op",
    "install",
    "install_client",
    "install_daemon",
    "write_spans",
]
