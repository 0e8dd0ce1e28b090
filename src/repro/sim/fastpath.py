"""Per-image plans for the ``backend="fast"`` engine.

The reference interpreter (:mod:`repro.sim.pipeline_exec`) re-resolves every
operand, recomputes every shift/delay tap, and walks one machine at a time —
faithful, but dominated by Python dispatch for the small vectors a single
node streams.  This module holds the per-image layer of the fast backend:

- a :class:`_FastPlan` per :class:`PipelineImage` — operand sources,
  shift/delay taps, write-backs, and the DMA cycle charges are all
  resolved up front.  A program plan compiles it into each image's kernel
  and keeps none of it but the reads; the exact path rebuilds it when it
  runs;
- the exact evaluators (:func:`_eval_steps`) the fused engine re-runs
  when its finiteness screen sees an inf/nan, so exception flags match
  the reference bit for bit;
- the process-wide :data:`PLAN_CACHE`, which holds the whole-program
  plans of :mod:`repro.sim.progplan` keyed by program object, so plans
  survive across machines, params sets, and the batch-service jobs of
  one compiled program within one process (an :class:`LRU` of
  :data:`PROGRAM_CACHE_SIZE` entries, the bound every in-process
  program cache shares).  Per-image plans have
  no cache of their own: a program plan compiles each of its images
  once.

The whole-program layer — fusing the sequencer's control script into
the schedule that :mod:`repro.sim.batchplan` runs over one machine, a
slab of jobs, or a hypercube's nodes — lives in :mod:`repro.sim.progplan`
and builds on the per-image plans compiled here.

Parity is a hard contract, not an aspiration: the fast backend uses the
same opcode kernels, the same operation order, and the same cycle formula
as the reference, so results agree bit-for-bit (``nsc-vpe bench`` asserts
this on every run, and CI runs it on every PR).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.arch.funcunit import OPCODES, Opcode
from repro.arch.switch import DeviceKind, Endpoint
from repro.choices import BACKENDS
from repro.codegen.generator import PipelineImage
from repro.sim.pipeline_exec import ExecutionError
from repro.sim.streams import _ACCUMULATING, StreamError


def validate_backend(backend: str) -> str:
    """Return *backend* if it names a known execution backend."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown execution backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def shift_last(stream: np.ndarray, shift: int) -> np.ndarray:
    """:func:`repro.arch.shift_delay.shift_stream` along the last axis.

    Identical semantics (``out[..., i] = in[..., i + shift]``, zero fill) but
    batchable: a ``(nodes, words)`` array shifts every node's stream in one
    call.
    """
    if shift == 0:
        return stream
    out = np.empty_like(stream)
    n = stream.shape[-1]
    if shift >= 0:
        m = max(n - shift, 0)
        if m > 0:
            out[..., :m] = stream[..., shift:]
        out[..., m:] = 0.0
    else:
        m = max(n + shift, 0)
        if m > 0:
            out[..., -m:] = stream[..., :m]
        out[..., : n - m] = 0.0
    return out


# ----------------------------------------------------------------------
# operand descriptors (interpreted by _fetch)
# ----------------------------------------------------------------------
_OP_CONST = 0  # key = the constant value
_OP_OUTPUT = 1  # key = source FU number
_OP_STREAM = 2  # key = source Endpoint
_OP_TAP = 3  # key = (shift/delay unit, tap)

Operand = Tuple[int, Any, int]  # (code, key, residual skew)


@dataclass(frozen=True, slots=True)
class _Step:
    """One functional unit's evaluation, fully resolved."""

    fu: int
    opcode: Opcode
    kernel: Any
    arity: int
    uses_constant: bool
    constant: float
    a: Optional[Operand]
    b: Optional[Operand]
    fb_port: Optional[str] = None  # feedback loop port, if any
    fb_init: float = 0.0
    other: Optional[Operand] = None  # the data operand of a feedback unit


@dataclass(frozen=True, slots=True)
class _Write:
    """One write-back: where the values come from and the DMA program."""

    code: int  # _OP_OUTPUT | _OP_STREAM | _OP_TAP
    key: Any
    prog: Any  # DMAProgram


@dataclass
class _FastPlan:
    """Everything about one image that does not change between issues."""

    params: Any
    n: int
    reads: List[Tuple[Endpoint, Any]] = field(default_factory=list)
    taps: Dict[Tuple[int, int], Tuple[Endpoint, int]] = field(default_factory=dict)
    steps: List[_Step] = field(default_factory=list)
    writes: List[_Write] = field(default_factory=list)
    dma_cycles: int = 0  # analytic makespan of the image's DMA work


def _need_tap(
    plan: _FastPlan, image: PipelineImage, unit: int, tap: int
) -> Tuple[int, int]:
    """Register a shift/delay tap the plan must materialize; returns its key."""
    key = (unit, tap)
    if key in plan.taps:
        return key
    feeder = image.sd_feeders.get(unit)
    if feeder is None:
        raise ExecutionError(f"shift/delay unit {unit} has no input stream")
    if feeder not in image.read_programs:
        raise ExecutionError(
            f"shift/delay unit {unit} fed by {feeder}, which was not read"
        )
    shift = image.sd_shifts.get(key)
    if shift is None:
        raise ExecutionError(f"sd[{unit}].tap{tap} used but not configured")
    plan.taps[key] = (feeder, shift)
    return key


def _operand_descriptor(
    plan: _FastPlan, image: PipelineImage, resolved: Any
) -> Operand:
    if resolved.kind == "const":
        return (_OP_CONST, resolved.value, 0)
    if resolved.kind in ("fu", "internal"):
        return (_OP_OUTPUT, resolved.src_fu, resolved.skew)
    if resolved.kind in ("mem", "cache"):
        ep = resolved.endpoint
        if ep is None or ep not in image.read_programs:
            raise ExecutionError(f"stream for {ep} was not read")
        return (_OP_STREAM, ep, resolved.skew)
    if resolved.kind == "sd":
        ep = resolved.endpoint
        assert ep is not None
        key = _need_tap(plan, image, ep.device, int(ep.port[3:]))
        return (_OP_TAP, key, resolved.skew)
    raise ExecutionError(f"unresolvable input kind {resolved.kind!r}")


def _build_plan(image: PipelineImage, params: Any) -> _FastPlan:
    plan = _FastPlan(params=params, n=image.vector_length)
    plan.reads = list(image.read_programs.items())

    for fu in image.fu_order:
        opcode, constant = image.fu_ops[fu]
        info = OPCODES[opcode]
        in_a = image.inputs.get((fu, "a"))
        in_b = image.inputs.get((fu, "b"))

        fb_port: Optional[str] = None
        if in_a is not None and in_a.kind == "feedback":
            fb_port = "a"
        if in_b is not None and in_b.kind == "feedback":
            if fb_port is not None:
                raise ExecutionError(f"fu{fu}: both inputs are feedback loops")
            fb_port = "b"

        if fb_port is not None:
            fb = in_a if fb_port == "a" else in_b
            other = in_b if fb_port == "a" else in_a
            if other is None:
                raise ExecutionError(f"fu{fu}: feedback loop with no data input")
            plan.steps.append(
                _Step(
                    fu=fu,
                    opcode=opcode,
                    kernel=info.kernel,
                    arity=info.arity,
                    uses_constant=info.uses_constant,
                    constant=constant,
                    a=None,
                    b=None,
                    fb_port=fb_port,
                    fb_init=fb.value,
                    other=_operand_descriptor(plan, image, other),
                )
            )
            continue

        if in_a is None:
            raise ExecutionError(f"fu{fu}: input a unconnected")
        a = _operand_descriptor(plan, image, in_a)
        b: Optional[Operand] = None
        if info.arity == 2 and not info.uses_constant:
            if in_b is None:
                raise ExecutionError(f"fu{fu}: input b unconnected")
            b = _operand_descriptor(plan, image, in_b)
        plan.steps.append(
            _Step(
                fu=fu,
                opcode=opcode,
                kernel=info.kernel,
                arity=info.arity,
                uses_constant=info.uses_constant,
                constant=constant,
                a=a,
                b=b,
            )
        )

    for driver, _sink, prog in image.write_programs:
        if driver.kind is DeviceKind.FU:
            if driver.device not in image.fu_ops:
                raise ExecutionError(
                    f"write-back from fu{driver.device}, which produced nothing"
                )
            plan.writes.append(_Write(_OP_OUTPUT, driver.device, prog))
        elif driver.kind is DeviceKind.SHIFT_DELAY:
            key = _need_tap(plan, image, driver.device, int(driver.port[3:]))
            plan.writes.append(_Write(_OP_TAP, key, prog))
        else:
            if driver not in image.read_programs:
                raise ExecutionError(f"write-back from unread stream {driver}")
            plan.writes.append(_Write(_OP_STREAM, driver, prog))

    # analytic DMA accounting: controllers run in parallel, transfers on the
    # same device serialize — exactly DMAEngine.instruction_dma_cycles()
    charges: Dict[Tuple[Any, int], int] = {}
    for prog in [p for _, p in plan.reads] + [w.prog for w in plan.writes]:
        key = (prog.spec.device_kind, prog.spec.device)
        charges[key] = charges.get(key, 0) + prog.cycles(params)
    plan.dma_cycles = max(charges.values(), default=0)
    return plan


# ----------------------------------------------------------------------
# the bounded in-process caches (plans here, compiled programs and their
# registries in repro.service.cache)
# ----------------------------------------------------------------------
#: Entries each in-process program-cache layer keeps: :data:`PLAN_CACHE`
#: and the memory layers of :class:`repro.service.cache.ProgramCache`.
#: One bound for all of them, so a program that has fallen out of one
#: layer has, under the same access order, fallen out of the others.
#: Caches built with ``maxsize=None`` read it on every insert.
PROGRAM_CACHE_SIZE = 256


class LRU:
    """A bounded mapping that evicts its least recently used key.

    :meth:`get` refreshes a key's recency; :meth:`put` stores a key as
    the most recent and returns how many keys it pushed out.  ``in`` and
    ``len`` leave the order alone.  ``maxsize=None`` follows
    :data:`PROGRAM_CACHE_SIZE`.  Values are never None: :meth:`get`
    answers None for a missing key.
    """

    def __init__(self, maxsize: Optional[int] = None) -> None:
        self.maxsize = maxsize
        self._data: "OrderedDict[Any, Any]" = OrderedDict()

    @property
    def bound(self) -> int:
        return PROGRAM_CACHE_SIZE if self.maxsize is None else self.maxsize

    def get(self, key: Any) -> Any:
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: Any, value: Any) -> int:
        data = self._data
        data[key] = value
        data.move_to_end(key)
        bound = self.bound
        evicted = 0
        while len(data) > bound:
            data.popitem(last=False)
            evicted += 1
        return evicted

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()


@dataclass
class PlanCacheStats:
    """Hit/miss/eviction accounting for compiled-plan lookups."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}


class PlanCache(LRU):
    """LRU cache for compiled execution plans, keyed by program identity.

    Keys are ``(id(program), params, keep_outputs)`` tuples (see
    :func:`repro.sim.progplan.compiled_plan`); every value holds its
    program, so an id in a live key is never reused.  The same params on
    the same program always replays the same plan, so two
    parameterizations of one program coexist instead of thrashing a
    single stashed slot.
    """

    def __init__(self, maxsize: Optional[int] = None) -> None:
        super().__init__(maxsize)
        self.stats = PlanCacheStats()

    def get_or_build(self, key: Any, build: Callable[[], Any]) -> Any:
        entry = self.get(key)
        if entry is not None:
            self.stats.hits += 1
            return entry
        value = build()
        self.stats.misses += 1
        self.stats.evictions += self.put(key, value)
        return value

    def clear(self) -> None:
        super().clear()
        self.stats = PlanCacheStats()


#: Process-wide plan cache.  The batch service's
#: :class:`repro.service.cache.ProgramCache` exposes this same object as its
#: plan layer, so jobs sharing a process reuse compiled plans across runs.
PLAN_CACHE = PlanCache()


# ----------------------------------------------------------------------
# evaluation (shared by the single-node and batched executors)
# ----------------------------------------------------------------------
def _fetch(
    descr: Operand,
    streams: Dict[Endpoint, np.ndarray],
    taps: Dict[Tuple[int, int], np.ndarray],
    outputs: Dict[int, np.ndarray],
    shape: Tuple[int, ...],
) -> np.ndarray:
    code, key, skew = descr
    if code == _OP_CONST:
        return np.full(shape, key, dtype=np.float64)
    if code == _OP_OUTPUT:
        base = outputs.get(key)
        if base is None:
            raise ExecutionError(f"fu{key} output needed before it was produced")
    elif code == _OP_STREAM:
        base = streams[key]
    else:
        base = taps[key]
    return shift_last(base, skew)


def _eval_feedback_batched(
    opcode: Opcode, x: np.ndarray, feedback_port: str, init: float
) -> np.ndarray:
    """:func:`repro.sim.streams.eval_feedback` over a ``(nodes, n)`` batch.

    Row *i* of the result is bit-identical to the 1-D evaluation of row *i*:
    the accumulating ufuncs apply the same pairwise operations in the same
    order along the last axis.
    """
    rows, n = x.shape
    if n == 0:
        return x.copy()
    info = OPCODES[opcode]
    ufunc = _ACCUMULATING.get(opcode)
    if ufunc is not None:
        seeded = np.empty((rows, n + 1), dtype=np.float64)
        seeded[:, 0] = init
        seeded[:, 1:] = x
        return ufunc.accumulate(seeded, axis=1)[:, 1:]
    if opcode in (Opcode.MAXABS, Opcode.MINABS):
        base = np.maximum if opcode is Opcode.MAXABS else np.minimum
        seeded = np.empty((rows, n + 1), dtype=np.float64)
        seeded[:, 0] = abs(init)
        seeded[:, 1:] = np.abs(x)
        return base.accumulate(seeded, axis=1)[:, 1:]

    kernel = info.kernel
    out = np.empty((rows, n), dtype=np.float64)
    prev = np.full(rows, init, dtype=np.float64)
    if feedback_port == "b":
        for i in range(n):
            prev = np.asarray(kernel(x[:, i], prev), dtype=np.float64)
            out[:, i] = prev
    else:
        for i in range(n):
            prev = np.asarray(kernel(prev, x[:, i]), dtype=np.float64)
            out[:, i] = prev
    return out


def _eval_steps(
    plan: _FastPlan,
    streams: Dict[Endpoint, np.ndarray],
    taps: Dict[Tuple[int, int], np.ndarray],
    shape: Tuple[int, ...],
) -> Dict[int, np.ndarray]:
    """Run the precompiled FU DAG; *shape* is the ``(rows, n)`` stream shape."""
    outputs: Dict[int, np.ndarray] = {}
    for step in plan.steps:
        if step.fb_port is not None:
            if step.arity != 2:
                raise StreamError(
                    f"feedback requires a binary operation, "
                    f"not {step.opcode.value}"
                )
            x = _fetch(step.other, streams, taps, outputs, shape)
            result = _eval_feedback_batched(
                step.opcode, x, step.fb_port, step.fb_init
            )
        else:
            a = _fetch(step.a, streams, taps, outputs, shape)
            if step.uses_constant:
                result = np.asarray(step.kernel(a, step.constant), dtype=np.float64)
            elif step.arity == 1:
                result = np.asarray(step.kernel(a), dtype=np.float64)
            else:
                b = _fetch(step.b, streams, taps, outputs, shape)
                if a.shape != b.shape:
                    raise StreamError(
                        f"operand length mismatch for {step.opcode.value}: "
                        f"{a.size} vs {b.size}"
                    )
                result = np.asarray(step.kernel(a, b), dtype=np.float64)
        outputs[step.fu] = result
    return outputs


__all__ = [
    "BACKENDS",
    "validate_backend",
    "shift_last",
    "LRU",
    "PROGRAM_CACHE_SIZE",
    "PlanCache",
    "PlanCacheStats",
    "PLAN_CACHE",
]
