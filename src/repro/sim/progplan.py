"""Whole-program compiled execution: the control script as one fused plan.

The reference sequencer walks its ``Repeat``/``LoopUntil`` script in
Python — re-pulling machine state, re-charging DMA controllers, and
re-posting interrupts on every issue, so thousands of Jacobi sweeps are
dominated by dispatch rather than arithmetic.  This module is the
trace-compilation step: it compiles an entire :class:`~repro.codegen.generator.MachineProgram`
— control script included — into a flat execution schedule where

- machine state (plane memory, cache buffers) is pulled **once** into
  local arrays, streamed through as NumPy *views*, and written back once
  at the end;
- every pipeline image becomes a :class:`BoundImage`: a few preallocated
  row *slots*, preloaded shift/delay tap buffers, and ufunc ``out=``
  kernels, so an issue is a straight run down precompiled operations with
  no per-issue allocation.  As on the machine, where units hand results
  through the switch without storing them, a unit's output row lives
  only until its last reader has run and its slot is then recycled
  (in place, by the reader itself); rows read after the issue —
  screened, condition, write-back, and every row under ``keep_outputs``
  — keep a slot of their own;
- exception detection is a single fused finiteness test over the
  screened output rows, with an exact per-stream fallback when anything
  non-finite appears (flags and FP interrupts then match the reference
  bit for bit);
- ``LoopUntil`` convergence feedback is evaluated in-band every iteration
  — same exit, same iteration counts — and ``SwapVars`` relocations are
  array exchanges on the local state;
- cycle counts, DMA statistics, and the interrupt stream are derived
  analytically from the per-image plans (one
  :func:`~repro.codegen.timing.instruction_cycles` formula, one DMA
  charge table per image) and materialized at the end, byte-identical to
  what the reference sequencer accumulates step by step.

Coverage extends beyond the happy path: residual-skew (ablation)
programs compile their skewed operands as offset windows into zero-padded
copies — the same trick shifted taps use — ``keep_outputs`` runs
materialize per-FU output streams from the already-bound buffers, and
non-default interrupt *armed sets* (arm/disarm of any kind) fold into the
exact heap replay.  Controllers with registered handlers stay on the
fallback: handlers observe delivery order mid-run, which only the stepped
reference models.

Compiled plans are cached in :data:`repro.sim.fastpath.PLAN_CACHE` keyed
by the program object's identity + params (+ the ``keep_outputs`` mode),
so the batch service and sweeps reuse schedules across the jobs of one
compiled program; a recompile, a copy or an unpickled program builds
its own.  That key is the only one: the per-image plans a program plan
compiles are not cached on their own (hashing an image cost more than
compiling its plan).
Anything the compiler cannot prove it can fuse raises
:class:`FusionUnsupported` and the sequencer falls back to the reference
interpreter — fusion is an optimisation, never a semantics change.  That
holds mid-run too: until the commit point at the end of a fused run, no
machine state is mutated, so a late rejection falls back against
pristine state.  One engine walks every compiled schedule over stacked
rows — :class:`~repro.sim.batchplan.BatchProgramRun`, with a single
machine as an exact one-row slab (:func:`try_run_fused`).

A hypercube runs on the same engine: its nodes are a slab with one row
per node, and :func:`fused_stepper` steps it from the multi-node
stencil's sweep loop, which adds the halo exchange and the global
convergence check.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
import sys
from dataclasses import dataclass, field
from math import isfinite as _isfinite
from types import CodeType, FunctionType
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING,
)

import numpy as np

from repro.analysis.plansafety import (
    PROP_A,
    PROP_BOTH,
    PROP_FEEDBACK,
    REDUCIBLE_OPS,
)
from repro.arch.funcunit import Opcode
from repro.arch.memsys import AllocationError, stream_slice
from repro.arch.switch import DeviceKind
from repro.codegen.generator import MachineProgram, PipelineImage
from repro.codegen.timing import instruction_cycles
from repro.diagram.program import (
    CacheSwap,
    ExecPipeline,
    Halt,
    LoopUntil,
    Repeat,
    SwapVars,
)
from repro.obs import tracer as obs
from repro.sim.fastpath import (
    PLAN_CACHE,
    _FastPlan,
    _OP_CONST,
    _OP_OUTPUT,
    _OP_STREAM,
    _OP_TAP,
    _build_plan,
    _eval_feedback_batched,
    _eval_steps,
)
from repro.sim.sequencer import SequencerResult
from repro.sim.streams import _ACCUMULATING, detect_exceptions

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import NSCMachine
    from repro.sim.multinode import MultiNodeStencil


class FusionUnsupported(Exception):
    """The program (or machine state) cannot be proven fusable.

    Raising this is always safe: the caller falls back to the reference
    interpreter, which handles every construct.
    """


# step-op modes interpreted by BoundImage.compute()
_M_BINARY = 0      # ufunc(a, b, out=row)
_M_CONST = 1       # ufunc(a, scalar, out=row)
_M_UNARY = 2       # ufunc(a, out=row)
_M_FALLBACK = 3    # row[...] = kernel(...)   (exact, allocating)
_M_ACCUM = 4       # feedback via ufunc.accumulate into a seeded buffer
_M_REDUCE = 5      # feedback consumed only by the condition: pure reduction
_M_FEEDBACK = 6    # general feedback fallback (_eval_feedback_batched)
_M_SKEWCOPY = 7    # copy a freshly-computed FU row into its skew pad
_M_COPY = 8        # PASS: copy the operand into the row

#: positions of the operand refs in each mode's step tuple (symbolic and
#: bound alike): the slot scan reads rows there, ``_refresh`` resolves
#: live stream views there
_OPERANDS = {
    _M_BINARY: (2, 3),
    _M_CONST: (2,),
    _M_UNARY: (2,),
    _M_FALLBACK: (2, 3),
    _M_ACCUM: (3,),
    _M_REDUCE: (3,),
    _M_FEEDBACK: (2,),
    _M_SKEWCOPY: (),
    _M_COPY: (1,),
}

_BINARY_UFUNCS = {
    Opcode.FADD: np.add,
    Opcode.FSUB: np.subtract,
    Opcode.FMUL: np.multiply,
    Opcode.MAX: np.maximum,
    Opcode.MIN: np.minimum,
}
_UNARY_UFUNCS = {Opcode.FNEG: np.negative, Opcode.FABS: np.abs}
_OUT_KWARG = (np.maximum, np.minimum)
_CONST_UFUNCS = {Opcode.FSCALE: np.multiply, Opcode.FADDC: np.add}

_COMPARATORS = {
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}

#: Feedback opcodes whose running value can be folded with one reduction
#: (min/max are exactly associative, so the stream's final element equals
#: the whole-stream reduce — float addition is not, and stays sequential).
#: The eligible opcode set is owned by the static analyzer
#: (:data:`repro.analysis.plansafety.REDUCIBLE_OPS`); this maps each
#: member to its fold kernel.
_REDUCIBLE = {
    Opcode.MAX: (np.maximum, False),
    Opcode.MIN: (np.minimum, False),
    Opcode.MAXABS: (np.maximum, True),
    Opcode.MINABS: (np.minimum, True),
}
assert frozenset(_REDUCIBLE) == REDUCIBLE_OPS


# ----------------------------------------------------------------------
# local machine state
# ----------------------------------------------------------------------
class _Storage:
    """The run's working copy of plane memory and cache buffers.

    Arrays may carry a leading batch axis (one row per slab job or
    hypercube node); all addressing happens on the last axis.  Stream
    views resolved against these arrays stay valid until a swap
    exchanges two arrays; bound images key their resolved views by the
    identities of the arrays they touch, so they re-resolve then.
    """

    def __init__(self) -> None:
        self.planes: Dict[int, np.ndarray] = {}
        self.cache_front: Dict[int, np.ndarray] = {}
        self.cache_back: Dict[int, np.ndarray] = {}
        self.variables: Dict[str, Any] = {}
        self._scratch: Dict[Tuple[int, ...], np.ndarray] = {}

    def array_for(self, device_kind: DeviceKind, device: int,
                  write: bool = False) -> np.ndarray:
        if device_kind is DeviceKind.MEMORY:
            return self.planes[device]
        return (self.cache_back if write else self.cache_front)[device]

    def set_variable(self, name: str, values: np.ndarray) -> None:
        """Write *values* into *name* on every row — the duck type the
        solver loaders call on a machine, with
        :meth:`PlaneMemory.write_var`'s errors.  Words past the stored
        extent of the variable's plane (or on a plane the storage does
        not hold) are never read by the run, so they are not kept."""
        var = self.variables.get(name)
        if var is None:
            raise AllocationError(f"undeclared variable {name!r}")
        flat = np.asarray(values, dtype=np.float64).reshape(-1)
        if flat.size != var.length:
            raise AllocationError(
                f"variable {name!r} holds {var.length} words, got {flat.size}"
            )
        plane = self.planes.get(var.plane)
        if plane is not None and plane.shape[-1] > var.offset:
            stop = min(var.end, plane.shape[-1])
            plane[..., var.offset : stop] = flat[: stop - var.offset]

    def swap_caches(self, cache_ids: Sequence[int]) -> None:
        for cache_id in cache_ids:
            front = self.cache_front.get(cache_id)
            if front is not None:
                self.cache_front[cache_id] = self.cache_back[cache_id]
                self.cache_back[cache_id] = front

    def var_swapper(self, va: Any, vb: Any) -> Callable[[], None]:
        """``SwapVars`` of *va* and *vb* on the local state, as a
        callable decided once: a whole-plane reference swap when each
        variable owns its stored plane outright (bound images re-resolve
        through their per-state view caches, a dictionary hit), else
        three copies through a cached scratch row (reference semantics:
        relocation moves data, bindings never change)."""
        plane_a = self.planes[va.plane]
        plane_b = self.planes[vb.plane]
        planes = self.planes
        if (
            va.plane != vb.plane
            and va.offset == 0 and vb.offset == 0
            and plane_a.shape[-1] == va.length
            and plane_b.shape[-1] == vb.length
        ):
            a, b = va.plane, vb.plane

            def swap_planes() -> None:
                planes[a], planes[b] = planes[b], planes[a]
            return swap_planes
        shape = plane_a.shape[:-1] + (va.length,)
        scratch = self._scratch.get(shape)
        if scratch is None:
            scratch = self._scratch[shape] = aligned_empty(shape)

        def swap_contents() -> None:
            slab_a = planes[va.plane][..., va.offset : va.end]
            slab_b = planes[vb.plane][..., vb.offset : vb.end]
            np.copyto(scratch, slab_a)
            np.copyto(slab_a, slab_b)
            np.copyto(slab_b, scratch)
        return swap_contents


def stacked_storage(variables: Dict[str, Any], n_rows: int,
                    plane_extent: Dict[int, int],
                    cache_extent: Dict[int, int]) -> _Storage:
    """Zeroed ``(n_rows, extent)`` storage for a compiled layout.

    *variables* (name -> ``_HomeVar``, a plan's :attr:`ProgramPlan.variables`)
    binds the names; planes and cache buffers start as zeros, as an
    untouched machine's read, and the solver loaders fill them through
    :meth:`_Storage.set_variable`.  Every fused run binds storage built
    here: a service slab, a machine run (its rows pulled from the
    machines), and a hypercube's node stack.
    """
    storage = _Storage()
    storage.variables = variables
    arrays = [
        (store, key, extent)
        for store, extents in ((storage.planes, plane_extent),
                               (storage.cache_front, cache_extent),
                               (storage.cache_back, cache_extent))
        for key, extent in extents.items()
    ]
    # one zeroed block carved into the arrays, each starting on a cache
    # line: a lone job's storage is a handful of small arrays, and one
    # aligned allocation each cost more than the zeros
    line = _ALIGN // 8
    spans = [-(-n_rows * extent // line) * line for _s, _k, extent in arrays]
    block = aligned_zeros((sum(spans),))
    start = 0
    for (store, key, extent), span in zip(arrays, spans):
        store[key] = block[start : start + n_rows * extent].reshape(
            n_rows, extent)
        start += span
    return storage


#: Byte alignment of the engine's buffers.  Measured on a 16^3 four-job
#: slab, the ufunc kernels ran ~1.5x slower when a buffer did not start
#: on a cache line; malloc guarantees only 16 bytes, and where it lands
#: a buffer varies with the process's allocation history.
_ALIGN = 64


def aligned_empty(shape: Tuple[int, ...]) -> np.ndarray:
    """An uninitialized float64 array starting on a cache line."""
    count = math.prod(shape)
    raw = np.empty(count + _ALIGN // 8)
    start = (-raw.ctypes.data % _ALIGN) // 8
    return raw[start : start + count].reshape(shape)


def aligned_zeros(shape: Tuple[int, ...]) -> np.ndarray:
    arr = aligned_empty(shape)
    arr.fill(0.0)
    return arr


def _prog_span(base: int, count: int, stride: int) -> Tuple[int, int]:
    """(lowest, highest+1) words touched by an address walk."""
    if count == 0:
        return base, base
    last = base + (count - 1) * stride
    return min(base, last), max(base, last) + 1


# ----------------------------------------------------------------------
# per-image compilation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _IssueConsts:
    """Everything about one issue that never varies between iterations."""

    index: int                # position in program.images (issue trace)
    number: int               # PipelineResult.number / interrupt source
    source: str
    cycles: int
    compute_cycles: int
    dma_cycles: int
    flops: int
    vector_length: int
    active_fus: int
    transfers: int
    words_read: int
    words_written: int
    busy_cycles: int
    device_busy: Tuple[Tuple[Any, int], ...]


# operand references produced at compile time, resolved at bind time:
# ("stream", read_index) | ("tap", key) | ("row", fu) | ("const", value)
_Ref = Tuple[str, Any]


class ImageKernel:
    """Compile-time form of one image's fused executor.

    Holds everything derivable from ``(image, plan, params)``; per-run
    buffers live in the :class:`BoundImage` this produces.  The per-image
    plan is compile input only: the kernel keeps its ``reads`` (bind
    resolves them) and the exact path rebuilds the rest when it runs.
    Residual stream skew (the ablation configuration) compiles to offset
    windows into zero-padded copies of the skewed source — streams share
    their feeder's pad, FU rows and taps get pads of their own — so a
    skewed operand costs one copy, exactly like a shifted tap.  Raises
    :class:`FusionUnsupported` for constructs the fused executor does not
    model (mismatched stream lengths, zero-length vectors).

    With ``keep_outputs`` the residual-reduction folding is disabled so
    every functional unit materializes its full output stream — the
    :class:`BoundImage` can then snapshot per-FU outputs per issue at
    reference fidelity.
    """

    def __init__(self, index: int, image: PipelineImage, plan: _FastPlan,
                 params: Any, keep_outputs: bool = False) -> None:
        self.index = index
        self.image = image
        self.params = params
        self.keep_outputs = keep_outputs
        self.n = plan.n
        if self.n <= 0:
            raise FusionUnsupported("zero-length vector")
        self.reads = plan.reads
        self._read_index = {ep: i for i, (ep, _p) in enumerate(plan.reads)}
        for _ep, prog in plan.reads:
            if prog.count != self.n:
                raise FusionUnsupported("stream length differs from vector")

        consumed = self._consumed_fus(plan)
        self.reduce_fus: Set[int] = set()
        if not keep_outputs:
            for step in plan.steps:
                if (
                    step.fb_port is not None
                    and step.opcode in _REDUCIBLE
                    and step.fu not in consumed
                    and _isfinite(float(step.fb_init))
                ):
                    self.reduce_fus.add(step.fu)

        # skewed operands (ablation builds): windows into padded copies.
        # streams share their feeder's pad; FU rows and taps pad their own
        # buffer, filled by an in-line copy (_M_SKEWCOPY for rows, an
        # extra tap-load pair for taps).
        self._stream_skews: Dict[Tuple[int, int], Tuple] = {}
        self._row_skews: Dict[Tuple[int, int], Tuple] = {}
        self._tap_skews: Dict[Tuple[Any, int], Tuple] = {}
        produced: Set[int] = set()
        pending: List[int] = []  # row pads the current step registered
        copied: Set[int] = set()  # rows whose pad copy is emitted

        self.steps: List[Tuple] = []       # symbolic step descriptors
        for step in plan.steps:
            if step.fb_port is not None:
                descr = self._ref(step.other, produced, pending, copied)
                self._flush_row_copies(pending)
                init = float(step.fb_init)
                if step.fu in self.reduce_fus:
                    ufunc, use_abs = _REDUCIBLE[step.opcode]
                    # eval_feedback seeds |init| for the ABS variants
                    seed = abs(init) if use_abs else init
                    self.steps.append(
                        (_M_REDUCE, ufunc, use_abs, descr, seed, step.fu)
                    )
                    produced.add(step.fu)
                    continue
                accum = _ACCUMULATING.get(step.opcode)
                if accum is not None:
                    self.steps.append(
                        (_M_ACCUM, accum, False, descr, init, step.fu)
                    )
                elif step.opcode in (Opcode.MAXABS, Opcode.MINABS):
                    base = (
                        np.maximum if step.opcode is Opcode.MAXABS
                        else np.minimum
                    )
                    self.steps.append(
                        (_M_ACCUM, base, True, descr, abs(init), step.fu)
                    )
                else:
                    self.steps.append(
                        (_M_FEEDBACK, step.opcode, descr, step.fb_port, init,
                         step.fu)
                    )
                produced.add(step.fu)
                continue

            a = self._ref(step.a, produced, pending, copied)
            b = (self._ref(step.b, produced, pending, copied)
                 if step.b is not None else None)
            self._flush_row_copies(pending)
            fu = step.fu
            if step.uses_constant and step.opcode in _CONST_UFUNCS:
                self.steps.append(
                    (_M_CONST, _CONST_UFUNCS[step.opcode], a,
                     float(step.constant), fu)
                )
            elif (not step.uses_constant and step.arity == 2
                  and step.opcode in _BINARY_UFUNCS):
                self.steps.append(
                    (_M_BINARY, _BINARY_UFUNCS[step.opcode], a, b, fu)
                )
            elif (not step.uses_constant and step.arity == 1
                  and step.opcode in _UNARY_UFUNCS):
                self.steps.append(
                    (_M_UNARY, _UNARY_UFUNCS[step.opcode], a, fu)
                )
            elif step.opcode is Opcode.PASS:
                self.steps.append((_M_COPY, a, fu))
            else:
                self.steps.append((_M_FALLBACK, step, a, b, fu))
            produced.add(fu)

        # taps: every shifted stream is a window into one zero-padded copy
        # of its feeder, so a 7-tap stencil costs one copy, not seven —
        # the pad supplies shift_stream's zero fill on both ends.  Skewed
        # stream operands ride the same pads as extra windows.
        by_feeder: Dict[int, List[Tuple[Any, int]]] = {}
        for key, (feeder, shift) in plan.taps.items():
            by_feeder.setdefault(self._read_index[feeder], []).append(
                (key, shift)
            )
        for (read_index, skew), view_key in self._stream_skews.items():
            by_feeder.setdefault(read_index, []).append((view_key, skew))
        # (read_index, left pad, total padded words, [(tap key, shift)...])
        self.feeder_pads: List[Tuple[int, int, int, List[Tuple[Any, int]]]] = []
        for read_index, tap_list in sorted(by_feeder.items()):
            shifts = [s for _k, s in tap_list]
            left = max(0, -min(shifts))
            total = left + self.n + max(0, max(shifts))
            self.feeder_pads.append((read_index, left, total, tap_list))
        # second-level pads: skewed views of FU rows and of taps
        self.row_pads = self._second_level_pads(self._row_skews)
        self.tap_pads = self._second_level_pads(self._tap_skews)

        cond = image.condition
        if cond is not None and cond.fu not in produced:
            raise FusionUnsupported("condition watches a silent unit")
        self.condition = cond
        if cond is not None:
            # ConditionSpec.evaluate builds a dict per call; hoist the
            # comparison once (identical float semantics)
            self.cond_fn = _COMPARATORS[cond.comparison]
            self.cond_threshold = cond.threshold

        # write-back: (src ref, prog, width actually written)
        self.writes: List[Tuple[_Ref, Any, int]] = []
        for write in plan.writes:
            if write.code == _OP_OUTPUT:
                if write.key in self.reduce_fus:
                    raise FusionUnsupported("write-back from a reduced unit")
                src: _Ref = ("row", write.key)
                src_n = self.n
            elif write.code == _OP_TAP:
                src = ("tap", write.key)
                src_n = self.n
            else:
                src = ("stream", self._read_index[write.key])
                src_n = self.n
            self.writes.append((src, write.prog, min(src_n, write.prog.count)))

        self._assign_slots(plan)
        self._issue_stats(plan)

        # the storage arrays this image resolves against, in a fixed
        # order: the identity tuple of these arrays keys the per-state
        # view/runner cache (array swaps just select another state)
        touched: List[Tuple[int, int]] = []
        for _ep, prog in plan.reads:
            spec = prog.spec
            entry = (
                (0, spec.device)
                if spec.device_kind is DeviceKind.MEMORY
                else (1, spec.device)
            )
            if entry not in touched:
                touched.append(entry)
        for _src, prog, _w in self.writes:
            spec = prog.spec
            entry = (
                (0, spec.device)
                if spec.device_kind is DeviceKind.MEMORY
                else (2, spec.device)
            )
            if entry not in touched:
                touched.append(entry)
        self.touched_arrays = tuple(touched)
        # what the runner's text depends on (see _runner_code): one tap
        # load per feeder and tap pad, one form per step, one copy per write
        self.runner_shape: Tuple[int, str, int] = (
            len(self.feeder_pads) + len(self.tap_pads),
            "".join(map(_step_form, self.steps)),
            len(self.writes),
        )

    # ------------------------------------------------------------------
    def _assign_slots(self, plan: _FastPlan) -> None:
        """Map every output row (and reduction abs scratch) to a slot.

        Units pass results through the switch without storing them, so a
        row needs a buffer only from its producing step to its last
        reader: a linear scan over ``steps`` frees a slot after its last
        read, and the reading step may write its own output into it
        (elementwise kernels are exact in place).  Rows read after the
        runner are *pinned* to a slot of their own for the whole issue:
        the screened rows (a contiguous prefix, so the exception screen
        stays one reduction), the condition row, write-back sources, and
        under ``keep_outputs`` every row.
        """
        reads: List[List[int]] = []
        last_read: Dict[int, int] = {}
        for i, step in enumerate(self.steps):
            fus = [step[1]] if step[0] == _M_SKEWCOPY else []
            for pos in _OPERANDS[step[0]]:
                ref = step[pos]
                if ref is not None and ref[0] == "row":
                    fus.append(ref[1])
            reads.append(fus)
            for fu in fus:
                last_read[fu] = i
        produced = [s.fu for s in plan.steps if s.fu not in self.reduce_fus]
        screened = self._checked_fus(plan)
        pinned = set(screened)
        pinned.update(src[1] for src, _p, _w in self.writes if src[0] == "row")
        if self.condition is not None \
                and self.condition.fu not in self.reduce_fus:
            pinned.add(self.condition.fu)
        if self.keep_outputs:
            pinned.update(produced)
        self.slot_of: Dict[int, int] = {}
        for fu in sorted((f for f in produced if f in pinned),
                         key=lambda f: f not in screened):
            self.slot_of[fu] = len(self.slot_of)
        self.n_checked = len(screened)
        self.n_slots = len(self.slot_of)
        free: List[int] = []  # a stack: the freshest (cache-hot) slot first

        def take() -> int:
            if free:
                return free.pop()
            self.n_slots += 1
            return self.n_slots - 1

        self.scratch_slot: Dict[int, int] = {}
        for i, step in enumerate(self.steps):
            for fu in dict.fromkeys(reads[i]):
                if last_read[fu] == i and fu not in pinned:
                    free.append(self.slot_of[fu])
            mode = step[0]
            if mode == _M_REDUCE:
                if step[2]:  # the |x| scratch lives for this step only
                    self.scratch_slot[step[5]] = slot = take()
                    free.append(slot)
            elif mode != _M_SKEWCOPY and step[-1] not in self.slot_of:
                # an unread unit is never propagation-covered, so it is
                # screened: every unpinned row here has a reader
                self.slot_of[step[-1]] = take()

    @staticmethod
    def _consumed_fus(plan: _FastPlan) -> Set[int]:
        """Units whose output stream some other step or write consumes."""
        used: Set[int] = set()
        for step in plan.steps:
            for descr in (step.a, step.b, step.other):
                if descr is not None and descr[0] == _OP_OUTPUT:
                    used.add(descr[1])
        for write in plan.writes:
            if write.code == _OP_OUTPUT:
                used.add(write.key)
        return used

    #: non-finite propagation sets, owned by the static analyzer so the
    #: fused screen and :func:`repro.analysis.screen_coverage` can never
    #: drift apart (see docs/ANALYSIS.md)
    _PROP_BOTH = PROP_BOTH
    _PROP_A = PROP_A
    _PROP_FEEDBACK = PROP_FEEDBACK

    def _checked_fus(self, plan: _FastPlan) -> Set[int]:
        """Units whose output rows the fused exception screen must cover.

        A unit is *covered* when some consumer reads it through a
        position that provably propagates non-finite elements — then any
        inf/nan it produces surfaces downstream, where the chain ends in
        a screened row or the always-tested reduce final.  Only uncovered
        units need direct screening; for a masked stencil with a
        max-residual condition that is typically the empty set.
        """
        covered: Set[int] = set()
        for step in plan.steps:
            if step.fb_port is not None:
                # MIN/MINABS/MAX variants can silently absorb an extreme
                # of the wrong sign; MAXABS and the sticky accumulators
                # (FADD, FMUL) cannot, so only those cover their input.
                # A skewed position never covers: the shift can push the
                # offending element out of the window (zero fill).
                if step.opcode in self._PROP_FEEDBACK:
                    descr = step.other
                    if descr is not None and descr[0] == _OP_OUTPUT \
                            and descr[2] == 0:
                        covered.add(descr[1])
                continue
            if step.opcode in self._PROP_BOTH:
                positions = (step.a, step.b)
            elif step.opcode in self._PROP_A:
                positions = (step.a,)
            else:
                continue
            for descr in positions:
                if descr is not None and descr[0] == _OP_OUTPUT \
                        and descr[2] == 0:
                    covered.add(descr[1])
        return {
            s.fu for s in plan.steps
            if s.fu not in self.reduce_fus and s.fu not in covered
        }

    def _ref(self, descr: Tuple[int, Any, int], produced: Set[int],
             pending: List[int], copied: Set[int]) -> _Ref:
        code, key, skew = descr
        if code == _OP_OUTPUT and key not in produced:
            # the interpreters fault on this too ("needed before it was
            # produced"); let the stepped path report it
            raise FusionUnsupported(f"fu{key} read before it was produced")
        if code == _OP_CONST:
            if skew != 0:
                # the interpreters resolve constants before applying skew,
                # so a skewed constant cannot occur; refuse rather than guess
                raise FusionUnsupported("skewed constant operand")
            return ("const", key)
        if skew == 0:
            if code == _OP_OUTPUT:
                return ("row", key)
            if code == _OP_STREAM:
                return ("stream", self._read_index[key])
            return ("tap", key)
        # residual skew (ablation mode): the shifted view is a window into
        # a zero-padded copy of the source, like any other tap
        if code == _OP_STREAM:
            read_index = self._read_index[key]
            view_key = ("skew:stream", read_index, skew)
            self._stream_skews[(read_index, skew)] = view_key
            return ("tap", view_key)
        if code == _OP_OUTPUT:
            view_key = ("skew:row", key, skew)
            if (key, skew) not in self._row_skews:
                self._row_skews[(key, skew)] = view_key
                if key not in copied:
                    copied.add(key)
                    pending.append(key)
            return ("tap", view_key)
        view_key = ("skew:tap", key, skew)
        self._tap_skews[(key, skew)] = view_key
        return ("tap", view_key)

    def _flush_row_copies(self, pending: List[int]) -> None:
        """Emit the pad-fill copies for row skews the current step's
        operands just registered — after the producer, before the
        consumer."""
        for fu in pending:
            self.steps.append((_M_SKEWCOPY, fu))
        pending.clear()

    def _second_level_pads(
        self, skews: Dict[Tuple[Any, int], Tuple]
    ) -> List[Tuple[Any, int, int, List[Tuple[Any, int]]]]:
        """Group skewed views by their source into padded-buffer specs:
        ``(source key, left pad, total padded words, [(view key, skew)])``."""
        by_source: Dict[Any, List[Tuple[Any, int]]] = {}
        for (source, skew), view_key in skews.items():
            by_source.setdefault(source, []).append((view_key, skew))
        pads: List[Tuple[Any, int, int, List[Tuple[Any, int]]]] = []
        for source, views in sorted(by_source.items(), key=repr):
            shifts = [s for _k, s in views]
            left = max(0, -min(shifts))
            total = left + self.n + max(0, max(shifts))
            pads.append((source, left, total, views))
        return pads

    def _issue_stats(self, plan: _FastPlan) -> None:
        """Analytic per-issue accounting, matching the DMA engine's."""
        image, params = self.image, self.params
        transfers = len(plan.reads) + len(plan.writes)
        words_read = sum(prog.count for _ep, prog in plan.reads)
        words_written = sum(width for _src, _prog, width in self.writes)
        charges: Dict[Any, int] = {}
        busy = 0
        for prog in [p for _ep, p in plan.reads] + [p for _s, p, _w in self.writes]:
            cost = prog.cycles(params)
            busy += cost
            key = (prog.spec.device_kind, prog.spec.device)
            charges[key] = charges.get(key, 0) + cost
        cycles = instruction_cycles(image.total_cycles, plan.dma_cycles, params)
        self.consts = _IssueConsts(
            index=self.index,
            number=image.number,
            source=f"pipeline{image.number}",
            cycles=cycles,
            compute_cycles=image.total_cycles,
            dma_cycles=plan.dma_cycles,
            flops=image.total_flops,
            vector_length=self.n,
            active_fus=len(image.fu_ops),
            transfers=transfers,
            words_read=words_read,
            words_written=words_written,
            busy_cycles=busy,
            device_busy=tuple(sorted(charges.items(), key=repr)),
        )
        # static fields of every PipelineResult this image produces; the
        # issue loop fills the per-issue ones on a __new__ instance
        self.result_template = {
            "number": image.number,
            "cycles": cycles,
            "compute_cycles": image.total_cycles,
            "dma_cycles": plan.dma_cycles,
            "flops": image.total_flops,
            "vector_length": self.n,
            "active_fus": len(image.fu_ops),
        }

    # ------------------------------------------------------------------
    def touched_extents(
        self,
        variables: Dict[str, Tuple[int, int]],
        plane_extent: Dict[int, int],
        cache_extent: Dict[int, int],
    ) -> None:
        """Accumulate the address extents this image touches.

        *variables* maps name -> (plane, offset); symbolic programs resolve
        through it.  Raises :class:`FusionUnsupported` on negative
        addresses, unknown variables, or read/write aliasing the fused
        issue cannot express (the fallback path reports those at
        reference fidelity).
        """
        def resolve(prog: Any) -> int:
            spec = prog.spec
            if spec.is_symbolic:
                home = variables.get(spec.variable or "")
                if home is None:
                    raise FusionUnsupported(
                        f"unresolved variable {spec.variable!r}"
                    )
                plane, offset = home
                if plane != spec.device:
                    raise FusionUnsupported("variable relocated off its plane")
                return offset + spec.offset
            return prog.base_offset

        read_spans: List[Tuple[int, int, int]] = []  # (plane, lo, hi)
        for _ep, prog in self.reads:
            spec = prog.spec
            lo, hi = _prog_span(resolve(prog), prog.count, spec.stride)
            if lo < 0:
                raise FusionUnsupported("negative DMA address")
            if spec.device_kind is DeviceKind.MEMORY:
                plane_extent[spec.device] = max(
                    plane_extent.get(spec.device, 0), hi
                )
                read_spans.append((spec.device, lo, hi))
            else:
                cache_extent[spec.device] = max(
                    cache_extent.get(spec.device, 0), hi
                )
        # the fused issue streams reads as live views (and, on the
        # exception path, re-derives exact streams after the write-back
        # already landed), which is only sound when no write destination
        # overlaps a read stream; cache traffic cannot alias — reads
        # stream the front buffer, writes fill the back
        for _src, prog, _width in self.writes:
            spec = prog.spec
            lo, hi = _prog_span(resolve(prog), prog.count, spec.stride)
            if lo < 0:
                raise FusionUnsupported("negative DMA address")
            if spec.device_kind is DeviceKind.MEMORY:
                plane_extent[spec.device] = max(
                    plane_extent.get(spec.device, 0), hi
                )
                for plane, rlo, rhi in read_spans:
                    if plane == spec.device and lo < rhi and rlo < hi:
                        raise FusionUnsupported(
                            "write-back aliases a read stream"
                        )
            else:
                cache_extent[spec.device] = max(
                    cache_extent.get(spec.device, 0), hi
                )

    def bind(self, storage: _Storage,
             batch_shape: Tuple[int, ...]) -> "BoundImage":
        return BoundImage(self, storage, batch_shape)


#: Kernel shapes whose compiled runner code stays resident.
RUNNER_CODE_SIZE = 256

#: Operands an inline runner step binds, ``op[1 : 1 + k]`` of its bound
#: op; steps of the other modes run as closures.
_INLINE_ARGS = {_M_BINARY: 4, _M_CONST: 4, _M_UNARY: 3, _M_COPY: 2,
                _M_SKEWCOPY: 2}

#: One runner line per step form: the parameter prefixes the step binds
#: (in ``_INLINE_ARGS`` order) and the statement that uses them.
_STEP_TEXT = {
    # ufuncs take ``out`` positionally (no kwarg parsing), except
    # maximum/minimum, which deprecate a positional out
    "p": ("fabo", "_f{i}(_a{i}, _b{i}, _o{i})"),
    "k": ("fabo", "_f{i}(_a{i}, _b{i}, out=_o{i})"),
    "u": ("fao", "_f{i}(_a{i}, _o{i})"),
    "c": ("ao", "_copyto(_o{i}, _a{i})"),
    "g": ("g", "_ok = _g{i}() and _ok"),
}


def _step_form(op: Tuple) -> str:
    """The ``_STEP_TEXT`` form of one step (kernel or bound: both lead
    with the mode, then the ufunc for the modes that call one): its mode,
    plus the ``out=`` keyword flag for two-operand calls."""
    mode = op[0]
    if mode == _M_BINARY or mode == _M_CONST:
        return "k" if op[1] in _OUT_KWARG else "p"
    if mode == _M_UNARY:
        return "u"
    return "c" if mode in _INLINE_ARGS else "g"


@functools.lru_cache(maxsize=RUNNER_CODE_SIZE)
def _runner_code(shape: Tuple[int, str, int]) -> CodeType:
    """The runner code object for one kernel shape.

    *shape* is ``(taps, forms, writes)``: the tap-load count, one
    ``_STEP_TEXT`` form per step, and the write-back count.  Those are
    all the runner's text depends on (never the grid size, tolerance or
    which ufunc a step calls), so parameter names and source are
    formatted here, once per shape, and every kernel of the shape shares
    the code.  The parameters are ``_copyto``, each tap's destination and
    source, each step's operands, then each write's destination and
    source; a bound issue passes its operands in that order as the
    argument defaults.  Compiling without executing leaves them unbound.
    """
    taps, forms, writes = shape
    params = ["_copyto"]
    body = ["_ok = True"]
    for j in range(taps):
        params += (f"_td{j}", f"_ts{j}")
        body.append(f"_copyto(_td{j}, _ts{j})")
    for i, form in enumerate(forms):
        prefixes, line = _STEP_TEXT[form]
        params += (f"_{p}{i}" for p in prefixes)
        body.append(line.format(i=i))
    for j in range(writes):
        params += (f"_wd{j}", f"_ws{j}")
        body.append(f"_copyto(_wd{j}, _ws{j})")
    body.append("return _ok")
    src_text = (
        "def _runner(" + ", ".join(f"{n}={n}" for n in params) + "):\n"
        + "".join(f"    {line}\n" for line in body)
    )
    module = compile(src_text, "<runner>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


class BoundImage:
    """One image bound to a run's storage: buffers allocated, views live."""

    def __init__(self, kernel: ImageKernel, storage: _Storage,
                 batch_shape: Tuple[int, ...]) -> None:
        self.kernel = kernel
        self.storage = storage
        self.batch_shape = batch_shape
        n = kernel.n
        # one contiguous block of row slots (see ImageKernel._assign_slots):
        # rows that die mid-issue share slots, so a sweep image's working
        # set stays a few rows wide; the screened rows lead the block
        self._block = (
            aligned_empty((kernel.n_slots,) + batch_shape + (n,))
            if kernel.n_slots else None
        )
        self._slots = list(self._block) if self._block is not None else []
        # padded feeder copies; tap views are windows into them
        self._tap_views: Dict[Any, np.ndarray] = {}
        self._pad_centers: List[Tuple[np.ndarray, int]] = []
        for read_index, left, total, tap_list in kernel.feeder_pads:
            padded = aligned_zeros(batch_shape + (total,))
            self._pad_centers.append((padded[..., left : left + n], read_index))
            for key, shift in tap_list:
                self._tap_views[key] = padded[..., left + shift : left + shift + n]
        # second-level pads for skewed operands: tap skews are filled right
        # after the feeder pads each issue (their source is a tap view);
        # row skews are filled in-line by _M_SKEWCOPY steps as soon as the
        # producing row lands
        self._static_tap_pairs: List[Tuple[np.ndarray, np.ndarray]] = []
        for tap_key, left, total, views in kernel.tap_pads:
            padded = aligned_zeros(batch_shape + (total,))
            self._static_tap_pairs.append(
                (padded[..., left : left + n], self._tap_views[tap_key])
            )
            for view_key, skew in views:
                self._tap_views[view_key] = (
                    padded[..., left + skew : left + skew + n]
                )
        self._row_pad_centers: Dict[int, np.ndarray] = {}
        for fu, left, total, views in kernel.row_pads:
            padded = aligned_zeros(batch_shape + (total,))
            self._row_pad_centers[fu] = padded[..., left : left + n]
            for view_key, skew in views:
                self._tap_views[view_key] = (
                    padded[..., left + skew : left + skew + n]
                )
        self._seeded: Dict[int, np.ndarray] = {}
        self._finals: Dict[int, Any] = {}
        for step in kernel.steps:
            if step[0] == _M_ACCUM:
                self._seeded[step[5]] = aligned_empty(batch_shape + (n + 1,))
        self._consts: Dict[bytes, np.ndarray] = {}
        self._streams: List[np.ndarray] = []
        self._write_views: List[np.ndarray] = []
        self._runner: Any = None
        self._tap_live: List[Tuple[np.ndarray, np.ndarray]] = []
        self._write_pairs: List[Tuple[np.ndarray, np.ndarray]] = []
        self._states: Dict[Tuple[int, ...], Tuple] = {}
        self._key: Optional[Tuple[int, ...]] = None
        # container/device pairs whose array identities form the state key
        containers = (storage.planes, storage.cache_front, storage.cache_back)
        self._touch_refs = [
            (containers[kind], device)
            for kind, device in kernel.touched_arrays
        ]
        # screened rows hold the leading slots, so the fused exception
        # test is one reduction over a contiguous prefix (often empty: a
        # fully propagation-covered image needs only its reduce-final
        # checks)
        self._check_flat = (
            self._block[: kernel.n_checked].reshape(-1)
            if self._block is not None and kernel.n_checked
            else None
        )
        self._exact: Optional[Dict[int, np.ndarray]] = None
        self._exact_plan: Optional[_FastPlan] = None
        # pre-resolve every operand that does not depend on storage state
        self._ops = [self._bind_step(s) for s in kernel.steps]

    # ------------------------------------------------------------------
    def _const_array(self, value: float) -> np.ndarray:
        # keyed by bit pattern: 0.0 and -0.0 compare (and hash) equal,
        # so a float key would hand both zeros one row
        key = struct.pack("<d", value)
        arr = self._consts.get(key)
        if arr is None:
            arr = aligned_empty(self.batch_shape + (self.kernel.n,))
            arr.fill(value)
            self._consts[key] = arr
        return arr

    def _row(self, fu: int) -> np.ndarray:
        return self._slots[self.kernel.slot_of[fu]]

    def _operand(self, ref: _Ref) -> Any:
        """Static ndarray, or an int index into the live stream views."""
        kind, key = ref
        if kind == "row":
            return self._row(key)
        if kind == "tap":
            return self._tap_views[key]
        if kind == "const":
            return self._const_array(key)
        return key  # stream index

    def _bind_step(self, step: Tuple) -> Tuple:
        mode = step[0]
        if mode == _M_BINARY:
            _m, ufunc, a, b, fu = step
            return (mode, ufunc, self._operand(a), self._operand(b),
                    self._row(fu))
        if mode == _M_CONST:
            _m, ufunc, a, const, fu = step
            return (mode, ufunc, self._operand(a), const, self._row(fu))
        if mode == _M_UNARY:
            _m, ufunc, a, fu = step
            return (mode, ufunc, self._operand(a), self._row(fu))
        if mode == _M_COPY:
            _m, a, fu = step
            return (mode, self._operand(a), self._row(fu))
        if mode == _M_FALLBACK:
            _m, planstep, a, b, fu = step
            return (mode, planstep, self._operand(a),
                    self._operand(b) if b is not None else None,
                    self._row(fu))
        if mode == _M_ACCUM:
            _m, ufunc, use_abs, descr, init, fu = step
            return (mode, ufunc, use_abs, self._operand(descr), init,
                    self._seeded[fu], self._row(fu))
        if mode == _M_REDUCE:
            _m, ufunc, use_abs, descr, init, fu = step
            slot = self.kernel.scratch_slot.get(fu)
            return (mode, ufunc, use_abs, self._operand(descr), init, fu,
                    self._slots[slot] if slot is not None else None)
        if mode == _M_SKEWCOPY:
            _m, fu = step
            return (mode, self._row(fu), self._row_pad_centers[fu])
        _m, opcode, descr, port, init, fu = step
        return (mode, opcode, self._operand(descr), port, init,
                self._row(fu))

    def _refresh(self) -> None:
        """Re-resolve storage views and rebuild the live op list.

        Views go stale only when a cache swap flips a front/back pair, so
        this runs a handful of times per program — the per-issue loop then
        touches nothing but concrete arrays.
        """
        storage = self.storage
        kernel = self.kernel
        variables = storage.variables
        streams: List[np.ndarray] = []
        for _ep, prog in kernel.reads:
            spec = prog.spec
            if spec.is_symbolic:
                var = variables[spec.variable]
                base = var.offset + spec.offset
            else:
                base = prog.base_offset
            arr = storage.array_for(spec.device_kind, spec.device)
            streams.append(arr[..., stream_slice(base, prog.count, spec.stride)])
        self._streams = streams
        views: List[np.ndarray] = []
        for _src, prog, width in kernel.writes:
            spec = prog.spec
            if spec.is_symbolic:
                var = variables[spec.variable]
                base = var.offset + spec.offset
            else:
                base = prog.base_offset
            arr = storage.array_for(spec.device_kind, spec.device, write=True)
            views.append(arr[..., stream_slice(base, width, spec.stride)])
        self._write_views = views

        def live(operand: Any) -> Any:
            return streams[operand] if type(operand) is int else operand

        ops = []
        for op in self._ops:
            resolved = list(op)
            for pos in _OPERANDS[op[0]]:
                resolved[pos] = live(op[pos])
            ops.append(tuple(resolved))
        self._tap_live = [
            (center, streams[read_index])
            for center, read_index in self._pad_centers
        ] + self._static_tap_pairs
        pairs: List[Tuple[np.ndarray, np.ndarray]] = []
        for (kind, key), view in zip(
            (w[0] for w in kernel.writes), views
        ):
            if kind == "row":
                src: np.ndarray = self._row(key)
            elif kind == "tap":
                src = self._tap_views[key]
            else:
                src = streams[key]
            width = view.shape[-1]
            if src.shape[-1] != width:
                src = src[..., :width]
            pairs.append((view, src))
        self._write_pairs = pairs
        self._runner = self._generate_runner(ops)

    def _generate_runner(self, ops: List[Tuple]) -> Any:
        """Emit one specialized Python function for this bound issue.

        Tap loads, every kernel call, and the write-backs become a
        straight line of statements with all operands bound as argument
        defaults (local loads, no dispatch); non-ufunc steps (feedback,
        reductions, exotic kernels) drop to closures that report whether
        their result stayed finite.  The code object comes from the
        kernel's ``runner_shape`` (see :func:`_runner_code`); each issue
        only gathers its operands.
        """
        code = _runner_code(self.kernel.runner_shape)
        defaults: List[Any] = [np.copyto]
        for pair in self._tap_live:
            defaults += pair
        for op in ops:
            k = _INLINE_ARGS.get(op[0])
            if k is None:
                defaults.append(self._make_closure(op))
            else:
                defaults += op[1 : 1 + k]
        for pair in self._write_pairs:
            defaults += pair
        return FunctionType(code, {}, "_runner", tuple(defaults))

    def _make_closure(self, op: Tuple) -> Any:
        """A zero-argument callable for one non-ufunc step.

        Returns True when its output provably stayed finite (reductions
        check their final; streamed rows are screened by the caller).
        """
        mode = op[0]
        finals = self._finals
        # one stacked row reduces like one machine: a scalar final
        per_row = self.batch_shape != (1,)
        if mode == _M_REDUCE:
            _m, ufunc, use_abs, a, init, fu, scratch = op
            # ndarray.max/min are Python wrappers around these reduces
            reduce = ufunc.reduce
            if per_row:
                def run() -> bool:
                    x = a
                    if use_abs:
                        np.abs(x, out=scratch)
                        x = scratch
                    final = ufunc(reduce(x, -1), init)
                    finals[fu] = final
                    return bool(np.isfinite(final).all())
            else:
                def run() -> bool:
                    x = a
                    if use_abs:
                        np.abs(x, out=scratch)
                        x = scratch
                    final = ufunc(reduce(x, None), init)
                    finals[fu] = final
                    return _isfinite(final)
            return run
        if mode == _M_ACCUM:
            _m, ufunc, use_abs, a, init, seeded, out = op
            core = seeded[..., 1:]

            def run() -> bool:
                seeded[..., 0] = init
                if use_abs:
                    np.abs(a, out=core)
                else:
                    core[...] = a
                ufunc.accumulate(seeded, axis=-1, out=seeded)
                out[...] = core
                return True
            return run
        if mode == _M_FALLBACK:
            _m, step, a, b, out = op
            kernel = step.kernel
            if step.uses_constant:
                constant = step.constant

                def run() -> bool:
                    out[...] = kernel(a, constant)
                    return True
            elif step.arity == 1:
                def run() -> bool:
                    out[...] = kernel(a)
                    return True
            else:
                def run() -> bool:
                    out[...] = kernel(a, b)
                    return True
            return run
        # _M_FEEDBACK
        _m, opcode, a, port, init, out = op

        def run() -> bool:
            out[...] = _eval_feedback_batched(opcode, a, port, init)
            return True
        return run

    # ------------------------------------------------------------------
    def _state_key(self) -> Tuple[int, ...]:
        return tuple([id(c[d]) for c, d in self._touch_refs])

    def issue_compute(self) -> bool:
        """One fused issue: taps, kernels, write-back, exception screen.

        Returns True when the all-finite fast path holds — then the
        per-FU exception flags are provably empty.  The screen is a sum
        over the screened row prefix: it is finite exactly when no row
        holds an inf/nan (inf-inf and nan both propagate through
        addition); a finite-overflow false alarm merely routes through
        the exact path, which settles flags authoritatively.
        """
        key = self._state_key()
        if key != self._key:
            state = self._states.get(key)
            if state is None:
                self._refresh()
                self._states[key] = (
                    self._runner, self._streams, self._write_views,
                    self._tap_live, self._write_pairs,
                )
            else:
                (self._runner, self._streams, self._write_views,
                 self._tap_live, self._write_pairs) = state
            self._key = key
        ok = self._runner()
        if self._check_flat is not None \
                and not _isfinite(np.add.reduce(self._check_flat)):
            ok = False
        self._exact = None
        return ok

    def issue_exact(self) -> List[str]:
        """Exact re-evaluation (reference kernels, full streams).

        Used when the fused pass saw something non-finite: recomputes every
        output stream with the per-image fast path's evaluators and returns
        the exception flags in reference order.  Subsequent write-back and
        condition evaluation read from these exact streams.  The step list
        is rebuilt from the image on the first exact issue of this binding
        (the compiled kernel does not keep it).
        """
        kernel = self.kernel
        if self._exact_plan is None:
            self._exact_plan = _build_plan(kernel.image, kernel.params)
        plan = self._exact_plan
        streams = {
            ep: self._streams[i] for ep, i in kernel._read_index.items()
        }
        taps: Dict[Any, np.ndarray] = dict(self._tap_views)
        outputs = _eval_steps(
            plan, streams, taps, self.batch_shape + (kernel.n,)
        )
        flags: List[str] = []
        for step in plan.steps:
            for flag in detect_exceptions(outputs[step.fu]):
                flags.append(f"fu{step.fu}:{flag}")
        self._exact = outputs
        return flags

    def condition_last(self) -> Optional[Any]:
        """The condition unit's final stream element (scalar or per-row)."""
        cond = self.kernel.condition
        if cond is None:
            return None
        if self._exact is not None:
            return self._exact[cond.fu][..., -1]
        if cond.fu in self.kernel.reduce_fus:
            return self._finals[cond.fu]
        return self._row(cond.fu)[..., -1]

    def write_back_exact(self) -> None:
        """Re-apply write-backs from the exact streams.

        The fused runner already wrote bit-identical values; this is a
        harmless idempotent pass kept for symmetry on the exception path.
        """
        outputs = self._exact
        assert outputs is not None
        for (kind, key), view in zip(
            (w[0] for w in self.kernel.writes), self._write_views
        ):
            if kind == "row":
                src = outputs[key]
            elif kind == "tap":
                src = self._tap_views[key]
            else:
                src = self._streams[key]
            width = view.shape[-1]
            np.copyto(view, src[..., :width] if src.shape[-1] != width
                      else src)

    def capture_outputs(self) -> Dict[int, np.ndarray]:
        """Row 0's fresh per-FU output streams, for ``keep_outputs`` runs.

        Only meaningful on a kernel compiled with ``keep_outputs`` (every
        unit then owns a row slot of its own — the residual-reduction
        folding is disabled), which only a one-job run binds.  Everything
        is copied out: the row buffers are reused by the next issue, and
        exact-path outputs can *alias* live stream/tap views (a PASS
        kernel returns its input object), which the next issue's tap
        refill would silently mutate.
        """
        if self._exact is not None:
            return {fu: np.array(arr[0]) for fu, arr in self._exact.items()}
        return {
            fu: self._slots[slot][0].copy()
            for fu, slot in self.kernel.slot_of.items()
        }


# ----------------------------------------------------------------------
# whole-program compilation
# ----------------------------------------------------------------------
# schedule op kinds
_S_ISSUE = 0
_S_REPEAT = 1
_S_LOOP = 2
_S_SWAP = 3
_S_CACHESWAP = 4
_S_HALT = 5
_S_BAD_ISSUE = 6


class ProgramPlan:
    """A compiled control script plus the kernels and extents it needs.

    ``keep_outputs`` compiles every kernel in output-retention mode (full
    per-FU streams, no reduction folding) so the engine
    (:class:`~repro.sim.batchplan.BatchProgramRun`) can snapshot
    ``fu_outputs`` per issue; such plans are cached separately.
    """

    def __init__(self, program: MachineProgram, params: Any,
                 keep_outputs: bool = False) -> None:
        self.program = program
        self.params = params
        self.keep_outputs = keep_outputs
        self.kernels: Dict[int, ImageKernel] = {}
        self.swap_names: Set[str] = set()
        self.cache_ids: Set[int] = set()
        self.ops = tuple(self._compile_block(program.control))
        if not self.kernels:
            # nothing to fuse; the plain walk is already trivial
            raise FusionUnsupported("program issues no pipelines")
        # variable homes per the generator's layout: every run's storage
        # binds them (stacked_storage), and a machine must agree at run
        # time or its run falls back
        self.variables = home_variables(program)
        for name in self.swap_names:
            if name not in self.variables:
                raise FusionUnsupported(f"SwapVars on unmanaged {name!r}")
        self.plane_extent: Dict[int, int] = {}
        self.cache_extent: Dict[int, int] = {}
        homes = {n: (v.plane, v.offset) for n, v in self.variables.items()}
        for kernel in self.kernels.values():
            kernel.touched_extents(homes, self.plane_extent,
                                   self.cache_extent)
        for name in self.swap_names:
            var = self.variables[name]
            self.plane_extent[var.plane] = max(
                self.plane_extent.get(var.plane, 0), var.end
            )
        if any(p >= params.n_memory_planes or p < 0
               for p in self.plane_extent):
            raise FusionUnsupported("plane index out of range")
        if any(c >= params.n_caches or c < 0 for c in self.cache_ids):
            raise FusionUnsupported("cache index out of range")
        for plane, extent in self.plane_extent.items():
            if extent > params.memory_plane_words:
                raise FusionUnsupported("extent exceeds plane capacity")
        for cache, extent in self.cache_extent.items():
            if extent > params.cache_buffer_words:
                raise FusionUnsupported("extent exceeds cache buffer")

    # ------------------------------------------------------------------
    def _compile_block(self, ops: Sequence[Any]) -> List[Tuple]:
        out: List[Tuple] = []
        for op in ops:
            if isinstance(op, ExecPipeline):
                index = op.pipeline
                if not (0 <= index < len(self.program.images)):
                    out.append((_S_BAD_ISSUE, index))
                    continue
                kernel = self.kernels.get(index)
                if kernel is None:
                    image = self.program.images[index]
                    try:
                        plan = _build_plan(image, self.params)
                    except Exception as exc:
                        raise FusionUnsupported(str(exc)) from exc
                    kernel = ImageKernel(index, image, plan, self.params,
                                         keep_outputs=self.keep_outputs)
                    self.kernels[index] = kernel
                out.append((_S_ISSUE, index))
            elif isinstance(op, Repeat):
                out.append(
                    (_S_REPEAT, op.times, tuple(self._compile_block(op.body)))
                )
            elif isinstance(op, LoopUntil):
                out.append(
                    (_S_LOOP, tuple(self._compile_block(op.body)),
                     op.condition_pipeline, op.max_iterations)
                )
            elif isinstance(op, SwapVars):
                self.swap_names.update((op.a, op.b))
                out.append((_S_SWAP, op.a, op.b))
            elif isinstance(op, CacheSwap):
                self.cache_ids.update(op.caches)
                out.append((_S_CACHESWAP, op.caches))
            elif isinstance(op, Halt):
                out.append((_S_HALT,))
            else:
                raise FusionUnsupported(f"unknown control op {op!r}")
        return out


@dataclass(frozen=True)
class _HomeVar:
    name: str
    plane: int
    offset: int
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length


def home_variables(program: MachineProgram) -> Dict[str, _HomeVar]:
    """Every declared variable of *program* at its home in the
    generator's layout — where ``NSCMachine.load_program`` declares it."""
    return {
        name: _HomeVar(name, plane, offset, program.declarations[name].length)
        for name, (plane, offset) in program.variable_layout.items()
    }


@dataclass(frozen=True)
class _Unfusable:
    """Cached rejection: re-attempting compilation would fail identically.

    Holds its program, as a :class:`ProgramPlan` does, so the id in its
    cache key cannot be reused while the entry lives."""

    reason: str
    program: MachineProgram = field(repr=False, compare=False)


def compiled_plan(program: MachineProgram, params: Any,
                  keep_outputs: bool = False) -> ProgramPlan:
    """Compile (or fetch from the shared cache) the program's fused plan.

    Plans are keyed by the program object, not its content: a service
    job reuses the plan of the compiled program its cache handed back,
    and no two programs can share a plan however alike they look.
    Every entry pins its program, so an id in a live key is never reused.
    Rejections are cached too: a program the compiler declines raises
    :class:`FusionUnsupported` from a dictionary hit on every later run
    instead of re-walking the control script to the same conclusion.
    ``keep_outputs`` plans key separately (they disable the reduction
    folding, so the compiled kernels differ).
    """
    key = (id(program), params, keep_outputs)
    obs.count("plan.hit" if key in PLAN_CACHE else "plan.miss")

    def build() -> Any:
        try:
            return ProgramPlan(program, params, keep_outputs=keep_outputs)
        except FusionUnsupported as exc:
            return _Unfusable(str(exc), program)

    plan = PLAN_CACHE.get_or_build(key, build)
    if isinstance(plan, _Unfusable):
        raise FusionUnsupported(plan.reason)
    return plan


def try_run_fused(
    machine: "NSCMachine",
    program: MachineProgram,
    max_instructions: int,
    keep_outputs: bool = False,
) -> Optional[SequencerResult]:
    """Run *program* on one machine through the fused engine, or return None.

    The one-machine call of :func:`repro.sim.batchplan.try_run_batch_fused`:
    an exact slab of one, its kernels bound over one stacked row.  None means
    "not fusable here" — registered interrupt handlers, relocated
    variables, or a construct the compiler rejects — and the caller runs
    the reference interpreter instead.  Execution itself is inside the
    guard: a :class:`FusionUnsupported` surfacing only once the run has
    begun also returns None, and because the fused run commits machine
    state only at its end, the fallback then executes against untouched
    state.
    """
    from repro.sim.batchplan import try_run_batch_fused

    results = try_run_batch_fused(
        [machine], program, max_instructions, keep_outputs=keep_outputs
    )
    return None if results is None else results[0]


# ----------------------------------------------------------------------
# hypercube execution on the slab engine
# ----------------------------------------------------------------------
class HaloCommPlan:
    """Analytic accounting for a repeated, identical halo exchange.

    The reference loop re-routes the same message set through the
    hyperspace router every sweep.  Routing is deterministic, so the fast
    path routes the first exchange for real — fixing the makespan, the
    per-link traffic deltas, and the link insertion order that
    ``busiest_link()`` breaks ties by — then only counts the sweeps it
    replays; :meth:`settle` charges ``count x`` the deltas once, at the
    end of the run.  The router then holds exactly the statistics a
    reference run leaves, without recomputing e-cube paths every sweep.
    """

    def __init__(self, router: Any, messages: List[Any]) -> None:
        self.router = router
        self.messages = messages
        self._routed: Optional[Tuple[int, List[Tuple[Any, int, int]], int]] = None
        self.replays = 0

    def exchange(self) -> int:
        if not self.messages:
            return 0
        if self._routed is not None:
            self.replays += 1
            return self._routed[0]
        before = {
            key: (stats.messages, stats.words)
            for key, stats in self.router.link_stats.items()
        }
        sent_before = self.router.messages_sent
        cycles = self.router.exchange(self.messages)
        deltas = []
        for key, stats in self.router.link_stats.items():
            base_messages, base_words = before.get(key, (0, 0))
            delta = (key, stats.messages - base_messages,
                     stats.words - base_words)
            if delta[1] or delta[2]:
                deltas.append(delta)
        self._routed = (cycles, deltas, self.router.messages_sent - sent_before)
        return cycles

    def settle(self) -> None:
        """Charge every replayed exchange's link traffic to the router."""
        if not self.replays:
            return
        assert self._routed is not None
        _cycles, deltas, sent = self._routed
        link_stats = self.router.link_stats
        for key, d_messages, d_words in deltas:
            stats = link_stats[key]
            stats.messages += d_messages * self.replays
            stats.words += d_words * self.replays
        self.router.messages_sent += sent * self.replays
        self.replays = 0


def fused_stepper(stencil: "MultiNodeStencil"):
    """(load, sweep, finish) callables running a hypercube on the slab engine.

    Every node runs the same single-sweep script on its own slab, so the
    stencil's stack is a slab of ``n_nodes`` rows with no per-node
    fallback: one :class:`~repro.sim.batchplan.BatchProgramRun` steps it
    — load is issue 0 then the mask cache swap, a sweep is issue 1 then
    ``SwapVars u/u_new`` — and logs every step.  The stencil's loop (the
    loop both backends share, so their accounting cannot drift) adds the
    global residual, the halo copy and the route-once halo replay, whose
    link traffic ``finish`` settles.  The stencil keeps the run for its
    log (a later run continues it), which its machine build folds;
    ``finish`` releases the bound images.
    """
    from repro.sim.batchplan import BatchProgramRun

    stack = stencil.stack
    if stack is None:
        raise FusionUnsupported("node machines hold the state")
    plan = compiled_plan(stencil.machine_program, stencil.params)
    if 0 not in plan.kernels or 1 not in plan.kernels:
        raise FusionUnsupported("multi-node program issues no image 0/1")
    n = stencil.n_nodes
    # the stack covers the variables; widen it to the plan's caches (new
    # words read as zeros, as untouched machine storage does)
    for arrays, extents in ((stack.planes, plan.plane_extent),
                            (stack.cache_front, plan.cache_extent),
                            (stack.cache_back, plan.cache_extent)):
        for key, extent in extents.items():
            arr = arrays.get(key)
            if arr is None or arr.shape[-1] < extent:
                grown = aligned_zeros((n, extent))
                if arr is not None:
                    grown[:, : arr.shape[-1]] = arr
                arrays[key] = grown
    # the reference walk has no instruction budget
    run = BatchProgramRun(plan, stack, n, sys.maxsize, fallback=False)
    if stencil.fused is not None:
        run.log = stencil.fused.log
    stencil.fused = run
    setup = stencil.setup
    masks = (setup.mask_cache, setup.invmask_cache)
    load_cycles = plan.kernels[0].consts.cycles
    sweep_consts = plan.kernels[1].consts
    sweep_flops = n * sweep_consts.flops
    comm_plan = HaloCommPlan(stencil.router, stencil._halo_messages())
    nx, ny, _nz = stencil.shape
    pw = nx * ny
    sweep_words = 2 * (n - 1) * pw
    u = stack.variables["u"]
    off, nzl = u.offset, stencil.nz_local

    def load() -> int:
        run.issue(0)
        run.swap_caches(masks)
        return load_cycles

    def sweep():
        values = run.issue(1)
        residual = 0.0
        if values is not None:
            for value in values:
                residual = max(residual, value)
        run.swap_vars("u", "u_new")
        comm = comm_plan.exchange()
        if n > 1:
            plane = stack.planes[u.plane]
            # each slab's last real plane -> its upper neighbour's low
            # ghost; its first real plane -> its lower neighbour's high one
            plane[1:, off : off + pw] = \
                plane[:-1, off + nzl * pw : off + (nzl + 1) * pw]
            plane[:-1, off + (nzl + 1) * pw : off + (nzl + 2) * pw] = \
                plane[1:, off + pw : off + 2 * pw]
        return sweep_consts.cycles, residual, comm, sweep_words, sweep_flops

    def finish() -> None:
        comm_plan.settle()
        run.bound = {}  # keep the log, not the kernels' working rows

    return load, sweep, finish


__all__ = [
    "FusionUnsupported",
    "ImageKernel",
    "BoundImage",
    "ProgramPlan",
    "compiled_plan",
    "try_run_fused",
    "HaloCommPlan",
    "fused_stepper",
]
