"""Whole-program compiled execution: the control script as one fused plan.

The reference sequencer walks its ``Repeat``/``LoopUntil`` script in
Python — re-pulling machine state, re-charging DMA controllers, and
re-posting interrupts on every issue, so thousands of Jacobi sweeps are
dominated by dispatch rather than arithmetic.  This module is the
trace-compilation step: it compiles an entire :class:`~repro.codegen.generator.MachineProgram`
— control script included — into a flat execution schedule where

- the state (plane memory, cache buffers) lives in stacked local arrays
  (:func:`stacked_storage`, one row per job or node), streamed through
  as NumPy *views*;
- every pipeline image becomes a :class:`BoundImage`: a few preallocated
  row *slots*, preloaded shift/delay tap buffers, and ufunc ``out=``
  kernels, so an issue is a straight run down precompiled operations with
  no per-issue allocation.  As on the machine, where units hand results
  through the switch without storing them, a unit's output row lives
  only until its last reader has run and its slot is then recycled
  (in place, by the reader itself); rows read after the issue —
  condition and write-back rows — keep a slot of their own.
  As on the machine, an unshifted tap is its feeder's stream, a PASS that only relays a read stream is that
  stream (*forwarding*), and a unit whose result one DMA takes to
  memory computes straight into its write view, so none of them costs a
  buffer or a copy;
- work that cannot change between issues runs once: a step over
  constants and the read streams of memory planes nothing in the run
  moves (no issued image writes them, no ``SwapVars`` names them) is
  *hoisted* — computed once per bound image, before its first issue,
  into a pinned slot — so a sweep stops rescaling its source term;
- inf and nan are values like any other: they run through the same
  kernels as finite data, which compute the reference's IEEE results bit
  for bit.  The FP-exception interrupts the reference posts for them are
  masked under the default armed set, so nothing here detects them;
- ``LoopUntil`` convergence feedback is evaluated in-band every iteration
  — same exit, same iteration counts — and ``SwapVars`` relocations are
  array exchanges on the local state.  The steps that only feed a
  reduced condition (its *chain*, :mod:`repro.sim.settle`) are the
  runner's second entry, so the script walk can settle the condition
  from a few witness positions and skip them;
- cycle counts, DMA statistics, and interrupt counts are derived
  analytically from the image kernels (one
  :func:`~repro.codegen.timing.instruction_cycles` formula, one DMA
  charge table per image) and folded per job at the end, equal to what
  the reference sequencer accumulates step by step.

Coverage extends beyond the happy path: residual-skew (ablation)
programs compile their skewed operands as offset windows into zero-padded
copies — the same trick shifted taps use.  What only a stepped machine
observes — per-issue ``fu_outputs`` (``keep_outputs``), the issue trace,
interrupt handlers and non-default armed sets — stays with the reference
interpreter (:class:`~repro.sim.machine.NSCMachine`).

Compiled plans are cached in :data:`repro.sim.fastpath.PLAN_CACHE` keyed
by the program object's identity + params, so the batch service and sweeps reuse schedules across the jobs of one
compiled program; a recompile, a copy or an unpickled program builds
its own.  That key is the only one: a program plan lowers each image
once, straight from the :class:`~repro.codegen.generator.PipelineImage`
into its :class:`ImageKernel`, and images are not cached on their own
(hashing an image cost more than lowering it).
Anything the compiler cannot prove it can fuse raises
:class:`FusionUnsupported` and the caller falls back to the reference
interpreter — fusion is an optimisation, never a semantics change.  That
holds mid-run too: a run mutates only its own stacked storage, so a late
rejection leaves the caller's inputs as they were.  One engine walks
every compiled schedule over stacked rows —
:class:`~repro.sim.batchplan.BatchProgramRun`, with a lone job as an
exact one-row slab (:func:`repro.service.slab.run_slab`).

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
from types import CodeType, FunctionType
from typing import (
    AbstractSet, Any, Callable, Dict, FrozenSet, List, NamedTuple, Optional,
    Sequence, Set, Tuple, TYPE_CHECKING,
)

import numpy as np

from repro.analysis.plansafety import REDUCIBLE_OPS, reduce_fus
from repro.arch.funcunit import OPCODES, Opcode
from repro.arch.memsys import AllocationError, stream_slice
from repro.arch.switch import DeviceKind
from repro.codegen.generator import MachineProgram, PipelineImage, ResolvedInput
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
from repro.sim.fastpath import PLAN_CACHE
from repro.sim.streams import _ACCUMULATING

if TYPE_CHECKING:  # pragma: no cover
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
_M_FEEDBACK = 6    # general feedback: the element loop (_eval_feedback_batched)
_M_SKEWCOPY = 7    # copy a freshly-computed FU row into its skew pad
_M_COPY = 8        # PASS: copy the operand into the row

#: positions of the operand refs in each mode's step tuple (symbolic and
#: bound alike): the slot scan reads rows there and records the ones
#: bound to live storage views, which ``_refresh`` resolves
_OPERANDS = {
    _M_BINARY: (2, 3),
    _M_CONST: (2,),
    _M_UNARY: (2,),
    _M_FALLBACK: (4, 5),
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
    exchanges two arrays.  The storage numbers its arrangements of
    arrays over planes and cache roles: a swap that exchanges arrays
    steps :attr:`arrangement` to the number of the arrangement it leads
    to (two arrangements holding the same arrays in the same places
    share one number), and bound images key their resolved views by
    that number.  So the swap, not every issue, pays for noticing that
    storage moved; while images are bound, arrays change places only
    through these swaps.
    """

    def __init__(self) -> None:
        self.planes: Dict[int, np.ndarray] = {}
        self.cache_front: Dict[int, np.ndarray] = {}
        self.cache_back: Dict[int, np.ndarray] = {}
        self.variables: Dict[str, Any] = {}
        self._scratch: Dict[Tuple[int, ...], np.ndarray] = {}
        self.arrangement = 0
        # array identities -> arrangement number, and per move, number
        # -> the number that move leads to, learned on each move's first
        # run
        self._arrangements: Dict[Tuple[int, ...], int] = {}
        self._moves: Dict[Any, Dict[int, int]] = {}

    def _numbered(self, fresh: int) -> int:
        """The number of the arrangement held now; an arrangement seen
        for the first time takes *fresh*."""
        key = tuple([id(arr) for store in (self.planes, self.cache_front,
                                           self.cache_back)
                     for arr in store.values()])
        return self._arrangements.setdefault(key, fresh)

    def _move(self, move: Any, exchange: Callable[[], None]) -> None:
        """Run *exchange*, a swap of arrays keyed *move*, and step
        :attr:`arrangement` past it."""
        before = self.arrangement
        leads = self._moves.setdefault(move, {})
        after = leads.get(before)
        if after is None:
            if not self._arrangements:
                # every later arrangement is numbered as a move reaches
                # it; the one a run starts from, at its first move
                self._numbered(before)
            exchange()
            after = leads[before] = self._numbered(len(self._arrangements))
        else:
            exchange()
        self.arrangement = after

    def forget_arrangements(self) -> None:
        """Number arrangements afresh from the one held now, before a
        run binds its images: they key their views by numbers learned
        while they are bound, whatever replaced arrays before."""
        self.arrangement = 0
        self._arrangements.clear()
        for leads in self._moves.values():  # in place: swappers hold them
            leads.clear()

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

    def swap_caches(self, cache_ids: Tuple[int, ...]) -> None:
        """Exchange the front and back buffers of every held cache in
        *cache_ids*."""
        front, back = self.cache_front, self.cache_back

        def exchange() -> None:
            for cache_id in cache_ids:
                if cache_id in front:
                    front[cache_id], back[cache_id] = \
                        back[cache_id], front[cache_id]
        self._move(cache_ids, exchange)

    def var_swapper(self, va: Any, vb: Any) -> Callable[[], None]:
        """``SwapVars`` of *va* and *vb* on the local state, as a
        callable decided once: a whole-plane reference swap when each
        variable owns its stored plane outright (bound images re-resolve
        through their per-arrangement view caches, a dictionary hit),
        else three copies through a cached scratch row (reference
        semantics: relocation moves data, bindings never change)."""
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
            move = ("planes", a, b)  # cache moves are keyed by id tuples
            leads = self._moves.setdefault(move, {})
            storage = self

            def exchange() -> None:
                planes[a], planes[b] = planes[b], planes[a]

            def swap_planes() -> None:
                after = leads.get(storage.arrangement)
                if after is None:
                    storage._move(move, exchange)
                else:
                    planes[a], planes[b] = planes[b], planes[a]
                    storage.arrangement = after
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
    here: a service slab (a lone job is one row) and a hypercube's node
    stack.
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


def pad_extent(n: int, shifts: List[int]) -> Tuple[int, int]:
    """``(left pad, total words)`` of one zero-padded buffer whose
    length-*n* windows at every offset in *shifts* are shifted streams."""
    left = max(0, -min(shifts))
    return left, left + n + max(0, max(shifts))


def pad_window(padded: np.ndarray, left: int, shift: int, n: int) -> np.ndarray:
    """The view of *padded* (laid out by :func:`pad_extent`) that reads as
    ``shift_stream(src, shift)`` once ``pad_window(padded, left, 0, n)``
    holds ``src``: output[i] = src[i + shift], zero off either end.  Works
    row-wise on a batch (the shift runs along the last axis)."""
    return padded[..., left + shift : left + shift + n]


#: DeviceKind -> its name, read without the enum's ``name`` property
_KIND_NAMES = {kind: kind.name for kind in DeviceKind}
#: the device kinds the compiler tests for, read once (an enum member
#: lookup on its class costs a Python-level attribute fetch)
_MEMORY, _FU, _SHIFT_DELAY = (DeviceKind.MEMORY, DeviceKind.FU,
                              DeviceKind.SHIFT_DELAY)


def _charge_order(item: Tuple[Tuple[DeviceKind, int], int]) -> Tuple[str, str]:
    """The order ``repr`` gives ``((kind, device), cycles)`` charge items,
    without formatting enums: by kind name, then device number as text
    (keys are unique, and no kind name prefixes another)."""
    (kind, device), _cycles = item
    return _KIND_NAMES[kind], str(device)


# ----------------------------------------------------------------------
# per-image compilation
# ----------------------------------------------------------------------
class _IssueConsts(NamedTuple):
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

    Built in one walk over the :class:`PipelineImage`: each unit's
    resolved inputs become operand references, shifted shift/delay taps
    and skew pads are registered as they are first read (an unshifted
    tap reads its feeder's stream), and the walk that emits the steps
    and reads the DMA programs also gathers the row-slot liveness, the
    DMA charge table and the issue constants, so nothing walks them
    again.  Write-back units that qualify compute into their write view
    (:attr:`in_place`), PASS units that qualify bind their readers to
    their stream (:attr:`forwarded`), and loop-invariant steps run once
    per bind (:attr:`hoisted`; *moving_planes* are the memory planes
    the whole program writes or swaps), so an issue runs only
    :attr:`runs` (their runner operands: :attr:`runner_args`), a
    reduced condition's :attr:`chain` last and apart, if the condition
    has one (:mod:`repro.sim.settle`).  Per-run buffers live in the
    :class:`BoundImage` this produces.
    Residual stream skew (the ablation configuration) compiles to offset
    windows into zero-padded copies of the skewed source — streams share
    their feeder's pad, FU rows and taps get pads of their own — so a
    skewed operand costs one copy, exactly like a shifted tap.  Raises
    :class:`FusionUnsupported` for the faults the reference interpreter
    reports at issue (a unit with two feedback inputs, a unary feedback
    unit, an unconnected input, an unread stream or shift/delay feeder,
    an unconfigured tap, a write-back from a silent unit) and for
    constructs the fused executor does not model (mismatched stream
    lengths, zero-length vectors).

    The folded units come from
    :func:`repro.analysis.plansafety.reduce_fus`.
    """

    __slots__ = (
        "index", "image", "params", "n", "reads",
        "reduce_fus", "steps", "writes", "feeder_pads", "row_pads",
        "tap_pads", "condition", "cond_fn", "cond_threshold", "in_place",
        "forwarded", "hoisted", "runs", "live_steps", "slot_of",
        "scratch_slot", "n_slots", "consts", "chain", "runner_args",
        "runner_shape", "runner_code",
        # the walk's lookups, unset once the kernel is built
        "_read_index", "_taps", "_stream_skews", "_row_skews", "_tap_skews",
    )

    def __init__(self, index: int, image: PipelineImage, params: Any,
                 moving_planes: AbstractSet[int]) -> None:
        self.index = index
        self.image = image
        self.params = params
        n = self.n = image.vector_length
        reads = self.reads = list(image.read_programs.items())
        # an image with no units (a mask load) has nothing to fold
        self.reduce_fus = reduce_fus(image) if image.fu_order \
            else frozenset()
        cond = image.condition
        cond_fu = cond.fu if cond is not None else None
        # PASS units whose readers bind to the PASS's own operand, a read
        # stream or unshifted tap, as {fu: that stream's ref}: as on the
        # machine, a unit that only relays a stream stores nothing, and
        # a skewed read of it is a skewed read of the stream (see _ref).
        # A PASS qualifies unless the condition reads its row after the
        # runner; it emits no step.
        self.forwarded: Dict[int, _Ref] = {}
        # loop-invariant hoisting: a ufunc step whose operands are
        # constants, streams of memory planes nothing in the run moves
        # (no issued image writes them and no SwapVars names them; see
        # ProgramPlan), or rows of other hoisted steps computes the same
        # row on every issue.  It runs once per bound image, before the
        # first runner call, into a slot pinned for the whole run.  Cache
        # reads never qualify (a CacheSwap exchanges their buffers).
        fixed = {  # the read streams a hoisted step may read
            i for i, (_ep, prog) in enumerate(reads)
            if prog.spec.device_kind is _MEMORY
            and prog.spec.device not in moving_planes
        }
        hoisted: Set[int] = set()  # units
        hoisted_steps: List[int] = []
        # build-time lookups, dropped once the walk is done.  Skewed
        # operands (ablation builds) are windows into padded copies:
        # streams share their feeder's pad; FU rows and taps pad their
        # own buffer, filled by an in-line copy (_M_SKEWCOPY for rows, an
        # extra tap-load pair for taps).
        self._read_index = {ep: i for i, (ep, _p) in enumerate(reads)}
        self._taps: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._stream_skews: Dict[Tuple[int, int], Tuple] = {}
        self._row_skews: Dict[Tuple[int, int], Tuple] = {}
        self._tap_skews: Dict[Tuple[Any, int], Tuple] = {}
        produced: Set[int] = set()
        pending: List[int] = []  # row pads the current step registered
        copied: Set[int] = set()  # rows whose pad copy is emitted

        # symbolic step descriptors, and the slot scan's first pass as
        # they are emitted: the units each step reads (operand order),
        # every unit's last reader, the stream operand positions (bound
        # to live storage) and each row read's position (live too if its
        # unit computes in place)
        steps: List[Tuple] = []
        self.steps = steps
        step_rows: List[Tuple[int, ...]] = []
        last_read: Dict[int, int] = {}
        live: Dict[int, Tuple[int, ...]] = {}
        row_reads: List[Tuple[int, int, int]] = []
        ufunc_step: Dict[int, int] = {}  # unit -> its out= ufunc step
        forms: List[str] = []  # the _STEP_TEXT form of each step it runs

        def emit(step: Tuple, form: str, a: _Ref,
                 b: Optional[_Ref] = None) -> bool:
            """Append *step* and its liveness; return whether every
            operand is invariant (a constant, a fixed stream or a
            hoisted row)."""
            i = len(steps)
            steps.append(step)
            forms.append(form)
            positions = _OPERANDS[step[0]]
            rows: Tuple[int, ...] = ()
            kind = a[0]
            if kind == "row":
                rows = (a[1],)
                last_read[a[1]] = i
                row_reads.append((i, positions[0], a[1]))
                invariant = a[1] in hoisted
            elif kind == "stream":
                live[i] = (positions[0],)
                invariant = a[1] in fixed
            else:
                invariant = kind == "const"
            if b is not None:
                kind = b[0]
                if kind == "row":
                    rows += (b[1],)
                    last_read[b[1]] = i
                    row_reads.append((i, positions[1], b[1]))
                    invariant = invariant and b[1] in hoisted
                elif kind == "stream":
                    live[i] = live.get(i, ()) + (positions[1],)
                    invariant = invariant and b[1] in fixed
                else:
                    invariant = invariant and kind == "const"
            step_rows.append(rows)
            return invariant

        def flush_row_copies() -> None:
            # the pad-fill copies for row skews the current step's
            # operands just registered: after the producer, before the
            # consumer
            for fu in pending:
                last_read[fu] = len(steps)
                step_rows.append((fu,))
                steps.append((_M_SKEWCOPY, fu))
                forms.append("c")
            pending.clear()

        inputs = image.inputs
        fu_ops = image.fu_ops
        for fu in image.fu_order:
            opcode, constant = fu_ops[fu]
            mode, kernel, arity, uses_constant, form = _LOWERINGS[opcode]
            in_a = inputs.get((fu, "a"))
            in_b = inputs.get((fu, "b"))
            fb_a = in_a is not None and in_a.kind == "feedback"
            fb_b = in_b is not None and in_b.kind == "feedback"
            if fb_a or fb_b:
                if fb_a and fb_b:
                    raise FusionUnsupported(
                        f"fu{fu}: both inputs are feedback loops")
                fb, data = (in_a, in_b) if fb_a else (in_b, in_a)
                if data is None:
                    raise FusionUnsupported(
                        f"fu{fu}: feedback loop with no data input")
                if arity != 2:
                    raise FusionUnsupported(
                        f"feedback requires a binary operation, "
                        f"not {opcode.value}")
                descr = self._ref(data, produced, pending, copied)
                if pending:
                    flush_row_copies()
                step = self._feedback_step(
                    fu, opcode, descr, "a" if fb_a else "b", float(fb.value))
                emit(step, _step_form(step), descr)
                produced.add(fu)
                continue

            if in_a is None:
                raise FusionUnsupported(f"fu{fu}: input a unconnected")
            a = self._ref(in_a, produced, pending, copied)
            b: Optional[_Ref] = None
            if arity == 2 and not uses_constant:
                if in_b is None:
                    raise FusionUnsupported(f"fu{fu}: input b unconnected")
                b = self._ref(in_b, produced, pending, copied)
            if pending:
                flush_row_copies()
            if mode == _M_BINARY:
                step = (mode, kernel, a, b, fu)
            elif mode == _M_CONST:
                step = (mode, kernel, a, float(constant), fu)
            elif mode == _M_UNARY:
                step = (mode, kernel, a, fu)
            else:
                step = None
            if step is not None:  # an out= ufunc
                i = ufunc_step[fu] = len(steps)
                if emit(step, form, a, b):
                    hoisted.add(fu)
                    hoisted_steps.append(i)
                    forms.pop()  # the runner does not run it
            elif mode == _M_COPY:
                if a[0] == "stream" and fu != cond_fu:
                    self.forwarded[fu] = a
                else:
                    emit((mode, a, fu), form, a)
            else:
                emit((mode, kernel, arity,
                      constant if uses_constant else None, a, b, fu),
                     form, a, b)
            produced.add(fu)

        # write-back: (src ref, prog, width actually written), each
        # write's DMA charge, and how many writes share a source or fill
        # one plane or cache buffer (an in-place unit's write shares
        # neither)
        charges: Dict[Tuple[DeviceKind, int], int] = {}
        busy = words_written = 0
        sources: Dict[_Ref, int] = {}
        fills: Dict[Tuple[DeviceKind, int], int] = {}
        writes: List[Tuple[_Ref, Any, int]] = []
        self.writes = writes
        for driver, _sink, prog in image.write_programs:
            if driver.kind is _FU:
                if driver.device not in image.fu_ops:
                    raise FusionUnsupported(
                        f"write-back from fu{driver.device}, "
                        f"which produced nothing")
                src: _Ref = self.forwarded.get(driver.device,
                                               ("row", driver.device))
            elif driver.kind is _SHIFT_DELAY:
                src = self._tap(driver.device, int(driver.port[3:]))
            else:
                read_index = self._read_index.get(driver)
                if read_index is None:
                    raise FusionUnsupported(
                        f"write-back from unread stream {driver}")
                src = ("stream", read_index)
            width = min(n, prog.count)
            writes.append((src, prog, width))
            spec = prog.spec
            array = (spec.device_kind, spec.device)
            cost = prog.cycles(params)
            busy += cost
            charges[array] = charges.get(array, 0) + cost
            words_written += width
            sources[src] = sources.get(src, 0) + 1
            fills[array] = fills.get(array, 0) + 1

        if n <= 0:
            raise FusionUnsupported("zero-length vector")
        words_read = 0
        for _ep, prog in reads:
            if prog.count != n:
                raise FusionUnsupported("stream length differs from vector")
            spec = prog.spec
            array = (spec.device_kind, spec.device)
            cost = prog.cycles(params)
            busy += cost
            charges[array] = charges.get(array, 0) + cost
            words_read += n

        # taps: every shifted stream is a window into one zero-padded copy
        # of its feeder, so a 7-tap stencil costs one copy, not seven —
        # the pad supplies shift_stream's zero fill on both ends.  Skewed
        # stream operands ride the same pads as extra windows.
        by_feeder: Dict[int, List[Tuple[Any, int]]] = {}
        for key, (read_index, shift) in self._taps.items():
            if shift:  # an unshifted tap reads its feeder's stream
                by_feeder.setdefault(read_index, []).append((key, shift))
        for (read_index, skew), view_key in self._stream_skews.items():
            by_feeder.setdefault(read_index, []).append((view_key, skew))
        # (read_index, left pad, total padded words, [(tap key, shift)...])
        self.feeder_pads: List[Tuple[int, int, int, List[Tuple[Any, int]]]] = []
        for read_index, tap_list in sorted(by_feeder.items()):
            left, total = pad_extent(n, [s for _k, s in tap_list])
            self.feeder_pads.append((read_index, left, total, tap_list))
        # second-level pads: skewed views of FU rows and of taps
        self.row_pads = self._second_level_pads(self._row_skews)
        self.tap_pads = self._second_level_pads(self._tap_skews)
        del (self._read_index, self._taps, self._stream_skews,
             self._row_skews, self._tap_skews)

        if cond is not None and cond.fu not in produced:
            raise FusionUnsupported("condition watches a silent unit")
        self.condition = cond
        if cond is not None:
            # ConditionSpec.evaluate builds a dict per call; hoist the
            # comparison once (identical float semantics)
            self.cond_fn = _COMPARATORS[cond.comparison]
            self.cond_threshold = cond.threshold

        # write-back units that compute straight into their write view,
        # as {fu: write index}.  As on the machine, where one DMA takes a
        # unit's result to memory, such a unit owns no row: its ufunc's
        # out and its later readers bind to the write's live view, and
        # the write's copy is dropped.  A unit qualifies when it feeds
        # exactly one write, a full-width one to a stride-1 destination
        # that no other write of the image fills (another could overlap
        # it); its step is a ufunc with an out buffer that runs every
        # issue (not hoisted: a hoisted row is computed once, and its
        # write copies it each issue); and nothing reads its row after
        # the runner or through a copy — it is not reduced, not the
        # condition unit and not skew-padded.  Reads
        # never alias a write (touched_extents declines that), so
        # computing a write early changes no value.
        in_place: Dict[int, int] = {}
        for j, (src, prog, width) in enumerate(writes):
            spec = prog.spec
            if src[0] == "row" and width == n and spec.stride == 1 \
                    and src[1] in ufunc_step and src[1] not in hoisted \
                    and src[1] not in copied and src[1] != cond_fu \
                    and sources[src] == 1 \
                    and fills[(spec.device_kind, spec.device)] == 1:
                in_place[src[1]] = j
        self.in_place = in_place
        # the steps that run on every issue: all but the hoisted ones
        self.hoisted = tuple(hoisted_steps)
        runs = list(range(len(steps)))
        for i in reversed(hoisted_steps):
            del runs[i]
        self.runs = tuple(runs)

        # the step positions bound to live storage: stream operands, and
        # an in-place unit's row wherever it is read or computed
        for i, pos, fu in row_reads:
            if fu in in_place:
                live[i] = live.get(i, ()) + (pos,)
        for fu in in_place:
            i = ufunc_step[fu]
            live[i] = live.get(i, ()) + (len(steps[i]) - 1,)
        self.live_steps = tuple((i,) + live[i] for i in sorted(live))

        # row slots.  Units pass results through the switch without
        # storing them, so a row needs a buffer only from its producing
        # step to its last reader: the scan below frees a slot after its
        # last read, and the reading step may write its own output into
        # it (elementwise kernels are exact in place).  Rows read after
        # the runner are *pinned* to a slot of their own for the whole
        # issue: the condition row and write-back sources.  A hoisted row
        # is pinned for the whole run: it is computed once, at bind.  An
        # in-place unit owns no slot (its row is its write view), nor
        # does a forwarded PASS (its row is its stream), nor a reduced
        # unit (it keeps only its final).
        pinned = set(hoisted)
        for src, _prog, _width in writes:
            if src[0] == "row":
                pinned.add(src[1])
        if cond is not None and cond.fu not in self.reduce_fus:
            pinned.add(cond.fu)
        held = [f for f in image.fu_order if f in pinned and f not in in_place]
        slot_of = dict(zip(held, range(len(held))))
        # the units the scan below leaves alone: pinned or in place (a
        # forwarded PASS has no step)
        assigned = slot_of.keys() | in_place.keys()
        n_slots = len(slot_of)
        free: List[int] = []  # a stack: the freshest (cache-hot) slot first
        scratch_slot: Dict[int, int] = {}
        for i, step in enumerate(steps):
            for fu in step_rows[i]:
                if last_read[fu] == i and fu not in pinned:
                    free.append(slot_of[fu])
                    last_read[fu] = -1  # freed once, if read twice here
            mode = step[0]
            if mode == _M_REDUCE:
                if step[2]:  # the |x| scratch lives for this step only
                    if free:
                        slot = free.pop()
                    else:
                        slot, n_slots = n_slots, n_slots + 1
                    scratch_slot[step[5]] = slot
                    free.append(slot)
            elif mode != _M_SKEWCOPY and step[-1] not in assigned:
                # (an unread unit keeps its slot to the end of the issue)
                if free:
                    slot_of[step[-1]] = free.pop()
                else:
                    slot_of[step[-1]], n_slots = n_slots, n_slots + 1
        self.slot_of = slot_of
        self.scratch_slot = scratch_slot
        self.n_slots = n_slots

        # analytic per-issue accounting, matching the DMA engine's:
        # controllers run in parallel and transfers on one device
        # serialize, so the DMA makespan is the busiest device's charge
        dma_cycles = max(charges.values(), default=0)
        cycles = instruction_cycles(image.total_cycles, dma_cycles, params)
        self.consts = _IssueConsts(
            self.index, image.number, f"pipeline{image.number}", cycles,
            image.total_cycles, dma_cycles, image.total_flops, n,
            len(image.fu_ops), len(reads) + len(writes), words_read,
            words_written, busy,
            tuple(sorted(charges.items(), key=_charge_order)),
        )
        text = "".join(forms)
        self.runner_args = _runner_args(self.runs, text)
        # the trailing steps that only feed a reduced condition, which
        # the script walk may settle without running them
        self.chain = None
        if cond is not None and cond.fu in self.reduce_fus:
            self.chain = settle.condition_chain(self, forms, pinned, copied)
            if self.chain is not None:
                text = text[:len(text) - len(self.chain.steps)]
        # what the runner's text depends on (see _runner_code): one tap
        # load per feeder and tap pad, one form per step it runs before
        # a chain, one copy per write not computed in place, the chain
        self.runner_shape: Tuple[Any, ...] = (
            len(self.feeder_pads) + len(self.tap_pads),
            text,
            len(writes) - len(in_place),
        )
        if self.chain is not None:
            self.runner_shape += (self.chain.shape,)
        self.runner_code = _runner_code(self.runner_shape)

    # ------------------------------------------------------------------
    def _feedback_step(self, fu: int, opcode: Opcode, descr: _Ref,
                       port: str, init: float) -> Tuple:
        """A feedback unit's step: a pure reduction when only its final
        value is read, else an accumulating ufunc or the element loop."""
        if fu in self.reduce_fus:
            ufunc, use_abs = _REDUCIBLE[opcode]
            # eval_feedback seeds |init| for the ABS variants
            seed = abs(init) if use_abs else init
            return (_M_REDUCE, ufunc, use_abs, descr, seed, fu)
        accum = _ACCUMULATING.get(opcode)
        if accum is not None:
            return (_M_ACCUM, accum, False, descr, init, fu)
        if opcode in (Opcode.MAXABS, Opcode.MINABS):
            base = np.maximum if opcode is Opcode.MAXABS else np.minimum
            return (_M_ACCUM, base, True, descr, abs(init), fu)
        return (_M_FEEDBACK, OPCODES[opcode].kernel, descr, port, init, fu)

    def _tap(self, unit: int, tap: int) -> _Ref:
        """The operand a shift/delay tap reads: its feeder's stream itself
        when the tap's shift is 0, else a window into the feeder's pad.
        A missing or unread feeder and an unconfigured tap raise, shifted
        or not."""
        key = (unit, tap)
        entry = self._taps.get(key)
        if entry is None:
            image = self.image
            feeder = image.sd_feeders.get(unit)
            if feeder is None:
                raise FusionUnsupported(
                    f"shift/delay unit {unit} has no input stream")
            read_index = self._read_index.get(feeder)
            if read_index is None:
                raise FusionUnsupported(
                    f"shift/delay unit {unit} fed by {feeder}, "
                    f"which was not read")
            shift = image.sd_shifts.get(key)
            if shift is None:
                raise FusionUnsupported(
                    f"sd[{unit}].tap{tap} used but not configured")
            entry = self._taps[key] = (read_index, shift)
        if entry[1] == 0:
            return ("stream", entry[0])
        return ("tap", key)

    def _stream_skew(self, read_index: int, skew: int) -> _Ref:
        """A skewed read of stream *read_index*: a window into its
        feeder's pad."""
        view_key = ("skew:stream", read_index, skew)
        self._stream_skews[(read_index, skew)] = view_key
        return ("tap", view_key)

    def _ref(self, resolved: ResolvedInput, produced: Set[int],
             pending: List[int], copied: Set[int]) -> _Ref:
        kind, skew = resolved.kind, resolved.skew
        if kind == "const":
            # the interpreters resolve constants before applying skew
            return ("const", resolved.value)
        if kind in ("fu", "internal"):
            fu = resolved.src_fu
            if fu not in produced:
                # the interpreters fault on this too ("needed before it was
                # produced"); let the stepped path report it
                raise FusionUnsupported(f"fu{fu} read before it was produced")
            forwarded = self.forwarded
            if forwarded and fu in forwarded:
                # a forwarded PASS is its stream, skew included
                stream = forwarded[fu]
                return stream if skew == 0 \
                    else self._stream_skew(stream[1], skew)
            if skew == 0:
                return ("row", fu)
            # residual skew (ablation mode): the shifted view is a window
            # into a zero-padded copy of the source, like any other tap
            view_key = ("skew:row", fu, skew)
            if (fu, skew) not in self._row_skews:
                self._row_skews[(fu, skew)] = view_key
                if fu not in copied:
                    copied.add(fu)
                    pending.append(fu)
            return ("tap", view_key)
        if kind in ("mem", "cache"):
            ep = resolved.endpoint
            read_index = self._read_index.get(ep)
            if read_index is None:
                raise FusionUnsupported(f"stream for {ep} was not read")
            if skew == 0:
                return ("stream", read_index)
            return self._stream_skew(read_index, skew)
        if kind == "sd":
            ep = resolved.endpoint
            tap = self._tap(ep.device, int(ep.port[3:]))
            if skew == 0:
                return tap
            if tap[0] == "stream":
                # an unshifted tap is its feeder's stream, skew included
                return self._stream_skew(tap[1], skew)
            view_key = ("skew:tap", tap[1], skew)
            self._tap_skews[(tap[1], skew)] = view_key
            return ("tap", view_key)
        raise FusionUnsupported(f"unresolvable input kind {kind!r}")

    def _second_level_pads(
        self, skews: Dict[Tuple[Any, int], Tuple]
    ) -> List[Tuple[Any, int, int, List[Tuple[Any, int]]]]:
        """Group skewed views by their source into padded-buffer specs:
        ``(source key, left pad, total padded words, [(view key, skew)])``."""
        if not skews:  # balanced builds skew nothing
            return []
        by_source: Dict[Any, List[Tuple[Any, int]]] = {}
        for (source, skew), view_key in skews.items():
            by_source.setdefault(source, []).append((view_key, skew))
        pads: List[Tuple[Any, int, int, List[Tuple[Any, int]]]] = []
        for source, views in sorted(by_source.items(), key=repr):
            left, total = pad_extent(self.n, [s for _k, s in views])
            pads.append((source, left, total, views))
        return pads

    # ------------------------------------------------------------------
    def touched_extents(
        self,
        variables: Dict[str, "_HomeVar"],
        plane_extent: Dict[int, int],
        cache_extent: Dict[int, int],
    ) -> None:
        """Accumulate the address extents this image touches.

        *variables* maps name -> home (plane, offset, ...); symbolic
        programs resolve through it.  Raises :class:`FusionUnsupported`
        on negative addresses, unknown variables, or read/write aliasing
        the fused issue cannot express (the fallback path reports those
        at reference fidelity).
        """
        n_reads = len(self.reads)
        progs = [prog for _ep, prog in self.reads]
        progs += [prog for _src, prog, _width in self.writes]
        read_spans: List[Tuple[int, int, int]] = []  # (plane, lo, hi)
        for k, prog in enumerate(progs):
            spec = prog.spec
            name = spec.variable
            if name is None:
                base = prog.base_offset
            else:
                home = variables.get(name)
                if home is None:
                    raise FusionUnsupported(f"unresolved variable {name!r}")
                if home.plane != spec.device:
                    raise FusionUnsupported("variable relocated off its plane")
                base = home.offset + spec.offset
            # the lowest and highest+1 words the address walk touches
            count = prog.count
            if count:
                last = base + (count - 1) * spec.stride
                lo, hi = (base, last + 1) if last >= base else (last, base + 1)
            else:
                lo = hi = base
            if lo < 0:
                raise FusionUnsupported("negative DMA address")
            device = spec.device
            if spec.device_kind is not _MEMORY:
                if hi >= cache_extent.get(device, 0):
                    cache_extent[device] = hi
                continue
            if hi >= plane_extent.get(device, 0):
                plane_extent[device] = hi
            if k < n_reads:
                read_spans.append((device, lo, hi))
                continue
            # the fused issue streams reads as live views, which is only
            # sound when no write destination overlaps a read stream;
            # cache traffic cannot alias — reads stream the front buffer,
            # writes fill the back
            for plane, rlo, rhi in read_spans:
                if plane == device and lo < rhi and rlo < hi:
                    raise FusionUnsupported("write-back aliases a read stream")

    def bind(self, storage: _Storage,
             batch_shape: Tuple[int, ...]) -> "BoundImage":
        return BoundImage(self, storage, batch_shape)


def _eval_feedback_batched(fn: Callable[..., Any], x: np.ndarray,
                           feedback_port: str, init: float) -> np.ndarray:
    """:func:`repro.sim.streams.eval_feedback`'s element loop over a
    ``(rows, n)`` batch, for a binary unit with no accumulating ufunc.

    Row *i* of the result is bit-identical to the 1-D evaluation of row
    *i*: each step applies the unit's kernel to one column.
    """
    rows, n = x.shape
    out = np.empty((rows, n), dtype=np.float64)
    prev = np.full(rows, init, dtype=np.float64)
    if feedback_port == "b":
        for i in range(n):
            prev = np.asarray(fn(x[:, i], prev), dtype=np.float64)
            out[:, i] = prev
    else:
        for i in range(n):
            prev = np.asarray(fn(prev, x[:, i]), dtype=np.float64)
            out[:, i] = prev
    return out


#: Kernel shapes whose compiled runner code stays resident.
RUNNER_CODE_SIZE = 256

#: One runner line per step form: the parameter prefixes the step binds
#: (its bound op's operands after the mode, in order) and the statement
#: that uses them.
_STEP_TEXT = {
    # ufuncs take ``out`` positionally (no kwarg parsing), except
    # maximum/minimum, which deprecate a positional out
    "p": ("fabo", "_f{i}(_a{i}, _b{i}, _o{i})"),
    "k": ("fabo", "_f{i}(_a{i}, _b{i}, out=_o{i})"),
    "u": ("fao", "_f{i}(_a{i}, _o{i})"),
    "c": ("ao", "_copyto(_o{i}, _a{i})"),
    "g": ("g", "_g{i}()"),
}

#: per form, the end of the operands an inline step binds from its bound
#: op (``op[1:end]``); 0 for a closure ("g": steps of the other modes)
_ARG_END = {form: 1 + len(prefixes) for form, (prefixes, _line)
            in _STEP_TEXT.items()}
_ARG_END["g"] = 0


@functools.lru_cache(maxsize=RUNNER_CODE_SIZE)
def _runner_args(runs: Tuple[int, ...], forms: str
                 ) -> Tuple[Tuple[int, int], ...]:
    """``(step, operand end)`` of each step in *runs*, whose runner
    forms are *forms*, in the runner's parameter order
    (:attr:`ImageKernel.runner_args`); shared by the kernels of one
    layout."""
    return tuple(zip(runs, [_ARG_END[form] for form in forms]))


def _step_form(op: Tuple) -> str:
    """The ``_STEP_TEXT`` form of one step (kernel or bound: both lead
    with the mode, then the ufunc for the modes that call one): its mode,
    plus the ``out=`` keyword flag for two-operand calls."""
    mode = op[0]
    if mode == _M_BINARY or mode == _M_CONST:
        return "k" if op[1] in _OUT_KWARG else "p"
    if mode == _M_UNARY:
        return "u"
    return "c" if mode == _M_COPY or mode == _M_SKEWCOPY else "g"


def _lowering(opcode: Opcode) -> Tuple[int, Any, int, bool, str]:
    """``(mode, kernel, arity, uses constant, form)`` of a non-feedback
    unit's step: an ``out=`` ufunc where one computes the opcode, a copy
    for ``PASS``, else the opcode's own (allocating) kernel; *form* is
    the step's ``_STEP_TEXT`` form."""
    info = OPCODES[opcode]
    if info.uses_constant and opcode in _CONST_UFUNCS:
        step = (_M_CONST, _CONST_UFUNCS[opcode])
    elif not info.uses_constant and info.arity == 2 \
            and opcode in _BINARY_UFUNCS:
        step = (_M_BINARY, _BINARY_UFUNCS[opcode])
    elif not info.uses_constant and info.arity == 1 \
            and opcode in _UNARY_UFUNCS:
        step = (_M_UNARY, _UNARY_UFUNCS[opcode])
    elif opcode is Opcode.PASS:
        step = (_M_COPY, None)
    else:
        step = (_M_FALLBACK, info.kernel)
    return step + (info.arity, info.uses_constant, _step_form(step))


#: every opcode's step form, looked up once per unit by the lowering walk
_LOWERINGS = {opcode: _lowering(opcode) for opcode in OPCODES}


@functools.lru_cache(maxsize=RUNNER_CODE_SIZE)
def _runner_code(shape: Tuple[Any, ...]) -> CodeType:
    """The runner code object for one kernel shape.

    *shape* is ``(taps, forms, writes)``: the tap-load count, one
    ``_STEP_TEXT`` form per step, and the write-back count; a kernel
    with a condition chain appends the chain's shape
    (:attr:`repro.sim.settle.Chain.shape`).  Those are all the runner's
    text depends on (never the grid size, tolerance or which ufunc a
    step calls), so parameter names and source are formatted here, once
    per shape, and every kernel of the shape shares the code.  The parameters are ``_copyto``, each tap's
    destination and source, each step's operands (a chain's last),
    then each write's destination and source; a bound issue passes its
    operands in that order as the argument defaults.  Compiling without
    executing leaves them unbound.  With a chain, ``_rows`` and ``_wit``
    follow, then the chain's own parameters
    (:func:`repro.sim.settle.condition_text`):
    called bare the runner runs the issue up to the chain, and called
    with those two it runs the chain's condition.
    """
    taps, forms, writes, *chain = shape
    params = ["_copyto"]
    body = []
    for j in range(taps):
        params += (f"_td{j}", f"_ts{j}")
        body.append(f"_copyto(_td{j}, _ts{j})")
    for i, form in enumerate(forms + chain[0][5] if chain else forms):
        prefixes, line = _STEP_TEXT[form]
        params += (f"_{p}{i}" for p in prefixes)
        if i < len(forms):  # a chain's steps run in its own entry
            body.append(line.format(i=i))
    for j in range(writes):
        params += (f"_wd{j}", f"_ws{j}")
        body.append(f"_copyto(_wd{j}, _ws{j})")
    if chain:
        names, lines = settle.condition_text(chain[0], len(forms))
        params += ["_rows", "_wit"] + names
        body = ["if _wit is None:"] + [f"    {line}" for line in body] \
            + ["    return None"] + lines
    if not body:
        body.append("pass")
    src_text = (
        "def _runner(" + ", ".join(f"{n}={n}" for n in params) + "):\n"
        + "".join(f"    {line}\n" for line in body)
    )
    module = compile(src_text, "<runner>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


class BoundImage:
    """One image bound to a run's storage: buffers allocated, views live.

    Views and the runner over them are resolved once per storage
    *arrangement* (see :class:`_Storage`): an issue compares the
    storage's arrangement number with the one its views were resolved
    for, and only after a swap that moved arrays does it pick up another
    arrangement's views or resolve new ones — no per-issue walk over the
    arrays it touches.
    """

    def __init__(self, kernel: ImageKernel, storage: _Storage,
                 batch_shape: Tuple[int, ...]) -> None:
        self.kernel = kernel
        self.storage = storage
        self.batch_shape = batch_shape
        n = kernel.n
        # one contiguous block of row slots (see ImageKernel): rows that
        # die mid-issue share slots, so a sweep image's working set stays
        # a few rows wide
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
            self._pad_centers.append((pad_window(padded, left, 0, n), read_index))
            for key, shift in tap_list:
                self._tap_views[key] = pad_window(padded, left, shift, n)
        # second-level pads for skewed operands: tap skews are filled right
        # after the feeder pads each issue (their source is a tap view);
        # row skews are filled in-line by _M_SKEWCOPY steps as soon as the
        # producing row lands
        self._static_tap_pairs: List[Tuple[np.ndarray, np.ndarray]] = []
        for tap_key, left, total, views in kernel.tap_pads:
            padded = aligned_zeros(batch_shape + (total,))
            self._static_tap_pairs.append(
                (pad_window(padded, left, 0, n), self._tap_views[tap_key])
            )
            for view_key, skew in views:
                self._tap_views[view_key] = pad_window(padded, left, skew, n)
        self._row_pad_centers: Dict[int, np.ndarray] = {}
        for fu, left, total, views in kernel.row_pads:
            padded = aligned_zeros(batch_shape + (total,))
            self._row_pad_centers[fu] = pad_window(padded, left, 0, n)
            for view_key, skew in views:
                self._tap_views[view_key] = pad_window(padded, left, skew, n)
        self._seeded: Dict[int, np.ndarray] = {}
        self._finals: Dict[int, Any] = {}
        self._closures: Dict[int, Any] = {}  # step index -> its closure
        for step in kernel.steps:
            if step[0] == _M_ACCUM:
                self._seeded[step[5]] = aligned_empty(batch_shape + (n + 1,))
        self._consts: Dict[bytes, np.ndarray] = {}
        self._streams: List[np.ndarray] = []
        self._runner: Any = None
        # each row's witness positions (see repro.sim.settle)
        self._witnesses: List[Tuple[int, ...]] = [()] * batch_shape[0] \
            if kernel.chain is not None else []
        self._tap_live: List[Tuple[np.ndarray, np.ndarray]] = []
        self._write_pairs: List[Tuple[np.ndarray, np.ndarray]] = []
        # resolved views and runner per storage arrangement (see
        # _Storage): a swap selects another arrangement, and the issue
        # after it re-resolves once or picks up its earlier views
        self._states: Dict[int, Tuple] = {}
        self._arrangement: Optional[int] = None
        # pre-resolve every operand that does not depend on storage state;
        # the rest are int indices into the live views (read streams,
        # then write views), at the kernel's live_steps positions
        self._ops: List[Any] = [self._bind_step(step)
                                for step in kernel.steps]
        # the condition read: the unit's pinned slot (a condition unit
        # never computes in place), or its reduced final
        self._one_row = batch_shape == (1,)
        cond = kernel.condition
        self._cond_fu = None if cond is None else cond.fu
        self._cond_row = (
            None if cond is None or cond.fu in kernel.reduce_fus
            else self._row(cond.fu)
        )

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

    def _row(self, fu: int) -> Any:
        """*fu*'s row slot, or for an in-place unit the int index of its
        write view among the live views."""
        kernel = self.kernel
        slot = kernel.slot_of.get(fu)
        if slot is None:
            return len(kernel.reads) + kernel.in_place[fu]
        return self._slots[slot]

    def _operand(self, ref: _Ref) -> Any:
        """Static ndarray, or an int index into the live views."""
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
            _m, fn, arity, constant, a, b, fu = step
            return (mode, fn, arity, constant, self._operand(a),
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
        _m, fn, descr, port, init, fu = step
        return (mode, fn, self._operand(descr), port, init, self._row(fu))

    def _refresh(self) -> None:
        """Re-resolve storage views and rebuild the live op list.

        Views go stale only when a swap exchanges storage arrays, so this
        runs once per storage arrangement — the per-issue loop then
        touches nothing but concrete arrays.  Read streams and write
        views are the live views; in-place units compute into theirs.
        """
        storage = self.storage
        kernel = self.kernel
        variables = storage.variables
        planes = storage.planes
        streams: List[np.ndarray] = []
        for _ep, prog in kernel.reads:
            spec = prog.spec
            if spec.variable is not None:
                base = variables[spec.variable].offset + spec.offset
            else:
                base = prog.base_offset
            arr = (planes if spec.device_kind is _MEMORY
                   else storage.cache_front)[spec.device]
            streams.append(arr[..., stream_slice(base, prog.count, spec.stride)])
        self._streams = streams
        views: List[np.ndarray] = []
        for _src, prog, width in kernel.writes:
            spec = prog.spec
            if spec.variable is not None:
                base = variables[spec.variable].offset + spec.offset
            else:
                base = prog.base_offset
            arr = (planes if spec.device_kind is _MEMORY
                   else storage.cache_back)[spec.device]
            views.append(arr[..., stream_slice(base, width, spec.stride)])

        live = streams + views
        ops = list(self._ops)
        for i, *positions in kernel.live_steps:
            resolved = list(ops[i])
            for pos in positions:
                resolved[pos] = live[resolved[pos]]
            ops[i] = tuple(resolved)
        if not self._states:
            # the first arrangement: compute the hoisted rows, once per
            # bind (their operands never move, so later arrangements
            # read the same values)
            for i in kernel.hoisted:
                op = ops[i]
                op[1](*op[2:-1], out=op[-1])
        self._tap_live = [
            (center, streams[read_index])
            for center, read_index in self._pad_centers
        ] + self._static_tap_pairs
        pairs: List[Tuple[np.ndarray, np.ndarray]] = []
        in_place = kernel.in_place
        for (kind, key), view in zip(
            (w[0] for w in kernel.writes), views
        ):
            if kind == "row" and key in in_place:
                continue  # computed straight into its view
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

        Tap loads, the kernel calls of every step it runs per issue
        (:attr:`ImageKernel.runs`), and the write-backs become a
        straight line of statements with all operands bound as argument
        defaults (local loads, no dispatch); non-ufunc steps (feedback,
        reductions, exotic kernels) drop to closures.  A condition
        chain's steps are the function's second entry
        (:meth:`issue_condition`), which also reads the chain's own
        operands.  The code object
        comes from the kernel's ``runner_shape`` (see
        :func:`_runner_code`), looked up once per kernel; each
        arrangement only gathers its operands.
        """
        kernel = self.kernel
        defaults: List[Any] = [np.copyto]
        for pair in self._tap_live:
            defaults += pair
        static, closures = self._ops, self._closures
        for i, end in kernel.runner_args:
            if end:
                defaults += ops[i][1:end]
                continue
            op = ops[i]
            if op is static[i]:
                # bound to no live view: one closure serves every
                # arrangement
                run = closures.get(i)
                if run is None:
                    run = closures[i] = self._make_closure(op)
                defaults.append(run)
            else:
                defaults.append(self._make_closure(op))
        for pair in self._write_pairs:
            defaults += pair
        chain = kernel.chain
        if chain is not None:
            # _rows and _wit, then the chain's own operands
            # (repro.sim.settle.condition_text)
            reduce = ops[chain.steps[-1]]
            defaults += (None, None, kernel.cond_threshold, reduce[5],
                         self._finals, reduce[6] if reduce[2] else reduce[3])
            for i, pos in chain.operands:
                defaults.append(ops[i][pos])
        return FunctionType(kernel.runner_code, settle.GLOBALS, "_runner",
                            tuple(defaults))

    def _make_closure(self, op: Tuple) -> Any:
        """A zero-argument callable for one non-ufunc step."""
        mode = op[0]
        finals = self._finals
        if mode == _M_REDUCE:
            _m, ufunc, use_abs, a, init, fu, scratch = op
            # ndarray.max/min are Python wrappers around these reduces
            reduce = ufunc.reduce
            if not self._one_row:
                # the finals as a list of floats, one per row (what the
                # condition reads)
                def run() -> None:
                    x = a
                    if use_abs:
                        np.abs(x, out=scratch)
                        x = scratch
                    finals[fu] = ufunc(reduce(x, -1), init).tolist()
                return run
            # one stacked row reduces like one machine, to a Python float
            # folded with init as np.maximum / np.minimum fold scalars:
            # the first operand when it wins or is NaN, else the second
            # (a tie of signed zeros takes init's sign)
            wins = operator.gt if ufunc is np.maximum else operator.lt

            def run() -> None:
                x = a
                if use_abs:
                    np.abs(x, out=scratch)
                    x = scratch
                last = float(reduce(x, None))
                finals[fu] = [last if wins(last, init) or last != last
                              else init]
            return run
        if mode == _M_ACCUM:
            _m, ufunc, use_abs, a, init, seeded, out = op
            core = seeded[..., 1:]

            def run() -> None:
                seeded[..., 0] = init
                if use_abs:
                    np.abs(a, out=core)
                else:
                    core[...] = a
                ufunc.accumulate(seeded, axis=-1, out=seeded)
                out[...] = core
            return run
        if mode == _M_FALLBACK:
            _m, fn, arity, constant, a, b, out = op
            if constant is not None:
                def run() -> None:
                    out[...] = fn(a, constant)
            elif arity == 1:
                def run() -> None:
                    out[...] = fn(a)
            else:
                def run() -> None:
                    out[...] = fn(a, b)
            return run
        # _M_FEEDBACK
        _m, fn, a, port, init, out = op

        def run() -> None:
            out[...] = _eval_feedback_batched(fn, a, port, init)
        return run

    # ------------------------------------------------------------------
    def issue_compute(self) -> None:
        """One fused issue: taps, kernels, write-back — all but a
        condition chain, which :meth:`issue_condition` runs after."""
        arrangement = self.storage.arrangement
        if arrangement != self._arrangement:
            state = self._states.get(arrangement)
            if state is None:
                self._refresh()
                self._states[arrangement] = (
                    self._runner, self._streams, self._tap_live,
                    self._write_pairs,
                )
            else:
                (self._runner, self._streams, self._tap_live,
                 self._write_pairs) = state
            self._arrangement = arrangement
        self._runner()

    def issue_condition(self, rows: Optional[Sequence[int]]) -> bool:
        """Settle or compute the condition of a kernel with a chain
        (:attr:`ImageKernel.chain`), after :meth:`issue_compute`.

        True when every row in *rows* has a witness at which the chain's
        value fails the exit test, so the condition fires on none of
        them; else the chain and its reduction run, the witnesses of the
        rows in *rows* that did not fire are refreshed, and this returns
        False.  *rows* None runs the chain unconditionally (exact
        values for :meth:`condition_last`).
        """
        return self._runner(_rows=rows, _wit=self._witnesses)

    def condition_last(self) -> Optional[List[float]]:
        """The condition unit's final stream element of each row, as a
        fresh list of Python floats (None: no condition)."""
        fu = self._cond_fu
        if fu is None:
            return None
        last = self._cond_row
        if last is None:  # a reduced unit keeps only its final
            return self._finals[fu]
        return [last.item(-1)] if self._one_row else last[..., -1].tolist()


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

    The script is walked first, so each kernel is built knowing which
    memory planes the whole run moves (:attr:`moving_planes`: those an
    issued image writes or a ``SwapVars`` names): only steps over the
    other planes hoist.
    """

    def __init__(self, program: MachineProgram, params: Any) -> None:
        self.program = program
        self.params = params
        self.swap_names: Set[str] = set()
        self.cache_ids: Set[int] = set()
        issued: Dict[int, None] = {}  # image indices, in first-issue order
        self.ops = tuple(self._compile_block(program.control, issued))
        if not issued:
            # nothing to fuse; the plain walk is already trivial
            raise FusionUnsupported("program issues no pipelines")
        # the memory planes the run moves: written by an issued image or
        # holding a swapped variable.  A kernel hoists only steps that
        # read none of them (see ImageKernel); code that writes planes
        # outside the script (fused_stepper's halo copy) must write only
        # these
        images = program.images
        layout = program.variable_layout
        moving = {layout[name][0] for name in self.swap_names
                  if name in layout}
        for index in issued:
            for _driver, _sink, prog in images[index].write_programs:
                spec = prog.spec
                if spec.device_kind is _MEMORY:
                    moving.add(spec.device)
        self.moving_planes: FrozenSet[int] = frozenset(moving)
        self.kernels: Dict[int, ImageKernel] = {
            index: ImageKernel(index, images[index], params, moving)
            for index in issued
        }
        # variable homes per the generator's layout: every run's storage
        # binds them (stacked_storage)
        self.variables = home_variables(program)
        for name in self.swap_names:
            if name not in self.variables:
                raise FusionUnsupported(f"SwapVars on unmanaged {name!r}")
        self.plane_extent: Dict[int, int] = {}
        self.cache_extent: Dict[int, int] = {}
        for kernel in self.kernels.values():
            kernel.touched_extents(self.variables, self.plane_extent,
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
    def _compile_block(self, ops: Sequence[Any],
                       issued: Dict[int, None]) -> List[Tuple]:
        out: List[Tuple] = []
        for op in ops:
            if isinstance(op, ExecPipeline):
                index = op.pipeline
                if not (0 <= index < len(self.program.images)):
                    out.append((_S_BAD_ISSUE, index))
                    continue
                issued[index] = None
                out.append((_S_ISSUE, index))
            elif isinstance(op, Repeat):
                out.append((_S_REPEAT, op.times,
                            tuple(self._compile_block(op.body, issued))))
            elif isinstance(op, LoopUntil):
                out.append(
                    (_S_LOOP, tuple(self._compile_block(op.body, issued)),
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


class _HomeVar(NamedTuple):
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


class _Unfusable(NamedTuple):
    """Cached rejection: re-attempting compilation would fail identically.

    Holds its program, as a :class:`ProgramPlan` does, so the id in its
    cache key cannot be reused while the entry lives.  Equality, hash
    and repr read the reason alone."""

    reason: str
    program: MachineProgram

    def __eq__(self, other: object) -> bool:
        return type(other) is _Unfusable and self.reason == other.reason

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash((self.reason,))

    def __repr__(self) -> str:
        return f"_Unfusable(reason={self.reason!r})"


def compiled_plan(program: MachineProgram, params: Any) -> ProgramPlan:
    """Compile (or fetch from the shared cache) the program's fused plan.

    Plans are keyed by the program object, not its content: a service
    job reuses the plan of the compiled program its cache handed back,
    and no two programs can share a plan however alike they look.
    Every entry pins its program, so an id in a live key is never reused.
    Rejections are cached too: a program the compiler declines raises
    :class:`FusionUnsupported` from a dictionary hit on every later run
    instead of re-walking the control script to the same conclusion.
    """
    key = (id(program), params)
    obs.count("plan.hit" if key in PLAN_CACHE else "plan.miss")

    def build() -> Any:
        try:
            return ProgramPlan(program, params)
        except FusionUnsupported as exc:
            return _Unfusable(str(exc), program)

    plan = PLAN_CACHE.get_or_build(key, build)
    if isinstance(plan, _Unfusable):
        raise FusionUnsupported(plan.reason)
    return plan


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
    stencil's stack is a slab of ``n_nodes`` rows: one
    :class:`~repro.sim.batchplan.BatchProgramRun` steps it
    — load is issue 0 then the mask cache swap, a sweep is issue 1 then
    ``SwapVars u/u_new`` — and logs every step.  The stencil's loop (the
    loop both backends share, so their accounting cannot drift) adds the
    global residual, the halo copy and the route-once halo replay, whose
    link traffic ``finish`` settles.  The stencil keeps the run for its
    log (a later run continues it), which its machine build folds;
    ``finish`` releases the bound images.  The halo copy writes ``u``'s
    plane between issues, so a plan that does not move that plane (and
    might have hoisted a row from it) is declined.
    """
    from repro.sim.batchplan import BatchProgramRun
    from repro.sim.multinode import global_residual

    stack = stencil.stack
    if stack is None:
        raise FusionUnsupported("node machines hold the state")
    plan = compiled_plan(stencil.machine_program, stencil.params)
    if 0 not in plan.kernels or 1 not in plan.kernels:
        raise FusionUnsupported("multi-node program issues no image 0/1")
    u = stack.variables["u"]
    if u.plane not in plan.moving_planes:
        # the halo copy below writes u's plane between issues: a row
        # hoisted from it would go stale
        raise FusionUnsupported("halo plane is not moved by the program")
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
    run = BatchProgramRun(plan, stack, n, sys.maxsize)
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
    off, nzl = u.offset, stencil.nz_local

    def load() -> int:
        run.issue(0)
        run.swap_caches(masks)
        return load_cycles

    def sweep():
        residual = global_residual(run.issue(1) or ())
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


# the condition chains (repro.sim.settle imports this module, so it is
# imported once every name it reads is defined)
from repro.sim import settle  # noqa: E402

__all__ = [
    "FusionUnsupported",
    "ImageKernel",
    "BoundImage",
    "ProgramPlan",
    "compiled_plan",
    "HaloCommPlan",
    "fused_stepper",
    "pad_extent",
    "pad_window",
]
