"""The microcode generator: semantic data structures → machine code.

Paper §4: "Once a complete program (or consistent program fragment) has been
defined, the microcode generator uses the semantic data structures created
by the graphical editor to generate machine code for the NSC.  The checker
is invoked again at this point to perform a thorough check of global
constraints."

:meth:`MicrocodeGenerator.generate` freezes each pipeline diagram once
(:meth:`~repro.diagram.pipeline.PipelineDiagram.freeze`); the checker,
the timing analysis and every step below read that one
:class:`~repro.diagram.pipeline.DiagramView`.  Views are transient: no
image, program or cache entry keeps one.

Generation per pipeline, into an executable :class:`PipelineImage` and
its microword (:mod:`.microword`, through the layout's field handles):

1. :func:`walk_pipeline`, one pass over the units in dataflow order:
   each input's arrival, balancing delay or residual skew
   (:mod:`.timing`), its :class:`ResolvedInput` and switch setting from
   the connection tables, and each unit's register-file words and fields;
2. vector-length resolution from the diagram, DMA counts, or variable
   sizes, then one pass over the DMA specs: their programs against the
   deterministic variable layout, and their fields;
3. the remaining fields: driven non-FU sinks, shift/delay taps, sequencer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro._records import slotted_state
from repro.arch.dma import DMAProgram, Direction
from repro.arch.funcunit import Opcode
from repro.arch.node import NodeConfig
from repro.arch.switch import DeviceKind, Endpoint
from repro.checker.checker import Checker
from repro.checker.diagnostics import CheckReport
from repro.checker.knowledge import MachineKnowledge
from repro.obs import tracer as obs
from repro.codegen.microword import (
    CMP_CODES,
    FieldError,
    Microword,
    MicrowordLayout,
    fit,
    float_to_bits,
    layout_for,
    signed_to_bits,
)
from repro.codegen.timing import (
    TimingError,
    TimingPlan,
    pipeline_cycles,
    source_start,
    stream_starts,
)
from repro.diagram.pipeline import (
    ConditionSpec,
    DiagramView,
    InputModKind,
    PipelineDiagram,
)
from repro.diagram.program import Declaration, VisualProgram


class CodegenError(Exception):
    """Generation refused; carries the blocking check report when present."""

    def __init__(self, message: str, report: Optional[CheckReport] = None) -> None:
        super().__init__(message)
        self.report = report


#: Stable opcode numbering for the microword's opcode field (0 = none).
OP_INDEX: Dict[Opcode, int] = {op: i + 1 for i, op in enumerate(Opcode)}
INDEX_OP: Dict[int, Opcode] = {v: k for k, v in OP_INDEX.items()}


def layout_variables(
    declarations: Dict[str, Declaration]
) -> Dict[str, Tuple[int, int]]:
    """Deterministic storage layout: name -> (plane, word offset).

    Variables are packed per plane in declaration order.  Code generation
    and the simulator's loader share this function, so symbolic DMA
    addresses resolve identically in both.
    """
    cursor: Dict[int, int] = {}
    out: Dict[str, Tuple[int, int]] = {}
    for decl in declarations.values():
        offset = cursor.get(decl.plane, 0)
        out[decl.name] = (decl.plane, offset)
        cursor[decl.plane] = offset + decl.length
    return out


def _without_memos(obj: object) -> Dict[str, Any]:
    """Copy/pickle state of *obj* minus the ``_``-prefixed memos that
    consumers (plan keys, compiled plans) stash on it: a copy may be
    edited and a pickle loaded by other code, so those are re-derived,
    never carried along."""
    return {k: v for k, v in vars(obj).items() if not k.startswith("_")}


@slotted_state
@dataclass(slots=True, unsafe_hash=True)
class ResolvedInput:
    """Fully resolved feed of one FU input port.

    ``kind`` is one of ``mem``, ``cache``, ``sd``, ``fu``, ``internal``,
    ``const``, ``feedback``; ``delay`` includes auto-balancing; ``skew`` is
    the residual element misalignment (nonzero only when balancing was
    disabled — the ablation configuration).

    Read-only by convention once :func:`walk_pipeline` has balanced it,
    and hashed by value, but not ``frozen``: a frozen dataclass builds
    through one ``object.__setattr__`` per field, and a compile builds
    dozens of these."""

    kind: str
    endpoint: Optional[Endpoint] = None
    src_fu: int = -1
    value: float = 0.0
    delay: int = 0
    skew: int = 0


@dataclass
class PipelineImage:
    """Executable form of one instruction, paired with its microword."""

    number: int
    label: str
    vector_length: int
    fu_order: List[int]
    fu_ops: Dict[int, Tuple[Opcode, float]]
    inputs: Dict[Tuple[int, str], ResolvedInput]
    read_programs: Dict[Endpoint, DMAProgram]
    write_programs: List[Tuple[Endpoint, Endpoint, DMAProgram]]
    sd_feeders: Dict[int, Endpoint]
    sd_shifts: Dict[Tuple[int, int], int]
    condition: Optional[ConditionSpec]
    fill_cycles: int
    total_cycles: int
    flops_per_element: int
    microword: Microword

    @property
    def total_flops(self) -> int:
        return self.flops_per_element * self.vector_length

    def __getstate__(self) -> Dict[str, Any]:
        return _without_memos(self)


@dataclass
class MachineProgram:
    """A complete generated program: images, microwords, and metadata."""

    name: str
    images: List[PipelineImage]
    declarations: Dict[str, Declaration]
    variable_layout: Dict[str, Tuple[int, int]]
    control: List[object]
    layout: MicrowordLayout

    @property
    def microwords(self) -> List[Microword]:
        return [img.microword for img in self.images]

    @property
    def total_microcode_bits(self) -> int:
        return len(self.images) * self.layout.total_bits

    def image(self, index: int) -> PipelineImage:
        return self.images[index]

    def __getstate__(self) -> Dict[str, Any]:
        return _without_memos(self)

    def fingerprint(self) -> str:
        """Stable content hash over the encoded microwords.

        Two programs with the same fingerprint issue bit-identical
        microcode; the batch service records it so a result can be traced
        to the exact program that produced it (and a cache hit can be
        proven to replay the same bits).  Each microword keeps its encoded
        bits until its next write, so a job's record hashes a few
        kilobytes instead of re-encoding every field."""
        digest = hashlib.sha256()
        digest.update(self.name.encode("utf-8"))
        digest.update(str(self.layout.total_bits).encode("utf-8"))
        for microword in self.microwords:
            digest.update(microword.encode())
        return digest.hexdigest()


# enum members, looked up once (a class attribute read of a member is slow)
_FU = DeviceKind.FU
_READ = Direction.READ
_INTERNAL = InputModKind.INTERNAL
_FEEDBACK = InputModKind.FEEDBACK
#: ResolvedInput kind of a switch source: its device kind's name
_SOURCE_KINDS = {kind: kind.value for kind in DeviceKind}


def walk_pipeline(
    view: DiagramView,
    kb: MachineKnowledge,
    layout: MicrowordLayout,
    auto_balance: bool = True,
) -> TimingPlan:
    """One pass over *view*'s units in dataflow order, deriving every
    per-port fact of the image.

    For each FU input: the element-0 arrival after explicit delays, the
    balancing delay (or, with *auto_balance* off, the residual skew), the
    :class:`ResolvedInput` and the port's microword fields; for each
    unit: its start and output cycles, register-file words and opcode
    fields.  The fields go straight into ``unit_bits``.  Raises
    :class:`TimingError`; overflows and the first field error are left
    in the plan, for the generator to raise in its order.
    """
    p = kb.params
    hop = p.switch_latency
    limit = kb.regfile_words
    order = view.topological_order()
    feeds = view.feeds
    delays = view.delays
    op_info = view.op_info
    fu_ops = view.fu_ops
    mod_words = view.mod_words
    fu_fields = layout.fu_fields
    source_ids = layout.source_table.ids
    starts = stream_starts(p)
    # the plan's tables (see TimingPlan), and the overflows by unit
    auto_delay, fu_start, fu_output, inputs = {}, {}, {}, {}
    overfull: List[Tuple[int, str]] = []
    bits = 0
    field_error: Optional[Exception] = None

    for fu in order:
        info = op_info.get(fu)
        try:
            handles = fu_fields(fu)
            bits |= fit(handles.opcode, OP_INDEX[fu_ops[fu].opcode])
            port_fields = handles.ports
        except FieldError as exc:
            field_error = field_error or exc
            handles, port_fields = None, (None, None)
        words = mod_words.get(fu, 0)
        # resolve each input and place its selector or routing flag; time
        # the streamed ones (element-0 arrival after explicit delays)
        ports = []
        t_fu = None
        for port, fields in zip(("a", "b"), port_fields):
            key = (fu, port)
            feed = feeds.get(key)
            delay = delays.get(key, 0) if delays else 0
            words += delay
            t = flag = resolved = None
            if feed is None:
                pass
            elif type(feed) is Endpoint:
                kind = feed.kind
                if kind is _FU:
                    t = fu_output.get(feed.device)
                    if t is None:
                        raise TimingError(
                            f"fu{feed.device} feeds fu{fu} but is not "
                            f"scheduled before it"
                        )
                    t += hop
                else:
                    t = starts.get(kind)
                    if t is None:
                        t = source_start(feed, starts, view, hop)
                resolved = ResolvedInput(
                    _SOURCE_KINDS[kind], feed,
                    feed.device if kind is _FU else -1, 0.0, delay)
                sel = source_ids.get(feed)
                if fields is None:
                    pass
                elif sel is not None:  # a selector fits by construction
                    bits |= sel << fields.src.offset
                else:
                    try:
                        layout.source_table.id_of(feed)
                    except FieldError as exc:
                        field_error = field_error or exc
            elif feed.kind is _INTERNAL:
                # hardwired, no switch hop
                src_fu = view.fu_als[fu].first_fu + feed.src_slot
                t = fu_output.get(src_fu)
                if t is None:
                    raise TimingError(
                        f"internal route source fu{src_fu} not yet scheduled "
                        f"(cycle in diagram?)"
                    )
                resolved = ResolvedInput("internal", None, src_fu, 0.0, delay)
                flag = fields and fields.internal
            elif feed.kind is _FEEDBACK:  # always available, undelayed
                resolved = ResolvedInput("feedback", None, fu, feed.value)
                flag = fields and fields.feedback
            else:  # a constant: always available
                resolved = ResolvedInput("const", None, -1, feed.value, delay)
                flag = fields and fields.constant
            if flag is not None:
                bits |= 1 << flag.offset
            if resolved is not None:
                inputs[key] = resolved
            if t is not None:
                t += delay
                if t_fu is None or t > t_fu:
                    t_fu = t
            ports.append((key, resolved, t, delay, fields))
        if t_fu is None:
            t_fu = 0
        fu_start[fu] = t_fu
        if info is None:
            raise TimingError(f"fu{fu} has no operation assigned")
        fu_output[fu] = t_fu + int(getattr(p, info.latency_key))
        if handles is not None and info.uses_constant:
            bits |= 1 << handles.const_sel.offset

        # balance the streamed inputs (or keep their residual skew), and
        # place each input's delay
        for key, resolved, t, delay, fields in ports:
            if t is not None:
                lag = t_fu - t
                if lag > 0 and auto_balance:
                    auto_delay[key] = lag
                    resolved.delay = delay = delay + lag
                    words += lag
                else:
                    resolved.skew = lag
            if delay and fields is not None:
                try:
                    bits |= fit(fields.delay, delay)
                except FieldError as exc:
                    field_error = field_error or exc
        if words > limit:
            overfull.append((fu, (
                f"fu{fu}: {words} register-file words needed "
                f"(limit {limit}); the streams are too skewed to "
                f"balance with circular queues"
            )))

    # fill time: when element 0 lands at the final sinks
    fill = 0
    for src, sink in view.pad_wires:
        if src.kind is _FU:
            if src.device not in fu_output:
                raise TimingError(
                    f"{src} writes to {sink} but fu{src.device} is not "
                    f"programmed"
                )
            t = fu_output[src.device] + hop
        else:
            t = source_start(src, starts, view, hop)
        fill = max(fill, t)
    if fill == 0 and fu_output:
        fill = max(fu_output.values()) + hop
    return TimingPlan(
        order, auto_delay, fu_start, fu_output, fill, inputs,
        [problem for _fu, problem in sorted(overfull)], bits, field_error,
    )


class MicrocodeGenerator:
    """Generates :class:`MachineProgram` objects for one machine."""

    def __init__(
        self,
        node: NodeConfig,
        auto_balance: bool = True,
        run_checker: bool = True,
    ) -> None:
        self.node = node
        self.auto_balance = auto_balance
        self.run_checker = run_checker
        self.checker = Checker(node)
        self.layout = layout_for(node.params)

    # ------------------------------------------------------------------
    def generate(
        self,
        program: VisualProgram,
        views: Optional[Sequence[DiagramView]] = None,
    ) -> MachineProgram:
        """Check and compile *program*.

        Each pipeline is frozen once, here, unless the caller passes the
        frozen *views* (in pipeline order); the checker and codegen share
        them."""
        if views is None:
            views = [diagram.freeze() for diagram in program.pipelines]
        if self.run_checker:
            # the design-rule sweep is the expensive half of compilation;
            # time it separately (nested under any enclosing compile span)
            with obs.span("check"):
                report = self.checker.check_program(program, views)
            if not report.ok:
                raise CodegenError(
                    f"program {program.name!r} fails validation:\n"
                    + "\n".join(d.format() for d in report.errors),
                    report,
                )
        var_layout = layout_variables(program.declarations)
        images = [
            self._generate_pipeline(view, program.declarations, var_layout)
            for view in views
        ]
        return MachineProgram(
            name=program.name,
            images=images,
            declarations=dict(program.declarations),
            variable_layout=var_layout,
            control=program.effective_control(),
            layout=self.layout,
        )

    # ------------------------------------------------------------------
    def resolve_vector_length(
        self,
        diagram: Union[PipelineDiagram, DiagramView],
        declarations: Dict[str, Declaration],
    ) -> int:
        if diagram.vector_length is not None:
            return diagram.vector_length
        explicit = [s.count for s in diagram.dma.values() if s.count is not None]
        if explicit:
            return min(explicit)
        implied: List[int] = []
        for spec in diagram.dma.values():
            if spec.is_symbolic and spec.variable in declarations:
                decl = declarations[spec.variable]
                span = decl.length - spec.offset
                if span > 0 and spec.stride > 0:
                    implied.append((span + spec.stride - 1) // spec.stride)
        if implied:
            return min(implied)
        raise CodegenError(
            f"pipeline {diagram.number}: vector length cannot be determined "
            f"(set it explicitly or give a DMA count)"
        )

    # ------------------------------------------------------------------
    def _generate_pipeline(
        self,
        view: DiagramView,
        declarations: Dict[str, Declaration],
        var_layout: Dict[str, Tuple[int, int]],
    ) -> PipelineImage:
        kb = self.checker.kb
        try:
            plan = walk_pipeline(view, kb, self.layout, self.auto_balance)
        except TimingError as exc:
            raise CodegenError(f"pipeline {view.number}: {exc}") from exc
        if plan.overfull:
            raise CodegenError(
                f"pipeline {view.number}: " + "; ".join(plan.overfull)
            )
        vector_length = self.resolve_vector_length(view, declarations)

        # DMA programs and their microword groups.  A field that fails
        # its check is raised once the pipeline's other errors are ruled
        # out, as the walk leaves its own.
        layout = self.layout
        bits = plan.unit_bits
        field_error = plan.field_error
        read_programs: Dict[Endpoint, DMAProgram] = {}
        write_programs: List[Tuple[Endpoint, Endpoint, DMAProgram]] = []
        for ep, spec in view.dma.items():
            base_offset = spec.offset
            if spec.variable is not None:  # symbolic
                if spec.variable not in var_layout:
                    raise CodegenError(
                        f"DMA references unknown variable {spec.variable!r}"
                    )
                base_offset += var_layout[spec.variable][1]
            count = spec.count if spec.count is not None else vector_length
            prog = DMAProgram(spec, base_offset, count)
            write = spec.direction is not _READ
            if not write:
                read_programs[ep] = prog
            else:
                driver = view.driver.get(ep)
                if driver is None:
                    raise CodegenError(
                        f"pipeline {view.number}: {ep} has a write DMA "
                        f"program but nothing drives it"
                    )
                write_programs.append((driver, ep, prog))
            try:
                handles = layout.dma_fields(ep)
                # dir: 0 = read, 1 = write; symbolic addresses encode the
                # window offset (the loader adds the variable base)
                stride = handles.stride
                bits |= (
                    1 << handles.enable.offset
                    | write << handles.dir.offset
                    | fit(handles.addr, max(spec.offset, 0))
                    | signed_to_bits(spec.stride, stride.width) << stride.offset
                    | fit(handles.count, count)
                )
            except FieldError as exc:
                field_error = field_error or exc

        if field_error is not None:
            raise field_error

        # crossbar selectors of the driven non-FU sinks
        id_of = layout.source_table.id_of
        sink_fields = layout.sink_fields
        for sink, drv in view.driver.items():
            if sink.kind is not _FU and sink in sink_fields:
                bits |= id_of(drv) << sink_fields[sink].offset
        # shift/delay taps and their feeders (a value signed_to_bits has
        # checked fits its field, as a flag or a selector does)
        sd_feeders: Dict[int, Endpoint] = {}
        for (unit, tap), shift in view.sd_taps.items():
            feeder = view.sd_feeder.get(unit)
            if feeder is not None:
                sd_feeders[unit] = feeder
            enable, field = layout.tap_fields(unit, tap)
            bits |= 1 << enable.offset
            bits |= signed_to_bits(shift, field.width) << field.offset
        seq = layout.seq_fields
        cond = view.condition
        if cond is not None:
            bits |= 1 << seq.cond_enable.offset
            bits |= fit(seq.cond_fu, cond.fu)
            bits |= fit(seq.cond_cmp, CMP_CODES[cond.comparison])
            bits |= float_to_bits(cond.threshold) << seq.cond_threshold.offset
        bits |= fit(seq.vector_length, vector_length)
        word = Microword.from_bits(layout, bits)
        fill = plan.fill_cycles
        total = pipeline_cycles(plan, vector_length, kb)
        flops = sum(info.flops for info in view.op_info.values())
        return PipelineImage(
            number=view.number,
            label=view.label,
            vector_length=vector_length,
            fu_order=plan.order,
            fu_ops={
                fu: (a.opcode, a.constant) for fu, a in view.fu_ops.items()
            },
            inputs=plan.inputs,
            read_programs=read_programs,
            write_programs=write_programs,
            sd_feeders=sd_feeders,
            sd_shifts=dict(view.sd_taps),
            condition=view.condition,
            fill_cycles=fill,
            total_cycles=total,
            flops_per_element=flops,
            microword=word,
        )


__all__ = [
    "MicrocodeGenerator",
    "CodegenError",
    "walk_pipeline",
    "MachineProgram",
    "PipelineImage",
    "ResolvedInput",
    "layout_variables",
    "OP_INDEX",
    "INDEX_OP",
]
