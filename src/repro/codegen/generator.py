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

Generation per pipeline:

1. timing analysis and automatic delay balancing (:mod:`.timing`);
2. vector-length resolution from the diagram, DMA counts, or variable sizes;
3. DMA-program resolution against the deterministic variable layout;
4. switch-setting derivation from the connection tables (the view's
   per-port feeds and its driven non-FU sinks);
5. microword emission (:mod:`.microword`, through the layout's
   pre-resolved field handles) plus an executable :class:`PipelineImage`
   for the simulator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro._records import slotted_state
from repro.arch.dma import DMAProgram, DMASpec, Direction
from repro.arch.funcunit import Opcode
from repro.arch.node import NodeConfig
from repro.arch.switch import DeviceKind, Endpoint
from repro.checker.checker import Checker
from repro.checker.diagnostics import CheckReport
from repro.obs import tracer as obs
from repro.codegen.microword import (
    CMP_CODES,
    Field,
    Microword,
    MicrowordLayout,
    float_to_bits,
    layout_for,
    signed_to_bits,
)
from repro.codegen.timing import (
    TimingError,
    TimingPlan,
    balance_pipeline,
    pipeline_cycles,
    validate_delays_fit,
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

    Read-only by convention and hashed by value, but not ``frozen``: a
    frozen dataclass builds through one ``object.__setattr__`` per field,
    and a compile builds dozens of these."""

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

    def _resolve_dma(
        self,
        spec: DMASpec,
        vector_length: int,
        var_layout: Dict[str, Tuple[int, int]],
    ) -> DMAProgram:
        if spec.is_symbolic:
            if spec.variable not in var_layout:
                raise CodegenError(
                    f"DMA references unknown variable {spec.variable!r}"
                )
            _plane, base = var_layout[spec.variable]
            base_offset = base + spec.offset
        else:
            base_offset = spec.offset
        count = spec.count if spec.count is not None else vector_length
        return DMAProgram(spec=spec, base_offset=base_offset, count=count)

    # ------------------------------------------------------------------
    def _generate_pipeline(
        self,
        view: DiagramView,
        declarations: Dict[str, Declaration],
        var_layout: Dict[str, Tuple[int, int]],
    ) -> PipelineImage:
        kb = self.checker.kb
        try:
            plan = balance_pipeline(view, kb, auto_balance=self.auto_balance)
        except TimingError as exc:
            raise CodegenError(f"pipeline {view.number}: {exc}") from exc
        problems = validate_delays_fit(view, plan, kb)
        if problems:
            raise CodegenError(
                f"pipeline {view.number}: " + "; ".join(problems)
            )
        vector_length = self.resolve_vector_length(view, declarations)
        order = plan.order

        feeds = view.feeds
        delays = view.delays
        auto = plan.auto_delay
        skews = plan.skew
        inputs: Dict[Tuple[int, str], ResolvedInput] = {}
        for fu in order:
            for port in ("a", "b"):
                key = (fu, port)
                feed = feeds.get(key)
                if feed is None:
                    continue
                delay = delays.get(key, 0) + auto.get(key, 0)
                skew = skews.get(key, 0)
                if type(feed) is Endpoint:
                    if feed.kind is DeviceKind.FU:
                        inputs[key] = ResolvedInput(
                            kind="fu", endpoint=feed, src_fu=feed.device,
                            delay=delay, skew=skew,
                        )
                    else:
                        kind_name = (
                            "mem" if feed.kind is DeviceKind.MEMORY
                            else "cache" if feed.kind is DeviceKind.CACHE
                            else "sd"
                        )
                        inputs[key] = ResolvedInput(
                            kind=kind_name, endpoint=feed, delay=delay,
                            skew=skew,
                        )
                elif feed.kind is InputModKind.CONSTANT:
                    inputs[key] = ResolvedInput(
                        kind="const", value=feed.value, delay=delay
                    )
                elif feed.kind is InputModKind.FEEDBACK:
                    inputs[key] = ResolvedInput(
                        kind="feedback", value=feed.value, src_fu=fu
                    )
                else:
                    inputs[key] = ResolvedInput(
                        kind="internal",
                        src_fu=view.fu_als[fu].first_fu + feed.src_slot,
                        delay=delay,
                        skew=skew,
                    )

        # DMA programs
        read_programs: Dict[Endpoint, DMAProgram] = {}
        write_programs: List[Tuple[Endpoint, Endpoint, DMAProgram]] = []
        for ep, spec in view.dma.items():
            prog = self._resolve_dma(spec, vector_length, var_layout)
            if spec.direction is Direction.READ:
                read_programs[ep] = prog
            else:
                driver = view.driver.get(ep)
                if driver is None:
                    raise CodegenError(
                        f"pipeline {view.number}: {ep} has a write DMA "
                        f"program but nothing drives it"
                    )
                write_programs.append((driver, ep, prog))

        # shift/delay feeders
        sd_feeder = view.sd_feeder
        sd_feeders: Dict[int, Endpoint] = {}
        for (unit, _tap) in view.sd_taps:
            feeder = sd_feeder.get(unit)
            if feeder is not None:
                sd_feeders[unit] = feeder

        word = self._emit_microword(view, plan, vector_length)
        fill = plan.fill_cycles
        total = pipeline_cycles(plan, vector_length, kb)
        flops = sum(info.flops for info in view.op_info.values())
        return PipelineImage(
            number=view.number,
            label=view.label,
            vector_length=vector_length,
            fu_order=order,
            fu_ops={
                fu: (a.opcode, a.constant) for fu, a in view.fu_ops.items()
            },
            inputs=inputs,
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

    # ------------------------------------------------------------------
    def _emit_microword(
        self,
        view: DiagramView,
        plan: TimingPlan,
        vector_length: int,
    ) -> Microword:
        layout = self.layout
        id_of = layout.source_table.id_of
        feeds = view.feeds
        delays = view.delays
        auto = plan.auto_delay
        op_info = view.op_info
        # field handle -> value, packed into the bits at the end
        values: Dict[Field, int] = {}

        for fu, assign in view.fu_ops.items():
            handles = layout.fu_fields(fu)
            values[handles.opcode] = OP_INDEX[assign.opcode]
            if op_info[fu].uses_constant:
                values[handles.const_sel] = 1
            for port, fields in zip(("a", "b"), handles.ports):
                key = (fu, port)
                delay = delays.get(key, 0) + auto.get(key, 0)
                if delay:
                    values[fields.delay] = delay
                feed = feeds.get(key)
                if feed is None:
                    continue
                if type(feed) is Endpoint:
                    values[fields.src] = id_of(feed)
                elif feed.kind is InputModKind.INTERNAL:
                    values[fields.internal] = 1
                elif feed.kind is InputModKind.FEEDBACK:
                    values[fields.feedback] = 1
                else:
                    values[fields.constant] = 1

        # crossbar selectors for the driven non-FU sinks
        sink_fields = layout.sink_fields
        for sink, drv in view.driver.items():
            if sink.kind is not DeviceKind.FU:
                field = sink_fields.get(sink)
                if field is not None:
                    values[field] = id_of(drv)

        # DMA groups
        for ep, spec in view.dma.items():
            handles = layout.dma_fields(ep)
            values[handles.enable] = 1
            values[handles.dir] = 0 if spec.direction is Direction.READ else 1
            # symbolic addresses encode the window offset; the loader adds
            # the variable base (relocation happens at load time)
            values[handles.addr] = max(spec.offset, 0)
            values[handles.stride] = signed_to_bits(
                spec.stride, handles.stride.width
            )
            values[handles.count] = (
                spec.count if spec.count is not None else vector_length
            )

        for (unit, tap), shift in view.sd_taps.items():
            enable, shift_field = layout.tap_fields(unit, tap)
            values[enable] = 1
            values[shift_field] = signed_to_bits(shift, shift_field.width)

        seq = layout.seq_fields
        cond = view.condition
        if cond is not None:
            values[seq.cond_enable] = 1
            values[seq.cond_fu] = cond.fu
            values[seq.cond_cmp] = CMP_CODES[cond.comparison]
            values[seq.cond_threshold] = float_to_bits(cond.threshold)
        values[seq.vector_length] = vector_length
        return Microword.pack(layout, values)


__all__ = [
    "MicrocodeGenerator",
    "CodegenError",
    "MachineProgram",
    "PipelineImage",
    "ResolvedInput",
    "layout_variables",
    "OP_INDEX",
    "INDEX_OP",
]
