"""The microcode generator: semantic data structures → machine code.

Paper §4: "Once a complete program (or consistent program fragment) has been
defined, the microcode generator uses the semantic data structures created
by the graphical editor to generate machine code for the NSC.  The checker
is invoked again at this point to perform a thorough check of global
constraints."

Generation per pipeline:

1. timing analysis and automatic delay balancing (:mod:`.timing`);
2. vector-length resolution from the diagram, DMA counts, or variable sizes;
3. DMA-program resolution against the deterministic variable layout;
4. switch-setting derivation from the connection tables;
5. microword emission (:mod:`.microword`) plus an executable
   :class:`PipelineImage` for the simulator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro._records import slotted_state
from repro.arch.dma import DMAProgram, DMASpec, Direction
from repro.arch.funcunit import OPCODES, Opcode
from repro.arch.node import NodeConfig
from repro.arch.switch import DeviceKind, Endpoint, sd_in
from repro.checker.checker import Checker
from repro.checker.diagnostics import CheckReport
from repro.obs import tracer as obs
from repro.codegen.microword import (
    CMP_CODES,
    Microword,
    MicrowordLayout,
    layout_for,
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
@dataclass(frozen=True, slots=True)
class ResolvedInput:
    """Fully resolved feed of one FU input port.

    ``kind`` is one of ``mem``, ``cache``, ``sd``, ``fu``, ``internal``,
    ``const``, ``feedback``; ``delay`` includes auto-balancing; ``skew`` is
    the residual element misalignment (nonzero only when balancing was
    disabled — the ablation configuration)."""

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
    def generate(self, program: VisualProgram) -> MachineProgram:
        if self.run_checker:
            # the design-rule sweep is the expensive half of compilation;
            # time it separately (nested under any enclosing compile span)
            with obs.span("check"):
                report = self.checker.check_program(program)
            if not report.ok:
                raise CodegenError(
                    f"program {program.name!r} fails validation:\n"
                    + "\n".join(d.format() for d in report.errors),
                    report,
                )
        var_layout = layout_variables(program.declarations)
        images = [
            self._generate_pipeline(diagram, program.declarations, var_layout)
            for diagram in program.pipelines
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
        diagram: PipelineDiagram,
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
        diagram: PipelineDiagram,
        declarations: Dict[str, Declaration],
        var_layout: Dict[str, Tuple[int, int]],
    ) -> PipelineImage:
        kb = self.checker.kb
        try:
            plan = balance_pipeline(diagram, kb, auto_balance=self.auto_balance)
        except TimingError as exc:
            raise CodegenError(f"pipeline {diagram.number}: {exc}") from exc
        problems = validate_delays_fit(diagram, plan, kb)
        if problems:
            raise CodegenError(
                f"pipeline {diagram.number}: " + "; ".join(problems)
            )
        vector_length = self.resolve_vector_length(diagram, declarations)
        order = plan.order

        inputs: Dict[Tuple[int, str], ResolvedInput] = {}
        for fu in order:
            for port in ("a", "b"):
                src = diagram.input_source(fu, port)
                if src is None:
                    continue
                delay = plan.total_delay(
                    fu, port, diagram.delays.get((fu, port), 0)
                )
                skew = plan.skew.get((fu, port), 0)
                kind, payload = src
                if kind == "mod":
                    mod = payload
                    if mod.kind is InputModKind.CONSTANT:
                        inputs[(fu, port)] = ResolvedInput(
                            kind="const", value=mod.value, delay=delay
                        )
                    elif mod.kind is InputModKind.FEEDBACK:
                        inputs[(fu, port)] = ResolvedInput(
                            kind="feedback", value=mod.value, src_fu=fu
                        )
                    else:
                        use = diagram.als_use_of_fu(fu)
                        inputs[(fu, port)] = ResolvedInput(
                            kind="internal",
                            src_fu=use.first_fu + mod.src_slot,  # type: ignore[union-attr]
                            delay=delay,
                            skew=skew,
                        )
                else:
                    ep: Endpoint = payload  # type: ignore[assignment]
                    if ep.kind is DeviceKind.FU:
                        inputs[(fu, port)] = ResolvedInput(
                            kind="fu", endpoint=ep, src_fu=ep.device,
                            delay=delay, skew=skew,
                        )
                    else:
                        kind_name = (
                            "mem" if ep.kind is DeviceKind.MEMORY
                            else "cache" if ep.kind is DeviceKind.CACHE
                            else "sd"
                        )
                        inputs[(fu, port)] = ResolvedInput(
                            kind=kind_name, endpoint=ep, delay=delay, skew=skew
                        )

        # DMA programs
        read_programs: Dict[Endpoint, DMAProgram] = {}
        write_programs: List[Tuple[Endpoint, Endpoint, DMAProgram]] = []
        for ep, spec in diagram.dma.items():
            prog = self._resolve_dma(spec, vector_length, var_layout)
            if spec.direction is Direction.READ:
                read_programs[ep] = prog
            else:
                driver = diagram.driver_of(ep)
                if driver is None:
                    raise CodegenError(
                        f"pipeline {diagram.number}: {ep} has a write DMA "
                        f"program but nothing drives it"
                    )
                write_programs.append((driver, ep, prog))

        # shift/delay feeders
        sd_feeders: Dict[int, Endpoint] = {}
        for (unit, _tap) in diagram.sd_taps:
            feeder = diagram.driver_of(sd_in(unit))
            if feeder is not None:
                sd_feeders[unit] = feeder

        word = self._emit_microword(diagram, plan, vector_length)
        fill = plan.fill_cycles
        total = pipeline_cycles(plan, vector_length, kb)
        flops = sum(
            OPCODES[a.opcode].flops for a in diagram.fu_ops.values()
        )
        return PipelineImage(
            number=diagram.number,
            label=diagram.label,
            vector_length=vector_length,
            fu_order=order,
            fu_ops={
                fu: (a.opcode, a.constant) for fu, a in diagram.fu_ops.items()
            },
            inputs=inputs,
            read_programs=read_programs,
            write_programs=write_programs,
            sd_feeders=sd_feeders,
            sd_shifts=dict(diagram.sd_taps),
            condition=diagram.condition,
            fill_cycles=fill,
            total_cycles=total,
            flops_per_element=flops,
            microword=word,
        )

    # ------------------------------------------------------------------
    def _emit_microword(
        self,
        diagram: PipelineDiagram,
        plan: TimingPlan,
        vector_length: int,
    ) -> Microword:
        layout = self.layout
        word = layout.new_word()
        set_field = word.set_field
        id_of = layout.source_table.id_of
        driver_of = diagram.driver_of
        input_mods = diagram.input_mods
        delays = diagram.delays

        for fu, assign in diagram.fu_ops.items():
            handles = layout.fu_fields(fu)
            set_field(handles.opcode, OP_INDEX[assign.opcode])
            if OPCODES[assign.opcode].uses_constant:
                set_field(handles.const_sel, 1)
            for port, fields in zip(("a", "b"), handles.ports):
                delay = plan.total_delay(fu, port, delays.get((fu, port), 0))
                if delay:
                    set_field(fields.delay, delay)
                mod = input_mods.get((fu, port))
                if mod is not None:
                    if mod.kind is InputModKind.INTERNAL:
                        set_field(fields.internal, 1)
                    elif mod.kind is InputModKind.FEEDBACK:
                        set_field(fields.feedback, 1)
                    else:
                        set_field(fields.constant, 1)
                else:
                    drv = driver_of(fields.sink)
                    if drv is not None:
                        set_field(fields.src, id_of(drv))

        # crossbar selectors for non-FU sinks
        for field, sink_ep in layout.sink_fields:
            drv = driver_of(sink_ep)
            if drv is not None:
                set_field(field, id_of(drv))

        # DMA groups
        for ep, spec in diagram.dma.items():
            prefix = (
                f"mem{ep.device}" if ep.kind is DeviceKind.MEMORY
                else f"cache{ep.device}"
            )
            word.set(f"{prefix}.dma.enable", 1)
            word.set(
                f"{prefix}.dma.dir", 0 if spec.direction is Direction.READ else 1
            )
            # symbolic addresses encode the window offset; the loader adds
            # the variable base (relocation happens at load time)
            word.set(f"{prefix}.dma.addr", max(spec.offset, 0))
            word.set_signed(f"{prefix}.dma.stride", spec.stride)
            count = spec.count if spec.count is not None else vector_length
            word.set(f"{prefix}.dma.count", count)

        for (unit, tap), shift in diagram.sd_taps.items():
            word.set(f"sd{unit}.tap{tap}.enable", 1)
            word.set_signed(f"sd{unit}.tap{tap}.shift", shift)

        if diagram.condition is not None:
            cond = diagram.condition
            word.set("seq.cond.enable", 1)
            word.set("seq.cond.fu", cond.fu)
            word.set("seq.cond.cmp", CMP_CODES[cond.comparison])
            word.set_float("seq.cond.threshold", cond.threshold)
        word.set("seq.vector_length", vector_length)
        return word


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
