"""Save/load of visual programs: the editor's "save the results" function.

Programs round-trip through plain JSON-compatible dictionaries.  Only the
*semantic* data is stored here; display geometry is serialized separately by
the editor layer (the paper's two-kinds-of-internal-data split, §4).
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.arch.als import ALSKind
from repro.arch.dma import Direction, DMASpec
from repro.arch.funcunit import Opcode
from repro.arch.switch import DeviceKind, Endpoint, endpoint
from repro.diagram.pipeline import (
    ConditionSpec,
    InputMod,
    InputModKind,
    PipelineDiagram,
)
from repro.diagram.program import (
    CacheSwap,
    ControlOp,
    Declaration,
    ExecPipeline,
    Halt,
    LoopUntil,
    Repeat,
    SwapVars,
    VisualProgram,
)


class SerializationError(Exception):
    """Malformed serialized form."""


# ----------------------------------------------------------------------
# endpoints
# ----------------------------------------------------------------------
def endpoint_to_dict(ep: Endpoint) -> Dict[str, Any]:
    return {"kind": ep.kind.value, "device": ep.device, "port": ep.port}


def endpoint_from_dict(d: Dict[str, Any]) -> Endpoint:
    try:
        return endpoint(DeviceKind(d["kind"]), int(d["device"]), str(d["port"]))
    except (KeyError, ValueError) as exc:
        raise SerializationError(f"bad endpoint record {d!r}") from exc


# ----------------------------------------------------------------------
# pipelines
# ----------------------------------------------------------------------
def pipeline_to_dict(p: PipelineDiagram) -> Dict[str, Any]:
    return {
        "number": p.number,
        "label": p.label,
        "als_uses": [
            {
                "als_id": u.als_id,
                "kind": u.kind.value,
                "first_fu": u.first_fu,
                "bypassed_slots": list(u.bypassed_slots),
            }
            for u in sorted(p.als_uses.values(), key=lambda u: u.als_id)
        ],
        "fu_ops": [
            {"fu": a.fu, "opcode": a.opcode.value, "constant": a.constant}
            for a in sorted(p.fu_ops.values(), key=lambda a: a.fu)
        ],
        "connections": [
            [endpoint_to_dict(s), endpoint_to_dict(k)] for s, k in p.connections
        ],
        "input_mods": [
            {
                "fu": fu,
                "port": port,
                "kind": mod.kind.value,
                "value": mod.value,
                "src_slot": mod.src_slot,
            }
            for (fu, port), mod in sorted(p.input_mods.items())
        ],
        "delays": [
            {"fu": fu, "port": port, "cycles": cycles}
            for (fu, port), cycles in sorted(p.delays.items())
        ],
        "dma": [
            {
                "endpoint": endpoint_to_dict(ep),
                "device_kind": spec.device_kind.value,
                "device": spec.device,
                "direction": spec.direction.value,
                "variable": spec.variable,
                "offset": spec.offset,
                "stride": spec.stride,
                "count": spec.count,
            }
            for ep, spec in sorted(p.dma.items(), key=lambda kv: kv[0].key)
        ],
        "sd_taps": [
            {"unit": unit, "tap": tap, "shift": shift}
            for (unit, tap), shift in sorted(p.sd_taps.items())
        ],
        "vector_length": p.vector_length,
        "condition": (
            None
            if p.condition is None
            else {
                "fu": p.condition.fu,
                "comparison": p.condition.comparison,
                "threshold": p.condition.threshold,
            }
        ),
    }


def pipeline_from_dict(d: Dict[str, Any]) -> PipelineDiagram:
    try:
        p = PipelineDiagram(number=int(d["number"]), label=str(d["label"]))
        for u in d["als_uses"]:
            p.add_als(
                als_id=int(u["als_id"]),
                kind=ALSKind(u["kind"]),
                first_fu=int(u["first_fu"]),
                bypassed_slots=tuple(int(s) for s in u["bypassed_slots"]),
            )
        for a in d["fu_ops"]:
            p.set_fu_op(int(a["fu"]), Opcode(a["opcode"]), float(a["constant"]))
        for s, k in d["connections"]:
            p.connect(endpoint_from_dict(s), endpoint_from_dict(k))
        for m in d["input_mods"]:
            p.set_input_mod(
                int(m["fu"]),
                str(m["port"]),
                InputMod(
                    kind=InputModKind(m["kind"]),
                    value=float(m["value"]),
                    src_slot=int(m["src_slot"]),
                ),
            )
        for rec in d["delays"]:
            p.set_delay(int(rec["fu"]), str(rec["port"]), int(rec["cycles"]))
        for rec in d["dma"]:
            p.set_dma(
                endpoint_from_dict(rec["endpoint"]),
                DMASpec(
                    device_kind=DeviceKind(rec["device_kind"]),
                    device=int(rec["device"]),
                    direction=Direction(rec["direction"]),
                    variable=rec["variable"],
                    offset=int(rec["offset"]),
                    stride=int(rec["stride"]),
                    count=None if rec["count"] is None else int(rec["count"]),
                ),
            )
        for rec in d["sd_taps"]:
            p.set_sd_tap(int(rec["unit"]), int(rec["tap"]), int(rec["shift"]))
        p.vector_length = (
            None if d["vector_length"] is None else int(d["vector_length"])
        )
        if d["condition"] is not None:
            c = d["condition"]
            p.set_condition(
                ConditionSpec(
                    fu=int(c["fu"]),
                    comparison=str(c["comparison"]),
                    threshold=float(c["threshold"]),
                )
            )
        return p
    except SerializationError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(f"bad pipeline record: {exc}") from exc


# ----------------------------------------------------------------------
# control flow
# ----------------------------------------------------------------------
def control_to_dict(op: ControlOp) -> Dict[str, Any]:
    if isinstance(op, ExecPipeline):
        return {"op": "exec", "pipeline": op.pipeline}
    if isinstance(op, Repeat):
        return {
            "op": "repeat",
            "times": op.times,
            "body": [control_to_dict(o) for o in op.body],
        }
    if isinstance(op, LoopUntil):
        return {
            "op": "loop_until",
            "condition_pipeline": op.condition_pipeline,
            "max_iterations": op.max_iterations,
            "body": [control_to_dict(o) for o in op.body],
        }
    if isinstance(op, SwapVars):
        return {"op": "swap_vars", "a": op.a, "b": op.b}
    if isinstance(op, CacheSwap):
        return {"op": "cache_swap", "caches": list(op.caches)}
    if isinstance(op, Halt):
        return {"op": "halt"}
    raise SerializationError(f"unknown control op {op!r}")


def control_from_dict(d: Dict[str, Any]) -> ControlOp:
    try:
        kind = d["op"]
        if kind == "exec":
            return ExecPipeline(int(d["pipeline"]))
        if kind == "repeat":
            return Repeat(
                body=tuple(control_from_dict(o) for o in d["body"]),
                times=int(d["times"]),
            )
        if kind == "loop_until":
            return LoopUntil(
                body=tuple(control_from_dict(o) for o in d["body"]),
                condition_pipeline=int(d["condition_pipeline"]),
                max_iterations=int(d["max_iterations"]),
            )
        if kind == "swap_vars":
            return SwapVars(a=str(d["a"]), b=str(d["b"]))
        if kind == "cache_swap":
            return CacheSwap(caches=tuple(int(c) for c in d["caches"]))
        if kind == "halt":
            return Halt()
    except (KeyError, ValueError, TypeError) as exc:
        raise SerializationError(f"bad control record {d!r}") from exc
    raise SerializationError(f"unknown control op kind {d.get('op')!r}")


# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------
def program_to_dict(prog: VisualProgram) -> Dict[str, Any]:
    return {
        "format": "nsc-visual-program",
        "version": 1,
        "name": prog.name,
        "declarations": [
            {
                "name": dcl.name,
                "plane": dcl.plane,
                "length": dcl.length,
                "initializer": dcl.initializer,
            }
            for dcl in prog.declarations.values()
        ],
        "pipelines": [pipeline_to_dict(p) for p in prog.pipelines],
        "control": [control_to_dict(op) for op in prog.control],
    }


def program_from_dict(d: Dict[str, Any]) -> VisualProgram:
    if d.get("format") != "nsc-visual-program":
        raise SerializationError("not a serialized NSC visual program")
    prog = VisualProgram(name=str(d.get("name", "untitled")))
    for dcl in d.get("declarations", []):
        prog.declare(
            name=str(dcl["name"]),
            plane=int(dcl["plane"]),
            length=int(dcl["length"]),
            initializer=str(dcl.get("initializer", "")),
        )
    for p in d.get("pipelines", []):
        prog.pipelines.append(pipeline_from_dict(p))
    prog.renumber()
    for op in d.get("control", []):
        prog.add_control(control_from_dict(op))
    return prog


def dumps(prog: VisualProgram, indent: int = 2) -> str:
    return json.dumps(program_to_dict(prog), indent=indent)


def loads(text: str) -> VisualProgram:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return program_from_dict(data)


def save(prog: VisualProgram, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(prog))


def load(path: str) -> VisualProgram:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


__all__ = [
    "SerializationError",
    "endpoint_to_dict",
    "endpoint_from_dict",
    "pipeline_to_dict",
    "pipeline_from_dict",
    "control_to_dict",
    "control_from_dict",
    "program_to_dict",
    "program_from_dict",
    "dumps",
    "loads",
    "save",
    "load",
]
