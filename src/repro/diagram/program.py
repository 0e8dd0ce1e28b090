"""Visual programs: declarations, pipeline sequences, and control flow.

Paper §5 reserves a region of the display "for control flow specifications
and variable declarations, which are not implemented in the prototype"; §2
describes the central sequencer that "provides high-level control flow".
We implement both: a program is an ordered series of pipeline diagrams plus
a control script of sequencer operations.

Control operations:

- :class:`ExecPipeline` — issue one pipeline (one instruction) and wait for
  its completion interrupt;
- :class:`Repeat` — run a block a fixed number of times;
- :class:`LoopUntil` — run a block until the condition interrupt of its
  final pipeline reports true (the Jacobi residual check), bounded by
  ``max_iterations``;
- :class:`SwapVars` — exchange the storage bindings of two equal-length
  variables between phases (the paper's §3 note that arrays sometimes must
  be "relocated between phases of the computation");
- :class:`CacheSwap` — flip the double buffers of the named caches;
- :class:`Halt` — stop the sequencer.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro._records import checked
from repro.diagram.pipeline import PipelineDiagram


class ProgramError(Exception):
    """Structural misuse of a program (bad pipeline index, duplicate name...)."""


@checked
class Declaration(NamedTuple):
    """A variable declaration: name, memory plane, length in words, and an
    optional initializer tag interpreted by the host loading the program."""

    name: str
    plane: int
    length: int
    initializer: str = ""

    def _checked(self) -> "Declaration":
        if not self.name:
            raise ProgramError("variable name must be non-empty")
        if self.length <= 0:
            raise ProgramError(f"variable {self.name!r} must have positive length")
        if self.plane < 0:
            raise ProgramError(f"variable {self.name!r} names a negative plane")
        return self


class ExecPipeline(NamedTuple):
    pipeline: int  # index into VisualProgram.pipelines


@checked
class Repeat(NamedTuple):
    body: Tuple["ControlOp", ...]
    times: int

    def _checked(self) -> "Repeat":
        if self.times < 0:
            raise ProgramError("Repeat.times must be non-negative")
        return self


@checked
class LoopUntil(NamedTuple):
    """Run *body* until the condition of pipeline ``condition_pipeline``
    (typically the last one executed in the body) evaluates true."""

    body: Tuple["ControlOp", ...]
    condition_pipeline: int
    max_iterations: int = 10_000

    def _checked(self) -> "LoopUntil":
        if self.max_iterations <= 0:
            raise ProgramError("LoopUntil.max_iterations must be positive")
        return self


class SwapVars(NamedTuple):
    a: str
    b: str


class CacheSwap(NamedTuple):
    caches: Tuple[int, ...]


class Halt(NamedTuple):
    pass


ControlOp = Union[ExecPipeline, Repeat, LoopUntil, SwapVars, CacheSwap, Halt]


class VisualProgram:
    """A complete visual program for one NSC node."""

    def __init__(self, name: str = "untitled") -> None:
        self.name = name
        self.declarations: Dict[str, Declaration] = {}
        self.pipelines: List[PipelineDiagram] = []
        self.control: List[ControlOp] = []

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------
    def declare(
        self, name: str, plane: int, length: int, initializer: str = ""
    ) -> Declaration:
        if name in self.declarations:
            raise ProgramError(f"variable {name!r} already declared")
        decl = Declaration(name=name, plane=plane, length=length, initializer=initializer)
        self.declarations[name] = decl
        return decl

    # ------------------------------------------------------------------
    # pipeline management (the editor's control-panel operations, §5)
    # ------------------------------------------------------------------
    def insert_pipeline(
        self, diagram: PipelineDiagram, at: Optional[int] = None
    ) -> int:
        index = len(self.pipelines) if at is None else at
        if not (0 <= index <= len(self.pipelines)):
            raise ProgramError(f"insert position {index} out of range")
        self.pipelines.insert(index, diagram)
        self.renumber()
        return index

    def delete_pipeline(self, index: int) -> PipelineDiagram:
        self._check_index(index)
        removed = self.pipelines.pop(index)
        self.renumber()
        return removed

    def copy_pipeline(self, index: int, to: Optional[int] = None) -> int:
        """Duplicate pipeline *index*; the copy lands at *to* (default:
        immediately after the original)."""
        self._check_index(index)
        dest = index + 1 if to is None else to
        dup = self.pipelines[index].copy()
        return self.insert_pipeline(dup, at=dest)

    def renumber(self) -> None:
        for i, p in enumerate(self.pipelines):
            p.number = i

    def _check_index(self, index: int) -> None:
        if not (0 <= index < len(self.pipelines)):
            raise ProgramError(
                f"pipeline index {index} out of range "
                f"(program has {len(self.pipelines)})"
            )

    # ------------------------------------------------------------------
    # control flow
    # ------------------------------------------------------------------
    def add_control(self, op: ControlOp) -> None:
        self._validate_control(op)
        self.control.append(op)

    def _validate_control(self, op: ControlOp) -> None:
        if isinstance(op, ExecPipeline):
            self._check_index(op.pipeline)
        elif isinstance(op, (Repeat, LoopUntil)):
            for inner in op.body:
                self._validate_control(inner)
            if isinstance(op, LoopUntil):
                self._check_index(op.condition_pipeline)
                if self.pipelines[op.condition_pipeline].condition is None:
                    raise ProgramError(
                        f"LoopUntil watches pipeline {op.condition_pipeline}, "
                        f"which declares no condition"
                    )
        elif isinstance(op, SwapVars):
            for name in (op.a, op.b):
                if name not in self.declarations:
                    raise ProgramError(f"SwapVars names undeclared variable {name!r}")
            da, db = self.declarations[op.a], self.declarations[op.b]
            if da.length != db.length:
                raise ProgramError(
                    f"SwapVars requires equal lengths: {op.a}={da.length}, "
                    f"{op.b}={db.length}"
                )
        elif isinstance(op, (CacheSwap, Halt)):
            pass
        else:  # pragma: no cover - defensive
            raise ProgramError(f"unknown control op {op!r}")

    def default_control(self) -> List[ControlOp]:
        """Straight-line execution of every pipeline, used when the control
        region is left empty (as in the paper's prototype)."""
        return [ExecPipeline(i) for i in range(len(self.pipelines))] + [Halt()]

    def effective_control(self) -> List[ControlOp]:
        return list(self.control) if self.control else self.default_control()

    def stats(self) -> Dict[str, int]:
        return {
            "pipelines": len(self.pipelines),
            "declarations": len(self.declarations),
            "control_ops": len(self.effective_control()),
            "connections": sum(len(p.connections) for p in self.pipelines),
        }

    def __repr__(self) -> str:
        return (
            f"VisualProgram({self.name!r}: {len(self.pipelines)} pipelines, "
            f"{len(self.declarations)} variables)"
        )


__all__ = [
    "VisualProgram",
    "ProgramError",
    "Declaration",
    "ControlOp",
    "ExecPipeline",
    "Repeat",
    "LoopUntil",
    "SwapVars",
    "CacheSwap",
    "Halt",
]
