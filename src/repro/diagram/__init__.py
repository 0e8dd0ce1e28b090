"""Semantic model of visual NSC programs.

The paper distinguishes two kinds of internal data the editor maintains
(§4): display-management data (icon positions on screen) and *semantic*
data, "which is needed in order to generate microcode".  This package is the
semantic half: pipeline diagrams (one per instruction), their connections,
function-unit operation assignments, DMA specifications, and whole programs
with declarations and control flow.  The display half lives in
:mod:`repro.editor`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "PipelineDiagram",
    "DiagramView",
    "FUOpAssignment",
    "InputMod",
    "InputModKind",
    "ConditionSpec",
    "VisualProgram",
    "Declaration",
    "ExecPipeline",
    "LoopUntil",
    "Repeat",
    "SwapVars",
    "CacheSwap",
    "Halt",
    "Icon",
    "ALSIcon",
    "MemoryPlaneIcon",
    "CacheIcon",
    "ShiftDelayIcon",
    "icon_for_endpoint_device",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "pipeline": (
            "PipelineDiagram",
            "DiagramView",
            "FUOpAssignment",
            "InputMod",
            "InputModKind",
            "ConditionSpec",
        ),
        "program": (
            "VisualProgram",
            "Declaration",
            "ExecPipeline",
            "LoopUntil",
            "Repeat",
            "SwapVars",
            "CacheSwap",
            "Halt",
        ),
        "icons": (
            "Icon",
            "ALSIcon",
            "MemoryPlaneIcon",
            "CacheIcon",
            "ShiftDelayIcon",
            "icon_for_endpoint_device",
        ),
    },
)
