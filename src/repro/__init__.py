"""Reproduction of *A Visual Programming Environment for the Navier-Stokes
Computer* (Tomboulian, Crockett & Middleton, ICPP 1988 / ICASE 88-6).

The package implements the full system the paper describes:

- :mod:`repro.arch` — the Navier-Stokes Computer (NSC) node architecture:
  functional units, arithmetic-logic structures (ALSs), register files,
  memory planes, double-buffered caches, shift/delay units, the FLONET
  switch network, DMA controllers, interrupts, and the hyperspace router.
- :mod:`repro.diagram` — the semantic model of a visual program: icons,
  pads, connections, pipeline diagrams, and whole programs.
- :mod:`repro.checker` — the knowledge base and constraint rules used to
  validate diagrams incrementally while editing and globally before
  code generation.
- :mod:`repro.codegen` — the microcode generator: timing/delay balancing,
  switch-setting derivation, microword emission, and a textual
  micro-assembler used for effort comparisons.
- :mod:`repro.sim` — a cycle-level simulator for NSC nodes executing the
  generated microcode, plus a hypercube multi-node layer.
- :mod:`repro.editor` — a headless graphical-editor core (canvas, pop-up
  menus, control panel, undo) with ASCII and SVG renderers that regenerate
  the paper's figures.
- :mod:`repro.compose` — pipeline-construction aids: an expression-graph
  mapper and builders for the paper's point-Jacobi example.
- :mod:`repro.apps` — reference NumPy applications (3-D Poisson) used to
  validate simulated results.

Every package exports its names lazily (:mod:`repro._lazy`): importing
``repro`` or a subpackage loads a submodule only when one of its names is
first read.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "NSCParameters",
    "NodeConfig",
    "PipelineDiagram",
    "VisualProgram",
    "Checker",
    "MicrocodeGenerator",
    "NSCMachine",
    "EditorSession",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "arch.params": ("NSCParameters",),
        "arch.node": ("NodeConfig",),
        "diagram.pipeline": ("PipelineDiagram",),
        "diagram.program": ("VisualProgram",),
        "checker.checker": ("Checker",),
        "codegen.generator": ("MicrocodeGenerator",),
        "sim.machine": ("NSCMachine",),
        "editor.session": ("EditorSession",),
    },
)
