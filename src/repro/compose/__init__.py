"""Pipeline-construction aids layered over the semantic model.

The paper closes by noting that a visual environment "is still essentially a
low-level programming language" and points at higher-level front ends as the
open question (§6).  This package is that layer in embryonic form: a
:class:`PipelineBuilder` that allocates functional units and wires diagrams
programmatically, an expression-graph mapper, and the complete point-Jacobi
program of the paper's running example (Eq. 1 / Figs. 2 and 11).
"""

from repro._lazy import lazy_exports

__all__ = [
    "PipelineBuilder",
    "BuilderError",
    "ConstOperand",
    "FeedbackOperand",
    "Expr",
    "Var",
    "Const",
    "BinOp",
    "UnOp",
    "map_expression",
    "JacobiSetup",
    "build_jacobi_program",
    "jacobi_grid_index",
    "RBSORSetup",
    "build_rbsor_program",
    "load_rbsor_inputs",
    "SOLVERS",
    "SolverEntry",
    "KernelSetup",
    "build_chain_program",
    "build_heat1d_program",
    "build_saxpy_program",
    "build_stream_max_program",
    "build_wide_program",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "builders": (
            "PipelineBuilder",
            "BuilderError",
            "ConstOperand",
            "FeedbackOperand",
        ),
        "exprmap": ("Expr", "Var", "Const", "BinOp", "UnOp", "map_expression"),
        "jacobi": ("JacobiSetup", "build_jacobi_program", "jacobi_grid_index"),
        "iterative": ("RBSORSetup", "build_rbsor_program", "load_rbsor_inputs"),
        "registry": ("SOLVERS", "SolverEntry"),
        "kernels": (
            "KernelSetup",
            "build_chain_program",
            "build_heat1d_program",
            "build_saxpy_program",
            "build_stream_max_program",
            "build_wide_program",
        ),
    },
)
