"""Microcode generation from the editor's semantic data structures.

Paper §3: the NSC has no assembly language; "each instruction must be
specified in a complex hierarchical microcode which contains specific
control for every function unit, register file, switch setting, DMA unit,
etc. ...  This requires a few thousand bits of information per instruction,
encoded in dozens of separate fields."  §5: "The microcode generator would
later derive switch settings by interrogating the connection tables built by
the graphical editor."

This package derives those switch settings, balances stream timing with
register-file delay queues, resolves DMA programs against the variable
table, and emits both executable pipeline images (for the simulator) and
bit-exact microwords (for the size/effort claims).
"""

from repro._lazy import lazy_exports

__all__ = [
    "MicrowordLayout",
    "Microword",
    "TimingPlan",
    "TimingError",
    "balance_pipeline",
    "MicrocodeGenerator",
    "CodegenError",
    "MachineProgram",
    "PipelineImage",
    "ResolvedInput",
    "disassemble_program",
    "assembly_token_count",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "microword": ("MicrowordLayout", "Microword"),
        "timing": ("TimingPlan", "balance_pipeline", "TimingError"),
        "generator": (
            "MicrocodeGenerator",
            "CodegenError",
            "MachineProgram",
            "PipelineImage",
            "ResolvedInput",
        ),
        "asmtext": ("disassemble_program", "assembly_token_count"),
    },
)
