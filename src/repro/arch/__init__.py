"""NSC node architecture: the machine model underneath the visual environment.

This subpackage is the "knowledge" the paper's checker and microcode
generator rely on: every hardware resource of a Navier-Stokes Computer node
is described here, in a parameterized form so that architectural subsets
(the paper's §6 programmability/performance trade-off) can be expressed by
swapping parameter sets rather than code.
"""

from repro._lazy import lazy_exports

__all__ = [
    "NSCParameters",
    "SUBSET_PARAMS",
    "FUCapability",
    "Opcode",
    "OpInfo",
    "OPCODES",
    "ALSKind",
    "ALSClass",
    "ALSInstance",
    "FUSlot",
    "NodeConfig",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "params": ("NSCParameters", "SUBSET_PARAMS"),
        "funcunit": ("FUCapability", "Opcode", "OpInfo", "OPCODES"),
        "als": ("ALSKind", "ALSClass", "ALSInstance", "FUSlot"),
        "node": ("NodeConfig",),
    },
)
