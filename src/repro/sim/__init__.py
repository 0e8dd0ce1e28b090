"""Cycle-level simulation of NSC nodes executing generated microcode.

The paper's prototype stopped at semantic data structures because "there is
no means of running actual NSC programs" (§4) — the hardware was never
finished.  This package supplies that missing substrate: vector streams are
pumped through the configured pipeline (NumPy-vectorized, one element per
cycle in the timing model), DMA engines move plane/cache data, the
sequencer walks the control script reacting to completion and condition
interrupts, and metrics report achieved MFLOPS against the 640 MFLOPS/node
peak.  A hypercube layer reproduces the 64-node system claim.
"""

from repro._lazy import lazy_exports

__all__ = [
    "NSCMachine",
    "RunMetrics",
    "SequencerResult",
    "PipelineResult",
    "execute_image",
    "BACKENDS",
    "validate_backend",
    "MultiNodeStencil",
    "MultiNodeResult",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "machine": ("NSCMachine",),
        "metrics": ("RunMetrics",),
        "sequencer": ("SequencerResult",),
        "pipeline_exec": ("PipelineResult", "execute_image"),
        "fastpath": ("BACKENDS", "validate_backend"),
        "multinode": ("MultiNodeStencil", "MultiNodeResult"),
    },
)
