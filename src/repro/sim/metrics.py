"""Performance accounting: achieved MFLOPS, utilization, traffic.

Paper §2 gives the yardsticks: "Projected peak performance of the system is
quite high, with a maximum rate of 640 MFLOPS per node.  A 64-node NSC would
have ... maximum performance of 40 GFLOPS."  Benchmark C1 compares the
simulator's achieved rates against those peaks and explains the gap
(pipeline fill, reconfiguration, DMA contention).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, TYPE_CHECKING

from repro.arch.params import NSCParameters
from repro.sim.sequencer import SequencerResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.machine import NSCMachine


class RunMetrics(NamedTuple):
    """Summary of one program run on one node."""

    cycles: int
    instructions: int
    flops: int
    words_moved: int
    clock_mhz: float
    peak_mflops: float
    n_fus: int
    active_fu_cycles: int
    interrupts_delivered: int

    @property
    def elapsed_us(self) -> float:
        return self.cycles / self.clock_mhz

    @property
    def achieved_mflops(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.flops / self.elapsed_us

    @property
    def efficiency(self) -> float:
        """Achieved / peak (0..1)."""
        if self.peak_mflops == 0:
            return 0.0
        return self.achieved_mflops / self.peak_mflops

    @property
    def fu_utilization(self) -> float:
        """Fraction of FU-cycles doing useful work."""
        denom = self.n_fus * self.cycles
        if denom == 0:
            return 0.0
        return self.active_fu_cycles / denom

    @property
    def words_per_flop(self) -> float:
        if self.flops == 0:
            return 0.0
        return self.words_moved / self.flops

    def summary(self) -> Dict[str, float]:
        return {
            "cycles": float(self.cycles),
            "instructions": float(self.instructions),
            "flops": float(self.flops),
            "elapsed_us": self.elapsed_us,
            "achieved_mflops": self.achieved_mflops,
            "peak_mflops": self.peak_mflops,
            "efficiency": self.efficiency,
            "fu_utilization": self.fu_utilization,
            "words_moved": float(self.words_moved),
        }

    def format(self) -> str:
        return format_summary(self.summary())


def format_summary(summary: Dict[str, float]) -> str:
    """One line from a :meth:`RunMetrics.summary` — the ``metrics`` a job
    record carries."""
    return (
        f"{int(summary['instructions'])} instructions, "
        f"{int(summary['cycles'])} cycles "
        f"({summary['elapsed_us']:.1f} us): "
        f"{summary['achieved_mflops']:.1f} MFLOPS "
        f"of {summary['peak_mflops']:.0f} peak "
        f"({100 * summary['efficiency']:.1f}%), FU utilization "
        f"{100 * summary['fu_utilization']:.1f}%"
    )


def collect_metrics(
    machine: "NSCMachine", result: SequencerResult
) -> RunMetrics:
    """Build :class:`RunMetrics` from a finished run."""
    params: NSCParameters = machine.node.params
    active_fu_cycles = sum(
        r.active_fus * r.vector_length for r in result.pipeline_results
    )
    return RunMetrics(
        cycles=result.total_cycles,
        instructions=result.instructions_issued,
        flops=result.total_flops,
        words_moved=machine.dma.stats.words_moved,
        clock_mhz=params.clock_mhz,
        peak_mflops=params.peak_mflops_per_node,
        n_fus=machine.node.n_fus,
        active_fu_cycles=active_fu_cycles,
        interrupts_delivered=len(machine.interrupts.delivered),
    )


__all__ = ["RunMetrics", "collect_metrics", "format_summary"]
