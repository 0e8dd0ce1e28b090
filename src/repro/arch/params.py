"""Machine parameters for a Navier-Stokes Computer node.

The paper (§2) fixes the headline numbers: 32 functional units per node,
memory in 16 planes of 128 Mbytes (2 Gbytes per node), 16 double-buffered
data caches, two shift/delay units, and a projected peak of 640 MFLOPS per
node.  Everything else (register-file depth, switch fan-out, latencies) is
not specified in the paper; we choose defaults consistent with the era and
make every quantity a parameter so the checker's knowledge base can be
re-targeted when the machine design changes — the robustness argument the
paper makes for having a checker at all.

The peak rate pins the clock: 640 MFLOPS / 32 FUs = 20 MHz per functional
unit (one floating-point result per cycle once a pipeline is full).
"""

from __future__ import annotations

from typing import NamedTuple

from repro._records import checked


MBYTE = 1 << 20
KBYTE = 1 << 10


@checked
class NSCParameters(NamedTuple):
    """Complete parameterization of one NSC node.

    Instances are immutable; derive variants with :meth:`subset`.
    """

    # --- functional units and ALS composition (must total n_functional_units)
    n_functional_units: int = 32
    n_singlets: int = 4
    n_doublets: int = 8
    n_triplets: int = 4

    # --- memory system
    n_memory_planes: int = 16
    memory_plane_bytes: int = 128 * MBYTE
    n_caches: int = 16
    cache_buffer_words: int = 8 * KBYTE  # per buffer; caches are double-buffered
    word_bytes: int = 8  # 64-bit floating point words

    # --- stream reformatting
    n_shift_delay_units: int = 2
    shift_delay_taps: int = 8          # output taps per shift/delay unit
    shift_delay_max_shift: int = 4096  # maximum element shift per tap

    # --- register files (one per functional unit)
    regfile_words: int = 64

    # --- switch network (FLONET)
    switch_max_fanout: int = 4  # sinks one source may drive

    # --- timing (cycles)
    clock_mhz: float = 20.0
    fu_latency_fp: int = 5        # floating point pipeline depth
    fu_latency_int: int = 2       # integer/logical pipeline depth
    fu_latency_minmax: int = 3    # max/min pipeline depth
    fu_latency_div: int = 17      # division is iterative
    switch_latency: int = 1       # cycles through FLONET per hop
    memory_latency: int = 8       # plane access start-up
    cache_latency: int = 2        # cache access start-up
    dma_startup_cycles: int = 12  # DMA program load / arbitration
    instruction_reconfig_cycles: int = 64  # switch reprogramming between pipelines

    # --- system level
    hypercube_dim: int = 6        # 64 nodes, per the paper's §2 example
    router_hop_cycles: int = 10
    router_link_words_per_cycle: float = 0.5

    # --- interrupt scheme
    interrupt_latency_cycles: int = 4

    def _checked(self) -> "NSCParameters":
        total = self.n_singlets + 2 * self.n_doublets + 3 * self.n_triplets
        if total != self.n_functional_units:
            raise ValueError(
                f"ALS composition covers {total} functional units, expected "
                f"{self.n_functional_units} "
                f"({self.n_singlets} singlets + {self.n_doublets} doublets + "
                f"{self.n_triplets} triplets)"
            )
        for name in (
            "n_functional_units",
            "n_memory_planes",
            "memory_plane_bytes",
            "n_caches",
            "cache_buffer_words",
            "word_bytes",
            "n_shift_delay_units",
            "shift_delay_taps",
            "regfile_words",
            "switch_max_fanout",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.hypercube_dim < 0:
            raise ValueError("hypercube_dim must be >= 0")
        if self.clock_mhz <= 0:
            raise ValueError("clock_mhz must be positive")
        return self

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def n_als(self) -> int:
        """Total number of arithmetic-logic structures."""
        return self.n_singlets + self.n_doublets + self.n_triplets

    @property
    def node_memory_bytes(self) -> int:
        """Total plane memory per node (2 Gbytes in the paper)."""
        return self.n_memory_planes * self.memory_plane_bytes

    @property
    def memory_plane_words(self) -> int:
        return self.memory_plane_bytes // self.word_bytes

    @property
    def peak_mflops_per_node(self) -> float:
        """One FP result per FU per cycle: 32 x 20 MHz = 640 MFLOPS."""
        return self.n_functional_units * self.clock_mhz

    @property
    def n_nodes(self) -> int:
        return 1 << self.hypercube_dim

    @property
    def peak_gflops_system(self) -> float:
        """Paper §2: a 64-node NSC peaks at 40 GFLOPS."""
        return self.peak_mflops_per_node * self.n_nodes / 1000.0

    @property
    def system_memory_bytes(self) -> int:
        """Paper §2: a 64-node NSC has 128 Gbytes."""
        return self.node_memory_bytes * self.n_nodes

    # ------------------------------------------------------------------
    # variants
    # ------------------------------------------------------------------
    def subset(self, **overrides: object) -> "NSCParameters":
        """Return a modified copy, used for architectural-subset studies."""
        return self._replace(**overrides)._checked()


#: The paper's §6 suggestion: "use a simpler architectural model, perhaps a
#: subset of the NSC".  This subset keeps only doublets (uniform ALSs), half
#: the memory planes, no shift/delay units and a single cache per plane,
#: trading performance for programmability.  Benchmark C5 quantifies the
#: trade-off.
SUBSET_PARAMS = NSCParameters(
    n_functional_units=16,
    n_singlets=0,
    n_doublets=8,
    n_triplets=0,
    n_memory_planes=8,
    n_caches=8,
    n_shift_delay_units=1,
    hypercube_dim=0,
)

DEFAULT_PARAMS = NSCParameters()

__all__ = ["NSCParameters", "DEFAULT_PARAMS", "SUBSET_PARAMS", "MBYTE", "KBYTE"]
