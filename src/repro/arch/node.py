"""Whole-node assembly: the static resource inventory of one NSC node.

:class:`NodeConfig` instantiates every ALS from the parameter set, assigns
global functional-unit indices, and builds the switch network over the
resulting endpoint inventory.  It is the single source of truth the
checker's knowledge base, the code generator, and the simulator all consult
— the paper's robustness argument (§4) that design changes should be
absorbed "merely by updating the knowledge base".
"""

from __future__ import annotations

import functools
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.arch.als import ALS_CLASSES, ALSInstance, ALSKind
from repro.arch.funcunit import FUCapability
from repro.arch.params import DEFAULT_PARAMS, NSCParameters
from repro.arch.switch import SwitchNetwork

#: Parameter sets whose machine tables (the shared :class:`NodeConfig`,
#: the microword layout, the builder's FU ranking) stay resident, least
#: recently used evicted first.  A service sees a handful: the default
#: machine, the subset, and their hypercube-size variants.
MACHINE_TABLES_SIZE = 16


class FUDescriptor(NamedTuple):
    """Resolved description of one functional unit within the node."""

    fu_index: int
    als_id: int
    slot: int
    capability: FUCapability


class NodeConfig:
    """Static description of one NSC node built from an
    :class:`~repro.arch.params.NSCParameters`."""

    def __init__(self, params: Optional[NSCParameters] = None) -> None:
        self.params = params if params is not None else NSCParameters()
        self.als_instances: List[ALSInstance] = []
        self._fus: List[FUDescriptor] = []
        self._build()
        self.switch = SwitchNetwork(self.params, self.n_fus)

    def _build(self) -> None:
        next_fu = 0
        als_id = 0
        plan: List[Tuple[ALSKind, int]] = [
            (ALSKind.SINGLET, self.params.n_singlets),
            (ALSKind.DOUBLET, self.params.n_doublets),
            (ALSKind.TRIPLET, self.params.n_triplets),
        ]
        for kind, count in plan:
            for _ in range(count):
                inst = ALSInstance(als_id=als_id, kind=kind, first_fu=next_fu)
                self.als_instances.append(inst)
                for slot in range(kind.n_units):
                    self._fus.append(
                        FUDescriptor(
                            fu_index=next_fu + slot,
                            als_id=als_id,
                            slot=slot,
                            capability=ALS_CLASSES[kind].slots[slot].capability,
                        )
                    )
                next_fu += kind.n_units
                als_id += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_fus(self) -> int:
        return len(self._fus)

    @property
    def n_als(self) -> int:
        return len(self.als_instances)

    def als(self, als_id: int) -> ALSInstance:
        if not (0 <= als_id < len(self.als_instances)):
            raise IndexError(f"no ALS {als_id} (node has {self.n_als})")
        return self.als_instances[als_id]

    def als_by_name(self, name: str) -> ALSInstance:
        for inst in self.als_instances:
            if inst.name == name:
                return inst
        raise KeyError(f"no ALS named {name!r}")

    def als_of_kind(self, kind: ALSKind) -> List[ALSInstance]:
        return [a for a in self.als_instances if a.kind is kind]

    def fu(self, fu_index: int) -> FUDescriptor:
        if not (0 <= fu_index < self.n_fus):
            raise IndexError(f"no functional unit {fu_index} (node has {self.n_fus})")
        return self._fus[fu_index]

    def fu_capability(self, fu_index: int) -> FUCapability:
        return self.fu(fu_index).capability

    def als_of_fu(self, fu_index: int) -> ALSInstance:
        return self.als(self.fu(fu_index).als_id)

    def fus_with_capability(self, capability: FUCapability) -> List[int]:
        return [
            d.fu_index for d in self._fus if capability in d.capability
        ]

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def inventory(self) -> Dict[str, object]:
        """The Fig. 1 datapath inventory as structured data."""
        p = self.params
        return {
            "functional_units": self.n_fus,
            "als": {
                "singlets": p.n_singlets,
                "doublets": p.n_doublets,
                "triplets": p.n_triplets,
            },
            "memory_planes": p.n_memory_planes,
            "memory_plane_mbytes": p.memory_plane_bytes // (1 << 20),
            "node_memory_gbytes": p.node_memory_bytes / (1 << 30),
            "caches": p.n_caches,
            "cache_buffer_words": p.cache_buffer_words,
            "shift_delay_units": p.n_shift_delay_units,
            "peak_mflops": p.peak_mflops_per_node,
        }

    def peak_mflops(self) -> float:
        return self.params.peak_mflops_per_node

    def __repr__(self) -> str:
        p = self.params
        return (
            f"NodeConfig({self.n_fus} FUs in {p.n_singlets}S/{p.n_doublets}D/"
            f"{p.n_triplets}T, {p.n_memory_planes} planes, {p.n_caches} caches)"
        )


@functools.lru_cache(maxsize=MACHINE_TABLES_SIZE)
def _shared_node(params: NSCParameters) -> NodeConfig:
    return NodeConfig(params)


def node_config(params: Optional[NSCParameters] = None) -> NodeConfig:
    """The process-wide :class:`NodeConfig` for *params*.

    A node description depends only on its parameters and nothing
    mutates it after construction, so every job, slab and hypercube node
    on the same machine shares one instead of rebuilding the inventory
    and switch network.
    """
    return _shared_node(params if params is not None else DEFAULT_PARAMS)


__all__ = ["NodeConfig", "FUDescriptor", "MACHINE_TABLES_SIZE", "node_config"]
