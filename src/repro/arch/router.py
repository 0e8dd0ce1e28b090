"""The hyperspace router: inter-node communication over a hypercube.

Paper §1/§2: "multiple processing nodes arranged in a hypercube
configuration ... Communication between nodes is handled by means of a
hyperspace router."  The paper deliberately scopes the visual environment to
single-node programming, so the router here serves the multi-node simulation
layer (:mod:`repro.sim.multinode`) used for the 64-node performance claim
(benchmark C1): e-cube dimension-ordered routing with a simple
hops-plus-serialization cost model and per-link traffic accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Tuple

from repro.arch.params import NSCParameters


class RoutingError(Exception):
    """Bad node id or malformed route request."""


class HypercubeTopology:
    """A ``dim``-dimensional binary hypercube of ``2**dim`` nodes."""

    def __init__(self, dim: int) -> None:
        if dim < 0:
            raise RoutingError("hypercube dimension must be >= 0")
        self.dim = dim
        self.n_nodes = 1 << dim

    def check_node(self, node: int) -> None:
        if not (0 <= node < self.n_nodes):
            raise RoutingError(
                f"node {node} out of range for {self.dim}-cube "
                f"({self.n_nodes} nodes)"
            )

    def neighbors(self, node: int) -> List[int]:
        """Nodes one hop away (Hamming distance 1)."""
        self.check_node(node)
        return [node ^ (1 << d) for d in range(self.dim)]

    def distance(self, a: int, b: int) -> int:
        """Hop count between *a* and *b* (Hamming distance)."""
        self.check_node(a)
        self.check_node(b)
        return (a ^ b).bit_count()

    def route(self, src: int, dst: int) -> List[int]:
        """E-cube (dimension-ordered) path from *src* to *dst*, inclusive."""
        self.check_node(src)
        self.check_node(dst)
        path = [src]
        cur = src
        diff = src ^ dst
        for d in range(self.dim):
            if diff & (1 << d):
                cur ^= 1 << d
                path.append(cur)
        return path

    def links(self) -> Iterator[Tuple[int, int]]:
        """Every undirected link, each reported once as (low, high)."""
        for node in range(self.n_nodes):
            for d in range(self.dim):
                other = node ^ (1 << d)
                if node < other:
                    yield (node, other)


class Message(NamedTuple):
    """One inter-node transfer of ``words`` 64-bit words."""

    src: int
    dst: int
    words: int
    tag: str = ""


@dataclass
class LinkStats:
    messages: int = 0
    words: int = 0


class HyperspaceRouter:
    """Routes messages over a hypercube with per-link traffic accounting.

    The cost model charges ``router_hop_cycles`` per hop for the header plus
    serialization at ``router_link_words_per_cycle`` on each link traversed
    (store-and-forward, matching the era's routers).
    """

    def __init__(self, params: NSCParameters) -> None:
        self.params = params
        self.topology = HypercubeTopology(params.hypercube_dim)
        self.link_stats: Dict[Tuple[int, int], LinkStats] = {}
        self.messages_sent = 0

    def _link_key(self, a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def send(self, message: Message) -> int:
        """Deliver *message*; returns the transfer latency in cycles."""
        path = self.topology.route(message.src, message.dst)
        hops = len(path) - 1
        if hops == 0:
            return 0  # local delivery is free
        for a, b in zip(path, path[1:]):
            stats = self.link_stats.setdefault(self._link_key(a, b), LinkStats())
            stats.messages += 1
            stats.words += message.words
        self.messages_sent += 1
        serialization = int(
            round(message.words / self.params.router_link_words_per_cycle)
        )
        return hops * (self.params.router_hop_cycles + serialization)

    def exchange(self, pairs: List[Message]) -> int:
        """Perform a set of concurrent transfers; returns the makespan.

        Transfers proceed in parallel; the makespan is the slowest transfer
        after accounting for contention (multiple messages sharing a link
        serialize on it).
        """
        link_load: Dict[Tuple[int, int], int] = {}
        latencies: List[int] = []
        for msg in pairs:
            path = self.topology.route(msg.src, msg.dst)
            base = self.send(msg)
            contention = 0
            for a, b in zip(path, path[1:]):
                key = self._link_key(a, b)
                contention = max(contention, link_load.get(key, 0))
                link_load[key] = link_load.get(key, 0) + int(
                    round(msg.words / self.params.router_link_words_per_cycle)
                )
            latencies.append(base + contention)
        return max(latencies, default=0)

    @property
    def total_words(self) -> int:
        return sum(s.words for s in self.link_stats.values())

    def busiest_link(self) -> Tuple[Tuple[int, int], LinkStats] | None:
        if not self.link_stats:
            return None
        key = max(self.link_stats, key=lambda k: self.link_stats[k].words)
        return key, self.link_stats[key]


__all__ = [
    "HypercubeTopology",
    "HyperspaceRouter",
    "Message",
    "LinkStats",
    "RoutingError",
]
