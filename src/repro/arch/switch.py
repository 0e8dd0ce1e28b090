"""The FLONET switch network: endpoint addressing and route derivation.

Paper §2: "A complex programmable switching network routes data among ALSs,
memory planes, caches, and shift-delay units."  Fig. 2 labels portions of it
FLONET.  The visual environment never shows switch settings to the user;
they are *derived* from the drawn connections ("The microcode generator
would later derive switch settings by interrogating the connection tables
built by the graphical editor", §5).

We model the network as a crossbar over typed endpoints with two physical
restrictions the checker enforces:

- every sink (a stream consumer) is driven by at most one source, and
- a source may fan out to at most ``switch_max_fanout`` sinks.

Endpoints are canonical: the constructors below (:func:`fu_in`,
:func:`fu_out`, :func:`mem_read`, :func:`mem_write`, :func:`cache_read`,
:func:`cache_write`, :func:`sd_in`, :func:`sd_tap`, and the generic
:func:`endpoint`) hand out one shared instance per ``(kind, device,
port)``, so the wiring tables that builder, checker, generator and plan
compiler query hit CPython's identity fast path instead of comparing
fields.  Code outside this module builds endpoints only through them.
Identity is an optimisation, never a contract: an endpoint built
directly with ``Endpoint(...)`` (or unpickled, or evicted from the
bounded table) is equal to, hashes like, and sorts like the canonical
one, and pickling rebuilds through :func:`endpoint`.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Tuple

from repro.arch.params import NSCParameters


class DeviceKind(enum.Enum):
    """Classes of devices with switch-network ports."""

    FU = "fu"                  # functional unit: sinks a/b, source out
    MEMORY = "mem"             # memory plane: source read, sink write
    CACHE = "cache"            # data cache: source read, sink write
    SHIFT_DELAY = "sd"         # shift/delay unit: sink in, sources tap<k>

    # members are singletons: hash by identity in C (see Opcode)
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Endpoint:
    """A named port on a device: the thing an I/O pad stands for."""

    kind: DeviceKind
    device: int
    port: str

    def __post_init__(self) -> None:
        # endpoints key every wiring index the compiler and checker
        # query: hash the field tuple once instead of rebuilding it in
        # the generated __hash__ on every lookup
        object.__setattr__(self, "_hash", hash((self.kind, self.device, self.port)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self) -> Tuple[object, Tuple[DeviceKind, int, str]]:
        # the cached hash is only valid under this process's hash seed:
        # rebuild (re-hash, re-intern) in the loading process instead
        return endpoint, (self.kind, self.device, self.port)

    def __setstate__(self, state: Dict[str, object]) -> None:
        # pickles written before endpoints reduced by value carry their
        # fields plus a hash from the writing process: re-derive it here
        self.__dict__.update(state)
        self.__post_init__()

    def __lt__(self, other: "Endpoint") -> bool:
        if not isinstance(other, Endpoint):
            return NotImplemented
        return self.key < other.key

    def __str__(self) -> str:  # e.g. fu3.a, mem[2].read, sd[0].tap1
        if self.kind is DeviceKind.FU:
            return f"fu{self.device}.{self.port}"
        return f"{self.kind.value}[{self.device}].{self.port}"

    @property
    def key(self) -> Tuple[str, int, str]:
        return (self.kind.value, self.device, self.port)


#: Bound on each device kind's endpoint table: far above any machine's
#: port count, so real programs never evict, while a stream of
#: out-of-range device numbers cannot grow the process without limit.
ENDPOINT_TABLE_SIZE = 4096


def _table(kind: DeviceKind) -> Callable[[int, str], Endpoint]:
    # one table per kind, keyed on (device, port): fu_in, mem_read and
    # the other helpers call their kind's table directly, with no kind
    # argument to pass, hash or look up (reading ``DeviceKind.FU`` is an
    # attribute lookup through the enum metaclass), and a flood of one
    # kind's out-of-range devices cannot evict another kind's endpoints
    @functools.lru_cache(maxsize=ENDPOINT_TABLE_SIZE)
    def canonical(device: int, port: str) -> Endpoint:
        return Endpoint(kind, device, port)

    return canonical


_TABLES = {kind: _table(kind) for kind in DeviceKind}
_FU = _TABLES[DeviceKind.FU]
_MEM = _TABLES[DeviceKind.MEMORY]
_CACHE = _TABLES[DeviceKind.CACHE]
_SD = _TABLES[DeviceKind.SHIFT_DELAY]


def endpoint(kind: DeviceKind, device: int, port: str) -> Endpoint:
    """The canonical endpoint for ``(kind, device, port)``."""
    return _TABLES[kind](device, port)


def fu_in(fu: int, port: str) -> Endpoint:
    if port not in ("a", "b"):
        raise ValueError(f"FU input port must be 'a' or 'b', got {port!r}")
    return _FU(fu, port)


def fu_out(fu: int) -> Endpoint:
    return _FU(fu, "out")


def mem_read(plane: int) -> Endpoint:
    return _MEM(plane, "read")


def mem_write(plane: int) -> Endpoint:
    return _MEM(plane, "write")


def cache_read(cache: int) -> Endpoint:
    return _CACHE(cache, "read")


def cache_write(cache: int) -> Endpoint:
    return _CACHE(cache, "write")


def sd_in(unit: int) -> Endpoint:
    return _SD(unit, "in")


def sd_tap(unit: int, tap: int) -> Endpoint:
    return _SD(unit, f"tap{tap}")


class SwitchRouteError(Exception):
    """A requested routing violates the switch network's physical limits."""


class SwitchSetting(NamedTuple):
    """One crosspoint: *source* drives *sink*."""

    source: Endpoint
    sink: Endpoint

    def __str__(self) -> str:
        return f"{self.source} -> {self.sink}"


class SwitchNetwork:
    """Endpoint inventory and route validation for one node's FLONET."""

    def __init__(self, params: NSCParameters, n_fus: int) -> None:
        self.params = params
        self.n_fus = n_fus
        self._sources = frozenset(self._enumerate_sources())
        self._sinks = frozenset(self._enumerate_sinks())

    # ------------------------------------------------------------------
    # inventory
    # ------------------------------------------------------------------
    def _enumerate_sources(self) -> Iterable[Endpoint]:
        for fu in range(self.n_fus):
            yield fu_out(fu)
        for plane in range(self.params.n_memory_planes):
            yield mem_read(plane)
        for cache in range(self.params.n_caches):
            yield cache_read(cache)
        for unit in range(self.params.n_shift_delay_units):
            for tap in range(self.params.shift_delay_taps):
                yield sd_tap(unit, tap)

    def _enumerate_sinks(self) -> Iterable[Endpoint]:
        for fu in range(self.n_fus):
            yield fu_in(fu, "a")
            yield fu_in(fu, "b")
        for plane in range(self.params.n_memory_planes):
            yield mem_write(plane)
        for cache in range(self.params.n_caches):
            yield cache_write(cache)
        for unit in range(self.params.n_shift_delay_units):
            yield sd_in(unit)

    @property
    def sources(self) -> frozenset[Endpoint]:
        return self._sources

    @property
    def sinks(self) -> frozenset[Endpoint]:
        return self._sinks

    def is_source(self, ep: Endpoint) -> bool:
        return ep in self._sources

    def is_sink(self, ep: Endpoint) -> bool:
        return ep in self._sinks

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def derive_settings(
        self, connections: Iterable[Tuple[Endpoint, Endpoint]]
    ) -> List[SwitchSetting]:
        """Translate (source, sink) pairs into crosspoint settings.

        Raises :class:`SwitchRouteError` on unknown endpoints, multiply
        driven sinks, or fan-out beyond ``switch_max_fanout``.
        """
        settings: List[SwitchSetting] = []
        sink_driver: Dict[Endpoint, Endpoint] = {}
        fanout: Dict[Endpoint, int] = {}
        for source, sink in connections:
            if not self.is_source(source):
                raise SwitchRouteError(f"{source} is not a switch source")
            if not self.is_sink(sink):
                raise SwitchRouteError(f"{sink} is not a switch sink")
            if sink in sink_driver:
                raise SwitchRouteError(
                    f"sink {sink} already driven by {sink_driver[sink]}"
                )
            fanout[source] = fanout.get(source, 0) + 1
            if fanout[source] > self.params.switch_max_fanout:
                raise SwitchRouteError(
                    f"source {source} exceeds fan-out limit "
                    f"{self.params.switch_max_fanout}"
                )
            sink_driver[sink] = source
            settings.append(SwitchSetting(source=source, sink=sink))
        return settings


__all__ = [
    "DeviceKind",
    "Endpoint",
    "SwitchNetwork",
    "SwitchSetting",
    "SwitchRouteError",
    "endpoint",
    "fu_in",
    "fu_out",
    "mem_read",
    "mem_write",
    "cache_read",
    "cache_write",
    "sd_in",
    "sd_tap",
]
