"""The microword: the few-thousand-bit instruction format of the NSC.

Paper §3: an instruction "completely specif[ies] the pipeline configuration
and function unit operations for the entire machine.  This requires a few
thousand bits of information per instruction, encoded in dozens of separate
fields."  The layout below is computed from the machine parameters, so
subset machines get proportionally smaller words; with the default
parameters the word is ~4.7 kbits across ~250 fields — "a few thousand
bits" in "dozens of separate fields", which benchmark C2 audits.

The layout groups:

- per functional unit: opcode, constant selector, input-source selectors,
  per-input delay counts, and routing flags (internal/feedback);
- per memory plane and per cache: a DMA program (enable, direction,
  address, stride, count);
- per shift/delay unit: tap enables and shifts;
- sequencer/condition: monitored unit, comparison, IEEE threshold.

Switch settings are not a separate group: the per-sink source selectors
*are* the crossbar program (one selector per sink port), which is exactly
how the generator "derives switch settings ... from the connection tables".

The layout also resolves its field *handles* once: per FU
(:meth:`MicrowordLayout.fu_fields`), per non-FU sink (``sink_fields``,
keyed by the sink endpoint), per memory plane and cache DMA group
(:meth:`MicrowordLayout.dma_fields`), per shift/delay tap
(:meth:`MicrowordLayout.tap_fields`) and for the sequencer
(``seq_fields``).  The
generator places each value straight into the word's bits through them
(:func:`fit` range-checks it as :meth:`Microword.set_field` does), with
no field name formatted or looked up and no ``{field: value}`` dict, and
:meth:`Microword.from_bits` wraps the finished bits.
"""

from __future__ import annotations

import functools
import struct
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.arch.node import MACHINE_TABLES_SIZE, node_config
from repro.arch.params import NSCParameters
from repro.arch.switch import (
    DeviceKind,
    Endpoint,
    cache_write,
    fu_in,
    mem_write,
    sd_in,
)


_MEMORY = DeviceKind.MEMORY


class FieldError(Exception):
    """Unknown field or out-of-range value."""


class Field(NamedTuple):
    """One named bit-field at a fixed offset within the word.

    A layout holds one handle per field, and handles compare and hash
    by identity, so a word's values can be keyed by them."""

    name: str
    offset: int
    width: int

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    @property
    def max_value(self) -> int:
        return (1 << self.width) - 1


class PortFields(NamedTuple):
    """Handles for one FU input port, with its canonical sink endpoint."""

    sink: Endpoint
    src: Field
    delay: Field
    internal: Field
    feedback: Field
    constant: Field


class FUFields(NamedTuple):
    """Handles for one functional unit's fields; ``ports`` is (a, b)."""

    opcode: Field
    const_sel: Field
    ports: Tuple[PortFields, PortFields]


class DMAFields(NamedTuple):
    """Handles for one memory plane's or cache's DMA group."""

    enable: Field
    dir: Field
    addr: Field
    stride: Field
    count: Field


class SeqFields(NamedTuple):
    """Handles for the sequencer's condition monitor and vector length."""

    cond_enable: Field
    cond_fu: Field
    cond_cmp: Field
    cond_threshold: Field
    vector_length: Field


def signed_to_bits(value: int, width: int) -> int:
    lo = -(1 << (width - 1))
    hi = (1 << (width - 1)) - 1
    if not (lo <= value <= hi):
        raise FieldError(f"signed value {value} does not fit {width} bits")
    return value & ((1 << width) - 1)


def _bits_to_signed(bits: int, width: int) -> int:
    if bits >= 1 << (width - 1):
        return bits - (1 << width)
    return bits


def float_to_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _misfit(field: Field, value: int) -> FieldError:
    return FieldError(
        f"value {value} does not fit field {field.name} ({field.width} bits)"
    )


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


class SourceTable:
    """Enumeration of every switch source as a selector id (0 = none)."""

    def __init__(self, sources: List[Endpoint]) -> None:
        #: source endpoint -> its selector id, which fits :attr:`width`
        self.ids: Dict[Endpoint, int] = {}
        self._by_id: Dict[int, Endpoint] = {}
        for i, ep in enumerate(sorted(sources), start=1):
            self.ids[ep] = i
            self._by_id[i] = ep

    def id_of(self, ep: Optional[Endpoint]) -> int:
        if ep is None:
            return 0
        try:
            return self.ids[ep]
        except KeyError:
            raise FieldError(f"{ep} is not a known switch source") from None

    def endpoint_of(self, sel: int) -> Optional[Endpoint]:
        if sel == 0:
            return None
        try:
            return self._by_id[sel]
        except KeyError:
            raise FieldError(f"selector {sel} names no source") from None

    @property
    def width(self) -> int:
        """Bits needed for a selector (including the 'none' code)."""
        return max(1, (len(self.ids)).bit_length())

    def __len__(self) -> int:
        return len(self.ids)


class MicrowordLayout:
    """Field layout for one machine description."""

    OPCODE_BITS = 6
    CONST_SEL_BITS = 7
    DELAY_BITS = 7
    ADDR_BITS = 24
    STRIDE_BITS = 16
    COUNT_BITS = 24
    SHIFT_BITS = 14
    CMP_BITS = 3

    def __init__(self, params: NSCParameters, n_fus: int, sources: List[Endpoint]):
        self.params = params
        self.n_fus = n_fus
        self.source_table = SourceTable(sources)
        self._fields: Dict[str, Field] = {}
        self._order: List[str] = []
        self._build()
        self._resolve_handles()

    def _add(self, name: str, width: int, cursor: int) -> int:
        if name in self._fields:
            raise FieldError(f"duplicate field {name}")
        self._fields[name] = Field(name=name, offset=cursor, width=width)
        self._order.append(name)
        return cursor + width

    def _build(self) -> None:
        sel = self.source_table.width
        cur = 0
        for fu in range(self.n_fus):
            cur = self._add(f"fu{fu}.opcode", self.OPCODE_BITS, cur)
            cur = self._add(f"fu{fu}.const_sel", self.CONST_SEL_BITS, cur)
            for port in ("a", "b"):
                cur = self._add(f"fu{fu}.{port}.src", sel, cur)
                cur = self._add(f"fu{fu}.{port}.delay", self.DELAY_BITS, cur)
                cur = self._add(f"fu{fu}.{port}.internal", 1, cur)
                cur = self._add(f"fu{fu}.{port}.feedback", 1, cur)
                cur = self._add(f"fu{fu}.{port}.constant", 1, cur)
        for plane in range(self.params.n_memory_planes):
            cur = self._dma_group(f"mem{plane}", cur)
        for cache in range(self.params.n_caches):
            cur = self._dma_group(f"cache{cache}", cur)
        for sink_name, _ in self.non_fu_sinks():
            cur = self._add(f"switch.{sink_name}.src", sel, cur)
        for unit in range(self.params.n_shift_delay_units):
            for tap in range(self.params.shift_delay_taps):
                cur = self._add(f"sd{unit}.tap{tap}.enable", 1, cur)
                cur = self._add(f"sd{unit}.tap{tap}.shift", self.SHIFT_BITS, cur)
        cur = self._add("seq.cond.enable", 1, cur)
        cur = self._add("seq.cond.fu", max(1, (self.n_fus - 1).bit_length()), cur)
        cur = self._add("seq.cond.cmp", self.CMP_BITS, cur)
        cur = self._add("seq.cond.threshold", 64, cur)
        cur = self._add("seq.vector_length", 32, cur)
        self.total_bits = cur

    def _dma_group(self, prefix: str, cur: int) -> int:
        cur = self._add(f"{prefix}.dma.enable", 1, cur)
        cur = self._add(f"{prefix}.dma.dir", 1, cur)  # 0=read, 1=write
        cur = self._add(f"{prefix}.dma.addr", self.ADDR_BITS, cur)
        cur = self._add(f"{prefix}.dma.stride", self.STRIDE_BITS, cur)
        cur = self._add(f"{prefix}.dma.count", self.COUNT_BITS, cur)
        return cur

    def non_fu_sinks(self) -> Iterator[Tuple[str, Endpoint]]:
        """Named non-FU sinks carrying a crossbar selector field."""
        for plane in range(self.params.n_memory_planes):
            yield f"mem{plane}.write", mem_write(plane)
        for cache in range(self.params.n_caches):
            yield f"cache{cache}.write", cache_write(cache)
        for unit in range(self.params.n_shift_delay_units):
            yield f"sd{unit}.in", sd_in(unit)

    def _resolve_handles(self) -> None:
        """Resolve the per-FU and per-sink field handles."""
        f = self._fields
        self._fu_fields: Tuple[FUFields, ...] = tuple(
            FUFields(
                opcode=f[f"fu{fu}.opcode"],
                const_sel=f[f"fu{fu}.const_sel"],
                ports=tuple(  # type: ignore[arg-type]
                    PortFields(
                        sink=fu_in(fu, port),
                        src=f[f"fu{fu}.{port}.src"],
                        delay=f[f"fu{fu}.{port}.delay"],
                        internal=f[f"fu{fu}.{port}.internal"],
                        feedback=f[f"fu{fu}.{port}.feedback"],
                        constant=f[f"fu{fu}.{port}.constant"],
                    )
                    for port in ("a", "b")
                ),
            )
            for fu in range(self.n_fus)
        )
        #: canonical non-FU sink endpoint -> its crossbar selector field
        self.sink_fields: Dict[Endpoint, Field] = {
            ep: f[f"switch.{name}.src"] for name, ep in self.non_fu_sinks()
        }

        def dma(prefix: str) -> DMAFields:
            return DMAFields(*(
                f[f"{prefix}.dma.{part}"] for part in DMAFields._fields
            ))

        # (device kind is memory, device) -> DMA group handles
        self._dma_fields: Dict[Tuple[bool, int], DMAFields] = {
            (True, plane): dma(f"mem{plane}")
            for plane in range(self.params.n_memory_planes)
        }
        self._dma_fields.update(
            ((False, cache), dma(f"cache{cache}"))
            for cache in range(self.params.n_caches)
        )
        self._tap_fields: Dict[Tuple[int, int], Tuple[Field, Field]] = {
            (unit, tap): (
                f[f"sd{unit}.tap{tap}.enable"], f[f"sd{unit}.tap{tap}.shift"]
            )
            for unit in range(self.params.n_shift_delay_units)
            for tap in range(self.params.shift_delay_taps)
        }
        #: the sequencer's handles
        self.seq_fields = SeqFields(
            f["seq.cond.enable"], f["seq.cond.fu"], f["seq.cond.cmp"],
            f["seq.cond.threshold"], f["seq.vector_length"],
        )

    def fu_fields(self, fu: int) -> FUFields:
        """The field handles of functional unit *fu*."""
        if not 0 <= fu < self.n_fus:
            raise FieldError(f"no functional unit fu{fu} in this layout")
        return self._fu_fields[fu]

    def dma_fields(self, ep: Endpoint) -> DMAFields:
        """The DMA group handles of the memory plane or cache behind *ep*."""
        memory = ep.kind is _MEMORY
        try:
            return self._dma_fields[(memory, ep.device)]
        except KeyError:
            prefix = "mem" if memory else "cache"
            raise FieldError(
                f"no field '{prefix}{ep.device}.dma.enable' in this layout"
            ) from None

    def tap_fields(self, unit: int, tap: int) -> Tuple[Field, Field]:
        """The (enable, shift) handles of shift/delay *unit*'s *tap*."""
        try:
            return self._tap_fields[(unit, tap)]
        except KeyError:
            raise FieldError(
                f"no field 'sd{unit}.tap{tap}.enable' in this layout"
            ) from None

    # ------------------------------------------------------------------
    @property
    def fields(self) -> List[Field]:
        return [self._fields[n] for n in self._order]

    @property
    def n_fields(self) -> int:
        return len(self._fields)

    def field(self, name: str) -> Field:
        try:
            return self._fields[name]
        except KeyError:
            raise FieldError(f"no field {name!r} in this layout") from None

    def field_groups(self) -> Dict[str, int]:
        """Count of fields per top-level group (for the C2 size audit)."""
        groups: Dict[str, int] = {}
        for name in self._order:
            group = name.split(".")[0]
            groups[group] = groups.get(group, 0) + 1
        return groups

    def new_word(self) -> "Microword":
        return Microword(self)


@functools.lru_cache(maxsize=MACHINE_TABLES_SIZE)
def layout_for(params: NSCParameters) -> MicrowordLayout:
    """The shared, read-only layout of *params*'s machine.

    The field table depends only on the parameters, so every generator
    for the same machine reuses one layout instead of re-deriving it.
    """
    node = node_config(params)
    return MicrowordLayout(params, node.n_fus, sorted(node.switch.sources))


def fit(field: Field, value: int) -> int:
    """*value* in *field*'s place of a word's bits, range-checked as
    :meth:`Microword.set_field` checks it."""
    if value < 0 or value >> field.width:  # beyond field.max_value
        raise _misfit(field, value)
    return value << field.offset


def _unpack(layout: MicrowordLayout, raw: bytes) -> Dict[str, int]:
    """The nonzero field values packed in *raw*."""
    word = int.from_bytes(raw, "little")
    return {
        f.name: value
        for f in layout._fields.values()
        if (value := (word >> f.offset) & f.max_value)
    }


class Microword:
    """One instruction: a value for every field, encodable to raw bits.

    A word under construction keeps its written fields in a dict;
    :meth:`encode` packs them into the raw bits and drops the dict, so a
    finished word (every cached program's) holds its encoding alone.
    Reads decode a field from the bits, and a later write unpacks them
    into a dict again.
    """

    __slots__ = ("layout", "_values", "_encoded")

    def __init__(self, layout: MicrowordLayout) -> None:
        self.layout = layout
        #: the written fields, or None once packed into ``_encoded``
        self._values: Optional[Dict[str, int]] = {}
        self._encoded: Optional[bytes] = None

    def _fields(self) -> Dict[str, int]:
        """The written field values, or the nonzero ones of the bits."""
        if self._values is not None:
            return self._values
        return _unpack(self.layout, self._encoded)

    def set(self, name: str, value: int) -> None:
        self.set_field(self.layout.field(name), value)

    def set_field(self, field: Field, value: int) -> None:
        """:meth:`set` through a handle resolved by the layout."""
        if not (0 <= value <= field.max_value):
            raise _misfit(field, value)
        if self._values is None:
            self._values = _unpack(self.layout, self._encoded)
        self._values[field.name] = value
        self._encoded = None

    @classmethod
    def pack(cls, layout: MicrowordLayout,
             values: Dict[Field, int]) -> "Microword":
        """A finished word from ``{field handle: value}``, each value
        range-checked as :meth:`set_field` checks it."""
        word = 0
        for field, value in values.items():
            word |= fit(field, value)
        return cls.from_bits(layout, word)

    @classmethod
    def from_bits(cls, layout: MicrowordLayout, word: int) -> "Microword":
        """The finished word whose field values :func:`fit` placed in the
        integer *word*.  It holds its bits alone, like a word after
        :meth:`encode`."""
        packed = cls(layout)
        packed._values = None
        packed._encoded = word.to_bytes((layout.total_bits + 7) // 8, "little")
        return packed

    def set_signed(self, name: str, value: int) -> None:
        field = self.layout.field(name)
        self.set_field(field, signed_to_bits(value, field.width))

    def set_float(self, name: str, value: float) -> None:
        self.set(name, float_to_bits(value))

    def get(self, name: str) -> int:
        field = self.layout.field(name)
        if self._values is not None:
            return self._values.get(name, 0)
        word = int.from_bytes(self._encoded, "little")
        return (word >> field.offset) & field.max_value

    def get_signed(self, name: str) -> int:
        field = self.layout.field(name)
        return _bits_to_signed(self.get(name), field.width)

    def get_float(self, name: str) -> float:
        return bits_to_float(self.get(name))

    def nonzero_fields(self) -> List[Tuple[str, int]]:
        return [(n, v) for n, v in sorted(self._fields().items()) if v != 0]

    # ------------------------------------------------------------------
    # raw encoding
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        """Pack every field into a little-endian bit string."""
        if self._encoded is None:
            fields = self.layout._fields
            self._encoded = self.pack(self.layout, {
                fields[name]: value for name, value in self._values.items()
            })._encoded
            self._values = None
        return self._encoded

    @classmethod
    def decode(cls, layout: MicrowordLayout, raw: bytes) -> "Microword":
        mw = cls(layout)
        mw._values = _unpack(layout, raw)
        return mw

    def __getstate__(self) -> Dict[str, Any]:
        return {"layout": self.layout, "_encoded": self.encode()}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # a word pickled before words packed themselves carries its
        # ``_values`` dict, and ``_encoded`` only if it had been encoded
        self.layout = state["layout"]
        self._encoded = state.get("_encoded")
        self._values = None if self._encoded is not None else state["_values"]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Microword):
            return NotImplemented
        if self.layout is other.layout:
            return self.encode() == other.encode()
        return self.nonzero_fields() == other.nonzero_fields()

    def __repr__(self) -> str:
        return (
            f"Microword({len(self.nonzero_fields())} nonzero fields of "
            f"{self.layout.n_fields}, {self.layout.total_bits} bits)"
        )


CMP_CODES = {"lt": 1, "le": 2, "gt": 3, "ge": 4}
CMP_NAMES = {v: k for k, v in CMP_CODES.items()}


__all__ = [
    "Field",
    "FieldError",
    "FUFields",
    "PortFields",
    "DMAFields",
    "SeqFields",
    "SourceTable",
    "MicrowordLayout",
    "Microword",
    "layout_for",
    "fit",
    "CMP_CODES",
    "CMP_NAMES",
    "float_to_bits",
    "bits_to_float",
    "signed_to_bits",
]
