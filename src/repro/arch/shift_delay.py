"""Shift/delay units: reformatting memory data into multiple vector streams.

Paper §2: "Two shift/delay units are provided to aid in reformatting memory
data into multiple vector streams."  This is the stencil trick: a single
stream of grid values enters the unit and several *taps* emit copies of the
stream shifted by fixed element offsets, so the six neighbours of a 3-D
stencil can be produced from one memory read instead of six.

A tap with shift *s* emits, at stream position *i*, the input element
``i + s`` (negative shifts look backwards).  Elements outside the stream are
the unit's fill value (zero), matching a hardware shift register that powers
up cleared; in practice programs size their streams so edge elements are
discarded or masked downstream.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

import numpy as np

from repro.arch.params import NSCParameters


class ShiftDelayError(Exception):
    """Illegal tap index or shift amount."""


class TapSpec(NamedTuple):
    """Configuration of one output tap: an element shift."""

    tap: int
    shift: int


class ShiftDelayUnit:
    """One shift/delay unit: an input port and ``n_taps`` shifted outputs."""

    def __init__(self, unit_id: int, n_taps: int, max_shift: int) -> None:
        self.unit_id = unit_id
        self.n_taps = n_taps
        self.max_shift = max_shift
        self._taps: Dict[int, TapSpec] = {}

    def configure_tap(self, tap: int, shift: int) -> TapSpec:
        if not (0 <= tap < self.n_taps):
            raise ShiftDelayError(
                f"shift/delay unit {self.unit_id}: tap {tap} out of range "
                f"(has {self.n_taps} taps)"
            )
        if abs(shift) > self.max_shift:
            raise ShiftDelayError(
                f"shift/delay unit {self.unit_id}: shift {shift} exceeds "
                f"+-{self.max_shift}"
            )
        spec = TapSpec(tap=tap, shift=shift)
        self._taps[tap] = spec
        return spec

    def tap_shift(self, tap: int) -> int:
        if tap not in self._taps:
            raise ShiftDelayError(
                f"shift/delay unit {self.unit_id}: tap {tap} not configured"
            )
        return self._taps[tap].shift

    @property
    def configured_taps(self) -> List[TapSpec]:
        return [self._taps[t] for t in sorted(self._taps)]

    def reset(self) -> None:
        self._taps.clear()

    # ------------------------------------------------------------------
    # stream semantics (used by the simulator)
    # ------------------------------------------------------------------
    def apply(self, stream: np.ndarray, tap: int) -> np.ndarray:
        """Emit the shifted stream for *tap* given the full input *stream*."""
        shift = self.tap_shift(tap)
        return shift_stream(stream, shift)

    @property
    def extra_latency(self) -> int:
        """Pipeline start-up cycles contributed by the unit itself.

        The *relative* alignment between taps is in the shifts; the unit adds
        one cycle of transit regardless of configuration.
        """
        return 1


def shift_stream(stream: np.ndarray, shift: int, fill: float = 0.0) -> np.ndarray:
    """Pure stream-shift semantics: output[i] = input[i + shift], else fill."""
    stream = np.asarray(stream, dtype=np.float64)
    n = stream.size
    out = np.full(n, fill, dtype=np.float64)
    if shift >= 0:
        m = n - shift
        if m > 0:
            out[:m] = stream[shift:]
    else:
        m = n + shift
        if m > 0:
            out[-m:] = stream[:m]
    return out


def make_units(params: NSCParameters) -> List[ShiftDelayUnit]:
    """Instantiate the node's shift/delay units from *params*."""
    return [
        ShiftDelayUnit(i, params.shift_delay_taps, params.shift_delay_max_shift)
        for i in range(params.n_shift_delay_units)
    ]


__all__ = [
    "ShiftDelayUnit",
    "ShiftDelayError",
    "TapSpec",
    "shift_stream",
    "make_units",
]
