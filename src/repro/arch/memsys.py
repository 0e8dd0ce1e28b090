"""Memory planes and double-buffered data caches.

Paper §2: "Memory is arranged in 16 planes of 128 Mbytes each, for a total
memory of 2 Gbytes per node.  In addition, there are 16 double-buffered data
caches."  §3 explains why planes dominate the programming problem: a
functional unit may touch only one plane per instruction, concurrent users
of a plane contend, and the best variable layout for one pipeline may be
unworkable for the next — sometimes forcing multiple copies of arrays or
relocation between phases.

This module provides the *storage* model: a plane allocator for named
variables (what the Fig. 9 pop-up's "variable name or starting address"
refers to) and the double-buffer protocol of the caches.  Streaming access
is the job of :mod:`repro.arch.dma` and the simulator.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.arch.params import NSCParameters


class AllocationError(Exception):
    """A variable does not fit, overlaps, or names an unknown plane."""


class Variable(NamedTuple):
    """A named region of one memory plane (word granularity)."""

    name: str
    plane: int
    offset: int  # word offset within the plane
    length: int  # words

    @property
    def end(self) -> int:
        return self.offset + self.length

    def overlaps(self, other: "Variable") -> bool:
        return self.plane == other.plane and not (
            self.end <= other.offset or other.end <= self.offset
        )


def stream_slice(offset: int, count: int, stride: int) -> slice:
    """The slice a DMA address walk of *count* words from *offset* by
    *stride* reduces to on a word array.

    A reversed walk that ends at word 0 has no non-negative stop index,
    so its stop is ``None`` rather than ``-1`` (which would wrap)."""
    if stride > 0:
        return slice(offset, offset + count * stride, stride)
    last = offset + (count - 1) * stride
    return slice(offset, last - 1 if last > 0 else None, stride)


class MemoryPlane:
    """One plane: a word-addressed array with an allocation map.

    Simulator storage is lazily grown NumPy; a 128 MB plane is 16M words and
    we only materialize the prefix programs actually touch.
    """

    def __init__(self, plane_id: int, n_words: int) -> None:
        self.plane_id = plane_id
        self.n_words = n_words
        self._data = np.zeros(0, dtype=np.float64)

    def _ensure(self, n: int) -> None:
        if n > self.n_words:
            raise AllocationError(
                f"plane {self.plane_id}: access at word {n} exceeds "
                f"{self.n_words}-word capacity"
            )
        if n > self._data.size:
            grown = np.zeros(max(n, 2 * self._data.size, 1024), dtype=np.float64)
            grown[: self._data.size] = self._data
            self._data = grown

    def read(self, offset: int, count: int, stride: int = 1) -> np.ndarray:
        """Read *count* words starting at *offset* with *stride* (a copy)."""
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        last = offset + (count - 1) * stride
        if offset < 0 or last < 0:
            raise AllocationError(f"plane {self.plane_id}: negative address")
        self._ensure(max(offset, last) + 1)
        return self._data[stream_slice(offset, count, stride)].copy()

    def write(self, offset: int, values: np.ndarray, stride: int = 1) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        last = offset + (values.size - 1) * stride
        if offset < 0 or last < 0:
            raise AllocationError(f"plane {self.plane_id}: negative address")
        self._ensure(max(offset, last) + 1)
        self._data[stream_slice(offset, values.size, stride)] = values


class PlaneMemory:
    """All planes of one node plus the variable allocation table."""

    def __init__(self, params: NSCParameters) -> None:
        self.params = params
        self.planes: List[MemoryPlane] = [
            MemoryPlane(i, params.memory_plane_words)
            for i in range(params.n_memory_planes)
        ]
        self.variables: Dict[str, Variable] = {}

    def plane(self, plane_id: int) -> MemoryPlane:
        if not (0 <= plane_id < len(self.planes)):
            raise AllocationError(f"no memory plane {plane_id}")
        return self.planes[plane_id]

    # ------------------------------------------------------------------
    # variable table
    # ------------------------------------------------------------------
    def declare(
        self, name: str, plane: int, length: int, offset: Optional[int] = None
    ) -> Variable:
        """Declare variable *name* on *plane*; auto-places after existing
        variables when *offset* is omitted."""
        if name in self.variables:
            raise AllocationError(f"variable {name!r} already declared")
        if not (0 <= plane < self.params.n_memory_planes):
            raise AllocationError(f"no memory plane {plane}")
        if length <= 0:
            raise AllocationError("variable length must be positive")
        if offset is None:
            offset = max(
                (v.end for v in self.variables.values() if v.plane == plane),
                default=0,
            )
        var = Variable(name=name, plane=plane, offset=offset, length=length)
        if var.end > self.params.memory_plane_words:
            raise AllocationError(
                f"variable {name!r} ({length} words at {offset}) exceeds plane "
                f"capacity {self.params.memory_plane_words}"
            )
        for other in self.variables.values():
            if var.overlaps(other):
                raise AllocationError(
                    f"variable {name!r} overlaps {other.name!r} on plane {plane}"
                )
        self.variables[name] = var
        return var

    def lookup(self, name: str) -> Variable:
        try:
            return self.variables[name]
        except KeyError:
            raise AllocationError(f"undeclared variable {name!r}") from None

    def read_var(self, name: str) -> np.ndarray:
        var = self.lookup(name)
        return self.planes[var.plane].read(var.offset, var.length)

    def write_var(self, name: str, values: np.ndarray) -> None:
        var = self.lookup(name)
        values = np.asarray(values, dtype=np.float64)
        if values.size != var.length:
            raise AllocationError(
                f"variable {name!r} holds {var.length} words, got {values.size}"
            )
        self.planes[var.plane].write(var.offset, values)


class DoubleBufferedCache:
    """A data cache with two buffers that swap roles.

    One buffer streams into/out of the pipeline while the other is filled or
    drained by its DMA controller; :meth:`swap` flips them between pipeline
    phases.  This is the mechanism that lets memory traffic overlap compute.

    Like plane storage, a buffer materializes on first touch: it holds no
    array until :attr:`front` or :attr:`back` is first read, and then
    starts as ``buffer_words`` zeros, exactly what an untouched buffer
    reads as.  A node whose program never names a cache pays nothing
    for it.
    """

    def __init__(self, cache_id: int, buffer_words: int) -> None:
        self.cache_id = cache_id
        self.buffer_words = buffer_words
        self._buffers: List[Optional[np.ndarray]] = [None, None]
        self._front = 0
        self.swaps = 0

    def _buffer(self, index: int) -> np.ndarray:
        buffer = self._buffers[index]
        if buffer is None:
            buffer = np.zeros(self.buffer_words, dtype=np.float64)
            self._buffers[index] = buffer
        return buffer

    @property
    def front(self) -> np.ndarray:
        """Buffer visible to the pipeline."""
        return self._buffer(self._front)

    @property
    def back(self) -> np.ndarray:
        """Buffer owned by the DMA engine."""
        return self._buffer(1 - self._front)

    @property
    def materialized(self) -> bool:
        """Whether either buffer has been touched (and so holds storage)."""
        return any(buffer is not None for buffer in self._buffers)

    def swap(self) -> None:
        self._front = 1 - self._front
        self.swaps += 1

    def _check(self, verb: str, offset: int, count: int, stride: int) -> None:
        last = offset + (count - 1) * stride if count else offset
        if offset < 0 or (
            count and (last < 0 or max(offset, last) >= self.buffer_words)
        ):
            raise AllocationError(
                f"cache {self.cache_id}: {verb} of {count} words "
                f"[{offset}:{last}] out of range for a "
                f"{self.buffer_words}-word buffer"
            )

    def load_back(
        self, values: np.ndarray, offset: int = 0, stride: int = 1
    ) -> None:
        """DMA fill of the back buffer (the pipeline sees it after a swap)."""
        values = np.asarray(values, dtype=np.float64)
        self._check("load", offset, values.size, stride)
        if values.size:
            self.back[stream_slice(offset, values.size, stride)] = values

    def read_front(self, offset: int, count: int, stride: int = 1) -> np.ndarray:
        self._check("read", offset, count, stride)
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        return self.front[stream_slice(offset, count, stride)].copy()

    def write_front(self, offset: int, values: np.ndarray, stride: int = 1) -> None:
        values = np.asarray(values, dtype=np.float64)
        self._check("write", offset, values.size, stride)
        if values.size:
            self.front[stream_slice(offset, values.size, stride)] = values


__all__ = [
    "AllocationError",
    "Variable",
    "MemoryPlane",
    "PlaneMemory",
    "DoubleBufferedCache",
    "stream_slice",
]
