"""DMA engine: stream movement, symbolic re-resolution, contention."""

import numpy as np
import pytest

from repro.arch.dma import DMAProgram, DMASpec, DMASpecError, Direction
from repro.arch.memsys import AllocationError, DoubleBufferedCache, PlaneMemory
from repro.arch.params import NSCParameters
from repro.arch.switch import DeviceKind
from repro.sim.dma_engine import DMAEngine


@pytest.fixture()
def engine() -> DMAEngine:
    params = NSCParameters()
    memory = PlaneMemory(params)
    caches = [DoubleBufferedCache(i, 256) for i in range(params.n_caches)]
    return DMAEngine(params, memory, caches)


def _read_prog(plane=0, variable=None, offset=0, stride=1, count=8):
    spec = DMASpec(
        device_kind=DeviceKind.MEMORY,
        device=plane,
        direction=Direction.READ,
        variable=variable,
        offset=offset,
        stride=stride,
    )
    return DMAProgram(spec=spec, base_offset=offset, count=count)


class TestTransfers:
    def test_absolute_read(self, engine):
        engine.memory.plane(0).write(0, np.arange(8.0))
        out = engine.read_stream(_read_prog())
        np.testing.assert_allclose(out, np.arange(8.0))
        assert engine.stats.words_read == 8

    def test_symbolic_read_uses_current_binding(self, engine):
        engine.memory.declare("u", plane=0, length=8, offset=40)
        engine.memory.write_var("u", np.arange(8.0))
        prog = _read_prog(variable="u")
        out = engine.read_stream(prog)
        np.testing.assert_allclose(out, np.arange(8.0))

    def test_unloaded_symbolic_rejected(self, engine):
        with pytest.raises(DMASpecError, match="not loaded"):
            engine.read_stream(_read_prog(variable="ghost"))

    def test_memory_write(self, engine):
        spec = DMASpec(
            device_kind=DeviceKind.MEMORY, device=1,
            direction=Direction.WRITE, offset=16,
        )
        prog = DMAProgram(spec=spec, base_offset=16, count=4)
        engine.write_stream(prog, np.ones(4))
        np.testing.assert_allclose(engine.memory.plane(1).read(16, 4), np.ones(4))
        assert engine.stats.words_written == 4

    def test_cache_round_trip_needs_buffer_swap(self, engine):
        """DMA fills the back buffer (double-buffer protocol); the data is
        visible to reads only after a CacheSwap."""
        wspec = DMASpec(
            device_kind=DeviceKind.CACHE, device=2,
            direction=Direction.WRITE, offset=0,
        )
        engine.write_stream(
            DMAProgram(spec=wspec, base_offset=0, count=4), np.arange(4.0)
        )
        rspec = DMASpec(
            device_kind=DeviceKind.CACHE, device=2,
            direction=Direction.READ, offset=0,
        )
        rprog = DMAProgram(spec=rspec, base_offset=0, count=4)
        before = engine.read_stream(rprog)
        np.testing.assert_allclose(before, np.zeros(4))  # still the front
        engine.caches[2].swap()
        after = engine.read_stream(rprog)
        np.testing.assert_allclose(after, np.arange(4.0))

    def test_overlong_write_truncated_to_count(self, engine):
        spec = DMASpec(
            device_kind=DeviceKind.MEMORY, device=0,
            direction=Direction.WRITE, offset=0,
        )
        prog = DMAProgram(spec=spec, base_offset=0, count=3)
        engine.write_stream(prog, np.arange(10.0))
        assert engine.stats.words_written == 3


    def _cache_prog(self, direction, offset, stride, count):
        spec = DMASpec(
            device_kind=DeviceKind.CACHE, device=2, direction=direction,
            offset=offset, stride=stride,
        )
        return DMAProgram(spec=spec, base_offset=offset, count=count)

    def test_reversed_cache_stream_reaches_word_zero(self, engine):
        """A stride -1 walk ending at word 0 stores and reads back the same
        words a plane walk does."""
        engine.write_stream(
            self._cache_prog(Direction.WRITE, 3, -1, 4), np.arange(4.0)
        )
        engine.caches[2].swap()
        np.testing.assert_array_equal(engine.caches[2].front[:4], [3, 2, 1, 0])
        out = engine.read_stream(self._cache_prog(Direction.READ, 3, -1, 4))
        np.testing.assert_array_equal(out, np.arange(4.0))

    def test_strided_cache_store_bounds_checked(self, engine):
        with pytest.raises(AllocationError):
            engine.write_stream(
                self._cache_prog(Direction.WRITE, 2, -1, 4), np.ones(4)
            )
        with pytest.raises(AllocationError):
            engine.write_stream(
                self._cache_prog(Direction.WRITE, 250, 3, 4), np.ones(4)
            )

class TestContention:
    def test_parallel_devices_overlap(self, engine):
        engine.begin_instruction()
        engine.read_stream(_read_prog(plane=0, count=100))
        engine.read_stream(_read_prog(plane=1, count=100))
        single = _read_prog(plane=0, count=100).cycles(engine.params)
        assert engine.instruction_dma_cycles() == single

    def test_same_device_serializes(self, engine):
        """§3: 'multiple function units working in the same memory plane can
        cause contention problems'."""
        engine.begin_instruction()
        engine.read_stream(_read_prog(plane=0, count=100))
        engine.read_stream(_read_prog(plane=0, count=100, offset=200))
        single = _read_prog(plane=0, count=100).cycles(engine.params)
        assert engine.instruction_dma_cycles() == 2 * single

    def test_begin_instruction_resets(self, engine):
        engine.read_stream(_read_prog())
        engine.begin_instruction()
        assert engine.instruction_dma_cycles() == 0
