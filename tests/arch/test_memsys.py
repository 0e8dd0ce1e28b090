"""Memory planes, variable allocation, double-buffered caches."""

import numpy as np
import pytest

from repro.arch.memsys import (
    AllocationError,
    DoubleBufferedCache,
    MemoryPlane,
    PlaneMemory,
    Variable,
    stream_slice,
)
from repro.arch.params import NSCParameters


@pytest.fixture()
def mem() -> PlaneMemory:
    return PlaneMemory(NSCParameters())


class TestMemoryPlane:
    def test_read_write_roundtrip(self):
        plane = MemoryPlane(0, 1 << 20)
        plane.write(100, np.arange(10.0))
        np.testing.assert_allclose(plane.read(100, 10), np.arange(10.0))

    def test_strided_access(self):
        plane = MemoryPlane(0, 1 << 20)
        plane.write(0, np.arange(5.0), stride=3)
        np.testing.assert_allclose(plane.read(0, 5, stride=3), np.arange(5.0))
        # the gaps stay zero
        assert plane.read(1, 1)[0] == 0.0

    def test_uninitialized_reads_zero(self):
        plane = MemoryPlane(0, 1 << 20)
        np.testing.assert_allclose(plane.read(50, 4), np.zeros(4))

    def test_capacity_enforced(self):
        plane = MemoryPlane(0, 128)
        with pytest.raises(AllocationError):
            plane.write(120, np.arange(20.0))

    def test_negative_address_rejected(self):
        plane = MemoryPlane(0, 128)
        with pytest.raises(AllocationError):
            plane.read(-1, 4)

    def test_lazy_growth_does_not_lose_data(self):
        plane = MemoryPlane(0, 1 << 20)
        plane.write(0, np.ones(4))
        plane.write(10_000, np.full(4, 2.0))
        np.testing.assert_allclose(plane.read(0, 4), np.ones(4))

    def test_empty_read(self):
        plane = MemoryPlane(0, 128)
        assert plane.read(0, 0).size == 0


class TestVariables:
    def test_declare_and_rw(self, mem):
        mem.declare("u", plane=0, length=100)
        mem.write_var("u", np.arange(100.0))
        np.testing.assert_allclose(mem.read_var("u"), np.arange(100.0))

    def test_auto_placement_packs_per_plane(self, mem):
        a = mem.declare("a", plane=0, length=10)
        b = mem.declare("b", plane=0, length=10)
        c = mem.declare("c", plane=1, length=10)
        assert a.offset == 0
        assert b.offset == 10
        assert c.offset == 0

    def test_overlap_rejected(self, mem):
        mem.declare("a", plane=0, length=10, offset=0)
        with pytest.raises(AllocationError, match="overlaps"):
            mem.declare("b", plane=0, length=10, offset=5)

    def test_duplicate_name_rejected(self, mem):
        mem.declare("a", plane=0, length=10)
        with pytest.raises(AllocationError, match="already"):
            mem.declare("a", plane=1, length=10)

    def test_unknown_plane_rejected(self, mem):
        with pytest.raises(AllocationError):
            mem.declare("a", plane=99, length=10)

    def test_undeclared_lookup_rejected(self, mem):
        with pytest.raises(AllocationError, match="undeclared"):
            mem.lookup("nope")

    def test_wrong_size_write_rejected(self, mem):
        mem.declare("a", plane=0, length=10)
        with pytest.raises(AllocationError):
            mem.write_var("a", np.zeros(5))

    def test_plane_capacity_enforced(self, mem):
        words = mem.params.memory_plane_words
        with pytest.raises(AllocationError, match="exceeds"):
            mem.declare("big", plane=0, length=words + 1)

    def test_variable_overlap_predicate(self):
        a = Variable("a", 0, 0, 10)
        b = Variable("b", 0, 10, 10)
        c = Variable("c", 0, 5, 10)
        d = Variable("d", 1, 5, 10)
        assert not a.overlaps(b)
        assert a.overlaps(c)
        assert not a.overlaps(d)


class TestDoubleBufferedCache:
    def test_swap_exchanges_roles(self):
        cache = DoubleBufferedCache(0, 16)
        cache.load_back(np.arange(4.0))
        assert cache.front[0] == 0.0
        cache.swap()
        np.testing.assert_allclose(cache.front[:4], np.arange(4.0))
        assert cache.swaps == 1

    def test_front_rw(self):
        cache = DoubleBufferedCache(0, 16)
        cache.write_front(2, np.ones(3))
        np.testing.assert_allclose(cache.read_front(2, 3), np.ones(3))

    def test_front_and_back_independent(self):
        cache = DoubleBufferedCache(0, 16)
        cache.write_front(0, np.ones(4))
        cache.load_back(np.full(4, 9.0))
        np.testing.assert_allclose(cache.front[:4], np.ones(4))

    def test_bounds_enforced(self):
        cache = DoubleBufferedCache(0, 16)
        with pytest.raises(AllocationError):
            cache.read_front(10, 10)
        with pytest.raises(AllocationError):
            cache.write_front(15, np.ones(2))
        with pytest.raises(AllocationError):
            cache.load_back(np.ones(17))

    def test_strided_front_access(self):
        cache = DoubleBufferedCache(0, 16)
        cache.write_front(0, np.arange(4.0), stride=2)
        np.testing.assert_allclose(cache.read_front(0, 4, stride=2), np.arange(4.0))

    def test_strided_load_back(self):
        cache = DoubleBufferedCache(0, 16)
        cache.load_back(np.arange(4.0), offset=1, stride=3)
        cache.swap()
        np.testing.assert_allclose(cache.read_front(1, 4, stride=3), np.arange(4.0))
        with pytest.raises(AllocationError):
            cache.load_back(np.ones(6), offset=1, stride=3)


class TestReversedWalks:
    """A walk with a negative stride that ends at word 0 has no
    non-negative stop index; every accessor must agree with the plane."""

    def _plane(self):
        plane = MemoryPlane(0, 16)
        plane.write(0, np.arange(8.0))
        return plane

    def test_stream_slice_reaches_word_zero(self):
        words = np.arange(8.0)
        np.testing.assert_array_equal(
            words[stream_slice(3, 4, -1)], [3.0, 2.0, 1.0, 0.0]
        )
        np.testing.assert_array_equal(words[stream_slice(7, 3, -2)], [7.0, 5.0, 3.0])
        np.testing.assert_array_equal(words[stream_slice(2, 3, 2)], [2.0, 4.0, 6.0])

    def test_plane_read(self):
        np.testing.assert_array_equal(self._plane().read(3, 4, -1), [3, 2, 1, 0])

    def test_read_front_matches_plane(self):
        cache = DoubleBufferedCache(0, 16)
        cache.write_front(0, np.arange(8.0))
        np.testing.assert_array_equal(
            cache.read_front(3, 4, -1), self._plane().read(3, 4, -1)
        )

    def test_write_front_matches_plane(self):
        plane = MemoryPlane(0, 16)
        plane.write(3, np.arange(4.0), stride=-1)
        cache = DoubleBufferedCache(0, 16)
        cache.write_front(3, np.arange(4.0), stride=-1)
        np.testing.assert_array_equal(cache.front[:8], plane.read(0, 8))

    def test_load_back_matches_plane(self):
        plane = MemoryPlane(0, 16)
        plane.write(6, np.arange(4.0), stride=-2)
        cache = DoubleBufferedCache(0, 16)
        cache.load_back(np.arange(4.0), offset=6, stride=-2)
        np.testing.assert_array_equal(cache.back[:8], plane.read(0, 8))

    def test_reversed_walk_below_zero_rejected(self):
        cache = DoubleBufferedCache(0, 16)
        with pytest.raises(AllocationError):
            cache.read_front(2, 4, -1)
        with pytest.raises(AllocationError):
            cache.write_front(2, np.ones(4), stride=-1)
        with pytest.raises(AllocationError):
            cache.load_back(np.ones(4), offset=2, stride=-1)


class TestCacheMaterialization:
    """Buffers hold no storage until first touched, and nothing a reader
    can observe depends on when that happens."""

    def test_untouched_buffers_read_as_zeros(self):
        cache = DoubleBufferedCache(0, 32)
        assert not cache.materialized
        np.testing.assert_array_equal(cache.front, np.zeros(32))
        np.testing.assert_array_equal(cache.back, np.zeros(32))
        assert cache.materialized

    def test_construction_allocates_nothing(self):
        cache = DoubleBufferedCache(0, 1 << 20)
        assert not cache.materialized
        cache.swap()
        assert not cache.materialized

    def test_swap_before_first_touch(self):
        cache = DoubleBufferedCache(0, 16)
        cache.swap()
        cache.write_front(0, np.ones(4))
        cache.swap()
        np.testing.assert_array_equal(cache.front, np.zeros(16))
        cache.swap()
        np.testing.assert_array_equal(cache.front[:4], np.ones(4))
        assert cache.swaps == 3

    def test_load_back_then_swap(self):
        cache = DoubleBufferedCache(0, 16)
        cache.load_back(np.arange(4.0))
        cache.swap()
        np.testing.assert_array_equal(cache.front[:4], np.arange(4.0))
        np.testing.assert_array_equal(cache.back, np.zeros(16))

    def test_empty_accesses_allocate_nothing(self):
        cache = DoubleBufferedCache(0, 16)
        assert cache.read_front(4, 0).size == 0
        cache.write_front(4, np.zeros(0))
        cache.load_back(np.zeros(0), offset=4)
        assert not cache.materialized
