"""NSCParameters: the paper's §2 numbers and parameter validation."""

import pytest

from repro.arch.params import MBYTE, NSCParameters, SUBSET_PARAMS


class TestPaperNumbers:
    """§2 headline figures must hold with default parameters."""

    def test_32_functional_units(self):
        assert NSCParameters().n_functional_units == 32

    def test_16_planes_of_128_mbytes(self):
        p = NSCParameters()
        assert p.n_memory_planes == 16
        assert p.memory_plane_bytes == 128 * MBYTE

    def test_2_gbytes_per_node(self):
        assert NSCParameters().node_memory_bytes == 2 * 1024 * MBYTE

    def test_16_caches(self):
        assert NSCParameters().n_caches == 16

    def test_two_shift_delay_units(self):
        assert NSCParameters().n_shift_delay_units == 2

    def test_peak_640_mflops_per_node(self):
        assert NSCParameters().peak_mflops_per_node == pytest.approx(640.0)

    def test_64_node_system_peak_40_gflops(self):
        p = NSCParameters()
        assert p.n_nodes == 64
        assert p.peak_gflops_system == pytest.approx(40.96, rel=0.05)

    def test_64_node_system_memory_128_gbytes(self):
        p = NSCParameters()
        assert p.system_memory_bytes == 128 * 1024 * MBYTE


class TestComposition:
    def test_als_composition_covers_all_units(self):
        p = NSCParameters()
        assert p.n_singlets + 2 * p.n_doublets + 3 * p.n_triplets == 32

    def test_n_als(self):
        p = NSCParameters()
        assert p.n_als == p.n_singlets + p.n_doublets + p.n_triplets

    def test_inconsistent_composition_rejected(self):
        with pytest.raises(ValueError, match="ALS composition"):
            NSCParameters(n_singlets=1, n_doublets=1, n_triplets=1)

    def test_zero_quantity_rejected(self):
        with pytest.raises(ValueError):
            NSCParameters(
                n_memory_planes=0,
            )

    def test_negative_hypercube_dim_rejected(self):
        with pytest.raises(ValueError):
            NSCParameters(hypercube_dim=-1)

    def test_nonpositive_clock_rejected(self):
        with pytest.raises(ValueError):
            NSCParameters(clock_mhz=0.0)


class TestVariants:
    def test_subset_is_valid(self):
        assert SUBSET_PARAMS.n_functional_units == 16
        assert SUBSET_PARAMS.n_als == 8

    def test_subset_peak_is_lower(self):
        assert (
            SUBSET_PARAMS.peak_mflops_per_node
            < NSCParameters().peak_mflops_per_node
        )

    def test_subset_helper_creates_variant(self):
        p = NSCParameters().subset(clock_mhz=10.0)
        assert p.clock_mhz == 10.0
        assert p.n_functional_units == 32

    def test_parameters_are_immutable(self):
        p = NSCParameters()
        with pytest.raises(Exception):
            p.clock_mhz = 5.0  # type: ignore[misc]

    def test_memory_plane_words(self):
        p = NSCParameters()
        assert p.memory_plane_words == 128 * MBYTE // 8

    def test_single_node_system(self):
        p = NSCParameters(hypercube_dim=0)
        assert p.n_nodes == 1


class TestHash:
    """The hash is built once per instance and never pickled."""

    def test_equal_parameters_hash_equally(self):
        a, b = NSCParameters(), NSCParameters()
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert len({a: 1, b: 2}) == 1

    def test_pickle_round_trip_preserves_the_hash(self):
        import pickle

        params = SUBSET_PARAMS.subset(clock_mhz=12.5)
        expected = hash(params)
        blob = pickle.dumps(params)
        assert b"_hash" not in blob
        clone = pickle.loads(blob)
        assert "_hash" not in clone.__dict__
        assert clone == params and hash(clone) == expected

    def test_subset_gets_a_fresh_hash(self):
        base = NSCParameters()
        hash(base)
        variant = base.subset(n_caches=8)
        assert "_hash" not in variant.__dict__
        assert hash(variant) != hash(base)
        assert hash(variant) == hash(NSCParameters(n_caches=8))
        assert hash(base.subset()) == hash(base)
