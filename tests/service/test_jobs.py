"""SimJob specs: validation, hashing stability, (de)serialization."""

import pytest

from repro.arch.params import SUBSET_PARAMS
from repro.compose.registry import SOLVERS
from repro.service.jobs import METHODS, JobSpecError, SimJob


class TestValidation:
    def test_unknown_method_rejected(self):
        with pytest.raises(JobSpecError):
            SimJob(method="multigrid")

    def test_program_method_requires_path(self):
        with pytest.raises(JobSpecError):
            SimJob(method="program")

    def test_program_path_only_for_program_method(self):
        with pytest.raises(JobSpecError):
            SimJob(method="jacobi", program_path="x.json")

    def test_multinode_is_jacobi_only(self):
        with pytest.raises(JobSpecError):
            SimJob(method="rb-sor", hypercube_dim=2)

    def test_bad_shape_rejected(self):
        with pytest.raises(JobSpecError):
            SimJob(shape=(5, 5))
        with pytest.raises(JobSpecError):
            SimJob(shape=(5, 0, 5))

    def test_registry_covers_builder_methods(self):
        assert set(SOLVERS) == set(METHODS) - {"program"}


class TestHashing:
    def test_job_id_is_stable(self):
        a = SimJob(method="jacobi", shape=(7, 7, 7), eps=1e-4)
        b = SimJob(method="jacobi", shape=(7, 7, 7), eps=1e-4)
        assert a.job_id == b.job_id
        assert a.cache_key() == b.cache_key()

    def test_label_does_not_change_identity(self):
        a = SimJob(label="first")
        b = SimJob(label="renamed")
        assert a.job_id == b.job_id

    def test_eps_changes_program_key(self):
        a = SimJob(eps=1e-4)
        b = SimJob(eps=1e-5)
        assert a.program_key() != b.program_key()

    def test_subset_changes_params_key_not_program_key(self):
        a = SimJob(subset=False)
        b = SimJob(subset=True)
        assert a.params_key() != b.params_key()
        assert a.program_key() == b.program_key()

    def test_omega_ignored_for_non_sor_methods(self):
        a = SimJob(method="rb-gs", omega=1.2)
        b = SimJob(method="rb-gs", omega=1.8)
        assert a.program_key() == b.program_key()
        c = SimJob(method="rb-sor", omega=1.2)
        d = SimJob(method="rb-sor", omega=1.8)
        assert c.program_key() != d.program_key()


class TestParamsKeyMemo:
    """``params_key`` is memoized by parameter value; the digests stay
    byte-identical to the unmemoized ``sha256(params._asdict())``."""

    CASES = {
        "default": (
            {},
            "2ed08f7bd3ab263f402f15c9a4c8152270fbbe0f53a24b0db56a218fb92b26cb",
        ),
        "subset": (
            {"subset": True},
            "cb5dbe957b8500da9c1eb246d0800ae7a6526c09ce2a777ff7e8dbfe0abb01e3",
        ),
        "overrides": (
            {"param_overrides": (("clock_mhz", 40.0),)},
            "94e98f4372f9b23b33542542c9f5df283fec0d3541b9010e69cef8e50a2e99f3",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_digest_unchanged(self, case):
        import hashlib
        import json

        kwargs, digest = self.CASES[case]
        job = SimJob(**kwargs)
        text = json.dumps(job.params()._asdict(), sort_keys=True,
                          separators=(",", ":"))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
        assert job.params_key() == digest
        # a re-parsed job (the runner's and the workers' round trip)
        assert SimJob.from_dict(job.to_dict()).params_key() == digest

    def test_equal_parameters_share_one_entry(self):
        from repro.service.jobs import _params_digest

        _params_digest.cache_clear()
        for seed in range(5):
            SimJob(u0_seed=seed).params_key()
        SimJob(subset=True).params_key()
        info = _params_digest.cache_info()
        assert (info.misses, info.hits) == (2, 4)


class TestParams:
    def test_subset_selects_subset_machine(self):
        assert SimJob(subset=True).params() == SUBSET_PARAMS

    def test_param_overrides_apply(self):
        job = SimJob(param_overrides=(("clock_mhz", 40.0),))
        assert job.params().clock_mhz == 40.0
        assert SimJob().params().clock_mhz == 20.0


class TestSerialization:
    def test_round_trip(self):
        job = SimJob(method="rb-sor", shape=(5, 6, 7), omega=1.3,
                     subset=True, label="x")
        assert SimJob.from_dict(job.to_dict()) == job

    def test_n_shorthand(self):
        job = SimJob.from_dict({"method": "jacobi", "n": 7})
        assert job.shape == (7, 7, 7)

    def test_unknown_fields_rejected(self):
        with pytest.raises(JobSpecError):
            SimJob.from_dict({"method": "jacobi", "frobnicate": 1})

    def test_describe_synthesizes_label(self):
        assert SimJob(label="mine").describe() == "mine"
        tag = SimJob(method="jacobi", shape=(4, 4, 8),
                     hypercube_dim=1).describe()
        assert "jacobi" in tag and "d1" in tag
