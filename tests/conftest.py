"""Shared fixtures: machine descriptions and small reference grids."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.arch.node import NodeConfig
from repro.arch.params import SUBSET_PARAMS

#: ``pytest --hypothesis-profile=ci``: the CI property job draws more
#: examples than tier-1 can afford; suites that size their own example
#: count from the profile (tests/property/test_slot_aliasing_property.py)
#: scale with it
settings.register_profile("ci", max_examples=300, deadline=None)


@pytest.fixture(scope="session")
def node() -> NodeConfig:
    """The default full NSC node (32 FUs, 16 planes, 16 caches)."""
    return NodeConfig()


@pytest.fixture(scope="session")
def subset_node() -> NodeConfig:
    """The §6 architectural subset (doublets only, half the planes)."""
    return NodeConfig(SUBSET_PARAMS)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def grid6(rng) -> np.ndarray:
    """A 6x6x6 grid with homogeneous Dirichlet boundary."""
    u = rng.random((6, 6, 6))
    u[0] = u[-1] = 0.0
    u[:, 0] = u[:, -1] = 0.0
    u[:, :, 0] = u[:, :, -1] = 0.0
    return u
