"""Shared fixtures: small grids, parameters and states used across tests."""
from __future__ import annotations

import numpy as np
import pytest

from repro.constants import ModelParameters
from repro.grid.latlon import LatLonGrid
from repro.grid.sigma import SigmaLevels
from repro.physics import balanced_random_state, perturbed_rest_state


@pytest.fixture(scope="session", autouse=True)
def _warm_kernel_library() -> None:
    """Build (or find cached) the C kernel library once per session, so no
    test — the user-facing cores default to the fused tier — pays the cold
    build under a watchdog.  Hosts without a compiler resolve to numpy."""
    from repro.kernels import resolve_backend

    resolve_backend("auto")


@pytest.fixture
def small_grid() -> LatLonGrid:
    """A pole-to-pole grid small enough for exhaustive checks."""
    return LatLonGrid(nx=32, ny=16, nz=6)


@pytest.fixture
def tiny_grid() -> LatLonGrid:
    return LatLonGrid(nx=16, ny=8, nz=4)


@pytest.fixture
def sigma6() -> SigmaLevels:
    return SigmaLevels.uniform(6)


@pytest.fixture
def fast_params() -> ModelParameters:
    """Short, consistent time steps for multi-step tests."""
    return ModelParameters(dt_adaptation=60.0, dt_advection=180.0, m_iterations=3)


@pytest.fixture
def one_iter_params() -> ModelParameters:
    """M = 1 keeps the CA halos small enough for tiny decompositions."""
    return ModelParameters(dt_adaptation=60.0, dt_advection=60.0, m_iterations=1)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20180813)  # ICPP'18 started Aug 13 2018


@pytest.fixture
def random_state(small_grid, rng):
    return balanced_random_state(small_grid, rng)


@pytest.fixture
def bump_state(small_grid):
    return perturbed_rest_state(small_grid, amplitude_k=2.0)
