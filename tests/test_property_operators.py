"""Property-based tests of the filter and vertical-diagnostics invariants."""
import math

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.operators.filter import FILTER_PROFILES, damping_factors


def apply_filter_rows(arr, mask, factors):
    """rfft / damp / irfft the masked rows of ``arr`` in place."""
    spec = np.fft.rfft(arr[..., mask, :], axis=-1) * factors
    arr[..., mask, :] = np.fft.irfft(spec, n=arr.shape[-1], axis=-1)


rows_arrays = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 3), st.integers(4, 10), st.just(16)),
    elements=st.floats(-1e3, 1e3, allow_nan=False, width=64),
)


@settings(max_examples=30, deadline=None)
@given(arr=rows_arrays, profile=st.sampled_from(FILTER_PROFILES))
def test_filter_preserves_zonal_mean(arr, profile):
    """Wavenumber 0 is never touched, for any profile and any data."""
    ny = arr.shape[1]
    sin_rows = np.linspace(0.05, 1.0, ny)
    mask, factors = damping_factors(sin_rows, 16, math.radians(70.0), profile)
    before = arr.mean(axis=-1).copy()
    if mask.any():
        apply_filter_rows(arr, mask, factors)
    assert np.allclose(arr.mean(axis=-1), before, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(arr=rows_arrays, profile=st.sampled_from(FILTER_PROFILES))
def test_filter_never_amplifies(arr, profile):
    """Damping factors <= 1: the filtered rows' L2 norm cannot grow."""
    ny = arr.shape[1]
    sin_rows = np.linspace(0.05, 1.0, ny)
    mask, factors = damping_factors(sin_rows, 16, math.radians(70.0), profile)
    if not mask.any():
        return
    norms_before = np.sqrt((arr[:, mask, :] ** 2).sum(axis=-1))
    apply_filter_rows(arr, mask, factors)
    norms_after = np.sqrt((arr[:, mask, :] ** 2).sum(axis=-1))
    assert np.all(norms_after <= norms_before + 1e-9)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    amp=st.floats(0.1, 20.0),
)
def test_vertical_boundary_interfaces_always_zero(seed, amp):
    """PW vanishes at the model top and surface for any admissible state."""
    from repro.grid.latlon import LatLonGrid
    from repro.grid.sigma import SigmaLevels
    from repro.operators.geometry import WorkingGeometry
    from repro.operators.vertical import compute_vertical_diagnostics
    from repro.physics import balanced_random_state
    from repro.core.tendencies import TendencyEngine
    from repro.constants import ModelParameters
    from repro.state.variables import ModelState

    grid = LatLonGrid(nx=16, ny=8, nz=4)
    sigma = SigmaLevels.uniform(grid.nz)
    geom = WorkingGeometry.build_global(grid, sigma, gy=2, gz=0)
    rng = np.random.default_rng(seed)
    state = balanced_random_state(grid, rng, wind_amplitude=amp)
    eng = TendencyEngine(geom, ModelParameters())
    w = ModelState.zeros(geom.shape3d)
    for name, arr in state.fields().items():
        getattr(w, name)[..., 2:-2, :] = arr
    eng.fill_physical_ghosts(w)
    vd = compute_vertical_diagnostics(w.U, w.V, w.Phi, w.psa, geom)
    top = np.abs(vd.pw_iface[0]).max()
    bottom = np.abs(vd.pw_iface[-1]).max()
    scale = max(np.abs(vd.pw_iface).max(), 1e-30)
    assert top <= 1e-12 * max(scale, 1.0)
    assert bottom <= 1e-10 * max(scale, 1.0)
