"""The Fourier polar filter F."""
import numpy as np
import pytest

from repro.constants import ModelParameters
from repro.core.rowslab import FilterRows
from repro.grid.sigma import SigmaLevels
from repro.operators.filter import (
    PolarFilter,
    clear_plan_cache,
    damping_factors,
    filter_plan,
    plan_cache_stats,
)
from repro.operators.geometry import WorkingGeometry
from repro.state.variables import ModelState


@pytest.fixture
def geom(small_grid):
    sigma = SigmaLevels.uniform(small_grid.nz)
    return WorkingGeometry.build_global(small_grid, sigma, gy=2, gz=0)


@pytest.fixture
def pfilter(geom):
    return PolarFilter(geom, ModelParameters())


def filter_state(pfilter, state):
    """``F`` on every working row of ``state``, in place (the whole-array
    pass of the engine); returns it."""
    nz, ny_w, nx = state.U.shape
    stack = np.empty(((3 * nz + 1) * ny_w, nx))  # room for every row
    FilterRows(pfilter, 0, ny_w, slice(0, ny_w)).apply(
        state, (stack, np.empty((len(stack), nx // 2 + 1), np.complex128))
    )
    return state


def filter_c(pfilter, arr):
    """``F`` on a centre-row field ``arr``, in place (carried as ``U``)."""
    state = ModelState.zeros(arr.shape)
    state.U[...] = arr
    arr[...] = filter_state(pfilter, state).U


class TestDampingFactors:
    def test_mask_selects_polar_rows_only(self, small_grid):
        import math

        sin_rows = np.sin(small_grid.theta_c)
        mask, _ = damping_factors(sin_rows, small_grid.nx, math.radians(70.0))
        lat = np.abs(90.0 - np.degrees(small_grid.theta_c))
        assert np.array_equal(mask, lat > 70.0)

    def test_zonal_mean_never_damped(self, small_grid):
        import math

        sin_rows = np.sin(small_grid.theta_c)
        _, factors = damping_factors(sin_rows, small_grid.nx, math.radians(70.0))
        assert np.all(factors[:, 0] == 1.0)

    def test_factors_decrease_with_wavenumber(self, small_grid):
        import math

        sin_rows = np.sin(small_grid.theta_c)
        _, factors = damping_factors(sin_rows, small_grid.nx, math.radians(70.0))
        for row in factors:
            assert np.all(np.diff(row[1:]) <= 1e-15)

    def test_rows_nearer_pole_damped_harder(self, small_grid):
        import math

        sin_rows = np.sin(small_grid.theta_c)
        mask, factors = damping_factors(
            sin_rows, small_grid.nx, math.radians(70.0)
        )
        # first masked row is closest to the pole
        m_hi = small_grid.nx // 2
        assert factors[0, m_hi] <= factors[1, m_hi]


class TestApplication:
    def test_high_wavenumber_removed_at_pole(self, geom, pfilter):
        nz_w, ny_w, nx = geom.shape3d
        arr = np.zeros((nz_w, ny_w, nx))
        m_high = nx // 2 - 1
        i = np.arange(nx)
        arr[:, :, :] = np.cos(2 * np.pi * m_high * i / nx)
        pole_row = geom.gy  # first interior row (closest to the north pole)
        before = arr[0, pole_row].copy()
        filter_c(pfilter, arr)
        after = arr[0, pole_row]
        assert np.abs(after).max() < 0.1 * np.abs(before).max()

    def test_equatorial_rows_untouched(self, geom, pfilter, rng):
        nz_w, ny_w, nx = geom.shape3d
        arr = rng.standard_normal((nz_w, ny_w, nx))
        eq = ny_w // 2
        before = arr[:, eq].copy()
        filter_c(pfilter, arr)
        assert np.array_equal(arr[:, eq], before)

    def test_zonal_mean_preserved_everywhere(self, geom, pfilter, rng):
        nz_w, ny_w, nx = geom.shape3d
        arr = rng.standard_normal((nz_w, ny_w, nx))
        mean_before = arr.mean(axis=-1).copy()
        filter_c(pfilter, arr)
        assert np.allclose(arr.mean(axis=-1), mean_before, atol=1e-12)

    def test_apply_state_touches_all_fields(self, geom, pfilter, rng):
        state = ModelState.zeros(geom.shape3d)
        nx = geom.grid.nx
        i = np.arange(nx)
        wave = np.cos(2 * np.pi * (nx // 2 - 1) * i / nx)
        for arr in (state.U, state.V, state.Phi):
            arr[:, :, :] = wave
        state.psa[:, :] = wave
        filter_state(pfilter, state)
        pole = geom.gy
        for arr in (state.U, state.Phi, state.psa):
            assert np.abs(arr[..., pole, :]).max() < 0.1

    def test_idempotent_on_filtered_signal(self, geom, pfilter, rng):
        """Filtering twice with a hard-ish profile changes little the
        second time for already-damped high modes (soft idempotence)."""
        nz_w, ny_w, nx = geom.shape3d
        arr = rng.standard_normal((nz_w, ny_w, nx))
        filter_c(pfilter, arr)
        once = arr.copy()
        filter_c(pfilter, arr)
        # second pass damps by at most the same factors: differences are
        # bounded by the first-pass residual
        assert np.abs(arr - once).max() <= np.abs(once).max()

    def test_rejects_split_x_geometry(self, small_grid):
        from repro.grid.decomposition import BlockExtent

        sigma = SigmaLevels.uniform(small_grid.nz)
        ext = BlockExtent(0, small_grid.nx // 2, 0, small_grid.ny, 0, small_grid.nz)
        geom = WorkingGeometry.build(small_grid, sigma, ext, gy=2, gz=0, gx=2)
        with pytest.raises(ValueError):
            PolarFilter(geom, ModelParameters())

    def test_stacked_rows_match_manual_fft(self, geom, pfilter, rng):
        """Every masked row of every field, transformed in one stack,
        equals its own rfft / damp / irfft (to the bit)."""
        state = ModelState.random(geom.shape3d, rng)
        want = state.copy()
        filter_state(pfilter, state)
        nx = geom.grid.nx
        for name in ("U", "V", "Phi", "psa"):
            mask, factors = (
                (pfilter.mask_v, pfilter.factors_v) if name == "V"
                else (pfilter.mask_c, pfilter.factors_c)
            )
            a = getattr(want, name)
            for r, row in enumerate(np.flatnonzero(mask)):
                a[..., row, :] = np.fft.irfft(
                    np.fft.rfft(a[..., row, :], axis=-1) * factors[r],
                    n=nx, axis=-1,
                )
            assert np.array_equal(getattr(state, name), a), name


class TestPlanCache:
    def test_hit_returns_same_readonly_arrays(self, geom):
        clear_plan_cache()
        args = (geom.sin_c, geom.grid.nx, ModelParameters().filter_latitude)
        mask1, fac1 = filter_plan(*args)
        mask2, fac2 = filter_plan(*args)
        assert mask1 is mask2 and fac1 is fac2
        assert not fac1.flags.writeable and not mask1.flags.writeable
        stats = plan_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["size"] == 1

    def test_matches_uncached_and_keys_on_inputs(self, geom):
        clear_plan_cache()
        lat = ModelParameters().filter_latitude
        mask, fac = filter_plan(geom.sin_c, geom.grid.nx, lat)
        ref_mask, ref_fac = damping_factors(geom.sin_c, geom.grid.nx, lat)
        assert np.array_equal(mask, ref_mask)
        assert np.array_equal(fac, ref_fac)
        # different profile -> distinct entry, not a stale hit
        filter_plan(geom.sin_c, geom.grid.nx, lat, "sharp")
        assert plan_cache_stats()["size"] == 2

    def test_polar_filters_share_plans(self, geom):
        clear_plan_cache()
        a = PolarFilter(geom, ModelParameters())
        b = PolarFilter(geom, ModelParameters())
        assert a.factors_c is b.factors_c
        assert a.factors_v is b.factors_v
        assert plan_cache_stats()["hits"] == 2
