"""Shift primitives and boundary ghost fills."""
import numpy as np
import pytest

from repro.operators.shifts import (
    fill_pole_ghosts,
    fill_pole_ghosts_vrow,
    fill_z_edge_ghosts,
    interior2d,
    interior3d,
    sx,
    sy,
    sz,
)


class TestShifts:
    def test_sx_positive_reads_larger_index(self, rng):
        a = rng.standard_normal((2, 3, 8))
        assert np.array_equal(sx(a, 1)[..., 0], a[..., 1])
        assert np.array_equal(sx(a, -1)[..., 1], a[..., 0])

    def test_sx_periodic_wrap(self, rng):
        a = rng.standard_normal((2, 3, 8))
        assert np.array_equal(sx(a, 1)[..., -1], a[..., 0])

    def test_sy_and_sz(self, rng):
        a = rng.standard_normal((4, 5, 6))
        assert np.array_equal(sy(a, 2)[:, 0, :], a[:, 2, :])
        assert np.array_equal(sz(a, 1)[0], a[1])

    def test_zero_shift_is_identity_view(self, rng):
        a = rng.standard_normal((2, 3, 4))
        assert sx(a, 0) is a
        assert sy(a, 0) is a

    def test_sz_requires_3d(self):
        with pytest.raises(ValueError):
            sz(np.zeros((3, 4)), 1)


class TestPoleGhosts:
    def test_scalar_mirror_shifts_half_circle(self):
        nx, gy = 8, 2
        a = np.zeros((1, 2 + 2 * gy, nx))
        a[0, gy, :] = np.arange(nx, dtype=float)
        fill_pole_ghosts(a, gy, vector=False, north=True, south=False)
        assert np.array_equal(a[0, gy - 1, :], np.roll(np.arange(8.0), 4))

    def test_vector_mirror_flips_sign(self):
        nx, gy = 8, 1
        a = np.zeros((1, 2 + 2 * gy, nx))
        a[0, gy, :] = 1.0
        fill_pole_ghosts(a, gy, vector=True, north=True, south=False)
        assert np.all(a[0, 0, :] == -1.0)

    def test_south_mirror(self):
        nx, gy = 8, 2
        a = np.zeros((4 + 2 * gy, nx))
        a[-gy - 1, :] = np.arange(nx, dtype=float)  # last interior row
        fill_pole_ghosts(a, gy, vector=False, north=False, south=True)
        assert np.array_equal(a[-gy, :], np.roll(np.arange(8.0), 4))

    def test_double_mirror_is_identity(self, rng):
        """Mirroring twice returns the original row values."""
        nx, gy = 8, 2
        a = rng.standard_normal((3, 4 + 2 * gy, nx))
        orig = a[:, gy: gy + 2, :].copy()
        fill_pole_ghosts(a, gy, vector=True, north=True, south=False)
        ghost = a[:, :gy, :]
        # mirror the ghosts back: rows reversed, rolled, sign flipped
        back = -np.roll(ghost[:, ::-1, :], nx // 2, axis=-1)
        assert np.allclose(back, orig)

    def test_requires_even_nx(self):
        with pytest.raises(ValueError):
            fill_pole_ghosts(np.zeros((2, 6, 7)), 1, vector=False)

    def test_gy_zero_noop(self):
        a = np.ones((2, 4, 8))
        fill_pole_ghosts(a, 0, vector=False)
        assert np.all(a == 1.0)

    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_depth_fills_the_rows_nearest_the_block_only(self, rng, vector, depth):
        """``depth < gy``: the ``depth`` ghost rows next to the block equal
        the full fill's, the rows beyond are untouched."""
        nx, gy = 8, 5
        a = rng.standard_normal((2, 6 + 2 * gy, nx))
        full, part = a.copy(), a.copy()
        fill_pole_ghosts(full, gy, vector=vector)
        fill_pole_ghosts(part, gy, vector=vector, depth=depth)
        near_n, near_s = slice(gy - depth, gy), slice(-gy, -gy + depth)
        assert np.array_equal(part[:, near_n], full[:, near_n])
        assert np.array_equal(part[:, near_s], full[:, near_s])
        assert np.array_equal(part[:, : gy - depth], a[:, : gy - depth])
        assert np.array_equal(part[:, gy:-gy], a[:, gy:-gy])
        if depth < gy:
            assert np.array_equal(part[:, -gy + depth:], a[:, -gy + depth:])

    def test_depth_beyond_gy_is_the_full_fill(self, rng):
        a = rng.standard_normal((6 + 4, 8))
        full, deep = a.copy(), a.copy()
        fill_pole_ghosts(full, 2, vector=True)
        fill_pole_ghosts(deep, 2, vector=True, depth=7)
        assert np.array_equal(full, deep)


class TestVRowGhosts:
    def test_north_pole_interface_zeroed(self):
        nx, gy = 8, 2
        a = np.ones((6 + 2 * gy, nx))
        fill_pole_ghosts_vrow(a, gy, north=True, south=False)
        assert np.all(a[gy - 1, :] == 0.0)

    def test_north_antisymmetric(self):
        nx, gy = 8, 2
        a = np.zeros((6 + 2 * gy, nx))
        a[gy, :] = np.arange(nx, dtype=float)  # interface +1 row
        fill_pole_ghosts_vrow(a, gy, north=True, south=False)
        assert np.array_equal(a[gy - 2, :], -np.roll(np.arange(8.0), 4))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_depth_keeps_the_pole_rows_zero(self, rng, depth):
        """``depth < gy`` on V rows: both pole interface rows are still
        zeroed, ``depth`` ghost rows per side equal the full fill's, the
        rest stay untouched."""
        nx, gy, ny_i = 8, 5, 6
        a = rng.standard_normal((2, ny_i + 2 * gy, nx))
        full, part = a.copy(), a.copy()
        fill_pole_ghosts_vrow(full, gy)
        fill_pole_ghosts_vrow(part, gy, depth=depth)
        assert not part[:, gy - 1].any()           # theta = 0 interface
        assert not part[:, gy + ny_i - 1].any()    # theta = pi interface
        near_n = slice(gy - depth, gy)
        near_s = slice(gy + ny_i, gy + ny_i + depth)
        assert np.array_equal(part[:, near_n], full[:, near_n])
        assert np.array_equal(part[:, near_s], full[:, near_s])
        assert np.array_equal(part[:, : gy - depth], a[:, : gy - depth])
        assert np.array_equal(
            part[:, gy + ny_i + depth:], a[:, gy + ny_i + depth:]
        )
        assert np.array_equal(
            part[:, gy: gy + ny_i - 1], a[:, gy: gy + ny_i - 1]
        )

    def test_south_pole_interface_on_last_interior_row(self):
        nx, gy = 8, 2
        ny_i = 6
        a = np.ones((ny_i + 2 * gy, nx))
        fill_pole_ghosts_vrow(a, gy, north=False, south=True)
        pole = ny_i + gy - 1
        assert np.all(a[pole, :] == 0.0)
        # ghosts mirror interior rows across the pole with sign flip
        assert np.array_equal(
            a[pole + 1, :], -np.roll(a[pole - 1, :], nx // 2)
        )


class TestZEdgeGhosts:
    def test_replication(self):
        a = np.arange(6.0)[:, None, None] * np.ones((6, 2, 3))
        fill_z_edge_ghosts(a, 2, top=True, bottom=True)
        assert np.all(a[0] == 2.0)
        assert np.all(a[1] == 2.0)
        assert np.all(a[-1] == 3.0)

    def test_one_sided(self):
        a = np.arange(5.0)[:, None, None] * np.ones((5, 2, 2))
        fill_z_edge_ghosts(a, 1, top=True, bottom=False)
        assert np.all(a[0] == 1.0)
        assert np.all(a[-1] == 4.0)

    def test_requires_3d(self):
        with pytest.raises(ValueError):
            fill_z_edge_ghosts(np.zeros((4, 4)), 1)


class TestInteriorViews:
    def test_interior3d(self):
        a = np.zeros((8, 10, 12))
        v = interior3d(a, gy=2, gz=1, gx=3)
        assert v.shape == (6, 6, 6)
        v += 1.0
        assert a.sum() == 6 * 6 * 6

    def test_interior2d_no_ghosts(self):
        a = np.zeros((4, 5))
        assert interior2d(a, 0, 0).shape == (4, 5)
