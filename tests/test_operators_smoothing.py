"""The smoothing operator S, its offset split, and the stability extension."""
import numpy as np
import pytest

from repro.constants import ModelParameters
from repro.core.workspace import Workspace
from repro.operators.smoothing import (
    DELTA4_COEFFS,
    FieldSmoother,
    OFFSETS_FULL,
    OFFSETS_L,
    OFFSETS_L_PRIME,
    OFFSETS_R,
    OFFSETS_R_PRIME,
    delta4_x,
    p1,
    p2,
    smooth_full,
    smooth_state,
    smoothers_for,
)
from repro.state.variables import ModelState


def partial(sm, a, offsets):
    """``sm``'s partial stage over ``offsets`` into a fresh array."""
    return sm.partial_into(a, offsets, np.empty_like(a), Workspace())


class TestDelta4:
    def test_annihilates_cubics(self):
        i = np.arange(16.0)
        a = np.broadcast_to(i**3, (2, 3, 16)).copy()
        out = delta4_x(a)
        # interior (away from the periodic seam)
        assert np.allclose(out[..., 4:-4], 0.0, atol=1e-9)

    def test_two_grid_wave_eigenvalue(self):
        """delta^4 of (-1)^i is 16 (-1)^i."""
        i = np.arange(16)
        a = np.broadcast_to((-1.0) ** i, (1, 2, 16)).copy()
        assert np.allclose(delta4_x(a), 16.0 * a)

    def test_coefficients(self):
        assert DELTA4_COEFFS == (1.0, -4.0, 6.0, -4.0, 1.0)
        assert sum(DELTA4_COEFFS) == 0.0


class TestPaperOperators:
    def test_p1_damps_two_grid_wave(self):
        beta = 0.1
        i = np.arange(16)
        a = np.broadcast_to((-1.0) ** i, (1, 2, 16)).copy()
        out = p1(a, beta)
        assert np.allclose(out, (1.0 - beta) * a)

    def test_p2_constant_preserved(self):
        a = np.full((2, 8, 8), 3.5)
        assert np.allclose(p2(a, 0.2)[..., 2:-2, :], 3.5)

    def test_p2_reduces_checkerboard(self, rng):
        j = np.arange(12)
        i = np.arange(16)
        checker = ((-1.0) ** j)[None, :, None] * ((-1.0) ** i)[None, None, :]
        a = np.broadcast_to(checker, (1, 12, 16)).copy()
        out = p2(a, 0.1)
        # (1 - b)(1 - b) + corrections: strictly smaller amplitude
        assert np.abs(out[..., 3:-3, :]).max() < np.abs(a).max()


class TestOffsetSplit:
    @pytest.mark.parametrize(
        "smoother",
        [
            FieldSmoother(beta_x=0.1, beta_y=0.1, cross=True),
            FieldSmoother(beta_x=0.1, beta_y=0.2, cross=False),
            FieldSmoother(beta_x=0.3, beta_y=0.0, cross=False),
        ],
    )
    def test_offsets_sum_to_full(self, smoother, rng):
        a = rng.standard_normal((2, 10, 12))
        total = partial(smoother, a, OFFSETS_FULL)
        assert np.allclose(total, smoother.full(a), rtol=1e-13, atol=1e-13)

    def test_former_later_decomposition(self, rng):
        """S~_L + S~'_L == S == S~_R + S~'_R (Eq. 14 split)."""
        sm = FieldSmoother(beta_x=0.1, beta_y=0.1, cross=True)
        a = rng.standard_normal((2, 10, 12))
        full = sm.full(a)
        left = partial(sm, a, OFFSETS_L) + partial(sm, a, OFFSETS_L_PRIME)
        right = partial(sm, a, OFFSETS_R) + partial(sm, a, OFFSETS_R_PRIME)
        assert np.allclose(left, full, rtol=1e-13, atol=1e-13)
        assert np.allclose(right, full, rtol=1e-13, atol=1e-13)

    def test_partial_rejects_empty(self):
        sm = FieldSmoother(beta_x=0.1, beta_y=0.1, cross=True)
        with pytest.raises(ValueError):
            partial(sm, np.zeros((2, 4, 4)), ())

    def test_zero_offset_only_needs_no_neighbours(self, rng):
        """S~_0 must not read other rows: row-local check."""
        sm = FieldSmoother(beta_x=0.1, beta_y=0.1, cross=True)
        a = rng.standard_normal((1, 6, 8))
        b = a.copy()
        b[:, 3, :] += 1.0  # perturb one row
        da = partial(sm, a, (0,))
        db = partial(sm, b, (0,))
        diff_rows = np.where(np.any(da != db, axis=(0, 2)))[0]
        assert list(diff_rows) == [3]


class TestStateSmoothing:
    def test_smooth_full_paper_exact(self, rng):
        s = ModelState.random((2, 8, 10), rng)
        out = smooth_full(s, beta=0.1, beta_y_uv=0.0)
        assert np.allclose(out.U, p1(s.U, 0.1))
        assert np.allclose(out.Phi, p2(s.Phi, 0.1))

    def test_smoothers_for_params(self):
        params = ModelParameters(smoothing_beta=0.2, smoothing_beta_y_uv=0.05)
        sm = smoothers_for(params)
        assert sm["U"].beta_y == 0.05
        assert not sm["U"].cross
        assert sm["Phi"].cross
        assert sm["Phi"].beta_y == 0.2
        assert sm["U"] is sm["V"]

    def test_smooth_state_uses_extension(self, rng):
        s = ModelState.random((2, 8, 10), rng)
        params = ModelParameters(smoothing_beta=0.1, smoothing_beta_y_uv=0.1)
        out = smooth_state(s, params)
        paper = smooth_full(s, 0.1, beta_y_uv=0.0)
        # scalars identical, winds differ (the y-damping extension)
        assert np.allclose(out.Phi, paper.Phi)
        assert not np.allclose(out.U, paper.U)

    def test_has_y_stencil_flag(self):
        assert not FieldSmoother(0.1, 0.0, cross=False).has_y_stencil
        assert FieldSmoother(0.1, 0.1, cross=False).has_y_stencil
