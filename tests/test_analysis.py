"""Energy diagnostics, lower bounds and the Sec. 5.3 formulas."""

import pytest

from repro.analysis.energy import energy_budget, global_mean_psa
from repro.analysis.lower_bounds import (
    filter_dominates_summation,
    fourier_filter_lower_bound,
    section53_costs,
    summation_lower_bound,
)
from repro.physics import balanced_random_state, rest_state


class TestEnergyBudget:
    def test_zero_for_rest(self, small_grid):
        e = energy_budget(rest_state(small_grid), small_grid)
        assert e.total == 0.0

    def test_components_positive(self, small_grid, rng):
        e = energy_budget(balanced_random_state(small_grid, rng), small_grid)
        assert e.kinetic > 0
        assert e.available_potential > 0
        assert e.surface_potential > 0
        assert e.total == pytest.approx(
            e.kinetic + e.available_potential + e.surface_potential
        )

    def test_kinetic_scales_quadratically(self, small_grid, rng):
        s = balanced_random_state(small_grid, rng)
        e1 = energy_budget(s, small_grid).kinetic
        e2 = energy_budget(2.0 * s, small_grid).kinetic
        assert e2 == pytest.approx(4.0 * e1)

    def test_global_mean_psa(self, small_grid):
        s = rest_state(small_grid)
        s.psa[:] = 5.0
        assert global_mean_psa(s, small_grid) == pytest.approx(5.0)


class TestTheorem41:
    def test_zero_for_single_processor(self):
        assert fourier_filter_lower_bound(720, 1) == 0.0

    def test_positive_otherwise(self):
        assert fourier_filter_lower_bound(720, 4) > 0

    def test_rejects_bad_px(self):
        with pytest.raises(ValueError):
            fourier_filter_lower_bound(720, 0)
        with pytest.raises(ValueError):
            fourier_filter_lower_bound(720, 1024)

    def test_degenerate_full_split(self):
        assert fourier_filter_lower_bound(64, 64) > 0


class TestTheorem42:
    def test_zero_for_single_z_rank(self):
        assert summation_lower_bound(720, 360, 1) == 0.0

    def test_linear_in_pz(self):
        w2 = summation_lower_bound(720, 360, 2)
        w5 = summation_lower_bound(720, 360, 5)
        assert w5 == pytest.approx(4.0 * w2)

    def test_paper_formula(self):
        assert summation_lower_bound(10, 20, 3) == 2 * 2 * 10 * 20


class TestDominance:
    def test_filter_dominates_at_paper_scale(self):
        """Sec. 4.2's reason for killing the x-collective first."""
        assert filter_dominates_summation(720, 360, 30, 16, 8, 4)

    def test_no_dominance_without_x_split(self):
        assert not filter_dominates_summation(720, 360, 30, 1, 32, 4)


class TestSection53:
    def test_ordering_w(self):
        """W_XY >> W_YZ > W_CA with each algorithm on its own (realistic)
        decomposition, as in the paper's evaluation."""
        from repro.grid.decomposition import xy_decomposition, yz_decomposition
        from repro.perf.model import PAPER_PROC_SWEEP

        for p in PAPER_PROC_SWEEP:
            dxy = xy_decomposition(720, 360, 30, p)
            dyz = yz_decomposition(720, 360, 30, p)
            w = {
                alg: section53_costs(alg, 720, 360, 30, d.px, d.py, d.pz).W
                for alg, d in (("ca", dyz), ("yz", dyz), ("xy", dxy))
            }
            assert w["xy"] > w["yz"] > w["ca"]
            assert w["yz"] / w["ca"] == pytest.approx(1.5)  # 3M / 2M

    def test_ordering_s(self):
        kw = dict(nx=720, ny=360, nz=30, px=32, py=32, pz=8, m_iterations=3)
        s_ca = section53_costs("ca", **kw).S
        s_yz = section53_costs("yz", **kw).S
        s_xy = section53_costs("xy", **kw).S
        assert s_xy > s_yz > s_ca
        assert s_ca == (2 * 3 + 2)
        assert s_yz == (6 * 3 + 4)
        assert s_xy == (9 * 3 + 10)

    def test_scales_with_steps(self):
        kw = dict(nx=64, ny=32, nz=8, px=1, py=4, pz=2)
        one = section53_costs("ca", nsteps=1, **kw)
        ten = section53_costs("ca", nsteps=10, **kw)
        assert ten.W == pytest.approx(10 * one.W)
        assert ten.S == pytest.approx(10 * one.S)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            section53_costs("bogus", 64, 32, 8, 1, 4, 2)
