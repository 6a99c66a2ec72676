"""CFL and pole-clustering diagnostics."""
import math

import numpy as np
import pytest

from repro.constants import DEFAULT_PARAMETERS
from repro.grid.cfl import (
    cfl_report, filtered_dx, max_stable_dt, polar_clustering_ratio,
)
from repro.grid.latlon import LatLonGrid, paper_grid


class TestClustering:
    def test_ratio_grows_with_resolution(self):
        coarse = LatLonGrid(nx=32, ny=16, nz=4)
        fine = LatLonGrid(nx=128, ny=64, nz=4)
        assert polar_clustering_ratio(fine) > polar_clustering_ratio(coarse)

    def test_paper_grid_severe(self):
        # at 0.5 deg the polar circle is >100x shorter than the equator
        assert polar_clustering_ratio(paper_grid()) > 100


class TestCflReport:
    def test_polar_restriction(self, small_grid):
        r = cfl_report(small_grid, dt=300.0)
        assert r.cfl_zonal_worst > r.cfl_zonal_equator
        assert r.min_dx < r.max_dx

    def test_filter_rescues_time_step(self):
        g = paper_grid()
        dt = max_stable_dt(g, filtered=True)
        r = cfl_report(g, dt)
        assert not r.stable_unfiltered  # would violate polar CFL
        assert r.stable_filtered

    def test_rejects_bad_dt(self, small_grid):
        with pytest.raises(ValueError):
            cfl_report(small_grid, dt=0.0)

    def test_unfiltered_dt_much_smaller(self):
        g = paper_grid()
        assert max_stable_dt(g, filtered=False) < max_stable_dt(g, filtered=True) / 50


class TestFilteredTimeStep:
    """With the filter the limit is ``dx`` at the filter latitude — the
    smallest ``dx`` of the rows it leaves alone — not the equator's; the
    report's ``stable_filtered`` judges by the same ``dx``."""

    def test_small_mesh(self):
        g = LatLonGrid(nx=32, ny=16, nz=4)
        lat_f = DEFAULT_PARAMETERS.filter_latitude
        dt = max_stable_dt(g)
        dx_f = g.radius * math.cos(lat_f) * g.dlambda
        assert filtered_dx(g) == dx_f
        assert dt == pytest.approx(0.7 * dx_f / 400.0, rel=1e-12)
        # no row the filter leaves alone is finer; the equator is far coarser
        kept = np.abs(g.latitude_degrees()) <= math.degrees(lat_f)
        assert dx_f <= g.cell_dx()[kept].min()
        assert 2 * dx_f < g.cell_dx().max()

    @pytest.mark.parametrize("grid", [LatLonGrid(nx=32, ny=16, nz=4), paper_grid()])
    def test_limit_is_the_reports_threshold(self, grid):
        limit = max_stable_dt(grid, safety=1.0)
        assert cfl_report(grid, limit * (1 - 1e-12)).stable_filtered
        assert not cfl_report(grid, limit * (1 + 1e-12)).stable_filtered

    def test_paper_grid(self):
        # 97.3 s by the equatorial dx; 33.3 s by dx at 70 degrees
        assert max_stable_dt(paper_grid()) == pytest.approx(33.28, abs=0.01)
        # 90 s passed the equatorial test; it is 2.7x the filtered limit
        assert not cfl_report(paper_grid(), 90.0).stable_filtered
