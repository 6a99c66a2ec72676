"""Parameter sweeps and load-imbalance diagnostics."""
import pytest

from repro.analysis.imbalance import compare_decompositions, filter_imbalance
from repro.bench.figures import (
    latency_sweep, m_iterations_sweep, render_sweep, resolution_sweep,
)
from repro.grid.decomposition import Decomposition, yz_decomposition
from repro.grid.latlon import LatLonGrid, paper_grid


class TestResolutionSweep:
    def test_three_points_by_default(self):
        rows = resolution_sweep(nprocs=256)
        assert len(rows) == 3
        assert rows[-1][0] == "720x360x30"

    def test_ca_wins_everywhere(self):
        for _, ca, yz, xy in resolution_sweep(nprocs=256):
            assert ca < yz and ca < xy


class TestMSweep:
    def test_ca_ahead_for_all_m(self):
        rows = m_iterations_sweep(nprocs=512, m_values=[1, 2, 3, 4])
        assert all(ca < yz for _, ca, yz, _ in rows)

    def test_redundancy_erodes_speedup_ratio(self):
        """On small blocks the 3M-wide halos' redundant compute grows
        faster than the exchange savings: the speedup *ratio* shrinks
        with M (CA still wins absolutely)."""
        rows = m_iterations_sweep(nprocs=512, m_values=[1, 2, 3, 4])
        speedups = [yz / ca for _, ca, yz, _ in rows]
        assert speedups == sorted(speedups, reverse=True)


class TestLatencySweep:
    def test_advantage_grows_with_latency(self):
        rows = latency_sweep(nprocs=512, factors=[0.25, 1.0, 4.0])
        speedups = [yz / ca for _, ca, yz, _ in rows]
        assert speedups == sorted(speedups)

    def test_render(self):
        text = render_sweep(latency_sweep(factors=[1.0]), "latency sweep")
        assert "CA/YZ" in text and "latency x1" in text


class TestFilterImbalance:
    def test_yz_concentrates_filter_work(self):
        """Under Y-Z (rows split across many ranks) most ranks own no
        filtered rows: severe imbalance, the cost hidden inside the
        bulk-synchronous step."""
        grid = paper_grid()
        rep = filter_imbalance(grid, yz_decomposition(720, 360, 30, 256))
        assert rep.idle_fraction > 0.5
        assert rep.imbalance_factor > 2.0

    def test_single_rank_balanced(self):
        grid = LatLonGrid(nx=32, ny=16, nz=4)
        rep = filter_imbalance(grid, Decomposition(32, 16, 4, 1, 1, 1))
        assert rep.imbalance_factor == 1.0
        assert rep.idle_fraction == 0.0

    def test_work_accounting_per_decomposition(self):
        """Y-Z work totals the physical filter rows x levels; X-Y work is
        replicated across each x line (every member pays the line's FFT
        after the allgather), so it totals px times that."""
        grid = paper_grid()
        reports = compare_decompositions(grid, 64)
        filtered_rows = int(
            (abs(grid.latitude_degrees()) > 70.0).sum()
        )
        base = filtered_rows * grid.nz
        assert reports["yz"].work_per_rank.sum() == pytest.approx(base)
        px = reports["xy"].decomposition.px
        assert reports["xy"].work_per_rank.sum() == pytest.approx(base * px)

    def test_equatorial_band_has_zero_work(self):
        grid = LatLonGrid(nx=64, ny=32, nz=4)
        decomp = Decomposition(64, 32, 4, 1, 8, 1)
        rep = filter_imbalance(grid, decomp)
        # middle ranks own only equatorward rows
        mid = decomp.nranks // 2
        assert rep.work_per_rank[mid] == 0.0
        # pole ranks own all of it
        assert rep.work_per_rank[0] > 0
        assert rep.work_per_rank[-1] > 0
