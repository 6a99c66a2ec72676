"""The figure-regeneration CLI."""
import pytest

from repro.bench.figures import (
    FIGURES, TARGETS, fig1_series, figure_series, render_figure, render_sec53,
    render_tables, small_scale_measured,
)
from repro.grid.latlon import paper_grid
from repro.perf.model import PerformanceModel


class TestFigureSeries:
    def test_fig1_percentages(self):
        series = fig1_series(PerformanceModel(paper_grid()), procs=[128, 512])
        for name, vals in series.items():
            assert len(vals) == 2
            assert all(0.0 <= v <= 100.0 for v in vals)
        # comm% + comp% == 100 per algorithm
        for alg in ("original-xy", "original-yz"):
            comm, comp = series[f"{alg} comm%"], series[f"{alg} comp%"]
            assert all(c + p == pytest.approx(100.0) for c, p in zip(comm, comp))

    def test_fig6_7_8_have_three_series(self):
        model = PerformanceModel(paper_grid())
        for attr, _ in FIGURES.values():
            series = figure_series(model, attr, procs=[128])
            assert set(series) == {"original-xy", "original-yz", "ca"}
            assert all(v[0] > 0 for v in series.values())

    def test_render_contains_rows(self):
        text = render_figure("fig8", procs=[128, 256])
        assert "Figure 8" in text
        assert "ca" in text
        assert "128" in text and "256" in text


class TestTables:
    def test_tables_render(self):
        text = render_tables()
        assert "Table 1" in text and "Table 3" in text

    def test_sec53_renders(self):
        text = render_sec53()
        assert "W [words]" in text

    def test_all_targets_registered(self):
        assert set(TARGETS) == {
            "fig1", "fig2", "fig6", "fig7", "fig8", "tables", "sec53",
            "measured", "scaling", "sweeps", "imbalance",
        }

    def test_sweeps_and_imbalance_targets(self, capsys):
        from repro.bench.figures import main

        assert main(["sweeps", "imbalance"]) == 0
        out = capsys.readouterr().out
        assert "resolution sweep" in out and "imbalance" in out

    def test_fig2_target(self, capsys):
        from repro.bench.figures import main

        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "operator form" in out and "13 exchanges" in out

    def test_cli_main_runs_targets(self, capsys):
        from repro.bench.figures import main

        assert main(["fig8", "tables"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "Table 1" in out

    def test_cli_rejects_unknown(self, capsys):
        from repro.bench.figures import main

        assert main(["nope"]) == 2

    def test_scaling_target(self, capsys):
        from repro.bench.figures import main

        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "original-3d" in out and "speedup" in out


class TestMeasured:
    def test_small_scale_comparison(self):
        points = small_scale_measured(nsteps=1)
        assert set(points) == {"original-xy", "original-yz", "ca"}
        for _, diag, final in points.values():
            assert final.isfinite() and diag.makespan > 0
        # the executed CA core beats the executed YZ original on
        # stencil communication time (the Figure 7 relation)
        stencil = {alg: diag.stencil_comm_time for alg, (_, diag, _) in points.items()}
        assert stencil["ca"] < stencil["original-yz"]

    def test_states_agree_across_algorithms(self):
        a, b, c = (final for _, _, final in small_scale_measured(nsteps=2).values())
        assert a.max_difference(b) < 1e-12
        assert a.max_difference(c) < 1e-2  # approximate iteration
