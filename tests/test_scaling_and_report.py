"""Strong-scaling analysis and the JSON experiment report."""
import json
from pathlib import Path

import pytest

from repro.bench.figures import (
    full_report, headline_claims, main, render_figure, render_scaling, strong_scaling,
)
from repro.grid.latlon import paper_grid
from repro.perf.model import PAPER_PROC_SWEEP, PerformanceModel


@pytest.fixture(scope="module")
def model():
    return PerformanceModel(paper_grid())


class TestStrongScaling:
    def test_baseline_point(self, model):
        pts = strong_scaling(model, "ca", [128, 512])
        assert pts[0]["p"] == 128
        assert pts[0]["speedup"] == pytest.approx(1.0)
        assert pts[0]["efficiency"] == pytest.approx(1.0)

    def test_speedup_below_ideal(self, model):
        pts = strong_scaling(model, "original-yz", PAPER_PROC_SWEEP)
        for pt in pts[1:]:
            ideal = pt["p"] / pts[0]["p"]
            assert pt["speedup"] < ideal  # communication-bound code
            assert pt["efficiency"] < 1.0

    def test_ca_scales_better_than_yz(self, model):
        ca = strong_scaling(model, "ca", PAPER_PROC_SWEEP)
        yz = strong_scaling(model, "original-yz", PAPER_PROC_SWEEP)
        # absolute time advantage at the largest size
        assert ca[-1]["total_s"] < yz[-1]["total_s"]

    def test_empty_procs_rejected(self, model):
        with pytest.raises(ValueError):
            strong_scaling(model, "ca", [])

    def test_yz_limit_is_1024(self, model):
        """Sec. 5.1: 'the number of processes used under Y-Z decomposition
        is 1024 at most' — 2048 = 2^11 has no feasible (p_y <= n_y/2,
        p_z <= n_z/2) factorization on the 360 x 30 plane."""
        with pytest.raises(ValueError):
            model.decomposition("ca", 2048)

    def test_report_renders(self, model):
        text = render_scaling(model, ["ca"], [128, 256])
        assert "speedup" in text and "ca" in text


class TestReport:
    def test_full_report_structure(self, model):
        rep = full_report(model)
        assert set(rep) == {
            "meta", "figures", "headline_claims", "sec53", "strong_scaling"
        }
        assert rep["meta"]["mesh"] == [720, 360, 30]
        assert rep["figures"]["procs"] == PAPER_PROC_SWEEP

    def test_report_json_serializable(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["--json", str(out)]) == 0
        assert json.loads(out.read_text()) == json.loads(json.dumps(full_report()))
        assert main(["--json", str(out), "extra"]) == 2

    def test_headline_claims_close_to_paper(self, model):
        claims = headline_claims(model)
        for name, pair in claims.items():
            paper, ours = pair["paper"], pair["reproduced"]
            rel = abs(ours - paper) / abs(paper)
            # every anchor within 60% (most within 15%; the CA stencil
            # time carries the documented bundle-volume deviation)
            assert rel < 0.6, f"{name}: paper {paper}, reproduced {ours}"

    def test_tight_anchors(self, model):
        claims = headline_claims(model)
        for name in ("saved_vs_xy_1024_s", "saved_vs_yz_1024_s",
                     "reduction_vs_xy_512", "collective_speedup_avg"):
            pair = claims[name]
            rel = abs(pair["reproduced"] - pair["paper"]) / abs(pair["paper"])
            assert rel < 0.15, name


def test_experiments_md_matches_the_report():
    """EXPERIMENTS.md shows what the CLI prints: the headline table's
    "Reproduced" column and the Figure 1/6/7/8 blocks, at their printed
    precision."""
    doc = (Path(__file__).resolve().parents[1] / "EXPERIMENTS.md").read_text()
    section = {" ".join(s.split()[:2]): s for s in doc.split("\n## ")}
    table = section["Headline claims"].splitlines()
    cells = [row.split("|")[3].strip() for row in table if row.startswith("| ")]
    rep = full_report()
    c = {k: v["reproduced"] for k, v in rep["headline_claims"].items()}
    yz, ca = (rep["figures"][a]["stencil_s"] for a in ("original-yz", "ca"))
    ratios = [a / b for a, b in zip(yz, ca)]
    assert cells[1:7] == [
        f"**{100 * c['reduction_vs_xy_512']:.1f} %**",
        f"**{c['collective_speedup_avg']:.2f}×**",
        f"**{min(ratios):.2f}×–{max(ratios):.2f}×, "
        f"avg {c['stencil_speedup_avg']:.2f}×**",
        f"**{c['stencil_time_yz_1024_s']:,.0f} s → "
        f"{c['stencil_time_ca_1024_s']:,.0f} s**",
        f"**{c['saved_vs_xy_1024_s']:,.0f} s**",
        f"**{c['saved_vs_yz_1024_s']:,.0f} s**",
    ]
    for n in (1, 6, 7, 8):
        block = section[f"Figure {n}"].split("```")[1].strip("\n").splitlines()
        printed = render_figure(f"fig{n}").splitlines()
        assert len(block) >= 3 and all(line in printed for line in block), n
