"""The projection model: shape claims of Figures 1, 6, 7 and 8."""
import pytest

from repro.grid.latlon import paper_grid
from repro.perf.model import (
    ALGORITHMS,
    Calibration,
    PAPER_PROC_SWEEP,
    PerformanceModel,
)


@pytest.fixture(scope="module")
def model():
    return PerformanceModel(paper_grid())


class TestFigure1:
    def test_communication_dominates(self, model):
        """Figure 1's message: comm time dominates the dycore runtime
        for the original algorithm at scale."""
        for p in PAPER_PROC_SWEEP:
            assert model.timing("original-yz", p).comm_fraction > 0.5
            assert model.timing("original-xy", p).comm_fraction > 0.35
        # thoroughly communication-bound at the scaling limit
        assert model.timing("original-yz", 1024).comm_fraction > 0.9

    def test_comm_share_grows_with_p(self, model):
        f = [model.timing("original-yz", p).comm_fraction for p in PAPER_PROC_SWEEP]
        assert f == sorted(f)


class TestFigure6:
    def test_xy_collective_much_larger(self, model):
        """The Fourier-filter collective dwarfs the z-summation."""
        for p in PAPER_PROC_SWEEP:
            xy = model.timing("original-xy", p).collective_comm_time
            yz = model.timing("original-yz", p).collective_comm_time
            assert xy > 1.2 * yz

    def test_ca_collective_speedup(self, model):
        """~1.4x average vs the Y-Z original (one third of C removed)."""
        ratios = [
            model.timing("original-yz", p).collective_comm_time
            / model.timing("ca", p).collective_comm_time
            for p in PAPER_PROC_SWEEP
        ]
        avg = sum(ratios) / len(ratios)
        assert 1.25 < avg < 1.55


class TestFigure7:
    def test_xy_stencil_smallest_of_originals(self, model):
        """W_XY^stencil < W_YZ^stencil since n_x >> n_y, n_z (Sec. 5.2)."""
        for p in PAPER_PROC_SWEEP:
            xy = model.timing("original-xy", p).stencil_comm_time
            yz = model.timing("original-yz", p).stencil_comm_time
            assert xy < yz

    def test_ca_stencil_speedup_3_to_6(self, model):
        """3x-6x (avg 3.9) vs the Y-Z original."""
        ratios = [
            model.timing("original-yz", p).stencil_comm_time
            / model.timing("ca", p).stencil_comm_time
            for p in PAPER_PROC_SWEEP
        ]
        assert all(2.5 < r < 6.5 for r in ratios)
        avg = sum(ratios) / len(ratios)
        assert 3.3 < avg < 4.5

    def test_paper_anchor_yz_1024(self, model):
        """17,400 s for the Y-Z original on 1024 cores (Sec. 5.2)."""
        t = model.timing("original-yz", 1024).stencil_comm_time
        assert t == pytest.approx(17_400, rel=0.25)


class TestFigure8:
    def test_ca_always_fastest(self, model):
        for p in PAPER_PROC_SWEEP:
            totals = {a: model.timing(a, p).total_time for a in ALGORITHMS}
            assert totals["ca"] < totals["original-yz"]
            assert totals["ca"] < totals["original-xy"]

    def test_54_percent_at_512(self, model):
        """'reduces the total runtime by 54% at most, when p = 512'."""
        reductions = {
            p: 1.0
            - model.timing("ca", p).total_time
            / model.timing("original-xy", p).total_time
            for p in PAPER_PROC_SWEEP
        }
        assert reductions[512] == pytest.approx(0.54, abs=0.05)
        # "at most 54%": no process count wildly exceeds the paper's max,
        # and the benefit declines toward the scaling limit
        assert max(reductions.values()) < 0.60
        assert reductions[1024] < reductions[512]

    def test_savings_anchors_1024(self, model):
        """~113,500 s saved vs X-Y and ~46,300 s vs Y-Z on 1024 cores."""
        ca = model.timing("ca", 1024).total_time
        xy = model.timing("original-xy", 1024).total_time
        yz = model.timing("original-yz", 1024).total_time
        assert xy - ca == pytest.approx(113_500, rel=0.15)
        assert yz - ca == pytest.approx(46_300, rel=0.15)


class TestModelMechanics:
    def test_ten_model_years_of_steps(self, model):
        assert model.nsteps == pytest.approx(
            10 * 365 * 86400 / model.PAPER_DT, rel=1e-6
        )

    def test_unknown_algorithm_raises(self, model):
        with pytest.raises(ValueError):
            model.timing("bogus", 128)

    def test_sweep_shape(self, model):
        out = model.sweep(["ca"], [128, 256])
        assert len(out["ca"]) == 2
        assert out["ca"][0].nprocs == 128

    def test_calibration_validation(self):
        with pytest.raises(ValueError):
            Calibration(alpha_msg=-1.0)

    def test_sync_overhead_grows(self):
        cal = Calibration()
        assert cal.sync_overhead(1024) > cal.sync_overhead(128)

    def test_deeper_halo_batching_is_cheaper(self, model):
        """Exchanging every r updates trades message frequency against
        redundant halo rows; Algorithm 2's r = 3M is the cheapest."""
        M = model.params.m_iterations
        t = {r: model.ca_stencil_time_batched(1024, r) for r in (1, 3, 3 * M)}
        assert t[3 * M] < t[3] < t[1]
        with pytest.raises(ValueError):
            model.ca_stencil_time_batched(1024, 0)

    def test_trapezoid_redundancy_shrinks_with_block_size(self):
        pm_small = PerformanceModel(paper_grid())
        d_big = pm_small.decomposition("ca", 128)
        d_tiny = pm_small.decomposition("ca", 1024)
        block_big = pm_small._block_points(d_big)
        block_tiny = pm_small._block_points(d_tiny)
        ratio_big = pm_small._ca_trapezoid_points(d_big, 9) / block_big
        ratio_tiny = pm_small._ca_trapezoid_points(d_tiny, 9) / block_tiny
        assert ratio_tiny > ratio_big > 1.0


def test_model_ca_compute_equals_the_executed_cores_charges(monkeypatch):
    """Model = executed: the model's weighted point-updates of one
    steady-state CA step on the busiest rank are, term for term, what the
    executed core charges to its logical clock (polar filter aside, which
    the CA core does not charge) — both read the same row-window
    schedule, so a pole side contributes no redundant row in either."""
    from repro.constants import ModelParameters
    from repro.core.comm_avoiding import ca_rank_program
    from repro.core.distributed import DistributedConfig, RankContext
    from repro.grid.decomposition import Decomposition
    from repro.grid.latlon import LatLonGrid
    from repro.physics import perturbed_rest_state
    from repro.simmpi import run_spmd

    grid = LatLonGrid(nx=16, ny=48, nz=4)
    params = ModelParameters(
        dt_adaptation=60.0, dt_advection=180.0, m_iterations=3
    )
    state0 = perturbed_rest_state(grid, amplitude_k=2.0)
    charged = []
    monkeypatch.setattr(
        RankContext, "charge",
        lambda self, weight, npoints: charged.append(
            (self.comm.rank, weight * npoints)
        ),
    )
    pm = PerformanceModel(grid, params=params)
    for py in (1, 2, 3):
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, py, 1)

        def work(nsteps):
            charged.clear()
            cfg = DistributedConfig(
                grid=grid, decomp=decomp, params=params, nsteps=nsteps
            )
            run_spmd(py, ca_rank_program, cfg, state0)
            return [
                sum(w for r, w in charged if r == rank) for rank in range(py)
            ]

        per_step = [a - b for a, b in zip(work(3), work(2))]
        assert max(per_step) == pm.ca_compute_work(decomp)
