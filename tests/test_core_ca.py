"""Algorithm 2: the communication-avoiding core.

Correctness contract: CA == the serial core with the approximate nonlinear
iteration, on every feasible Y-Z decomposition; plus the communication
schedule claims (2 exchanges per step, 2M z-collectives per step).
"""
import pytest

from repro.constants import ModelParameters
from repro.core.comm_avoiding import ca_rank_program
from repro.core.distributed import DistributedConfig
from repro.core.integrator import SerialCore
from repro.grid.decomposition import Decomposition
from repro.grid.latlon import LatLonGrid
from repro.physics import HeldSuarezForcing, perturbed_rest_state
from repro.simmpi import run_spmd
from repro.state.variables import ModelState


def gather_states(decomp, results):
    blocks = [r.state for r in results]
    return ModelState(
        U=decomp.gather([b.U for b in blocks]),
        V=decomp.gather([b.V for b in blocks]),
        Phi=decomp.gather([b.Phi for b in blocks]),
        psa=decomp.gather([b.psa for b in blocks]),
    )


@pytest.fixture(scope="module")
def reference_m1():
    """M = 1 keeps the CA halos feasible on small blocks."""
    grid = LatLonGrid(nx=32, ny=16, nz=8)
    params = ModelParameters(dt_adaptation=60.0, dt_advection=60.0, m_iterations=1)
    state0 = perturbed_rest_state(grid, amplitude_k=2.0)
    nsteps = 4
    ref = SerialCore(
        grid, params=params, approximate_c=True, forcing=HeldSuarezForcing()
    ).run(state0, nsteps)
    return grid, params, state0, nsteps, ref


@pytest.fixture(scope="module")
def reference_m3():
    """M = 3 (the paper's setting) on blocks big enough for 11-wide halos."""
    grid = LatLonGrid(nx=16, ny=48, nz=8)
    params = ModelParameters(dt_adaptation=60.0, dt_advection=180.0, m_iterations=3)
    state0 = perturbed_rest_state(grid, amplitude_k=2.0)
    nsteps = 3
    ref = SerialCore(
        grid, params=params, approximate_c=True, forcing=HeldSuarezForcing()
    ).run(state0, nsteps)
    return grid, params, state0, nsteps, ref


class TestEquivalenceM1:
    @pytest.mark.parametrize(
        "shape", [(1, 1, 1), (1, 2, 1), (1, 2, 2)],
        ids=lambda s: f"{s[0]}x{s[1]}x{s[2]}",
    )
    def test_matches_serial_approximate(self, reference_m1, shape):
        grid, params, state0, nsteps, ref = reference_m1
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, *shape)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params,
            nsteps=nsteps, forcing=HeldSuarezForcing(),
        )
        res = run_spmd(decomp.nranks, ca_rank_program, cfg, state0)
        gathered = gather_states(decomp, res.results)
        assert ref.max_difference(gathered) < 1e-11


class TestEquivalenceM3:
    @pytest.mark.parametrize(
        "shape", [(1, 1, 1), (1, 2, 1), (1, 3, 1)],
        ids=lambda s: f"{s[0]}x{s[1]}x{s[2]}",
    )
    def test_matches_serial_approximate(self, reference_m3, shape):
        grid, params, state0, nsteps, ref = reference_m3
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, *shape)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params,
            nsteps=nsteps, forcing=HeldSuarezForcing(),
        )
        res = run_spmd(decomp.nranks, ca_rank_program, cfg, state0)
        gathered = gather_states(decomp, res.results)
        assert ref.max_difference(gathered) < 1e-11


class TestCommunicationSchedule:
    def test_two_exchanges_per_step(self, reference_m1):
        """The paper's 13 -> 2 frequency reduction (Sec. 4.3.1/4.3.2)."""
        grid, params, state0, nsteps, _ = reference_m1
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 2, 2)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params, nsteps=nsteps,
        )
        res = run_spmd(decomp.nranks, ca_rank_program, cfg, state0)
        assert res.results[0].exchanges == 2 * nsteps

    def test_two_m_collectives_per_step(self, reference_m1):
        grid, params, state0, nsteps, _ = reference_m1
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 2, 2)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params, nsteps=nsteps,
        )
        res = run_spmd(decomp.nranks, ca_rank_program, cfg, state0)
        assert (
            res.results[0].c_calls
            == 2 * params.m_iterations * nsteps + 1  # + cold start
        )

    def test_fewer_messages_than_original(self, reference_m1):
        from repro.core.distributed import original_rank_program

        grid, params, state0, nsteps, _ = reference_m1
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 2, 2)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params, nsteps=nsteps,
        )
        res_ca = run_spmd(decomp.nranks, ca_rank_program, cfg, state0)
        res_or = run_spmd(decomp.nranks, original_rank_program, cfg, state0)
        msgs_ca = sum(s.p2p_messages_sent for s in res_ca.stats)
        msgs_or = sum(s.p2p_messages_sent for s in res_or.stats)
        assert msgs_ca < msgs_or / 2

    def test_more_bytes_than_original(self, reference_m1):
        """CA trades volume for frequency: 'a little more communication
        volume' (Sec. 5.2) from wide halos, corners and the C bundle."""
        from repro.core.distributed import original_rank_program

        grid, params, state0, nsteps, _ = reference_m1
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 2, 2)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params, nsteps=nsteps,
        )
        res_ca = run_spmd(decomp.nranks, ca_rank_program, cfg, state0)
        res_or = run_spmd(decomp.nranks, original_rank_program, cfg, state0)
        bytes_ca = sum(s.p2p_bytes_sent for s in res_ca.stats)
        bytes_or = sum(s.p2p_bytes_sent for s in res_or.stats)
        assert bytes_ca > bytes_or

    def test_rejects_xy_decomposition(self, reference_m1):
        grid, params, state0, nsteps, _ = reference_m1
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 2, 2, 1)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params, nsteps=nsteps,
        )
        with pytest.raises(Exception):
            run_spmd(decomp.nranks, ca_rank_program, cfg, state0)

    def test_rejects_too_small_blocks(self, reference_m1):
        grid, params, state0, nsteps, _ = reference_m1
        # ny_local = 2 < gy = 5 for M = 1
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 8, 1)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params, nsteps=nsteps,
        )
        with pytest.raises(Exception):
            run_spmd(decomp.nranks, ca_rank_program, cfg, state0)


class TestOverlap:
    def test_stencil_wait_reduced_by_overlap(self, reference_m1):
        """The posted-early exchange overlaps the inner update: the CA
        core's stencil waiting time per exchange is below the original's."""
        from repro.core.distributed import original_rank_program

        grid, params, state0, nsteps, _ = reference_m1
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 2, 2)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params, nsteps=nsteps,
        )
        res_ca = run_spmd(decomp.nranks, ca_rank_program, cfg, state0)
        res_or = run_spmd(decomp.nranks, original_rank_program, cfg, state0)
        wait_ca = max(
            s.tagged_time.get("stencil_comm", 0.0) for s in res_ca.stats
        )
        wait_or = max(
            s.tagged_time.get("stencil_comm", 0.0) for s in res_or.stats
        )
        assert wait_ca < wait_or


# ---------------------------------------------------------------------------
# the row-window schedule: every update sweeps only the rows that can still
# be valid (block + H - u rows per neighbour side, nothing towards a pole)
# ---------------------------------------------------------------------------
def _window_case(M):
    """Smallest meshes whose thirds still exceed ``gy = 3M + 2`` rows."""
    if M == 1:
        grid = LatLonGrid(nx=16, ny=24, nz=4)
        params = ModelParameters(
            dt_adaptation=60.0, dt_advection=60.0, m_iterations=1
        )
    else:
        grid = LatLonGrid(nx=16, ny=48, nz=4)
        params = ModelParameters(
            dt_adaptation=60.0, dt_advection=180.0, m_iterations=3
        )
    return grid, params, perturbed_rest_state(grid, amplitude_k=2.0)


def _run_ca(grid, params, state0, py, nsteps=2, **kw):
    backend = kw.pop("backend", "thread")
    decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, py, 1)
    cfg = DistributedConfig(
        grid=grid, decomp=decomp, params=params, nsteps=nsteps, **kw
    )
    res = run_spmd(py, ca_rank_program, cfg, state0, backend=backend)
    return gather_states(decomp, res.results), res


class TestRowWindows:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("py", [1, 2, 3])
    def test_windows_change_no_bit_of_the_trajectory(
        self, monkeypatch, py, M, backend
    ):
        """Differential: the production schedule vs whole-array windows
        (every update sweeping every working row, as before windows
        existed).  States are ``==``; clocks differ by design — fewer
        points are charged."""
        from repro.core import comm_avoiding

        grid, params, state0 = _window_case(M)
        kw = dict(backend=backend, kernel_tier="fused")
        windowed, res_w = _run_ca(grid, params, state0, py, **kw)
        monkeypatch.setattr(
            comm_avoiding, "update_windows",
            lambda geom, batch: ((0, geom.shape2d[0]),) * batch,
        )
        whole, res_a = _run_ca(grid, params, state0, py, **kw)
        assert windowed.max_difference(whole) == 0.0
        assert res_w.makespan < res_a.makespan

    def test_single_level_windows_on_the_fused_tier(self):
        """nz = 1: the single-plane fields carry no plane stride, so the
        kernels' scratch must take it from the (nz + 1)-plane ``C`` bundle
        views of the same call."""
        grid = LatLonGrid(nx=16, ny=24, nz=1)
        params = ModelParameters(
            dt_adaptation=60.0, dt_advection=60.0, m_iterations=1
        )
        state0 = perturbed_rest_state(grid, amplitude_k=2.0)
        fused, _ = _run_ca(grid, params, state0, 2, kernel_tier="fused")
        ref, _ = _run_ca(grid, params, state0, 2, kernel_tier="reference")
        assert fused.max_difference(ref) == 0.0

    @pytest.mark.parametrize("py", [1, 2, 3])
    def test_charged_points_are_the_schedule_closed_form(self, monkeypatch, py):
        """Per rank and steady-state step the logical clock is charged
        exactly the window rows of the schedule; ca@1 charges no redundant
        row (block rows only, like original@1's interior)."""
        from repro.core.distributed import RankContext

        grid, params, state0 = _window_case(3)
        charged = []
        monkeypatch.setattr(
            RankContext, "charge",
            lambda self, weight, npoints: charged.append(
                (self.comm.rank, weight, npoints)
            ),
        )

        def points(nsteps):
            charged.clear()
            _run_ca(grid, params, state0, py, nsteps=nsteps)
            out = {}
            for rank, weight, n in charged:
                out[rank, weight] = out.get((rank, weight), 0) + n
            return out

        three, two = points(3), points(2)
        from repro.perf.costs import DEFAULT_WEIGHTS as W

        H, ny_i = 3 * params.m_iterations, grid.ny // py
        plane = grid.nz * grid.nx
        for rank in range(py):
            sides = (rank > 0) + (rank < py - 1)
            adapt = [ny_i + sides * (H - u) for u in range(1, H + 1)]
            advec = [ny_i + sides * (3 - u) for u in (1, 2, 3)]
            fresh_c = [r for u, r in enumerate(adapt) if u % 3]
            want = {
                W.adaptation: sum(adapt),
                W.vertical: sum(fresh_c),
                W.advection: sum(advec),
                W.update: sum(adapt) + sum(advec),
                W.smoothing: ny_i + sides * (H + 2),
            }
            for weight, rows in want.items():
                got = three[rank, weight] - two[rank, weight]
                assert got == rows * plane, (rank, weight)
        if py == 1:
            assert want[W.adaptation] == H * ny_i

    def test_no_silent_numpy_fallback(self, monkeypatch):
        """Fused tier, compiler available: every A / L / C / S call of a
        CA run runs its C kernel."""
        from repro.core import distributed
        from repro.kernels import KernelSet, c_available

        if not c_available():
            pytest.skip("no C compiler on this host")
        made = []

        def recording(tier):
            made.append(KernelSet(tier))
            return made[-1]

        monkeypatch.setattr(distributed, "KernelSet", recording)
        grid, params, state0 = _window_case(3)
        _run_ca(grid, params, state0, 2, kernel_tier="fused")
        assert len(made) == 2
        for ks in made:
            calls = ks.describe()["calls"]
            for op in ("adaptation", "advection", "vertical", "smoothing"):
                assert calls[op]["fused"] > 0, (op, calls)
                assert calls[op]["fallback"] == 0, (op, calls)

    def test_polar_rank_filters_block_rows_only(self):
        """The filter runs on mask ∩ window: the mirror rows beyond the
        pole (half of the masked working rows at rank 0 of 2) are never
        transformed."""
        from repro.core.comm_avoiding import CommAvoidingRank

        grid = LatLonGrid(nx=144, ny=96, nz=2)
        params = ModelParameters()
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 2, 1)
        cfg = DistributedConfig(grid=grid, decomp=decomp, params=params)

        def rows(comm, cfg):
            ctx = CommAvoidingRank(comm, cfg)
            pf, window = ctx.engine.polar_filter, ctx.adapt[0]
            return int(pf.mask_c.sum()), len(window.polar.subset["c"][1])

        masked, filtered = run_spmd(2, rows, cfg).results[0]
        assert (masked, filtered) == (22, 11)
