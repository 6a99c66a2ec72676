"""The scan-based (volume-optimal) C collective variant."""
import numpy as np
import pytest

from repro.constants import ModelParameters
from repro.core.distributed import DistributedConfig, original_rank_program
from repro.core.integrator import SerialCore
from repro.grid.decomposition import Decomposition
from repro.grid.latlon import LatLonGrid
from repro.grid.sigma import SigmaLevels
from repro.operators.geometry import WorkingGeometry
from repro.operators.vertical import (
    compute_vertical_diagnostics,
    compute_vertical_diagnostics_scan,
)
from repro.physics import HeldSuarezForcing, balanced_random_state, perturbed_rest_state
from repro.simmpi import run_spmd
from repro.state.variables import ModelState


class TestOperatorEquivalence:
    def test_single_rank_matches_allgather(self, small_grid, rng):
        """With one z-rank the scan hooks are trivial; results must match
        the allgather implementation on owned levels."""
        sigma = SigmaLevels.uniform(small_grid.nz)
        geom = WorkingGeometry.build_global(small_grid, sigma, gy=2, gz=0)
        state = balanced_random_state(small_grid, rng)
        from repro.core.tendencies import TendencyEngine

        eng = TendencyEngine(geom, ModelParameters())
        w = ModelState.zeros(geom.shape3d)
        for name, arr in state.fields().items():
            getattr(w, name)[..., 2:-2, :] = arr
        eng.fill_physical_ghosts(w)

        vd_ref = compute_vertical_diagnostics(w.U, w.V, w.Phi, w.psa, geom)
        vd_scan = compute_vertical_diagnostics_scan(
            w.U, w.V, w.Phi, w.psa, geom,
            exscan=lambda x: np.zeros_like(x),
            allreduce=lambda x: x.copy(),
        )
        assert np.allclose(vd_scan.column_sum, vd_ref.column_sum, rtol=1e-12)
        assert np.allclose(vd_scan.pw_iface, vd_ref.pw_iface,
                           rtol=1e-12, atol=1e-18)
        assert np.allclose(vd_scan.phi_prime, vd_ref.phi_prime, rtol=1e-12)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def setting(self):
        grid = LatLonGrid(nx=32, ny=16, nz=8)
        params = ModelParameters(dt_adaptation=60.0, dt_advection=180.0)
        state0 = perturbed_rest_state(grid, amplitude_k=2.0)
        serial = SerialCore(
            grid, params=params, forcing=HeldSuarezForcing()
        ).run(state0, 2)
        return grid, params, state0, serial

    @pytest.mark.parametrize("pz", [2, 4])
    def test_scan_core_matches_serial(self, setting, pz):
        grid, params, state0, serial = setting
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 2, pz)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params, nsteps=2,
            forcing=HeldSuarezForcing(), c_method="scan",
        )
        res = run_spmd(decomp.nranks, original_rank_program, cfg, state0)
        blocks = [r.state for r in res.results]
        gathered = ModelState(
            U=decomp.gather([b.U for b in blocks]),
            V=decomp.gather([b.V for b in blocks]),
            Phi=decomp.gather([b.Phi for b in blocks]),
            psa=decomp.gather([b.psa for b in blocks]),
        )
        assert serial.max_difference(gathered) < 1e-10

    def test_scan_moves_fewer_collective_bytes(self, setting):
        """The whole point: exscan + allreduce moves O(n) per rank vs the
        allgather's (p_z - 1) n."""
        grid, params, state0, _ = setting
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 2, 4)
        out = {}
        for method in ("allgather", "scan"):
            cfg = DistributedConfig(
                grid=grid, decomp=decomp, params=params, nsteps=2,
                c_method=method,
            )
            res = run_spmd(decomp.nranks, original_rank_program, cfg, state0)
            out[method] = max(s.collective_bytes for s in res.stats)
        assert out["scan"] < out["allgather"]

    def test_scan_has_two_collectives_per_c(self, setting):
        """scan = exscan + allreduce: 2 collective ops per C call."""
        grid, params, state0, _ = setting
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 2, 2)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params, nsteps=1,
            c_method="scan",
        )
        res = run_spmd(decomp.nranks, original_rank_program, cfg, state0)
        n_c = 3 * params.m_iterations
        assert all(s.collective_ops == 2 * n_c for s in res.stats)

    def test_invalid_method_rejected(self, setting):
        """Where the config is built — no rank is launched to find out."""
        grid, params, _, _ = setting
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 2, 2)
        with pytest.raises(ValueError, match="c_method"):
            DistributedConfig(
                grid=grid, decomp=decomp, params=params,
                c_method="smoke-signals",
            )

    def test_ca_core_with_scan(self, setting):
        """Algorithm 2 composes with the scan variant too."""
        from repro.core.comm_avoiding import ca_rank_program

        grid, state0 = setting[0], setting[2]
        params = ModelParameters(
            dt_adaptation=60.0, dt_advection=60.0, m_iterations=1
        )
        serial = SerialCore(
            grid, params=params, approximate_c=True,
            forcing=HeldSuarezForcing(),
        ).run(state0, 2)
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 2, 2)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params, nsteps=2,
            forcing=HeldSuarezForcing(), c_method="scan",
        )
        res = run_spmd(decomp.nranks, ca_rank_program, cfg, state0)
        blocks = [r.state for r in res.results]
        gathered = ModelState(
            U=decomp.gather([b.U for b in blocks]),
            V=decomp.gather([b.V for b in blocks]),
            Phi=decomp.gather([b.Phi for b in blocks]),
            psa=decomp.gather([b.psa for b in blocks]),
        )
        assert serial.max_difference(gathered) < 1e-10
