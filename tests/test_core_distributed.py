"""Distributed Algorithm 1 == serial reference, on every decomposition."""
import pytest

from repro.core.distributed import DistributedConfig, original_rank_program
from repro.core.integrator import SerialCore
from repro.grid.decomposition import Decomposition
from repro.grid.latlon import LatLonGrid
from repro.physics import HeldSuarezForcing, perturbed_rest_state
from repro.simmpi import run_spmd
from repro.state.variables import ModelState


def run_program(program, cfg, state0, **kw):
    """``program`` on every rank of ``cfg.decomp``: (final global state,
    SPMD result)."""
    out = ModelState.zeros(cfg.grid.shape3d)
    return out, run_spmd(cfg.decomp.nranks, program, cfg, state0, out, **kw)


@pytest.fixture(scope="module")
def reference():
    from repro.constants import ModelParameters

    grid = LatLonGrid(nx=32, ny=16, nz=6)
    params = ModelParameters(dt_adaptation=60.0, dt_advection=180.0)
    state0 = perturbed_rest_state(grid, amplitude_k=2.0)
    nsteps = 3
    ref = SerialCore(
        grid, params=params, forcing=HeldSuarezForcing()
    ).run(state0, nsteps)
    return grid, params, state0, nsteps, ref


DECOMPS = [
    (1, 1, 1),
    (1, 2, 1),
    (1, 4, 1),
    (1, 2, 2),
    (1, 4, 2),
    (2, 2, 1),
    (4, 2, 1),
    (2, 2, 2),
]


@pytest.mark.parametrize("shape", DECOMPS, ids=lambda s: f"{s[0]}x{s[1]}x{s[2]}")
class TestEquivalence:
    def test_matches_serial(self, reference, shape):
        grid, params, state0, nsteps, ref = reference
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, *shape)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params,
            nsteps=nsteps, forcing=HeldSuarezForcing(),
        )
        gathered, _ = run_program(original_rank_program, cfg, state0)
        assert ref.max_difference(gathered) == 0.0


class TestCommunicationSchedule:
    def test_thirteen_exchanges_per_step(self, reference):
        """3M + 3 + 1 = 13 halo refreshes per step for M = 3 (Sec. 4.3.1),
        plus the one initial refresh."""
        grid, params, state0, nsteps, _ = reference
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 2, 2)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params, nsteps=nsteps,
            forcing=HeldSuarezForcing(),
        )
        _, res = run_program(original_rank_program, cfg, state0)
        assert res.results[0].exchanges == 13 * nsteps + 1

    def test_three_m_collectives_per_step(self, reference):
        grid, params, state0, nsteps, _ = reference
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 2, 2)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params, nsteps=nsteps,
        )
        _, res = run_program(original_rank_program, cfg, state0)
        assert res.results[0].c_calls == 3 * params.m_iterations * nsteps
        # every C call is one z-line collective on every rank
        assert all(
            s.collective_ops == 3 * params.m_iterations * nsteps
            for s in res.stats
        )

    def test_xy_filter_collectives(self, reference):
        """Polar x-lines pay one collective per F application."""
        grid, params, state0, nsteps, _ = reference
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 2, 2, 1)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params, nsteps=nsteps,
        )
        _, res = run_program(original_rank_program, cfg, state0)
        n_f = (3 * params.m_iterations + 3) * nsteps
        # polar rows are filtered for U, V, Phi and psa: 4 gathers per F
        assert all(s.collective_ops == 4 * n_f for s in res.stats)

    def test_yz_has_no_stencil_x_traffic(self, reference):
        """Under Y-Z the polar filter is communication-free (Sec. 4.2.1):
        all collectives are the z-direction C operations."""
        grid, params, state0, nsteps, _ = reference
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 4, 1)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params, nsteps=nsteps,
        )
        _, res = run_program(original_rank_program, cfg, state0)
        assert all(s.collective_ops == 0 for s in res.stats)


class TestValidation:
    def test_rank_count_mismatch_raises(self, reference):
        grid, params, state0, nsteps, _ = reference
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 2, 1)
        cfg = DistributedConfig(grid=grid, decomp=decomp, params=params)
        with pytest.raises(Exception):
            run_spmd(
                3, original_rank_program, cfg, state0,
                ModelState.zeros(grid.shape3d),
            )

    def test_wrong_grid_decomp_pair(self, reference):
        grid, params, *_ = reference
        bad = Decomposition(16, 8, 4, 1, 2, 1)
        with pytest.raises(ValueError):
            DistributedConfig(grid=grid, decomp=bad, params=params)
