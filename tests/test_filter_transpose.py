"""The transpose (alltoall) distributed polar filter."""
import numpy as np
import pytest

from repro.constants import ModelParameters
from repro.core.distributed import DistributedConfig, original_rank_program
from repro.core.integrator import SerialCore
from repro.grid.decomposition import Decomposition
from repro.grid.latlon import LatLonGrid
from repro.physics import HeldSuarezForcing, perturbed_rest_state
from repro.simmpi import run_spmd
from repro.state.variables import ModelState


@pytest.fixture(scope="module")
def setting():
    grid = LatLonGrid(nx=32, ny=16, nz=8)
    params = ModelParameters(dt_adaptation=60.0, dt_advection=180.0)
    state0 = perturbed_rest_state(grid, amplitude_k=2.0)
    serial = SerialCore(
        grid, params=params, forcing=HeldSuarezForcing()
    ).run(state0, 2)
    return grid, params, state0, serial


def gather_states(decomp, results):
    blocks = [r.state for r in results]
    return ModelState(
        U=decomp.gather([b.U for b in blocks]),
        V=decomp.gather([b.V for b in blocks]),
        Phi=decomp.gather([b.Phi for b in blocks]),
        psa=decomp.gather([b.psa for b in blocks]),
    )


class TestTransposeFilter:
    @pytest.mark.parametrize("px", [2, 4])
    def test_matches_serial(self, setting, px):
        """The transpose method is a pure data-layout change: results
        must equal the serial reference to round-off."""
        grid, params, state0, serial = setting
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, px, 2, 1)
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params, nsteps=2,
            forcing=HeldSuarezForcing(), filter_method="transpose",
        )
        res = run_spmd(decomp.nranks, original_rank_program, cfg, state0)
        gathered = gather_states(decomp, res.results)
        assert serial.max_difference(gathered) < 1e-10

    def test_less_fft_compute_than_allgather(self, setting):
        """Work sharing: the transpose method charges ~1/p_x of the
        replicated method's FFT compute."""
        grid, params, state0, _ = setting
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 4, 2, 1)
        totals = {}
        for method in ("allgather", "transpose"):
            cfg = DistributedConfig(
                grid=grid, decomp=decomp, params=params, nsteps=1,
                filter_method=method,
            )
            res = run_spmd(decomp.nranks, original_rank_program, cfg, state0)
            totals[method] = sum(s.compute_time for s in res.stats)
        assert totals["transpose"] < totals["allgather"]

    def test_two_collectives_per_filtered_field(self, setting):
        """Forward + backward transpose = 2 alltoalls where the
        allgather method pays 1 collective."""
        grid, params, state0, _ = setting
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 2, 2, 1)
        ops = {}
        for method in ("allgather", "transpose"):
            cfg = DistributedConfig(
                grid=grid, decomp=decomp, params=params, nsteps=1,
                filter_method=method,
            )
            res = run_spmd(decomp.nranks, original_rank_program, cfg, state0)
            ops[method] = max(s.collective_ops for s in res.stats)
        assert ops["transpose"] == 2 * ops["allgather"]

    def test_invalid_method_rejected(self, setting):
        """Where the config is built — no rank is launched to find out."""
        grid, params, _, _ = setting
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 2, 2, 1)
        with pytest.raises(ValueError, match="filter_method"):
            DistributedConfig(
                grid=grid, decomp=decomp, params=params,
                filter_method="morse",
            )


class TestAlltoallPrimitive:
    def test_transpose_roundtrip(self):
        """alltoall twice with transposed block layout restores the data."""
        def prog(comm):
            sub = comm.world_comm()
            rng = np.random.default_rng(comm.rank)
            mine = rng.standard_normal((comm.size, 5))
            got = sub.alltoall([mine[i] for i in range(comm.size)])
            back = sub.alltoall(got)
            return bool(
                all(np.allclose(back[i], mine[i]) for i in range(comm.size))
            )

        from repro.simmpi import run_spmd as rs

        res = rs(4, prog)
        assert all(res.results)

    def test_block_count_validated(self):
        def prog(comm):
            comm.world_comm().alltoall([np.zeros(2)])

        from repro.simmpi import run_spmd as rs

        with pytest.raises(Exception):
            rs(3, prog, timeout=2.0)
