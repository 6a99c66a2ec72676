"""The DynamicalCore facade."""
import pytest

from repro.core.driver import CoreConfig, DynamicalCore
from repro.grid.latlon import LatLonGrid
from repro.physics import HeldSuarezForcing, perturbed_rest_state


@pytest.fixture(scope="module")
def setting():
    from repro.constants import ModelParameters

    grid = LatLonGrid(nx=32, ny=16, nz=8)
    params = ModelParameters(dt_adaptation=60.0, dt_advection=60.0, m_iterations=1)
    state0 = perturbed_rest_state(grid, amplitude_k=2.0)
    return grid, params, state0


class TestConfig:
    def test_rejects_unknown_algorithm(self, setting):
        grid, params, _ = setting
        with pytest.raises(ValueError):
            DynamicalCore(grid, algorithm="magic", params=params)

    def test_serial_needs_one_rank(self, setting):
        grid, params, _ = setting
        with pytest.raises(ValueError):
            DynamicalCore(grid, algorithm="serial", nprocs=4, params=params)

    def test_decomposition_resolution(self, setting):
        grid, params, _ = setting
        cfg = CoreConfig(grid=grid, algorithm="original-yz", nprocs=4, params=params)
        d = cfg.resolve_decomposition()
        assert d.px == 1 and d.nranks == 4
        cfg = CoreConfig(grid=grid, algorithm="original-xy", nprocs=4, params=params)
        assert cfg.resolve_decomposition().pz == 1

    def test_executor_option_is_gone(self, setting):
        from repro.core.distributed import DistributedConfig
        from repro.grid.decomposition import Decomposition

        grid, _, _ = setting
        with pytest.raises(TypeError):
            DynamicalCore(grid, executor="taskgraph")
        with pytest.raises(TypeError):
            CoreConfig(grid=grid, executor="sync")
        with pytest.raises(TypeError):
            DistributedConfig(
                grid=grid,
                decomp=Decomposition(grid.nx, grid.ny, grid.nz, 1, 1, 1),
                executor="sync",
            )

    def test_executor_env_var_selects_nothing(self, setting, monkeypatch):
        grid, params, state0 = setting

        def two_steps():
            core = DynamicalCore(grid, algorithm="ca", nprocs=2, params=params)
            return core.run(state0, 2)

        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        plain, plain_diag = two_steps()
        monkeypatch.setenv("REPRO_EXECUTOR", "taskgraph")
        state, diag = two_steps()
        assert state.max_difference(plain) == 0.0
        assert diag == plain_diag


class TestRuns:
    def test_serial_run(self, setting):
        grid, params, state0 = setting
        core = DynamicalCore(
            grid, algorithm="serial", params=params, forcing=HeldSuarezForcing()
        )
        out, diag = core.run(state0, 2)
        assert out.isfinite()
        assert diag.c_calls == 3 * params.m_iterations * 2

    @pytest.mark.parametrize(
        "alg", ["original-yz", "original-xy", "original-3d", "ca"]
    )
    def test_distributed_agree_with_serial_family(self, setting, alg):
        grid, params, state0 = setting
        serial_out, _ = DynamicalCore(
            grid, algorithm="serial", params=params,
            forcing=HeldSuarezForcing(),
        ).run(state0, 2)
        out, diag = DynamicalCore(
            grid, algorithm=alg, nprocs=4, params=params,
            forcing=HeldSuarezForcing(),
        ).run(state0, 2)
        assert out.isfinite()
        err = serial_out.max_difference(out)
        if alg == "ca":
            # approximate nonlinear iteration: small but nonzero deviation
            assert err < 1e-2
        else:
            assert err < 1e-12
        assert diag.makespan > 0
        assert diag.p2p_messages > 0

    def test_diagnostics_breakdown(self, setting):
        grid, params, state0 = setting
        _, diag = DynamicalCore(
            grid, algorithm="original-yz", nprocs=4, params=params,
        ).run(state0, 1)
        assert diag.comm_time == pytest.approx(
            diag.stencil_comm_time + diag.collective_comm_time
        )
        assert 0.0 <= diag.comm_fraction <= 1.0
        # M = 1: (3M + 3 + 1) = 7 per step, plus the initial refresh
        assert diag.exchanges == 7 + 1

    def test_ca_schedule_via_driver(self, setting):
        grid, params, state0 = setting
        _, diag = DynamicalCore(
            grid, algorithm="ca", nprocs=4, params=params,
        ).run(state0, 3)
        assert diag.exchanges == 2 * 3
        assert diag.c_calls == 2 * params.m_iterations * 3 + 1
