"""Failure injection: the substrate and cores fail loudly, not silently."""
import numpy as np
import pytest

from repro.simmpi import SpmdError, run_spmd


class TestSubstrateFailures:
    def test_mismatched_collective_deadlocks(self):
        """One rank skipping a collective must raise, not hang forever."""
        def prog(comm):
            if comm.rank != 0:
                comm.allgather(np.zeros(4))

        with pytest.raises(SpmdError):
            run_spmd(3, prog, timeout=0.5)

    def test_wrong_tag_deadlocks(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(2), tag=1)
            else:
                comm.recv(0, tag=2)

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(2, prog, timeout=0.5)
        assert "timed out" in str(exc_info.value)

    def test_exception_in_one_rank_reported(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("injected fault")
            return comm.rank

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(3, prog, timeout=1.0)
        assert "injected fault" in exc_info.value.failures[1]

    def test_partial_failure_does_not_corrupt_others(self):
        """Ranks that complete before the faulty one still produce
        results (the launcher reports the failure regardless)."""
        def prog(comm):
            if comm.rank == 2:
                raise RuntimeError("late fault")
            return comm.rank * 2

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(3, prog, timeout=1.0)
        assert set(exc_info.value.failures) == {2}


class TestFailureDiagnostics:
    """The improved error messages name ranks, tags and backlogs."""

    def test_recv_timeout_names_source_tag_and_backlog(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(2), tag=7)
                comm.send(1, np.zeros(2), tag=7)
            else:
                comm.recv(0, tag=3)

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(2, prog, timeout=0.5)
        msg = str(exc_info.value)
        assert "recv(source=0, tag=3)" in msg
        assert "(src=0, tag=7) x2" in msg  # pending mailbox contents

    def test_collective_timeout_names_arrived_and_missing_ranks(self):
        def prog(comm):
            if comm.rank != 2:
                comm.allgather(np.zeros(4))

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(3, prog, timeout=0.5)
        msg = str(exc_info.value)
        assert "ranks [2] missing" in msg

    def test_spmd_error_summarizes_every_failing_rank(self):
        def prog(comm):
            raise ValueError(f"boom on {comm.rank}")

        with pytest.raises(SpmdError) as exc_info:
            run_spmd(3, prog, timeout=1.0)
        msg = str(exc_info.value)
        for r in range(3):
            assert f"rank {r}: ValueError: boom on {r}" in msg
        assert sorted(exc_info.value.exceptions) == [0, 1, 2]
        assert all(
            isinstance(e, ValueError)
            for e in exc_info.value.exceptions.values()
        )

    def test_one_rank_failure_aborts_survivors_quickly(self):
        """A crashed rank must not make survivors wait out the timeout."""
        import time

        def prog(comm):
            if comm.rank == 0:
                raise RuntimeError("dead")
            comm.recv(0, tag=0)  # would block until timeout without abort

        t0 = time.monotonic()
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(3, prog, timeout=60.0)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"abort was not fast: {elapsed:.1f}s"
        assert "aborted" in str(exc_info.value)
        assert isinstance(exc_info.value.exceptions[0], RuntimeError)


class TestCoreFailures:
    def test_nan_state_detected(self):
        from repro.constants import ModelParameters
        from repro.core.integrator import SerialCore
        from repro.grid.latlon import LatLonGrid
        from repro.physics import rest_state
        from repro.state.variables import ModelState

        grid = LatLonGrid(nx=16, ny=8, nz=4)
        core = SerialCore(
            grid, params=ModelParameters(dt_adaptation=60.0, dt_advection=180.0)
        )
        state = rest_state(grid)
        state.Phi[0, 4, 8] = np.nan
        with pytest.raises((FloatingPointError, ValueError)):
            core.run(state, 3)

    def test_infeasible_ca_block_reports_rank(self):
        from repro.constants import ModelParameters
        from repro.core.comm_avoiding import ca_rank_program
        from repro.core.distributed import DistributedConfig
        from repro.grid.decomposition import Decomposition
        from repro.grid.latlon import LatLonGrid
        from repro.physics import rest_state
        from repro.state.variables import ModelState

        grid = LatLonGrid(nx=16, ny=8, nz=4)
        params = ModelParameters(
            dt_adaptation=60.0, dt_advection=180.0, m_iterations=3
        )
        decomp = Decomposition(16, 8, 4, 1, 2, 1)  # ny_l=4 << gy=11
        cfg = DistributedConfig(grid=grid, decomp=decomp, params=params)
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                2, ca_rank_program, cfg, rest_state(grid),
                ModelState.zeros(grid.shape3d), timeout=5.0,
            )
        assert "too small" in str(exc_info.value)
