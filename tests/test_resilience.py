"""Checkpoint/restart resilience of the dynamical-core driver."""
import pytest

from repro.constants import ModelParameters
from repro.core.driver import ALGORITHMS, DynamicalCore, default_spmd_timeout
from repro.core.resilience import (
    BlowupError,
    ResilienceConfig,
    ResilienceExhausted,
)
from repro.grid.latlon import LatLonGrid
from repro.physics import perturbed_rest_state
from repro.simmpi import CrashSpec, FaultPlan, LinkFault
from repro.state.io import checkpoint_path, latest_checkpoint, save_state

NSTEPS = 3
NPROCS = 4


@pytest.fixture(scope="module")
def grid():
    # big enough for the CA wide halo (gy=5 < ny_local=8) on 4 ranks
    return LatLonGrid(nx=32, ny=16, nz=8)


@pytest.fixture(scope="module")
def params():
    return ModelParameters(
        dt_adaptation=60.0, dt_advection=60.0, m_iterations=1
    )


@pytest.fixture(scope="module")
def state0(grid):
    return perturbed_rest_state(grid, amplitude_k=2.0)


def make_core(grid, params, algorithm):
    nprocs = 1 if algorithm == "serial" else NPROCS
    return DynamicalCore(
        grid, algorithm=algorithm, nprocs=nprocs, params=params
    )


class TestCheckpointIO:
    def test_latest_checkpoint_picks_highest_step(self, tmp_path, grid, state0):
        for step in (0, 2, 10):
            save_state(checkpoint_path(tmp_path, step), state0, step=step)
        (tmp_path / "other.npz").write_bytes(b"not a checkpoint")
        found = latest_checkpoint(tmp_path)
        assert found is not None
        path, step = found
        assert step == 10
        assert path.name == "ckpt_00000010.npz"

    def test_latest_checkpoint_empty_dir(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        assert latest_checkpoint(tmp_path / "missing") is None


class TestTimeoutScaling:
    def test_default_spmd_timeout_floors_at_120(self):
        assert default_spmd_timeout(1) == 120.0
        assert default_spmd_timeout(10) == 120.0

    def test_default_spmd_timeout_scales_with_steps(self):
        assert default_spmd_timeout(1000) == 5000.0


class TestCheckpointRestartProperty:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_chunked_run_matches_plain_run(
        self, tmp_path, grid, params, state0, algorithm
    ):
        """Checkpoint every 2 steps; the chunked run must reproduce the
        uninterrupted run (exactly for the serial/original cores; to
        round-off for CA, whose deferred smoothing makes chunk
        boundaries slightly different schedules)."""
        core = make_core(grid, params, algorithm)
        plain, _ = core.run(state0, NSTEPS)
        chunked, diag, report = core.run_resilient(
            state0, NSTEPS,
            ResilienceConfig(checkpoint_dir=tmp_path, checkpoint_interval=2),
        )
        diff = plain.max_difference(chunked)
        if algorithm == "ca":
            assert diff < 2e-2
        else:
            assert diff < 1e-13
        assert report.nrestarts == 0
        # 0, 2, 3 -> three checkpoints
        assert [s for s, _ in report.checkpoints] == [0, 2, 3]
        assert all(p.exists() for _, p in report.checkpoints)

    @pytest.mark.parametrize("algorithm", ["original-yz", "ca"])
    def test_resume_from_disk_continues_exactly(
        self, tmp_path, grid, params, state0, algorithm
    ):
        """Kill after 2 of 4 steps, resume in a fresh driver from the
        on-disk checkpoints: final state identical to one uninterrupted
        chunked run."""
        core = make_core(grid, params, algorithm)
        d_full, d_cut = tmp_path / "full", tmp_path / "cut"
        full, _, _ = core.run_resilient(
            state0, 4,
            ResilienceConfig(checkpoint_dir=d_full, checkpoint_interval=1),
        )
        core.run_resilient(
            state0, 2,
            ResilienceConfig(checkpoint_dir=d_cut, checkpoint_interval=1),
        )
        core2 = make_core(grid, params, algorithm)  # "new process"
        resumed, _, report = core2.run_resilient(
            state0, 4,
            ResilienceConfig(
                checkpoint_dir=d_cut, checkpoint_interval=1, resume=True
            ),
        )
        assert report.resumed_from_step == 2
        assert full.max_difference(resumed) == 0.0

    def test_resume_from_a_deflated_checkpoint_of_an_older_writer(
        self, tmp_path, grid, params, state0
    ):
        """Checkpoints used to be ``np.savez_compressed``; the container
        and version are unchanged, so one written that way still verifies,
        loads and resumes to the same bits."""
        import io

        import numpy as np

        from repro.state.io import (
            CHECKPOINT_VERSION, atomic_write_bytes, load_state, verify_sidecar,
        )

        core = make_core(grid, params, "ca")
        d_full, d_old = tmp_path / "full", tmp_path / "old"
        full, _, rep = core.run_resilient(
            state0, 4,
            ResilienceConfig(checkpoint_dir=d_full, checkpoint_interval=2),
        )
        mid, step = load_state(rep.checkpoints[1][1])
        assert step == 2
        buf = io.BytesIO()
        np.savez_compressed(
            buf, version=np.int64(CHECKPOINT_VERSION), step=np.int64(step),
            **mid.fields(),
        )
        d_old.mkdir()
        old = checkpoint_path(d_old, step)
        atomic_write_bytes(old, buf.getvalue())
        assert old.stat().st_size < rep.checkpoints[1][1].stat().st_size
        assert verify_sidecar(old) is True
        assert load_state(old)[0].max_difference(mid) == 0.0
        resumed, _, report = make_core(grid, params, "ca").run_resilient(
            state0, 4,
            ResilienceConfig(
                checkpoint_dir=d_old, checkpoint_interval=2, resume=True
            ),
        )
        assert report.resumed_from_step == 2
        assert full.max_difference(resumed) == 0.0


class TestCrashRecovery:
    @pytest.mark.parametrize("algorithm", ["original-yz", "ca"])
    @pytest.mark.parametrize("crash_step", [1, 2, 3])
    def test_crash_at_every_step_recovers_bit_identically(
        self, tmp_path, grid, params, state0, algorithm, crash_step
    ):
        """The acceptance sweep: crash rank 1 inside chunk k (for every
        k), restart from the last checkpoint, and end byte-equal to the
        fault-free run of the same chunked driver."""
        core = make_core(grid, params, algorithm)
        d_ref = tmp_path / "ref"
        ref, _, _ = core.run_resilient(
            state0, NSTEPS,
            ResilienceConfig(checkpoint_dir=d_ref, checkpoint_interval=1),
        )
        plan = FaultPlan(
            seed=0,
            crashes=(CrashSpec(rank=1, at_attempt=crash_step, at_call=5),),
        )
        d_crash = tmp_path / "crash"
        recovered, _, report = core.run_resilient(
            state0, NSTEPS,
            ResilienceConfig(
                checkpoint_dir=d_crash, checkpoint_interval=1, faults=plan
            ),
        )
        assert ref.max_difference(recovered) == 0.0
        assert report.nrestarts == 1
        assert report.restarts[0].kind == "crash"
        assert report.restarts[0].step == crash_step - 1
        assert any(e.kind == "crash" for e in report.fault_events)


class TestCorruptionRecovery:
    def test_checksum_detects_corrupt_halo_and_recovers(
        self, tmp_path, grid, params, state0
    ):
        """Corrupt every halo payload of attempt 1; with checksums armed
        the chunk dies with CorruptedMessage, rolls back, and the retry
        (attempt 2, fault window closed) completes bit-identically."""
        core = make_core(grid, params, "original-yz")
        d_ref = tmp_path / "ref"
        ref, _, _ = core.run_resilient(
            state0, NSTEPS,
            ResilienceConfig(checkpoint_dir=d_ref, checkpoint_interval=1),
        )
        plan = FaultPlan(
            seed=0,
            link_faults=(LinkFault(corrupt_probability=1.0, attempts=(1,)),),
        )
        d_cor = tmp_path / "cor"
        recovered, _, report = core.run_resilient(
            state0, NSTEPS,
            ResilienceConfig(
                checkpoint_dir=d_cor,
                checkpoint_interval=1,
                faults=plan,
                verify_halo_checksums=True,
                # raw network: corruption must escalate to a rollback
                # instead of being healed in place by retransmission
                transport=None,
                buddy_checkpoints=False,
            ),
        )
        assert ref.max_difference(recovered) == 0.0
        assert report.nrestarts == 1
        assert report.restarts[0].kind == "corruption"
        kinds = {e.kind for e in report.fault_events}
        assert "corruption-detected" in kinds

    def test_silent_nan_corruption_caught_by_blowup_guard(
        self, tmp_path, grid, params, state0
    ):
        """Without checksums a NaN-corrupted halo poisons the chunk; the
        finite-fields guard catches it at commit time and rolls back."""
        core = make_core(grid, params, "original-yz")
        d_ref = tmp_path / "ref"
        ref, _, _ = core.run_resilient(
            state0, NSTEPS,
            ResilienceConfig(checkpoint_dir=d_ref, checkpoint_interval=1),
        )
        plan = FaultPlan(
            seed=0,
            link_faults=(LinkFault(
                corrupt_probability=1.0, corrupt_mode="nan", attempts=(1,),
            ),),
        )
        d_nan = tmp_path / "nan"
        recovered, _, report = core.run_resilient(
            state0, NSTEPS,
            ResilienceConfig(
                checkpoint_dir=d_nan,
                checkpoint_interval=1,
                faults=plan,
                blowup_policy="rollback",
                verify_halo_checksums=False,  # corruption must stay silent
            ),
        )
        assert ref.max_difference(recovered) == 0.0
        assert report.nrestarts == 1
        assert report.restarts[0].kind == "blowup"

    def test_blowup_policy_abort_raises(self, tmp_path, grid, params, state0):
        core = make_core(grid, params, "original-yz")
        plan = FaultPlan(
            seed=0,
            link_faults=(LinkFault(
                corrupt_probability=1.0, corrupt_mode="nan", attempts=(1,),
            ),),
        )
        with pytest.raises(BlowupError):
            core.run_resilient(
                state0, NSTEPS,
                ResilienceConfig(
                    checkpoint_dir=tmp_path,
                    checkpoint_interval=1,
                    faults=plan,
                    blowup_policy="abort",
                    verify_halo_checksums=False,  # corruption must stay silent
                ),
            )


class TestExhaustion:
    def test_persistent_failure_exhausts_restarts(
        self, tmp_path, grid, params, state0
    ):
        """A crash on every attempt must eventually give up."""
        core = make_core(grid, params, "original-yz")
        plan = FaultPlan(
            crashes=tuple(
                CrashSpec(rank=1, at_attempt=k, at_call=1)
                for k in range(1, 12)
            ),
        )
        with pytest.raises(ResilienceExhausted):
            core.run_resilient(
                state0, NSTEPS,
                ResilienceConfig(
                    checkpoint_dir=tmp_path,
                    checkpoint_interval=1,
                    faults=plan,
                    max_restarts=2,
                ),
            )

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ResilienceConfig(checkpoint_dir=tmp_path, checkpoint_interval=0)
        with pytest.raises(ValueError):
            ResilienceConfig(checkpoint_dir=tmp_path, blowup_policy="panic")

    def test_fatal_errors_propagate_unretried(
        self, tmp_path, grid, params, state0
    ):
        """Programming errors are not retryable: a bad configuration must
        raise immediately, not burn through max_restarts."""
        bad_grid = LatLonGrid(nx=16, ny=8, nz=4)
        core = DynamicalCore(
            bad_grid, algorithm="ca", nprocs=2,
            params=ModelParameters(
                dt_adaptation=60.0, dt_advection=60.0, m_iterations=3
            ),
        )
        from repro.simmpi import SpmdError

        bad_state = perturbed_rest_state(bad_grid, amplitude_k=2.0)
        with pytest.raises(SpmdError):
            core.run_resilient(
                bad_state, 1,
                ResilienceConfig(checkpoint_dir=tmp_path),
            )


class TestDiagnosticsAccumulation:
    def test_diagnostics_sum_over_chunks(self, tmp_path, grid, params, state0):
        core = make_core(grid, params, "original-yz")
        _, plain_diag, _ = core._run_once(state0, 2)
        _, chunk_diag, report = core.run_resilient(
            state0, 2,
            ResilienceConfig(checkpoint_dir=tmp_path, checkpoint_interval=1),
        )
        assert chunk_diag.p2p_messages == pytest.approx(
            plain_diag.p2p_messages, rel=0.2
        )
        assert chunk_diag.makespan == pytest.approx(
            sum(report.chunk_makespans)
        )
        assert chunk_diag.c_calls == plain_diag.c_calls


class TestVerifiedResumeFallback:
    def test_resume_skips_torn_newest_checkpoint(
        self, tmp_path, grid, params, state0
    ):
        """Kill-during-checkpoint drill: the newest checkpoint is torn
        (truncated mid-write); a resume must fall back to the previous
        good one and still reproduce the uninterrupted run exactly."""
        core = make_core(grid, params, "serial")
        plain, _ = core.run(state0, NSTEPS)

        first = ResilienceConfig(
            checkpoint_dir=tmp_path, checkpoint_interval=1
        )
        core.run_resilient(state0, 2, first)  # checkpoints at 0, 1, 2
        newest = checkpoint_path(tmp_path, 2)
        newest.write_bytes(newest.read_bytes()[:64])

        rcfg = ResilienceConfig(
            checkpoint_dir=tmp_path, checkpoint_interval=1, resume=True
        )
        final, _, report = core.run_resilient(state0, NSTEPS, rcfg)
        assert report.resumed_from_step == 1  # not 2: torn file skipped
        assert plain.max_difference(final) < 1e-12

    def test_on_chunk_hook_fires_per_committed_chunk(
        self, tmp_path, grid, params, state0
    ):
        core = make_core(grid, params, "serial")
        seen = []
        rcfg = ResilienceConfig(
            checkpoint_dir=tmp_path, checkpoint_interval=1,
            on_chunk=lambda step, total: seen.append((step, total)),
        )
        core.run_resilient(state0, NSTEPS, rcfg)
        assert seen == [(1, NSTEPS), (2, NSTEPS), (3, NSTEPS)]
