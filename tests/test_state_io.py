"""Checkpoint save/restore."""
import numpy as np
import pytest

from repro.state.io import (
    atomic_write_bytes,
    checkpoint_path,
    checksum_path,
    file_sha256,
    latest_verified_checkpoint,
    load_state,
    save_state,
    verify_sidecar,
)
from repro.state.variables import ModelState


class TestRoundTrip:
    def test_save_load(self, tmp_path, rng):
        state = ModelState.random((3, 5, 8), rng)
        path = tmp_path / "ckpt.npz"
        save_state(path, state, step=42)
        loaded, step = load_state(path)
        assert step == 42
        assert loaded.allclose(state, rtol=0, atol=0)

    def test_loaded_is_independent(self, tmp_path, rng):
        state = ModelState.random((2, 4, 6), rng)
        path = tmp_path / "ckpt.npz"
        save_state(path, state)
        loaded, _ = load_state(path)
        loaded.U += 1.0
        loaded2, _ = load_state(path)
        assert loaded2.allclose(state, rtol=0, atol=0)

    def test_restart_continues_identically(self, tmp_path):
        """Checkpoint/restart must be bit-transparent to the integration."""
        from repro.constants import ModelParameters
        from repro.core.integrator import SerialCore
        from repro.grid.latlon import LatLonGrid
        from repro.physics import perturbed_rest_state

        grid = LatLonGrid(nx=16, ny=8, nz=4)
        params = ModelParameters(dt_adaptation=60.0, dt_advection=180.0)
        s0 = perturbed_rest_state(grid, amplitude_k=1.0)

        straight = SerialCore(grid, params=params).run(s0, 4)

        core_a = SerialCore(grid, params=params)
        mid = core_a.run(s0, 2)
        path = tmp_path / "restart.npz"
        save_state(path, mid, step=2)
        resumed, step = load_state(path)
        assert step == 2
        core_b = SerialCore(grid, params=params)
        final = core_b.run(resumed, 2)
        # note: the original (non-approximate) core carries no cross-step
        # hidden state except the frozen sigma-dot bundle, which is
        # recomputed each step -> exact restart
        assert straight.max_difference(final) < 1e-12


class TestValidation:
    def test_missing_field(self, tmp_path, rng):
        path = tmp_path / "bad.npz"
        np.savez(path, U=np.zeros((1, 2, 3)))
        with pytest.raises(ValueError):
            load_state(path)

    def test_wrong_version(self, tmp_path, rng):
        state = ModelState.random((1, 3, 4), rng)
        path = tmp_path / "old.npz"
        np.savez(
            path, version=np.int64(99), step=np.int64(0),
            U=state.U, V=state.V, Phi=state.Phi, psa=state.psa,
        )
        with pytest.raises(ValueError):
            load_state(path)


class TestAtomicWrites:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        digest = atomic_write_bytes(tmp_path / "a.bin", b"hello")
        assert (tmp_path / "a.bin").read_bytes() == b"hello"
        assert digest == file_sha256(tmp_path / "a.bin")
        leftovers = [p for p in tmp_path.iterdir()
                     if p.suffix == ".tmp"]
        assert leftovers == []

    def test_save_state_writes_verified_sidecar(self, tmp_path, rng):
        state = ModelState.random((2, 4, 6), rng)
        path = tmp_path / "ckpt.npz"
        save_state(path, state, step=7)
        assert checksum_path(path).exists()
        assert verify_sidecar(path) is True

    def test_verify_flags_corruption(self, tmp_path):
        path = tmp_path / "b.bin"
        atomic_write_bytes(path, b"x" * 100)
        raw = bytearray(path.read_bytes())
        raw[10] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert verify_sidecar(path) is False

    def test_legacy_file_without_sidecar_is_undetermined(self, tmp_path):
        (tmp_path / "legacy.bin").write_bytes(b"old")
        assert verify_sidecar(tmp_path / "legacy.bin") is None

    def test_load_rejects_checksum_mismatch(self, tmp_path, rng):
        state = ModelState.random((2, 4, 6), rng)
        path = tmp_path / "ckpt.npz"
        save_state(path, state)
        checksum_path(path).write_text("0" * 64 + "  ckpt.npz\n")
        with pytest.raises(ValueError, match="checksum"):
            load_state(path)
        loaded, _ = load_state(path, verify=False)
        assert loaded.allclose(state, rtol=0, atol=0)


class TestVerifiedResume:
    def test_falls_back_past_truncated_newest(self, tmp_path, rng):
        """A checkpoint torn mid-write must not poison the resume: the
        scan skips it and lands on the previous good one."""
        state = ModelState.random((2, 4, 6), rng)
        for step in (2, 4, 6):
            save_state(checkpoint_path(tmp_path, step), state, step=step)
        (tmp_path / "other.npz").write_bytes(b"not a checkpoint")
        newest = checkpoint_path(tmp_path, 6)
        newest.write_bytes(newest.read_bytes()[:40])  # truncate = torn
        found = latest_verified_checkpoint(tmp_path)
        assert found is not None
        path, step = found
        assert step == 4
        loaded, lstep = load_state(path)
        assert lstep == 4 and loaded.allclose(state, rtol=0, atol=0)

    def test_falls_back_past_torn_legacy_file(self, tmp_path, rng):
        """No sidecar (legacy) + unparseable container -> also skipped."""
        state = ModelState.random((2, 4, 6), rng)
        save_state(checkpoint_path(tmp_path, 1), state, step=1)
        checkpoint_path(tmp_path, 3).write_bytes(b"PK\x03\x04 torn")
        found = latest_verified_checkpoint(tmp_path)
        assert found is not None and found[1] == 1

    def test_all_checkpoints_bad_returns_none(self, tmp_path):
        checkpoint_path(tmp_path, 1).write_bytes(b"garbage")
        assert latest_verified_checkpoint(tmp_path) is None
        assert latest_verified_checkpoint(tmp_path / "missing") is None
