"""A killed rank: the run rewinds and relaunches at the same layout.

* losing 1 of 4 ranks mid-run completes on the thread AND process
  backends, for the original-yz AND ca algorithms, bit-identical to the
  fault-free run — on the process backend the loss is a real SIGKILL of
  the rank's OS process and the retry forks a fresh world;
* SDC mass/energy acceptance gates pass across the recovery;
* no shm segment is left behind when a process-backend rank is killed;
* the flight-recorder dump of the killed rank names it.
"""

import numpy as np
import pytest

from repro.constants import ModelParameters
from repro.core.driver import DynamicalCore
from repro.core.resilience import ResilienceConfig, run_resilient
from repro.grid.latlon import LatLonGrid
from repro.obs import flightrec
from repro.physics import perturbed_rest_state
from repro.simmpi import FaultPlan, NodeLoss
from repro.simmpi.shm import live_segment_names

NSTEPS = 4
NPROCS = 4
CHUNK = 2

#: grids sized so a 4-way Y-Z layout satisfies the CA wide-halo
#: requirement ny/p_y > 3M + 2
GRIDS = {
    "original-yz": dict(nx=32, ny=16, nz=8),
    "ca": dict(nx=32, ny=32, nz=6),
}


@pytest.fixture(scope="module")
def params():
    return ModelParameters(
        dt_adaptation=60.0, dt_advection=60.0, m_iterations=1
    )


def make_core(algorithm, params, **kw):
    grid = LatLonGrid(**GRIDS[algorithm])
    return DynamicalCore(
        grid, algorithm=algorithm, nprocs=NPROCS, params=params, **kw
    )


def loss_plan():
    return FaultPlan(seed=7, node_losses=(NodeLoss(rank=1, at_call=30),))


def run(core, tmp_path, faults=None):
    state0 = perturbed_rest_state(core.config.grid, amplitude_k=2.0)
    rcfg = ResilienceConfig(
        checkpoint_dir=tmp_path / "ck",
        checkpoint_interval=CHUNK,
        max_restarts=4,
        faults=faults,
        # absolute mass / fractional energy gates wide enough for the
        # model's clean per-chunk drift, tight enough to catch corruption
        sdc_mass_tol=1e-3,
        sdc_energy_tol=0.5,
    )
    return run_resilient(core, state0, NSTEPS, rcfg)


def same(a, b):
    return all(
        np.array_equal(x, y)
        for x, y in zip(a.fields().values(), b.fields().values())
    )


class TestAcceptanceMatrix:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("algorithm", ["original-yz", "ca"])
    def test_one_of_four_lost_midrun_completes(
        self, tmp_path, params, backend, algorithm
    ):
        """One rewind of the chunk the rank died in, at the same layout,
        and the run ends bit-identical to the fault-free one with the SDC
        gates armed throughout."""
        clean, _, _ = run(make_core(algorithm, params), tmp_path / "clean")
        core = make_core(algorithm, params, backend=backend)
        final, _, report = run(core, tmp_path, faults=loss_plan())
        assert [r.kind for r in report.restarts] == ["crash"]
        assert report.rank_launches == (2 if backend == "process" else 0)
        assert same(final, clean)


class TestTrajectoryBitIdentity:
    def test_recovery_is_seed_deterministic(self, tmp_path, params):
        """Same seed, same loss, same recovered trajectory and clocks."""
        runs = [
            run(make_core("original-yz", params), tmp_path / str(i),
                faults=loss_plan())
            for i in range(2)
        ]
        (s_a, d_a, r_a), (s_b, d_b, r_b) = runs
        assert same(s_a, s_b)
        assert d_a == d_b
        assert r_a.restarts == r_b.restarts
        assert r_a.chunk_makespans == r_b.chunk_makespans


class TestProcessBackendHygiene:
    def test_no_stale_shm_segments_after_injected_node_loss(
        self, tmp_path, params
    ):
        """The SIGKILLed rank leaves no /dev/shm litter: world memory is
        anonymous, so there is nothing named to leave."""
        core = make_core("original-yz", params, backend="process")
        _, _, report = run(core, tmp_path, faults=loss_plan())
        assert report.rank_launches == 2
        assert live_segment_names() == []

    def test_lost_rank_flight_dump_names_the_rank(self, tmp_path, params):
        """The killed rank dumps its flight ring before dying; the dump
        must name the lost rank."""
        from repro.obs.flightrec import load_dump

        prev = flightrec.get_recorder()
        flightrec.install(
            tmp_path / "flight" / "run.json", signals=False, logs=False,
        )
        try:
            core = make_core("original-yz", params, backend="process")
            _, _, report = run(core, tmp_path, faults=loss_plan())
            assert report.rank_launches == 2
        finally:
            flightrec._installed = prev
        dumps = sorted((tmp_path / "flight").glob("*lostrank1*"))
        assert dumps, "the killed rank left no flight dump"
        doc = load_dump(dumps[0])
        assert "rank 1" in doc["reason"]
        assert any(
            ev.get("kind") == "node-loss" and ev.get("rank") == 1
            for ev in doc["events"]
        )
