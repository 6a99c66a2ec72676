"""Elastic rank-loss recovery acceptance: the full detect→rebuild→migrate path.

The ISSUE-9 acceptance criteria, as tests:

* permanent loss of 1 of 4 ranks mid-run completes without abort on the
  thread AND process backends, for the original-yz AND ca algorithms,
  under both the ``spare`` and ``shrink`` policies;
* the post-recovery trajectory is bit-identical to a fault-free run at
  the recovered rank layout resumed from the same chunk boundary;
* SDC mass/energy acceptance gates pass across the recovery;
* no shm segments leak when the loss kills a process-backend rank;
* the flight-recorder dump of the killed rank names it.
"""
import os

import pytest

from repro.constants import ModelParameters
from repro.core.driver import DynamicalCore
from repro.core.resilience import (
    ResilienceConfig,
    ResilienceExhausted,
    run_resilient,
)
from repro.grid.latlon import LatLonGrid
from repro.obs import flightrec
from repro.physics import perturbed_rest_state
from repro.simmpi import FaultPlan, NodeLoss
from repro.simmpi.shm import live_segment_names, sweep_stale_segments

NSTEPS = 4
NPROCS = 4
CHUNK = 2

#: grids sized so 4-way AND 3-way (post-shrink) Y-Z layouts satisfy the
#: CA wide-halo requirement ny/p_y > 3M + 2
GRIDS = {
    "original-yz": dict(nx=32, ny=16, nz=8),
    "ca": dict(nx=32, ny=32, nz=6),
}


@pytest.fixture(scope="module")
def params():
    return ModelParameters(
        dt_adaptation=60.0, dt_advection=60.0, m_iterations=1
    )


def make_core(algorithm, params, nprocs=NPROCS, **kw):
    grid = LatLonGrid(**GRIDS[algorithm])
    return DynamicalCore(
        grid, algorithm=algorithm, nprocs=nprocs, params=params, **kw
    )


def loss_plan(ranks=(1,), at_call=30):
    return FaultPlan(
        seed=7,
        node_losses=tuple(
            NodeLoss(rank=r, at_call=at_call + i)
            for i, r in enumerate(ranks)
        ),
    )


def run(core, tmp_path, policy, *, spares=0, faults=None, nsteps=NSTEPS,
        sdc=True, max_restarts=4):
    grid = core.config.grid
    state0 = perturbed_rest_state(grid, amplitude_k=2.0)
    rcfg = ResilienceConfig(
        checkpoint_dir=tmp_path / "ck",
        checkpoint_interval=CHUNK,
        max_restarts=max_restarts,
        rank_loss_policy=policy,
        spare_ranks=spares,
        faults=faults,
        # absolute mass / fractional energy gates wide enough for the
        # model's clean per-chunk drift, tight enough to catch corruption
        sdc_mass_tol=1e-3 if sdc else None,
        sdc_energy_tol=0.5 if sdc else None,
    )
    return run_resilient(core, state0, nsteps, rcfg)


class TestAcceptanceMatrix:
    """1-of-4 loss mid-run completes under every (backend, algorithm,
    policy) combination, with the SDC gates armed throughout."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("algorithm", ["original-yz", "ca"])
    @pytest.mark.parametrize("policy", ["spare", "shrink"])
    def test_one_of_four_lost_midrun_completes(
        self, tmp_path, params, backend, algorithm, policy
    ):
        core = make_core(algorithm, params, backend=backend)
        final, diag, report = run(
            core, tmp_path, policy, spares=1, faults=loss_plan()
        )
        assert len(report.rank_losses) == 1
        rl = report.rank_losses[0]
        assert rl.lost == (1,)
        assert rl.policy == policy
        assert rl.mttr > 0.0
        assert report.membership_epoch == 1
        assert report.final_nranks == (4 if policy == "spare" else 3)
        assert report.recovery_time > 0.0
        assert final.isfinite()
        # no SDC rejections: the gates accepted every recovered chunk
        assert not any(r.kind == "sdc" for r in report.restarts)

    def test_abort_policy_raises_on_permanent_loss(self, tmp_path, params):
        core = make_core("original-yz", params)
        with pytest.raises(ResilienceExhausted, match="permanently lost"):
            run(core, tmp_path, "abort", faults=loss_plan())


class TestTrajectoryBitIdentity:
    def _reference(self, params, algorithm, segments, state0):
        """Fault-free chunked trajectory across rank-layout segments.

        ``segments`` is ``[(nprocs, until_step), ...]``: run at each
        layout up to the given global step, chunked exactly like the
        resilient driver (``CHUNK`` steps per chunk, same transport), so
        CA's chunk-boundary-sensitive smoothing schedule matches.
        """
        transport = ResilienceConfig(checkpoint_dir="/unused").transport
        state, step = state0, 0
        for nprocs, until in segments:
            core = make_core(algorithm, params, nprocs=nprocs)
            while step < until:
                chunk = min(CHUNK, NSTEPS - step)
                state, _, _ = core._run_once(
                    state, chunk, faults=None, verify_checksums=True,
                    transport=transport, timeout=None, step0=step,
                )
                step += chunk
        return state

    @pytest.mark.parametrize("algorithm", ["original-yz", "ca"])
    def test_spare_recovery_matches_fault_free_run(
        self, tmp_path, params, algorithm
    ):
        """Spare adoption keeps the layout, so the whole recovered run
        must be bit-identical to a fault-free 4-rank run."""
        core = make_core(algorithm, params)
        state0 = perturbed_rest_state(core.config.grid, amplitude_k=2.0)
        recovered, _, report = run(
            core, tmp_path, "spare", spares=1, faults=loss_plan()
        )
        assert report.spare_adoptions == 1
        clean = self._reference(params, algorithm, [(4, NSTEPS)], state0)
        assert recovered.max_difference(clean) == 0.0

    @pytest.mark.parametrize("algorithm", ["original-yz", "ca"])
    def test_shrink_recovery_matches_fault_free_run_at_new_layout(
        self, tmp_path, params, algorithm
    ):
        """After a shrink, the trajectory must equal: fault-free 4-rank
        run to the recovery chunk boundary, then fault-free 3-rank run
        for the remaining steps — resumed from that same boundary."""
        core = make_core(algorithm, params)
        state0 = perturbed_rest_state(core.config.grid, amplitude_k=2.0)
        recovered, _, report = run(
            core, tmp_path, "shrink", faults=loss_plan()
        )
        assert report.shrinks == 1
        boundary = report.rank_losses[0].step
        ref = self._reference(
            params, algorithm, [(4, boundary), (3, NSTEPS)], state0
        )
        assert recovered.max_difference(ref) == 0.0

    def test_recovery_is_seed_deterministic(self, tmp_path, params):
        """Same seed, same loss, same recovered trajectory and MTTR."""
        runs = []
        for i in range(2):
            core = make_core("original-yz", params)
            runs.append(run(
                core, tmp_path / str(i), "shrink", faults=loss_plan()
            ))
        (s_a, d_a, r_a), (s_b, d_b, r_b) = runs
        assert s_a.max_difference(s_b) == 0.0
        assert d_a.makespan == d_b.makespan
        assert r_a.rank_losses[0].mttr == r_b.rank_losses[0].mttr


class TestDoubleFaultEscalation:
    def test_owner_and_buddy_lost_escalates_to_disk(self, tmp_path, params):
        """Losing rank 1 AND its buddy rank 2 defeats the mirror: the
        elastic tier must restore from disk and still rebuild."""
        core = make_core("original-yz", params)
        final, _, report = run(
            core, tmp_path, "shrink", faults=loss_plan(ranks=(1, 2)),
        )
        assert len(report.rank_losses) == 1
        rl = report.rank_losses[0]
        assert rl.lost == (1, 2)
        assert rl.source == "disk"
        assert report.disk_rollbacks == 1
        assert report.final_nranks == 2
        assert final.isfinite()

    def test_spare_pool_dry_falls_back_to_shrink(self, tmp_path, params):
        core = make_core("original-yz", params)
        _, _, report = run(
            core, tmp_path, "spare", spares=0, faults=loss_plan()
        )
        assert report.shrinks == 1
        assert report.spare_adoptions == 0
        assert report.final_nranks == 3


class TestProcessBackendHygiene:
    def test_no_stale_shm_segments_after_injected_node_loss(
        self, tmp_path, params
    ):
        """Satellite: the SIGKILLed rank must not leave /dev/shm litter —
        the parent unlinks its segments on the supervised exit path."""
        core = make_core("original-yz", params, backend="process")
        _, _, report = run(core, tmp_path, "shrink", faults=loss_plan())
        assert report.shrinks == 1
        assert live_segment_names() == []

    def test_sweep_reclaims_dead_owner_segments(self, tmp_path):
        """A segment whose creator pid is gone is stale by definition and
        must be swept; a live owner's segment must survive the sweep."""
        from multiprocessing import shared_memory

        from repro.simmpi.shm import SEGMENT_PREFIX

        # fabricate an orphan: named like ours but owned by a dead pid
        dead_pid = 2 ** 22 + 12345  # far above pid_max defaults
        orphan = shared_memory.SharedMemory(
            name=f"{SEGMENT_PREFIX}-{dead_pid}-deadbeef-rings",
            create=True, size=64,
        )
        orphan.close()
        live = shared_memory.SharedMemory(
            name=f"{SEGMENT_PREFIX}-{os.getpid()}-cafecafe-rings",
            create=True, size=64,
        )
        try:
            swept = sweep_stale_segments()
            names = live_segment_names()
            assert f"{SEGMENT_PREFIX}-{dead_pid}-deadbeef-rings" not in names
            assert f"{SEGMENT_PREFIX}-{os.getpid()}-cafecafe-rings" in names
            assert any(str(dead_pid) in s for s in swept)
        finally:
            live.close()
            live.unlink()

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
            _, _, report = run(core, tmp_path, "shrink", faults=loss_plan())
            assert report.shrinks == 1
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


class TestObservability:
    def test_recovery_metrics_and_spans(self, tmp_path, params):
        core = make_core("original-yz", params, observe=True)
        _, _, report = run(core, tmp_path, "shrink", faults=loss_plan())
        obs = core.observation
        reg = obs.registry
        assert reg.counter(
            "resilience_rank_losses_total", policy="shrink"
        ).value == 1
        assert reg.gauge("membership_epoch").value == 1
        hist = reg.histogram("recovery_mttr_seconds")
        assert hist.count == 1
        assert hist.sum == report.rank_losses[0].mttr
        names = {s.name for s in obs.tracer.spans}
        assert {"failure-detect", "membership-rebuild",
                "block-migrate"} <= names

    @pytest.mark.parametrize("policy", ["spare", "shrink"])
    def test_mttr_lands_in_the_makespan(self, tmp_path, params, policy):
        """Logical clocks, hence exact: recovering from one lost rank
        costs a bounded share of what the fault-free run takes."""
        core = make_core("original-yz", params)
        _, diag, report = run(
            core, tmp_path, policy, spares=1, faults=loss_plan()
        )
        clean_core = make_core("original-yz", params)
        _, clean_diag, _ = run(clean_core, tmp_path / "clean", policy, spares=1)
        assert diag.makespan > clean_diag.makespan
        assert 0 < report.recovery_time / clean_diag.makespan < 0.5
