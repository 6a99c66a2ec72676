"""One rank world per call: warm ranks across chunks, nothing left behind.

The process backend forks its ranks once per ``run`` / ``run_resilient``
call and drives every chunk as a command.  A chunk boundary stays a restart
point, so none of this may be visible in results: chunked runs equal plain
runs chained per chunk, and the thread backend — which still builds a
fresh world per chunk — pins makespans, diagnostics and per-rank
statistics.  What a call may not do is leak: no child process and no shm
segment outlives it, however it ends.
"""
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.constants import ModelParameters
from repro.core.comm_avoiding import ca_program
from repro.core.distributed import DistributedConfig, resident
from repro.core.driver import DynamicalCore
from repro.core.resilience import (
    BlowupError,
    ResilienceConfig,
    ResilienceExhausted,
)
from repro.grid.latlon import LatLonGrid
from repro.obs.spans import tracing
from repro.physics import perturbed_rest_state
from repro.simmpi import FaultPlan, NodeLoss, SpmdError
from repro.simmpi.launcher import RankWorld
from repro.simmpi.shm import live_segment_names, sweep_stale_segments

PARAMS = ModelParameters(dt_adaptation=60.0, dt_advection=60.0, m_iterations=1)
GRIDS = {
    "original-yz": dict(nx=32, ny=16, nz=8),
    "ca": dict(nx=32, ny=32, nz=6),
}
NSTEPS = 5


def make_core(algorithm, backend, nprocs=2, **kw):
    return DynamicalCore(
        LatLonGrid(**GRIDS[algorithm]), algorithm=algorithm, nprocs=nprocs,
        params=PARAMS, backend=backend, **kw,
    )


def initial(core):
    return perturbed_rest_state(core.config.grid, amplitude_k=2.0)


def same(a, b):
    return all(
        np.array_equal(x, y)
        for x, y in zip(a.fields().values(), b.fields().values())
    )


def chunked(core, tmp_path, chunk, nsteps=NSTEPS, **rkw):
    """``run_resilient`` plus the per-rank CommStats of every chunk."""
    per_chunk = []
    real = core._run_once

    def recording(state, n, **kw):
        out = real(state, n, **kw)
        per_chunk.append(out[2])
        return out

    core._run_once = recording
    try:
        final, diag, report = core.run_resilient(
            initial(core), nsteps,
            ResilienceConfig(
                checkpoint_dir=tmp_path, checkpoint_interval=chunk, **rkw
            ),
        )
    finally:
        del core._run_once
    return final, diag, report, per_chunk


def assert_nothing_left(segments_before):
    assert multiprocessing.active_children() == []
    assert live_segment_names() == segments_before


class TestBitIdentity:
    @pytest.mark.parametrize("chunk", [1, 2, 3])  # 3: uneven last chunk
    @pytest.mark.parametrize("algorithm", ["ca", "original-yz"])
    def test_chunked_equals_chained_plain_runs_on_both_backends(
        self, tmp_path, algorithm, chunk
    ):
        runs = {}
        for backend in ("thread", "process"):
            core = make_core(algorithm, backend)
            runs[backend] = chunked(core, tmp_path / backend, chunk)
            want, step = initial(core), 0
            while step < NSTEPS:
                n = min(chunk, NSTEPS - step)
                want, _ = core.run(want, n)
                step += n
            assert same(runs[backend][0], want), backend
        (_, dt, rt, st), (_, dp, rp, sp) = runs["thread"], runs["process"]
        assert rt.chunk_makespans == rp.chunk_makespans
        assert dt == dp
        assert st == sp  # per chunk, per rank CommStats
        assert rt.rank_launches == 0
        assert rp.rank_launches == 1

    def test_sdc_rejection_midrun_replays_on_the_warm_world(self, tmp_path):
        """The ``_run_once`` flip of test_buddy_resilience, process backend:
        the rejected command did not fail, so the world survives and the
        replay on its warm ranks equals the clean run."""
        from repro.state.variables import ModelState

        ref, *_ = chunked(make_core("ca", "process"), tmp_path / "ref", 1)
        core = make_core("ca", "process")
        real, calls = core._run_once, [0]

        def flip_second_chunk(state, n, **kw):
            out, diag, stats = real(state, n, **kw)
            calls[0] += 1
            if calls[0] == 2:
                out = ModelState(
                    U=out.U, V=out.V, Phi=out.Phi, psa=out.psa + 1e-2
                )
            return out, diag, stats

        core._run_once = flip_second_chunk
        final, _, report = core.run_resilient(
            initial(core), NSTEPS,
            ResilienceConfig(
                checkpoint_dir=tmp_path / "sdc", checkpoint_interval=1,
                sdc_mass_tol=1e-3,
            ),
        )
        assert same(final, ref)
        assert [r.kind for r in report.restarts] == ["sdc"]
        assert report.restarts[0].source == "buddy"
        assert report.rank_launches == 1

    def test_pool_counters_are_per_command(self):
        """Warm ranks: the second command allocates nothing new."""
        core = make_core("ca", "process")
        cfg = DistributedConfig(
            grid=core.config.grid, params=PARAMS,
            decomp=core.config.resolve_decomposition(), kernel_tier="fused",
        )
        world = RankWorld(2, resident(ca_program, cfg))
        try:
            first = world.call(initial(core), 2)
            second = world.call(initial(core), 2)
        finally:
            world.close()
        for a, b in zip(first.results, second.results):
            assert a.ws_counters["fresh_allocations"] > 0
            assert b.ws_counters["fresh_allocations"] == 0
            assert b.ws_counters["reuses"] == (
                a.ws_counters["reuses"] + a.ws_counters["fresh_allocations"]
            )
            assert (a.c_calls, a.exchanges) == (b.c_calls, b.exchanges)
            assert same(a.state, b.state)
        assert first.clocks == second.clocks
        assert first.stats == second.stats


class TestRankLaunches:
    def _failing_once(self, marker: Path):
        """A forcing that raises in one rank, once (the marker file makes
        it one-shot across forks): a failed command, so a discarded world."""
        def forcing(state, geom, dt):
            if geom.touches_north and not marker.exists():
                marker.touch()
                raise FloatingPointError("injected")
        return forcing

    @pytest.mark.parametrize("buddy", [True, False], ids=["buddy", "disk"])
    def test_each_failed_command_forks_a_new_world(self, tmp_path, buddy):
        before = live_segment_names()
        core = make_core(
            "original-yz", "process", observe=True,
            forcing=self._failing_once(tmp_path / "fired"),
        )
        _, _, report, _ = chunked(
            core, tmp_path / "ck", 2, buddy_checkpoints=buddy
        )
        assert [r.kind for r in report.restarts] == ["blowup"]
        assert report.restarts[0].source == ("buddy" if buddy else "disk")
        assert report.rank_launches == 2
        assert "rank worlds forked: 2" in report.describe()
        reg = core.observation.registry
        assert reg.counter("spmd_launches_total").value == 2
        assert_nothing_left(before)

    @pytest.mark.parametrize("policy", ["spare", "shrink"])
    def test_elastic_recovery_forks_the_world_at_its_new_size(
        self, tmp_path, policy
    ):
        before = live_segment_names()
        plan = FaultPlan(seed=7, node_losses=(NodeLoss(rank=1, at_call=30),))
        core = make_core("original-yz", "process", nprocs=4)
        _, _, report, _ = chunked(
            core, tmp_path, 2, nsteps=4, faults=plan,
            rank_loss_policy=policy, spare_ranks=1,
        )
        assert len(report.rank_losses) == 1
        assert report.final_nranks == (4 if policy == "spare" else 3)
        assert report.rank_launches == 2
        assert_nothing_left(before)

    def test_plain_run_forks_one_world_per_call(self):
        core = make_core("ca", "process")
        core.run(initial(core), 1)
        core.run(initial(core), 2)
        assert core.rank_launches == 2
        assert make_core("ca", "thread").rank_launches == 0


class _Stop(BaseException):
    """Not an Exception: what a KeyboardInterrupt between chunks looks like."""


class TestNoLeaks:
    def test_on_chunk_exception_closes_the_world(self, tmp_path):
        before = live_segment_names()
        core = make_core("ca", "process")

        def on_chunk(step, nsteps):
            if step == 2:
                raise RuntimeError("heartbeat refused")

        with pytest.raises(RuntimeError, match="heartbeat refused"):
            chunked(core, tmp_path, 1, on_chunk=on_chunk)
        assert_nothing_left(before)
        # the chunk the heartbeat rode on was committed and checkpointed
        assert (tmp_path / "ckpt_00000002.npz").exists()

    def test_base_exception_between_chunks_closes_the_world(self, tmp_path):
        before = live_segment_names()
        core = make_core("ca", "process")
        real, calls = core._run_once, [0]

        def interrupted(state, n, **kw):
            calls[0] += 1
            if calls[0] == 3:
                raise _Stop()
            return real(state, n, **kw)

        core._run_once = interrupted
        with pytest.raises(_Stop):
            core.run_resilient(
                initial(core), NSTEPS,
                ResilienceConfig(checkpoint_dir=tmp_path, checkpoint_interval=1),
            )
        assert_nothing_left(before)
        # the commit work deferred behind the interrupted chunk still ran
        assert (tmp_path / "ckpt_00000002.npz").exists()

    def test_blowup_abort_closes_the_world(self, tmp_path):
        before = live_segment_names()
        core = make_core("ca", "process")
        with pytest.raises(BlowupError):
            chunked(core, tmp_path, 1, blowup_policy="abort",
                    blowup_threshold=1e-30)
        assert_nothing_left(before)

    def test_exhausted_ladder_closes_the_world(self, tmp_path):
        before = live_segment_names()
        core = make_core("ca", "process")
        with pytest.raises(ResilienceExhausted):
            chunked(core, tmp_path, 1, max_restarts=1,
                    blowup_threshold=1e-30)
        assert_nothing_left(before)

    def test_failing_plain_run_closes_the_world(self):
        before = live_segment_names()

        def forcing(state, geom, dt):
            raise ValueError("bad forcing")

        core = make_core("ca", "process", forcing=forcing)
        with pytest.raises(SpmdError):
            core.run(initial(core), 2)
        assert_nothing_left(before)


def _echo(comm, x=0):
    return comm.rank + x


def _wedge_second_command(comm, x=0):
    if x and comm.rank == 1:
        time.sleep(3600.0)
    return comm.rank


class TestCommandDeadline:
    def test_an_idle_world_is_not_a_deadlock(self):
        """The join watchdog runs per command: a world that idles past
        timeout + grace (its parent is checkpointing) serves the next one."""
        world = RankWorld(2, _echo, join_grace=0.2)
        try:
            assert world.call(timeout=0.2).results == [0, 1]
            time.sleep(1.0)
            assert world.call(5, timeout=0.2).results == [5, 6]
        finally:
            world.close()

    def test_a_wedged_command_fails_and_discards_the_world(self):
        before = live_segment_names()
        world = RankWorld(2, _wedge_second_command, join_grace=0.5)
        assert world.call(timeout=0.5).results == [0, 1]
        with pytest.raises(SpmdError, match="still running"):
            world.call(1, timeout=0.5)
        assert not world.is_open
        assert_nothing_left(before)


def _double(comm, x=None):
    return np.arange(4096.0) if x is None else 2.0 * x


class TestDataSlots:
    @pytest.mark.parametrize("slot", [None, 1024], ids=["fits", "overflows"])
    def test_arrays_round_trip_out_of_band_or_in_band(self, slot):
        """Buffers travel through the writer's data slot while they fit and
        inside the pickle stream when they do not: same values either way."""
        world = RankWorld(2, _double)
        if slot is not None:
            world.shm._slot = slot  # before the fork: ranks inherit it
        try:
            first = world.call().results
            big = np.linspace(0.0, 1.0, 4096)
            small = np.ones(8)  # fits even the tiny slot
            second = world.call(big).results
            third = world.call(small).results
        finally:
            world.close()
        assert all(np.array_equal(r, np.arange(4096.0)) for r in first)
        assert all(np.array_equal(r, 2.0 * big) for r in second)
        assert all(np.array_equal(r, 2.0 * small) for r in third)
        first[0][0] = -1.0  # results own their memory
        assert first[1][0] == 0.0


ORPHAN_SCRIPT = textwrap.dedent(
    """
    import multiprocessing, sys, time
    from repro.simmpi.launcher import RankWorld

    def program(comm, busy=False):
        if busy:  # mid-command, blocked in the communication layer
            comm.recv(1 - comm.rank, tag=1)
        return comm.rank

    world = RankWorld(2, program)
    world.call(timeout=60.0)
    pids = [p.pid for p in multiprocessing.active_children()]
    print(*pids, flush=True)
    if sys.argv[1] == "busy":
        world.call(True, timeout=60.0)  # never completes
    time.sleep(3600.0)
    """
)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # a zombie still answers signal 0: read its state
    try:
        return Path(f"/proc/{pid}/stat").read_text().split()[2] != "Z"
    except OSError:
        return False


class TestOrphanedRanks:
    @pytest.mark.parametrize("when", ["idle", "busy"])
    def test_ranks_exit_when_the_launcher_is_killed(self, when):
        """SIGKILL the launcher between commands (ranks block on their
        command pipe: EOF) and mid-command (ranks block in a receive: the
        orphan check of the abort poll); both ranks are gone within 5 s
        and the next launch's sweep reclaims the dead launcher's segments."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.Popen(
            [sys.executable, "-c", ORPHAN_SCRIPT, when],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            ranks = [int(p) for p in proc.stdout.readline().split()]
            assert len(ranks) == 2
            time.sleep(0.3)  # let the busy command reach its receive
            mine = f"-{proc.pid}-"
            assert any(mine in n for n in live_segment_names())
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=5)
            deadline = time.monotonic() + 5.0
            while any(map(_alive, ranks)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_alive, ranks))
            sweep_stale_segments()
            assert not any(mine in n for n in live_segment_names())
        finally:
            proc.kill()
            for pid in locals().get("ranks", ()):
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)


class TestObservabilityShape:
    def test_one_launch_span_per_command_parents_the_rank_spans(
        self, tmp_path
    ):
        shapes = {}
        for backend in ("thread", "process"):
            with tracing() as tracer:
                core = make_core("ca", backend)
                chunked(core, tmp_path / backend, 2, nsteps=4)
            by_id = {s.span_id: s for s in tracer.spans}
            launches = [s for s in tracer.spans if s.name == "spmd[2]"]
            assert len(launches) == 2  # one per chunk on either backend
            for launch in launches:
                assert by_id[launch.parent_id].name == "chunk"
            steps = [s for s in tracer.spans if s.name == "step"]
            assert sorted(
                (launches.index(by_id[s.parent_id]), s.rank) for s in steps
            ) == [(c, r) for c in (0, 1) for r in (0, 1) for _ in (0, 1)]
            shapes[backend] = sorted(
                (s.name, s.rank) for s in tracer.spans
                if s.cat in ("step", "comm", "spmd", "resilience")
            )
        assert shapes["thread"] == shapes["process"]

    def test_telemetry_and_metrics_are_absorbed_per_command(self, tmp_path):
        series = {}
        for backend in ("thread", "process"):
            core = make_core("ca", backend, observe=True)
            chunked(core, tmp_path / backend, 2, nsteps=4)
            obs = core.observation
            series[backend] = obs.telemetry.as_dicts()
            assert obs.telemetry.steps() == [1, 2, 3, 4]
            sent = obs.registry.counter("simmpi_p2p_messages_sent_total", rank="0")
            series[backend].append(sent.value)
        assert series["thread"] == series["process"]


# ---------------------------------------------------------------------------
# forked ranks inherit the parent's kernel library
# ---------------------------------------------------------------------------
def test_ranks_inherit_the_kernel_library_the_parent_resolved(
    tmp_path, monkeypatch
):
    """The caller resolves the kernel tier before it forks a world, so a
    rank finds the library loaded: it never asks the compiler for its
    banner (a subprocess per rank per ``run`` before), and with the
    compiler gone after the parent's first load a second core's ranks
    still run the C kernels, every call fused."""
    import json

    from repro.core.distributed import RankContext
    from repro.kernels import c_available, cbackend

    if not c_available():
        pytest.skip("no C compiler on this host")
    # a process that never touched the library, as a fresh interpreter is
    monkeypatch.setattr(cbackend, "_LIBS", {})
    result = RankContext.result

    def reporting(self, w):
        (tmp_path / f"rank{self.comm.rank}.json").write_text(
            json.dumps(self.kernels.describe())
        )
        return result(self, w)

    monkeypatch.setattr(RankContext, "result", reporting)
    core = make_core("ca", "process", kernel_tier="fused")
    first, _ = core.run(initial(core), 1)

    def no_compiler(cc):
        raise OSError("a rank shelled out to the compiler")

    monkeypatch.setattr(cbackend, "_compiler_banner", no_compiler)
    for path in tmp_path.glob("rank*.json"):
        path.unlink()
    core = make_core("ca", "process", kernel_tier="fused")
    second, _ = core.run(initial(core), 1)
    assert same(first, second)
    described = [
        json.loads(p.read_text()) for p in sorted(tmp_path.glob("rank*.json"))
    ]
    assert len(described) == 2
    for d in described:
        assert d["backend"] == "c"
        assert all(n["fallback"] == 0 for n in d["calls"].values()), d
        assert d["calls"]["adaptation"]["fused"] > 0
