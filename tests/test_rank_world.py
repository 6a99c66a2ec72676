"""One rank world per call: warm ranks across chunks, nothing left behind.

The process backend forks its ranks once per ``run`` / ``run_resilient``
call and drives every chunk as a command.  A chunk boundary stays a restart
point, so none of this may be visible in results: chunked runs equal plain
runs chained per chunk, and the thread backend — which still builds a
fresh world per chunk — pins makespans, diagnostics and per-rank
statistics.  What a call may not do is leak: no child process outlives
it, however it ends, and no shm segment ever has a name — world memory is
anonymous, so there is nothing to clean up.
"""
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.constants import ModelParameters
from repro.core.comm_avoiding import ca_program
from repro.core.distributed import DistributedConfig, resident
from repro.core.driver import DynamicalCore, state_area
from repro.core.resilience import (
    BlowupError,
    ResilienceConfig,
    ResilienceExhausted,
)
from repro.grid.latlon import LatLonGrid
from repro.kernels import c_available
from repro.obs.spans import tracing
from repro.physics import perturbed_rest_state
from repro.simmpi import FaultPlan, NodeLoss, SpmdError
from repro.simmpi.launcher import RankWorld
from repro.simmpi.shm import live_segment_names
from repro.state.variables import ModelState

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


def named_shm(pid="self") -> list[str]:
    """Named shm segments that exist, or that process ``pid`` maps (the
    semaphores of a ``multiprocessing`` lock are unlinked at creation:
    they map as ``(deleted)``)."""
    maps = Path(f"/proc/{pid}/maps").read_text().splitlines()
    return live_segment_names() + [
        m for m in maps if "/dev/shm/" in m and not m.endswith("(deleted)")
    ]


def assert_nothing_left():
    assert multiprocessing.active_children() == []
    assert named_shm() == []


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

    @staticmethod
    def _flipping(core, flipped):
        """``core._run_once`` with a silent upset of the results of the
        calls numbered in ``flipped`` (1-based)."""
        real, calls = core._run_once, [0]

        def flip(state, n, **kw):
            out, diag, stats = real(state, n, **kw)
            calls[0] += 1
            if calls[0] in flipped:
                out = ModelState(
                    U=out.U, V=out.V, Phi=out.Phi, psa=out.psa + 1e-2
                )
            return out, diag, stats

        return flip

    def _sdc_run(self, tmp_path, flipped):
        core = make_core("ca", "process")
        core._run_once = self._flipping(core, flipped)
        return core.run_resilient(
            initial(core), NSTEPS,
            ResilienceConfig(
                checkpoint_dir=tmp_path / "sdc", checkpoint_interval=1,
                sdc_mass_tol=1e-3,
            ),
        )

    def test_sdc_rejection_midrun_replays_on_the_warm_world(self, tmp_path):
        """A result flipped in memory, process backend: the rejected
        command did not fail, so the world survives and the replay on its
        warm ranks equals the clean run."""
        ref, *_ = chunked(make_core("ca", "process"), tmp_path / "ref", 1)
        final, _, report = self._sdc_run(tmp_path, {2})
        assert same(final, ref)
        assert [r.kind for r in report.restarts] == ["sdc"]
        assert report.rank_launches == 1

    def test_a_chunk_rejected_twice_rewinds_from_the_committed_state(
        self, tmp_path
    ):
        """The committed state is a state area the world writes again two
        commands later: the first replay writes it, so a rewind that did
        not copy it would start the second replay from the first one's
        result."""
        ref, *_ = chunked(make_core("ca", "process"), tmp_path / "ref", 1)
        final, _, report = self._sdc_run(tmp_path, {2, 3})
        assert [r.kind for r in report.restarts] == ["sdc", "sdc"]
        assert report.rank_launches == 1
        assert same(final, ref)

    def test_pool_counters_are_per_command(self):
        """Warm ranks: the second command allocates nothing new, and every
        warm command takes the same buffers — all those of the first but
        the kernels' scratch blocks, which its C calls bound and kept, and
        the polar filter's stack and spectrum, which the engine holds."""
        core = make_core("ca", "process")
        cfg = DistributedConfig(
            grid=core.config.grid, params=PARAMS,
            decomp=core.config.resolve_decomposition(), kernel_tier="fused",
        )
        area, _ = state_area(core.config.grid.shape3d)
        world = RankWorld(2, partial(resident(ca_program, cfg), out=area))
        try:
            first = world.call(initial(core), 2)
            after_first = area.copy()
            second = world.call(initial(core), 2)
            third = world.call(initial(core), 2)
        finally:
            world.close()
        for a, b, c in zip(first.results, second.results, third.results):
            assert a.ws_counters["fresh_allocations"] > 0
            assert b.ws_counters["fresh_allocations"] == 0
            assert b.ws_counters == c.ws_counters
            bound = (
                a.ws_counters["reuses"] + a.ws_counters["fresh_allocations"]
                - b.ws_counters["reuses"]
            )
            # the table block, the reference-temperature surface, two row
            # buffers and a smoothing block per field shape and view height;
            # the filter's stack and spectrum
            assert bound == (7 if c_available() else 0) + 2
            assert (a.c_calls, a.exchanges) == (b.c_calls, b.exchanges)
        assert same(after_first, area)
        assert first.clocks == second.clocks
        assert first.stats == second.stats


class TestStateAreas:
    """A process-backend result is the area its command wrote, not a copy:
    it must hold still for as long as anyone reads it."""

    def test_every_checkpoint_equals_the_chained_runs(self, tmp_path):
        """The deferred checkpoint of chunk k runs during chunk k + 1; a
        command writing the area it reads would show here."""
        from repro.state.io import load_state

        core = make_core("ca", "process")
        _, _, report = core.run_resilient(
            initial(core), NSTEPS,
            ResilienceConfig(checkpoint_dir=tmp_path, checkpoint_interval=1),
        )
        want, boundary = initial(core), {0: initial(core)}
        for step in range(1, NSTEPS + 1):
            want, _ = core.run(want, 1)
            boundary[step] = want
        assert [s for s, _ in report.checkpoints] == list(range(NSTEPS + 1))
        for step, path in report.checkpoints:
            assert same(load_state(path)[0], boundary[step]), step

    def test_earlier_results_survive_later_calls(self):
        results = {}
        for backend in ("thread", "process"):
            core = make_core("ca", backend)
            first, _ = core.run(initial(core), 1)
            second, _ = core.run(first, 2)
            kept = first.copy(), second.copy()
            core.run(second, 1)
            assert same(first, kept[0]) and same(second, kept[1]), backend
            results[backend] = first, second
        for got, want in zip(results["process"], results["thread"]):
            assert same(got, want)

    @pytest.mark.parametrize("algorithm", ["ca", "original-yz"])
    def test_warm_command_from_a_new_state_equals_a_fresh_world(
        self, algorithm
    ):
        """Ranks pad into their ring: nothing of the previous command's
        state may survive in the ghost rows of the next one."""
        core = make_core(algorithm, "process")
        grid = core.config.grid
        b = perturbed_rest_state(grid, amplitude_k=3.0, center_lon_deg=200.0)
        with core._world_scope():
            core._run_once(initial(core), 2)
            warm, diag, stats = core._run_once(b, 2)
            warm = warm.copy()
            assert core.rank_launches == 1
        fresh = make_core(algorithm, "process")
        want, want_diag, want_stats = fresh._run_once(b, 2)
        assert same(warm, want)
        assert diag == want_diag
        assert stats == want_stats


class TestRankLaunches:
    def _failing_once(self, marker: Path):
        """A forcing that raises in one rank, once (the marker file makes
        it one-shot across forks): a failed command, so a discarded world."""
        def forcing(state, geom, dt):
            if geom.touches_north and not marker.exists():
                marker.touch()
                raise FloatingPointError("injected")
        return forcing

    def test_each_failed_command_forks_a_new_world(self, tmp_path):
        core = make_core(
            "original-yz", "process", observe=True,
            forcing=self._failing_once(tmp_path / "fired"),
        )
        _, _, report, _ = chunked(core, tmp_path / "ck", 2)
        assert [r.kind for r in report.restarts] == ["blowup"]
        assert report.rank_launches == 2
        assert "rank worlds forked: 2" in report.describe()
        reg = core.observation.registry
        assert reg.counter("spmd_launches_total").value == 2
        assert_nothing_left()

    def test_a_killed_rank_relaunches_at_the_same_size(self, tmp_path):
        """A SIGKILLed rank fails its command; the retry forks a world of
        the same four ranks and the run equals the clean one."""
        plan = FaultPlan(seed=7, node_losses=(NodeLoss(rank=1, at_call=30),))
        clean, *_ = chunked(
            make_core("original-yz", "process", nprocs=4), tmp_path / "ref",
            2, nsteps=4,
        )
        core = make_core("original-yz", "process", nprocs=4)
        final, _, report, _ = chunked(
            core, tmp_path / "ck", 2, nsteps=4, faults=plan
        )
        assert [r.kind for r in report.restarts] == ["crash"]
        assert report.rank_launches == 2
        assert core.config.resolve_decomposition().nranks == 4
        assert same(final, clean)
        assert_nothing_left()

    def test_plain_run_forks_one_world_per_call(self):
        core = make_core("ca", "process")
        core.run(initial(core), 1)
        core.run(initial(core), 2)
        assert core.rank_launches == 2
        assert make_core("ca", "thread").rank_launches == 0


class _Stop(BaseException):
    """Not an Exception: what a KeyboardInterrupt between chunks looks like."""


class TestNoLeaks:
    @pytest.mark.parametrize(
        "error", [_Stop, RuntimeError], ids=lambda e: e.__name__
    )
    def test_base_exception_between_chunks_closes_the_world(
        self, tmp_path, error
    ):
        """An interrupt (``BaseException``) or an ordinary error raised
        between chunks closes the world."""
        core = make_core("ca", "process")
        real, calls = core._run_once, [0]

        def interrupted(state, n, **kw):
            calls[0] += 1
            if calls[0] == 3:
                raise error()
            return real(state, n, **kw)

        core._run_once = interrupted
        with pytest.raises(error):
            core.run_resilient(
                initial(core), NSTEPS,
                ResilienceConfig(checkpoint_dir=tmp_path, checkpoint_interval=1),
            )
        assert_nothing_left()
        # the commit work deferred behind the interrupted chunk still ran
        assert (tmp_path / "ckpt_00000002.npz").exists()

    def test_blowup_abort_closes_the_world(self, tmp_path):
        core = make_core("ca", "process")
        with pytest.raises(BlowupError):
            chunked(core, tmp_path, 1, blowup_policy="abort",
                    blowup_threshold=1e-30)
        assert_nothing_left()

    def test_exhausted_ladder_closes_the_world(self, tmp_path):
        core = make_core("ca", "process")
        with pytest.raises(ResilienceExhausted):
            chunked(core, tmp_path, 1, max_restarts=1,
                    blowup_threshold=1e-30)
        assert_nothing_left()

    def test_nothing_named_exists_during_a_call(self, tmp_path):
        """Sampled inside every rank mid-call (the forcing runs there) and
        after return: no named segment exists and none is mapped."""
        def forcing(state, geom, dt):
            (tmp_path / f"{os.getpid()}.txt").write_text("\n".join(named_shm()))

        core = make_core("ca", "process", forcing=forcing)
        core.run(initial(core), 2)
        samples = [p.read_text() for p in tmp_path.glob("*.txt")]
        assert samples == ["", ""]  # one file per rank process
        assert_nothing_left()

    def test_failing_plain_run_closes_the_world(self):

        def forcing(state, geom, dt):
            raise ValueError("bad forcing")

        core = make_core("ca", "process", forcing=forcing)
        with pytest.raises(SpmdError):
            core.run(initial(core), 2)
        assert_nothing_left()


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
        world = RankWorld(2, _wedge_second_command, join_grace=0.5)
        assert world.call(timeout=0.5).results == [0, 1]
        with pytest.raises(SpmdError, match="still running"):
            world.call(1, timeout=0.5)
        assert not world.is_open
        assert_nothing_left()


def _double(comm, x=None, n=4096):
    return np.arange(float(n)) if x is None else 2.0 * x


class TestDataSlots:
    # 32 KiB fits a Linux pipe's 64 KiB kernel buffer; 256 KiB overflows
    # it, so the writer blocks until the reader drains the pipe
    @pytest.mark.parametrize("n", [4096, 32768], ids=["fits", "overflows"])
    def test_arrays_round_trip_out_of_band_or_in_band(self, n):
        """Commands and results are plain pickles on the rank pipes, their
        arrays in-band: same values whether or not a pickle fits the
        pipe's buffer, and results own their memory."""
        world = RankWorld(2, partial(_double, n=n))
        try:
            first = world.call().results
            big = np.linspace(0.0, 1.0, n)
            small = np.ones(8)
            second = world.call(big).results
            third = world.call(small).results
        finally:
            world.close()
        assert all(np.array_equal(r, np.arange(float(n))) for r in first)
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
        orphan check of the abort poll); both ranks are gone within 5 s.
        Nothing named existed before the kill, so nothing can outlive it."""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.Popen(
            [sys.executable, "-c", ORPHAN_SCRIPT, when],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            ranks = [int(p) for p in proc.stdout.readline().split()]
            assert len(ranks) == 2
            time.sleep(0.3)  # let the busy command reach its receive
            for pid in (proc.pid, *ranks):
                assert named_shm(pid) == []
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=5)
            deadline = time.monotonic() + 5.0
            while any(map(_alive, ranks)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_alive, ranks))
            assert live_segment_names() == []
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
    from repro.core.distributed import RankContext
    from repro.kernels import c_available, cbackend

    if not c_available():
        pytest.skip("no C compiler on this host")
    # a process that never touched the library, as a fresh interpreter is
    monkeypatch.setattr(cbackend, "_LIBS", {})
    result = RankContext.result

    def reporting(self, w, out):
        (tmp_path / f"rank{self.comm.rank}.json").write_text(
            json.dumps(self.kernels.describe())
        )
        return result(self, w, out)

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


MODULES_SCRIPT = textwrap.dedent(
    """
    import json, os, sys
    from pathlib import Path
    from repro.constants import ModelParameters
    from repro.core.distributed import RankContext
    from repro.core.driver import DynamicalCore
    from repro.grid.latlon import LatLonGrid
    from repro.physics import perturbed_rest_state

    grid = LatLonGrid(nx=32, ny=32, nz=6)
    core = DynamicalCore(
        grid, algorithm="ca", nprocs=2, backend="process",
        params=ModelParameters(
            dt_adaptation=60.0, dt_advection=60.0, m_iterations=1
        ),
    )
    state0 = perturbed_rest_state(grid, amplitude_k=2.0)
    core.run(state0, 1)
    restart, result = RankContext.restart, RankContext.result

    def restarting(self):
        self.modules = set(sys.modules)
        restart(self)

    def reporting(self, w, out):
        grown = sorted(set(sys.modules) - self.modules)
        Path(sys.argv[1], str(os.getpid())).write_text(json.dumps(grown))
        return result(self, w, out)

    RankContext.restart, RankContext.result = restarting, reporting
    core.run(state0, 2)
    """
)


def test_ranks_import_nothing_on_the_clock(tmp_path):
    """Forked ranks inherit every module a step needs: after a core's
    first call, a rank's ``sys.modules`` does not grow across a command
    (the polar filter's ``numpy.fft`` used to be imported lazily there,
    once per rank per call)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run(
        [sys.executable, "-c", MODULES_SCRIPT, str(tmp_path)], env=env,
        timeout=120, check=True,
    )
    grown = [json.loads(p.read_text()) for p in tmp_path.iterdir()]
    assert grown == [[], []]  # one report per rank process
