"""The shared-memory process backend: bit-identical numerics and clean
failure semantics vs the thread backend.

The correctness bar of the process backend is exact equality: the same
seeded run must produce byte-for-byte identical trajectories, logical
clocks and per-rank communication statistics on both backends, for both
rank programs.  Failure semantics must match too — a crashing rank
process surfaces as :class:`SpmdError`, never as a hang.
"""
import os

import numpy as np
import pytest

from repro.constants import ModelParameters
from repro.core import DynamicalCore
from repro.grid import LatLonGrid
from repro.physics import perturbed_rest_state
from repro.simmpi import BACKENDS, CrashSpec, FaultPlan, SpmdError, run_spmd

#: M=1 keeps the CA halo requirement at gy=5, so 4 ranks fit small grids
PARAMS = ModelParameters(dt_adaptation=60.0, dt_advection=60.0, m_iterations=1)

#: (algorithm, grid) pairs feasible at both 2 and 4 ranks under PARAMS
CONFIGS = [
    ("original-yz", dict(nx=32, ny=16, nz=8)),
    ("ca", dict(nx=32, ny=32, nz=6)),
]


def _run(algorithm, grid_kw, nprocs, backend, nsteps=2):
    grid = LatLonGrid(**grid_kw)
    core = DynamicalCore(
        grid, algorithm=algorithm, nprocs=nprocs,
        params=PARAMS, backend=backend,
    )
    state, diag = core.run(perturbed_rest_state(grid, amplitude_k=2.0), nsteps)
    return state, diag


class TestBitIdentical:
    @pytest.mark.parametrize("algorithm,grid_kw", CONFIGS,
                             ids=[c[0] for c in CONFIGS])
    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_trajectories_equal(self, algorithm, grid_kw, nprocs):
        st, dt = _run(algorithm, grid_kw, nprocs, "thread")
        sp, dp = _run(algorithm, grid_kw, nprocs, "process")
        for field in ("U", "V", "Phi", "psa"):
            a, b = getattr(st, field), getattr(sp, field)
            assert np.array_equal(a, b), field
        assert dt.makespan == dp.makespan
        assert dt.exchanges == dp.exchanges
        assert dt.p2p_messages == dp.p2p_messages
        assert dt.p2p_bytes == dp.p2p_bytes

    def test_exchange_count_invariant(self):
        """CA does 2 exchanges/step vs the original's many on both backends.

        (At the paper's M=3 the original does 13; PARAMS uses M=1 to fit
        small grids, where it does 8 — the CA count is M-independent.)
        """
        for backend in BACKENDS:
            _, d_orig = _run("original-yz", CONFIGS[0][1], 2, backend, nsteps=1)
            _, d_ca = _run("ca", CONFIGS[1][1], 2, backend, nsteps=1)
            assert d_orig.exchanges == 8
            assert d_ca.exchanges == 2


class TestCollectives:
    def test_collectives_and_clocks_match(self):
        def program(comm):
            x = np.full(3, float(comm.rank + 1))
            stacked = comm.allgather(x)
            gathered = comm.allgather(np.array([float(comm.rank)]))
            comm.barrier()
            comm.compute(1e-4)
            return sum(s.sum() for s in stacked) + sum(g.sum() for g in gathered)

        rt = run_spmd(4, program, backend="thread")
        rp = run_spmd(4, program, backend="process")
        assert rt.results == rp.results
        assert rt.clocks == rp.clocks
        for a, b in zip(rt.stats, rp.stats):
            assert a.collective_ops == b.collective_ops
            assert a.collective_time == b.collective_time


class TestSmallRings:
    def test_streams_messages_larger_than_ring(self):
        """Payloads beyond the per-link ring capacity stream in chunks."""
        def program(comm):
            payload = np.arange(65536, dtype=np.float64) + comm.rank
            peer = 1 - comm.rank
            # both ranks bulk-send first: exercises the writer-drains-own-
            # incoming path that keeps mutual sends deadlock-free
            comm.send(peer, payload, tag=7)
            got = comm.recv(peer, tag=7)
            return float(got[0])

        res = run_spmd(2, program, backend="process", shm_link_bytes=4096)
        assert res.results == [1.0, 0.0]


class TestFailureSemantics:
    def test_raising_rank_surfaces_spmd_error(self):
        def program(comm):
            if comm.rank == 1:
                raise ValueError("deliberate failure")
            comm.recv(1, tag=0)  # never arrives; abort must wake this

        with pytest.raises(SpmdError) as ei:
            run_spmd(2, program, backend="process", timeout=10.0)
        assert 1 in ei.value.failures
        assert isinstance(ei.value.exceptions[1], ValueError)

    def test_dying_process_surfaces_spmd_error(self):
        """A rank that exits without reporting (os._exit) must not hang."""
        def program(comm):
            if comm.rank == 1:
                os._exit(3)
            comm.recv(1, tag=0)

        with pytest.raises(SpmdError) as ei:
            run_spmd(2, program, backend="process", timeout=10.0)
        assert isinstance(ei.value.exceptions[1], ChildProcessError)

    def test_fault_injection_rejected(self):
        """Injected faults rely on in-process delivery: thread only."""
        plan = FaultPlan(crashes=(CrashSpec(rank=0, at_time=0.0),))
        with pytest.raises(ValueError, match="thread"):
            run_spmd(2, lambda comm: None, backend="process", faults=plan)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            run_spmd(2, lambda comm: None, backend="fibers")


class TestObsMerge:
    def test_span_counts_match_thread_backend(self):
        from repro.obs.spans import tracing

        grid = LatLonGrid(**CONFIGS[1][1])
        counts = {}
        for backend in BACKENDS:
            with tracing() as tracer:
                core = DynamicalCore(
                    grid, algorithm="ca", nprocs=2,
                    params=PARAMS, backend=backend,
                )
                core.run(perturbed_rest_state(grid, amplitude_k=2.0), 2)
                counts[backend] = tracer.count("halo-exchange")
                ranks = {s.rank for s in tracer.spans
                         if s.name == "halo-exchange"}
                assert ranks == {0, 1}, backend
        # 2 exchanges/step x 2 steps x 2 ranks on both backends
        assert counts["thread"] == counts["process"] == 8


def _wedge_rank(comm):
    """Rank 1 wedges forever without touching the network."""
    import time

    if comm.rank == 1:
        time.sleep(3600.0)
    return comm.rank


def _stubborn_child():
    """Ignores SIGTERM: only SIGKILL can reap it."""
    import signal
    import time

    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(3600.0)


class TestJoinWatchdog:
    def test_wedged_child_surfaces_as_spmd_error_within_deadline(self):
        """A child that hangs outside the communication layer (so the
        simulated network's deadlock timeout never sees it) must still
        surface as SpmdError once the hard join watchdog expires — a
        wedged child never hangs the launcher."""
        import time

        t0 = time.monotonic()
        with pytest.raises(SpmdError, match="still running"):
            run_spmd(
                2, _wedge_rank, backend="process",
                timeout=1.0, join_grace=1.0,
            )
        assert time.monotonic() - t0 < 30.0

    def test_reap_escalates_to_sigkill(self):
        import multiprocessing
        import time

        from repro.simmpi.launcher import reap_processes

        ctx = multiprocessing.get_context("fork")
        p = ctx.Process(target=_stubborn_child, daemon=True)
        p.start()
        time.sleep(0.3)  # let the child install its SIGTERM handler
        killed = reap_processes(
            [p], join_timeout=0.1, term_timeout=0.5, kill_timeout=10.0
        )
        assert not p.is_alive()
        assert p.pid in killed
