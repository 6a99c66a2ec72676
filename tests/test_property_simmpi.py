"""Property-based tests: the simulated cluster's determinism and the
max-plus clock algebra under randomized communication patterns."""
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.simmpi import MachineModel, run_spmd


@settings(max_examples=15, deadline=None)
@given(
    nranks=st.integers(2, 5),
    seed=st.integers(0, 1000),
    rounds=st.integers(1, 5),
)
def test_random_ring_traffic_deterministic(nranks, seed, rounds):
    """Clocks and payloads are identical across repeated runs."""

    def prog(comm):
        rng = np.random.default_rng(seed + comm.rank)
        acc = 0.0
        for _ in range(rounds):
            comm.compute(float(rng.random()) * 1e-4)
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(right, rng.random(8))
            got = comm.recv(left)
            acc += float(got.sum())
        return acc

    r1 = run_spmd(nranks, prog)
    r2 = run_spmd(nranks, prog)
    assert r1.clocks == r2.clocks
    assert r1.results == r2.results


@settings(max_examples=15, deadline=None)
@given(
    nranks=st.integers(2, 5),
    compute=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
)
def test_barrier_clock_is_max(nranks, compute):
    """After a barrier every clock equals the slowest rank's arrival."""
    machine = MachineModel(alpha=0.0, beta=0.0)

    def prog(comm):
        comm.compute(compute[comm.rank % len(compute)])
        comm.barrier()
        return comm.clock

    res = run_spmd(nranks, prog, machine=machine)
    expected = max(compute[r % len(compute)] for r in range(nranks))
    assert all(c == res.clocks[0] for c in res.clocks)
    assert res.clocks[0] >= expected - 1e-12


@settings(max_examples=10, deadline=None)
@given(nranks=st.integers(2, 4), nmsg=st.integers(1, 10))
def test_message_conservation(nranks, nmsg):
    """Total messages sent == total received; bytes likewise."""

    def prog(comm):
        for m in range(nmsg):
            dest = (comm.rank + 1 + m) % comm.size
            if dest != comm.rank:
                comm.send(dest, np.zeros(m + 1), tag=m)
        for m in range(nmsg):
            src = (comm.rank - 1 - m) % comm.size
            if src != comm.rank:
                comm.recv(src, tag=m)

    res = run_spmd(nranks, prog)
    sent = sum(s.p2p_messages_sent for s in res.stats)
    recv = sum(s.p2p_messages_received for s in res.stats)
    assert sent == recv
    assert sum(s.p2p_bytes_sent for s in res.stats) == sum(
        s.p2p_bytes_received for s in res.stats
    )
