"""Point-to-point messaging of the simulated cluster."""
import numpy as np
import pytest

from repro.simmpi import MachineModel, run_spmd


class TestBasicMessaging:
    def test_send_recv_pair(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, np.arange(5.0), tag=3)
                return None
            return comm.recv(0, tag=3)

        res = run_spmd(2, prog)
        assert np.array_equal(res.results[1], np.arange(5.0))

    def test_payload_is_copied(self):
        def prog(comm):
            if comm.rank == 0:
                data = np.ones(4)
                comm.send(1, data)
                data[:] = -1.0  # must not affect the message
                return None
            return comm.recv(0)

        res = run_spmd(2, prog)
        assert np.all(res.results[1] == 1.0)

    def test_tag_matching_order(self):
        """Messages match by (source, tag), not arrival order."""
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, np.array([1.0]), tag=10)
                comm.send(1, np.array([2.0]), tag=20)
                return None
            second = comm.recv(0, tag=20)
            first = comm.recv(0, tag=10)
            return (float(first[0]), float(second[0]))

        res = run_spmd(2, prog)
        assert res.results[1] == (1.0, 2.0)

    def test_fifo_per_source_tag(self):
        def prog(comm):
            if comm.rank == 0:
                for i in range(5):
                    comm.send(1, np.array([float(i)]), tag=7)
                return None
            return [float(comm.recv(0, tag=7)[0]) for _ in range(5)]

        res = run_spmd(2, prog)
        assert res.results[1] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_sendrecv_ring(self):
        """The sendrecv pattern as buffered send + recv: every rank sends
        before it receives, and nothing deadlocks."""
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.send(right, np.array([float(comm.rank)]))
            return float(comm.recv(left)[0])

        res = run_spmd(4, prog)
        assert res.results == [3.0, 0.0, 1.0, 2.0]

    def test_nonblocking_overlap(self):
        def prog(comm):
            if comm.rank == 0:
                req = comm.irecv(1, tag=1)
                comm.compute(1.0)  # overlaps the message flight
                return float(req.wait()[0])
            comm.send(0, np.array([42.0]), tag=1)
            return None

        res = run_spmd(2, prog)
        assert res.results[0] == 42.0
        # the message (tiny) arrived during the 1 s compute: no extra wait
        assert res.stats[0].p2p_time == pytest.approx(0.0, abs=1e-4)


class TestAccounting:
    def test_message_counters(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(100))
            else:
                comm.recv(0)

        res = run_spmd(2, prog)
        assert res.stats[0].p2p_messages_sent == 1
        assert res.stats[0].p2p_bytes_sent == 800
        assert res.stats[1].p2p_messages_received == 1
        assert res.stats[1].p2p_bytes_received == 800

    def test_clock_advances_by_alpha_beta(self):
        machine = MachineModel(alpha=1e-3, beta=1e-6, seconds_per_point=0.0)

        def prog(comm):
            if comm.rank == 0:
                comm.send(1, np.zeros(1000))
            else:
                comm.recv(0)

        res = run_spmd(2, prog, machine=machine)
        # receiver waits until alpha + beta * 8000 bytes
        assert res.clocks[1] == pytest.approx(1e-3 + 8e-3)
        # buffered sender pays only alpha
        assert res.clocks[0] == pytest.approx(1e-3)

    def test_blocking_wait_counts_synchronization(self):
        machine = MachineModel(alpha=1e-3, beta=0.0)

        def prog(comm):
            if comm.rank == 0:
                comm.compute(0.5)
                comm.send(1, np.zeros(4))
            else:
                comm.recv(0)

        res = run_spmd(2, prog, machine=machine)
        assert res.stats[1].synchronizations == 1
        assert res.stats[1].p2p_time == pytest.approx(0.5 + 1e-3)


class TestDeadlock:
    def test_recv_without_send_times_out(self):
        def prog(comm):
            if comm.rank == 1:
                comm.recv(0, tag=99)

        with pytest.raises(Exception) as exc_info:
            run_spmd(2, prog, timeout=0.3)
        assert "timed out" in str(exc_info.value)


class TestDeterminism:
    def test_clocks_reproducible(self):
        def prog(comm):
            rng = np.random.default_rng(comm.rank)
            for _ in range(10):
                right = (comm.rank + 1) % comm.size
                left = (comm.rank - 1) % comm.size
                comm.compute(float(rng.random()) * 1e-3)
                comm.send(right, rng.random(64))
                comm.recv(left)
            return comm.clock

        r1 = run_spmd(4, prog)
        r2 = run_spmd(4, prog)
        assert r1.clocks == r2.clocks

