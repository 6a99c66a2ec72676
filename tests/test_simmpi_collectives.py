"""Collectives and sub-communicators of the simulated cluster."""
import numpy as np
import pytest

from repro.simmpi import MachineModel, run_spmd


class TestWorldCollectives:
    def test_allgather_ordered(self):
        def prog(comm):
            pieces = comm.allgather(np.array([float(comm.rank)]))
            return [float(p[0]) for p in pieces]

        res = run_spmd(4, prog)
        assert all(r == [0.0, 1.0, 2.0, 3.0] for r in res.results)

    def test_barrier_aligns_clocks(self):
        def prog(comm):
            comm.compute(0.1 * (comm.rank + 1))
            comm.barrier()
            return comm.clock

        res = run_spmd(3, prog)
        assert len(set(res.clocks)) == 1
        assert res.clocks[0] >= 0.3


class TestSubCommunicators:
    def test_split_groups(self):
        def prog(comm):
            mates = [r for r in range(comm.size) if r % 2 == comm.rank % 2]
            sub = comm.subcomm(mates)
            pieces = sub.allgather(np.array([float(comm.rank)]))
            return float(sum(p[0] for p in pieces))

        res = run_spmd(4, prog)
        assert res.results == [2.0, 4.0, 2.0, 4.0]

    def test_subcomm_rank_and_size(self):
        def prog(comm):
            sub = comm.subcomm([1, 2]) if comm.rank in (1, 2) else None
            return (sub.rank, sub.size) if sub else None

        res = run_spmd(3, prog)
        assert res.results[1] == (0, 2)
        assert res.results[2] == (1, 2)

    def test_subcomm_requires_membership(self):
        def prog(comm):
            if comm.rank == 0:
                comm.subcomm([1, 2])

        with pytest.raises(Exception):
            run_spmd(3, prog)

    def test_single_rank_group_free(self):
        def prog(comm):
            sub = comm.subcomm([comm.rank])
            (out,) = sub.allgather(np.array([5.0]))
            return float(out[0])

        res = run_spmd(2, prog)
        assert res.results == [5.0, 5.0]
        assert all(s.collective_ops == 0 for s in res.stats)


class TestCollectiveCosts:
    def test_allgather_ring_cost(self):
        machine = MachineModel(alpha=1e-3, beta=1e-8)

        def prog(comm):
            comm.allgather(np.zeros(1000))

        res = run_spmd(4, prog, machine=machine)
        n = 8000
        assert res.clocks[0] == pytest.approx(3 * (1e-3 + n * 1e-8))
        assert all(s.collective_ops == 1 for s in res.stats)
        assert all(s.collective_bytes == 3 * n for s in res.stats)
        assert all(s.synchronizations == 1 for s in res.stats)

    def test_collective_includes_straggler_wait(self):
        machine = MachineModel(alpha=0.0, beta=0.0)

        def prog(comm):
            comm.compute(1.0 if comm.rank == 0 else 0.0)
            comm.allgather(np.zeros(4))
            return comm.clock

        res = run_spmd(3, prog, machine=machine)
        assert all(c == pytest.approx(1.0) for c in res.clocks)
        # rank 1 and 2 waited the full second inside the collective
        assert res.stats[1].collective_time == pytest.approx(1.0)

