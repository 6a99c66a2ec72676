"""Direct unit tests of the machine-model cost formulas."""

import pytest

from repro.simmpi.machine import LAPTOP_LIKE, MachineModel, TIANHE2_LIKE


@pytest.fixture
def m():
    return MachineModel(alpha=1e-5, beta=2e-9, gamma=1e-9)


class TestPointToPoint:
    def test_alpha_beta(self, m):
        assert m.p2p_time(0) == pytest.approx(1e-5)
        assert m.p2p_time(10**6) == pytest.approx(1e-5 + 2e-3)


class TestCollectiveFormulas:
    def test_single_rank_free(self, m):
        for f in (
            m.allreduce_time, m.reduce_time, m.bcast_time,
            m.allgather_time, m.alltoall_time, m.scan_time,
        ):
            assert f(1, 1000) == 0.0
        assert m.barrier_time(1) == 0.0

    def test_ring_allreduce_formula(self, m):
        q, n = 8, 8000
        expected = 2 * 7 * 1e-5 + 2 * 7 / 8 * n * 2e-9 + 7 / 8 * n * 1e-9
        assert m.allreduce_time(q, n) == pytest.approx(expected)

    def test_tree_costs_log_scaling(self, m):
        # doubling q within a power-of-two adds exactly one alpha round
        t8 = m.bcast_time(8, 0)
        t16 = m.bcast_time(16, 0)
        assert t16 - t8 == pytest.approx(1e-5)

    def test_allgather_linear_in_q(self, m):
        assert m.allgather_time(9, 100) == pytest.approx(
            8 * (1e-5 + 100 * 2e-9)
        )

    def test_barrier_dissemination(self, m):
        assert m.barrier_time(8) == pytest.approx(3 * 1e-5)
        assert m.barrier_time(9) == pytest.approx(4 * 1e-5)

    def test_scan_includes_gamma(self, m):
        n = 1000
        assert m.scan_time(3, n) == pytest.approx(
            2 * (1e-5 + n * (2e-9 + 1e-9))
        )


class TestValidation:
    def test_negative_parameters_rejected(self):
        for name in ("alpha", "beta", "round_overhead", "sync_base"):
            with pytest.raises(ValueError):
                MachineModel(**{name: -1e-9})

    def test_sync_overhead_grows(self):
        assert TIANHE2_LIKE.sync_overhead(1024) > TIANHE2_LIKE.sync_overhead(128)

    def test_presets_valid(self):
        for preset in (TIANHE2_LIKE, LAPTOP_LIKE):
            assert preset.alpha > 0
            assert preset.allreduce_time(4, 1000) > 0

    def test_frozen(self, m):
        with pytest.raises(Exception):
            m.alpha = 2.0  # type: ignore[misc]


class TestCrossover:
    def test_crossover_trivial_for_two_ranks(self, m):
        assert m.allreduce_crossover_bytes(2) == 0.0

    def test_crossover_positive_for_larger_groups(self, m):
        x = m.allreduce_crossover_bytes(16)
        assert 0 < x < float("inf")

    def test_crossover_grows_with_latency(self):
        lo = MachineModel(alpha=1e-6, beta=1e-9, gamma=0.0)
        hi = MachineModel(alpha=1e-4, beta=1e-9, gamma=0.0)
        assert (
            hi.allreduce_crossover_bytes(8) > lo.allreduce_crossover_bytes(8)
        )
