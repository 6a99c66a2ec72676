"""Direct unit tests of the machine-model cost formulas."""

import pytest

from repro.simmpi.machine import LAPTOP_LIKE, MachineModel, TIANHE2_LIKE


@pytest.fixture
def m():
    return MachineModel(alpha=1e-5, beta=2e-9)


class TestPointToPoint:
    def test_alpha_beta(self, m):
        assert m.p2p_time(0) == pytest.approx(1e-5)
        assert m.p2p_time(10**6) == pytest.approx(1e-5 + 2e-3)


class TestCollectiveFormulas:
    def test_single_rank_free(self, m):
        assert m.allgather_time(1, 1000) == 0.0
        assert m.barrier_time(1) == 0.0

    def test_tree_costs_log_scaling(self, m):
        # doubling q within a power-of-two adds exactly one alpha round
        t8 = m.barrier_time(8)
        t16 = m.barrier_time(16)
        assert t16 - t8 == pytest.approx(1e-5)

    def test_allgather_linear_in_q(self, m):
        assert m.allgather_time(9, 100) == pytest.approx(
            8 * (1e-5 + 100 * 2e-9)
        )

    def test_barrier_dissemination(self, m):
        assert m.barrier_time(8) == pytest.approx(3 * 1e-5)
        assert m.barrier_time(9) == pytest.approx(4 * 1e-5)


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
            assert preset.allgather_time(4, 1000) > 0

    def test_frozen(self, m):
        with pytest.raises(Exception):
            m.alpha = 2.0  # type: ignore[misc]

