"""Reliable transport: retransmission, breakers, sequence-gap detection."""
import numpy as np
import pytest

from repro.core.driver import DynamicalCore
from repro.simmpi import (
    CorruptedMessage,
    FaultPlan,
    LAPTOP_LIKE,
    LinkFault,
    LinkHealth,
    MessageLost,
    SpmdError,
    TransportConfig,
    run_spmd,
)
from repro.simmpi.transport import detection_delay

NR = 2
NROUNDS = 4
#: payload of the exchange program: 8 float64 = 64 B
NBYTES = 64


def exchange(comm):
    """Bidirectional ring exchange, NROUNDS rounds; returns payload sums."""
    out = []
    for i in range(NROUNDS):
        data = np.arange(8.0) + comm.rank + 10 * i
        comm.send((comm.rank + 1) % comm.size, data, tag=i)
        got = comm.recv((comm.rank - 1) % comm.size, tag=i)
        out.append(float(got.sum()))
    return out


def irecv_exchange(comm):
    """One explicit isend/irecv round — exercises Request.wait directly."""
    dest = (comm.rank + 1) % comm.size
    src = (comm.rank - 1) % comm.size
    req_out = comm.isend(dest, np.arange(8.0) + comm.rank, tag=3)
    req_in = comm.irecv(src, tag=3)
    got = req_in.wait()
    req_out.wait()
    return float(got.sum())


class TestConfigValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            TransportConfig(max_retransmits=-1)
        with pytest.raises(ValueError):
            TransportConfig(rto_base=-1e-6)
        with pytest.raises(ValueError):
            TransportConfig(rto_factor=0.5)
        with pytest.raises(ValueError):
            TransportConfig(breaker_threshold=0)

    def test_rto_backs_off_exponentially_and_caps(self):
        cfg = TransportConfig(rto_base=1e-3, rto_factor=2.0, rto_max=3e-3)
        rtos = [cfg.rto(LAPTOP_LIKE, NBYTES, k) for k in range(4)]
        assert rtos == [1e-3, 2e-3, 3e-3, 3e-3]

    def test_rto_default_derives_from_machine(self):
        cfg = TransportConfig()
        expected = 2.0 * LAPTOP_LIKE.alpha + LAPTOP_LIKE.beta * NBYTES
        assert cfg.rto(LAPTOP_LIKE, NBYTES, 0) == pytest.approx(expected)

    def test_corrupt_detection_costs_more_than_drop(self):
        cfg = TransportConfig()
        drop = detection_delay(cfg, LAPTOP_LIKE, "drop", NBYTES, 0)
        corrupt = detection_delay(cfg, LAPTOP_LIKE, "corrupt", NBYTES, 0)
        # a corrupt attempt travels the wire and is NACKed; a drop only
        # waits out the RTO
        assert corrupt > drop


class TestLinkHealth:
    def test_trips_exactly_at_threshold(self):
        h = LinkHealth()
        assert h.record_failure(3) is False
        assert h.record_failure(3) is False
        assert h.record_failure(3) is True  # the tripping failure
        assert h.open
        assert h.record_failure(3) is False  # already open: no re-trip

    def test_success_closes_and_resets(self):
        h = LinkHealth()
        for _ in range(3):
            h.record_failure(3)
        h.record_success()
        assert not h.open
        assert h.consecutive_failures == 0


class TestRetransmission:
    def test_fault_free_reliable_is_free(self):
        """With no faults the reliable transport is pure bookkeeping:
        clocks and results identical to the raw network."""
        raw = run_spmd(NR, exchange, transport=None)
        rel = run_spmd(NR, exchange, transport=TransportConfig())
        assert rel.clocks == raw.clocks
        assert rel.results == raw.results
        assert all(s.retransmits == 0 for s in rel.stats)

    @pytest.mark.parametrize("algorithm", ["original-yz", "ca"])
    def test_fault_free_core_run_is_free(
        self, algorithm, small_grid, one_iter_params, random_state
    ):
        """The same statement one level up, on everything a step sends:
        the logical clocks are deterministic, so the fault-free overhead
        of the reliable transport is not "small" but exactly zero."""
        diags = {}
        for label, transport in (("raw", None), ("reliable", TransportConfig())):
            core = DynamicalCore(
                small_grid, algorithm=algorithm, nprocs=NR,
                params=one_iter_params, transport=transport,
            )
            _, diags[label] = core.run(random_state, 2)
        assert diags["raw"].makespan > 0
        assert diags["reliable"].makespan == diags["raw"].makespan
        assert diags["reliable"].retransmits == 0

    def test_drop_healed_in_place(self):
        """A windowed drop is retransmitted inside the running program —
        no deadlock, identical data, only the clocks pay."""
        clean = run_spmd(NR, exchange, transport=TransportConfig())
        plan = FaultPlan(
            seed=0,
            link_faults=(LinkFault(drop_probability=1.0, t_end=1e-6),),
        )
        healed = run_spmd(
            NR, exchange, faults=plan, transport=TransportConfig()
        )
        assert healed.results == clean.results
        assert healed.makespan > clean.makespan
        assert healed.critical_stats().retransmits >= 1
        assert healed.critical_stats().retransmit_time > 0
        kinds = {e.kind for e in healed.fault_events()}
        assert "drop" in kinds  # injected, then absorbed

    def test_corrupt_healed_in_place_with_checksums(self):
        """Corruption is sender-detectable only when checksums are armed;
        the retransmitted copy arrives intact."""
        clean = run_spmd(NR, exchange, transport=TransportConfig())
        plan = FaultPlan(
            seed=0,
            link_faults=(LinkFault(corrupt_probability=1.0, t_end=1e-6),),
        )
        healed = run_spmd(
            NR, exchange, faults=plan, verify_checksums=True,
            transport=TransportConfig(),
        )
        assert healed.results == clean.results
        assert healed.critical_stats().retransmits >= 1
        kinds = {e.kind for e in healed.fault_events()}
        assert "corrupt" in kinds
        # the corrupted copies never reached a receiver
        assert "corruption-detected" not in kinds

    def test_corruption_not_retried_without_checksums(self):
        """Without checksums the sender cannot see a NACK: the transport
        must not retry, and the poison goes through (for the blowup/SDC
        gates upstream to catch)."""
        clean = run_spmd(NR, exchange, transport=TransportConfig())
        plan = FaultPlan(
            seed=0, link_faults=(LinkFault(corrupt_probability=1.0),)
        )
        poisoned = run_spmd(
            NR, exchange, faults=plan, transport=TransportConfig()
        )
        assert poisoned.results != clean.results
        assert all(s.retransmits == 0 for s in poisoned.stats)

    def test_each_retry_draws_a_fresh_fate(self):
        """A corrupted-then-retried message re-rolls its fate: with p=0.5
        persistent corruption and a generous retry budget, every message
        eventually lands intact.  If retries replayed the first draw, a
        corrupting link would corrupt forever and exhaust."""
        clean = run_spmd(NR, exchange, transport=TransportConfig())
        plan = FaultPlan(
            seed=11, link_faults=(LinkFault(corrupt_probability=0.5),)
        )
        healed = run_spmd(
            NR, exchange, faults=plan, verify_checksums=True,
            transport=TransportConfig(max_retransmits=16),
        )
        assert healed.results == clean.results
        assert healed.critical_stats().retransmits >= 1


class TestEscalation:
    def test_persistent_corruption_exhausts_to_receiver_checksum(self):
        """When the retry budget runs out the last corrupted copy is
        delivered and the receiver's checksum escalates — the rollback
        path of the resilience layer stays reachable."""
        plan = FaultPlan(
            seed=0,
            link_faults=(LinkFault(source=0, dest=1, corrupt_probability=1.0),),
        )
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                NR, exchange, faults=plan, verify_checksums=True,
                transport=TransportConfig(max_retransmits=2),
            )
        assert isinstance(exc_info.value.exceptions[1], CorruptedMessage)
        events = [e for s in exc_info.value.stats for e in s.fault_events]
        kinds = {e.kind for e in events}
        assert "retransmit-exhausted" in kinds
        assert "corruption-detected" in kinds
        # the sender burned its full budget on each send it got through
        # (two rounds before the receiver's abort): 2 retransmits apiece
        assert exc_info.value.stats[0].retransmits == 4

    def test_permanent_drop_detected_as_sequence_gap(self):
        """A message the transport gives up on stays lost; the next
        delivery on the stream exposes the gap as MessageLost instead of
        leaving the receiver to the deadlock timeout."""

        def lossy_then_ok(comm):
            if comm.rank == 0:
                comm.send(1, np.arange(8.0), tag=7)  # permanently lost
                comm.compute(1.0)  # leave the fault window
                comm.send(1, np.arange(8.0) + 1.0, tag=7)  # arrives, seq 1
                return None
            return comm.recv(0, tag=7)

        plan = FaultPlan(
            seed=0,
            link_faults=(LinkFault(
                source=0, dest=1, drop_probability=1.0, t_end=1e-3,
            ),),
        )
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                NR, lossy_then_ok, faults=plan,
                transport=TransportConfig(max_retransmits=1, rto_base=1e-6),
            )
        assert isinstance(exc_info.value.exceptions[1], MessageLost)
        assert exc_info.value.stats[1].messages_lost == 1
        kinds = {e.kind for e in exc_info.value.stats[0].fault_events}
        assert "retransmit-exhausted" in kinds
        kinds = {e.kind for e in exc_info.value.stats[1].fault_events}
        assert "message-lost" in kinds


class TestCircuitBreaker:
    def test_breaker_trips_and_fails_fast(self):
        """After ``breaker_threshold`` consecutive wire failures the link
        stops burning retries: later sends give up immediately."""

        def stubborn_sender(comm):
            if comm.rank == 0:
                for i in range(3):
                    comm.send(1, np.arange(8.0), tag=i)

        plan = FaultPlan(
            seed=0,
            link_faults=(LinkFault(source=0, dest=1, drop_probability=1.0),),
        )
        result = run_spmd(
            NR, stubborn_sender, faults=plan,
            transport=TransportConfig(
                max_retransmits=10, breaker_threshold=2, rto_base=1e-6,
            ),
        )
        s = result.stats[0]
        assert s.breaker_trips == 1
        # only the pre-trip attempt was retransmitted; the open breaker
        # made the two later sends give up without paying a single retry
        assert s.retransmits == 1
        kinds = [e.kind for e in s.fault_events]
        assert "breaker-open" in kinds
        assert kinds.count("retransmit-exhausted") == 3


class TestRequestWaitChecksumPath:
    def test_irecv_wait_detects_corruption_on_raw_network(self):
        """Request.wait verifies the payload checksum itself (the irecv
        path does not go through ``recv``)."""
        plan = FaultPlan(
            seed=0,
            link_faults=(LinkFault(source=0, dest=1, corrupt_probability=1.0),),
        )
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(
                NR, irecv_exchange, faults=plan, verify_checksums=True,
                transport=None,
            )
        assert isinstance(exc_info.value.exceptions[1], CorruptedMessage)
        events = [e for s in exc_info.value.stats for e in s.fault_events]
        assert "corruption-detected" in {e.kind for e in events}

    def test_irecv_wait_sees_healed_payload_under_transport(self):
        clean = run_spmd(NR, irecv_exchange, transport=TransportConfig())
        plan = FaultPlan(
            seed=0,
            link_faults=(LinkFault(corrupt_probability=1.0, t_end=1e-6),),
        )
        healed = run_spmd(
            NR, irecv_exchange, faults=plan, verify_checksums=True,
            transport=TransportConfig(),
        )
        assert healed.results == clean.results
        assert healed.critical_stats().retransmits >= 1


class TestInjectorReseeding:
    def test_begin_attempt_reseeds_per_attempt_streams(self):
        """Fault RNG streams are keyed (seed, attempt, rank): a new
        attempt re-rolls the fates, and replaying to the same attempt
        number reproduces them bit-for-bit."""
        plan = FaultPlan(
            seed=5, link_faults=(LinkFault(corrupt_probability=0.5),)
        )
        inj = plan.injector()
        inj.begin_attempt()
        draws1 = [inj.on_send(0, 1, NBYTES, 0.0)[0] for _ in range(24)]
        inj.begin_attempt()
        draws2 = [inj.on_send(0, 1, NBYTES, 0.0)[0] for _ in range(24)]
        # consecutive draws within one attempt mix outcomes: every wire
        # attempt (including a retransmit of a corrupted message) rolls
        # a fresh fate rather than replaying the previous verdict
        assert set(draws1) == {"deliver", "corrupt"}
        # a new attempt gets a different stream...
        assert draws1 != draws2
        # ...and the streams are reproducible by (seed, attempt, rank)
        replay = plan.injector()
        replay.begin_attempt()
        replay.begin_attempt()
        draws2b = [replay.on_send(0, 1, NBYTES, 0.0)[0] for _ in range(24)]
        assert draws2b == draws2


class TestSeededJitter:
    def test_jitter_unit_deterministic_and_bounded(self):
        from repro.simmpi.transport import jitter_unit

        draws = [jitter_unit(0, a, 0, 1, r)
                 for a in range(5) for r in range(5)]
        again = [jitter_unit(0, a, 0, 1, r)
                 for a in range(5) for r in range(5)]
        assert draws == again
        assert all(0.0 <= u < 1.0 for u in draws)
        # decorrelated across seed, link and retry
        assert jitter_unit(0, 1, 0, 1, 0) != jitter_unit(1, 1, 0, 1, 0)
        assert jitter_unit(0, 1, 0, 1, 0) != jitter_unit(0, 1, 1, 0, 0)
        assert jitter_unit(0, 1, 0, 1, 0) != jitter_unit(0, 1, 0, 1, 1)

    def test_rejects_bad_jitter(self):
        with pytest.raises(ValueError):
            TransportConfig(rto_jitter=-0.1)
        with pytest.raises(ValueError):
            TransportConfig(rto_jitter=1.5)

    def test_default_off_ignores_the_draw(self):
        cfg = TransportConfig(rto_base=1e-3)
        assert cfg.rto_jitter == 0.0
        assert cfg.rto(LAPTOP_LIKE, NBYTES, 1, u=0.0) == \
            cfg.rto(LAPTOP_LIKE, NBYTES, 1, u=0.999)

    def test_jitter_scales_around_the_deterministic_rto(self):
        base = TransportConfig(rto_base=1e-3, rto_factor=2.0)
        jit = TransportConfig(rto_base=1e-3, rto_factor=2.0,
                              rto_jitter=0.5)
        center = base.rto(LAPTOP_LIKE, NBYTES, 1)
        assert jit.rto(LAPTOP_LIKE, NBYTES, 1, u=0.5) == center
        lo = jit.rto(LAPTOP_LIKE, NBYTES, 1, u=0.0)
        hi = jit.rto(LAPTOP_LIKE, NBYTES, 1, u=0.999999)
        assert lo == pytest.approx(center * 0.75)
        assert hi < center * 1.25
        assert lo < center < hi

    def test_chaos_run_with_jitter_is_reproducible(self):
        """The jitter draw is threaded from the fault plan's seed: the
        same chaos run twice is bit-identical, clocks included."""
        plan = FaultPlan(
            seed=11,
            link_faults=(LinkFault(drop_probability=1.0, t_end=1e-6),),
        )
        cfg = TransportConfig(rto_jitter=0.4)
        a = run_spmd(NR, exchange, faults=plan, transport=cfg)
        b = run_spmd(NR, exchange, faults=plan, transport=cfg)
        assert a.clocks == b.clocks
        assert a.results == b.results
        assert a.critical_stats().retransmits >= 1

    def test_default_config_unchanged_by_jitter_feature(self):
        """rto_jitter=0 (the default) is bit-identical to the pre-jitter
        transport: chaos suites keep their exact clocks."""
        plan = FaultPlan(
            seed=0,
            link_faults=(LinkFault(drop_probability=1.0, t_end=1e-6),),
        )
        off = run_spmd(NR, exchange, faults=plan,
                       transport=TransportConfig())
        on = run_spmd(NR, exchange, faults=plan,
                      transport=TransportConfig(rto_jitter=0.0))
        assert off.clocks == on.clocks
        jittered = run_spmd(NR, exchange, faults=plan,
                            transport=TransportConfig(rto_jitter=0.9))
        assert jittered.results == off.results  # data identical; time not
