"""Fault-injection substrate: deterministic, typed, observable."""
import numpy as np
import pytest

from repro.simmpi import (
    CorruptedMessage,
    CrashSpec,
    DegradedWindow,
    FaultPlan,
    LinkFault,
    RankCrash,
    SpmdError,
    Straggler,
    run_spmd,
)

NR = 4


def ring_program(comm, nrounds=4):
    """Compute + ring p2p + allgather, every round."""
    data = np.arange(16.0) + comm.rank
    total = 0.0
    for i in range(nrounds):
        comm.compute(1e-3)
        comm.send((comm.rank + 1) % NR, data, tag=i)
        got = comm.recv((comm.rank - 1) % NR, tag=i)
        pieces = comm.allgather(np.array([got.sum()]))
        total += float(sum(p[0] for p in pieces))
    return total


class TestPlanValidation:
    def test_crash_spec_needs_a_trigger(self):
        with pytest.raises(ValueError):
            CrashSpec(rank=0)

    def test_link_fault_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            LinkFault(drop_probability=1.5)

    def test_link_fault_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            LinkFault(corrupt_probability=0.5, corrupt_mode="flip")

    def test_straggler_rejects_speedup(self):
        with pytest.raises(ValueError):
            Straggler(rank=0, slowdown=0.5)

    def test_describe_mentions_everything(self):
        plan = FaultPlan(
            seed=9,
            crashes=(CrashSpec(rank=0, at_call=1),),
            link_faults=(LinkFault(drop_probability=0.5),),
        )
        text = plan.describe()
        assert "seed=9" in text
        assert "1 crash(es)" in text
        assert "1 link fault(s)" in text


class TestDeterminism:
    def test_fixed_seed_runs_are_bit_identical(self):
        """Same plan, same seed -> same clocks, events and results."""
        plan = FaultPlan(
            seed=3,
            degraded=(DegradedWindow(0.0, 1e9, beta_factor=4.0),),
            stragglers=(Straggler(rank=1, slowdown=3.0),),
            link_faults=(LinkFault(corrupt_probability=0.3),),
        )
        a = run_spmd(NR, ring_program, faults=plan)
        b = run_spmd(NR, ring_program, faults=plan)
        assert a.clocks == b.clocks
        assert a.results == b.results
        ev = lambda r: [(e.rank, e.kind, e.t, e.detail) for e in r.fault_events()]
        assert ev(a) == ev(b)
        assert len(ev(a)) > 0

    def test_different_seed_changes_probabilistic_outcomes(self):
        mk = lambda seed: FaultPlan(
            seed=seed, link_faults=(LinkFault(corrupt_probability=0.5),)
        )
        a = run_spmd(NR, ring_program, faults=mk(1))
        b = run_spmd(NR, ring_program, faults=mk(2))
        kinds = lambda r: [(e.rank, e.kind) for e in r.fault_events()]
        # with 16 sends at p=0.5, identical outcomes are (1/2)^16 unlikely
        assert kinds(a) != kinds(b) or a.results != b.results


class TestCrashes:
    def test_crash_at_call_raises_rank_crash(self):
        plan = FaultPlan(crashes=(CrashSpec(rank=2, at_call=5),))
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(NR, ring_program, faults=plan)
        assert isinstance(exc_info.value.exceptions[2], RankCrash)
        assert exc_info.value.exceptions[2].rank == 2

    def test_crash_at_time(self):
        clean = run_spmd(NR, ring_program)
        plan = FaultPlan(
            crashes=(CrashSpec(rank=0, at_time=clean.makespan / 2),)
        )
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(NR, ring_program, faults=plan)
        assert isinstance(exc_info.value.exceptions[0], RankCrash)

    def test_crash_event_recorded_in_stats(self):
        plan = FaultPlan(crashes=(CrashSpec(rank=1, at_call=3),))
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(NR, ring_program, faults=plan)
        events = [e for s in exc_info.value.stats for e in s.fault_events]
        assert [(e.rank, e.kind) for e in events] == [(1, "crash")]

    def test_crashes_are_one_shot_per_injector(self):
        """A fired spec stays consumed: the retry through the same
        injector completes (the replaced-node model)."""
        plan = FaultPlan(crashes=(CrashSpec(rank=2, at_call=5),))
        injector = plan.injector()
        with pytest.raises(SpmdError):
            run_spmd(NR, ring_program, faults=injector)
        result = run_spmd(NR, ring_program, faults=injector)
        clean = run_spmd(NR, ring_program)
        assert result.results == clean.results

    def test_at_attempt_targets_a_later_launch(self):
        plan = FaultPlan(crashes=(CrashSpec(rank=0, at_attempt=2, at_call=1),))
        injector = plan.injector()
        run_spmd(NR, ring_program, faults=injector)  # attempt 1: clean
        with pytest.raises(SpmdError):
            run_spmd(NR, ring_program, faults=injector)  # attempt 2: crash


class TestLinkFaults:
    def test_dropped_message_deadlocks_receiver_with_diagnostics(self):
        plan = FaultPlan(
            link_faults=(LinkFault(source=0, dest=1, drop_probability=1.0),)
        )
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(NR, ring_program, faults=plan, timeout=1.0)
        assert "recv(source=0" in str(exc_info.value)
        events = [e for s in exc_info.value.stats for e in s.fault_events]
        assert any(e.kind == "drop" and e.rank == 0 for e in events)

    def test_corruption_detected_with_checksums(self):
        plan = FaultPlan(
            link_faults=(LinkFault(source=0, dest=1, corrupt_probability=1.0),)
        )
        with pytest.raises(SpmdError) as exc_info:
            run_spmd(NR, ring_program, faults=plan, verify_checksums=True)
        assert isinstance(exc_info.value.exceptions[1], CorruptedMessage)
        events = [e for s in exc_info.value.stats for e in s.fault_events]
        kinds = {e.kind for e in events}
        assert "corrupt" in kinds  # injected at the sender
        assert "corruption-detected" in kinds  # caught at the receiver

    def test_corruption_is_silent_without_checksums(self):
        plan = FaultPlan(
            link_faults=(LinkFault(source=0, dest=1, corrupt_probability=1.0),)
        )
        poisoned = run_spmd(NR, ring_program, faults=plan)
        clean = run_spmd(NR, ring_program)
        assert poisoned.results != clean.results

    def test_time_window_gates_the_fault(self):
        """A fault window entirely after the run never fires."""
        clean = run_spmd(NR, ring_program)
        plan = FaultPlan(
            link_faults=(LinkFault(
                drop_probability=1.0, t_start=clean.makespan * 10,
            ),)
        )
        result = run_spmd(NR, ring_program, faults=plan)
        assert result.results == clean.results
        assert result.fault_events() == []


class TestDegradationAndStragglers:
    def test_degraded_window_inflates_makespan(self):
        clean = run_spmd(NR, ring_program)
        plan = FaultPlan(
            degraded=(DegradedWindow(0.0, 1e9, alpha_factor=5.0,
                                     beta_factor=5.0),)
        )
        slow = run_spmd(NR, ring_program, faults=plan)
        assert slow.makespan > clean.makespan
        assert slow.results == clean.results  # values unaffected
        assert any(e.kind == "degrade" for e in slow.fault_events())

    def test_straggler_slows_only_its_rank(self):
        clean = run_spmd(NR, ring_program)
        plan = FaultPlan(stragglers=(Straggler(rank=2, slowdown=10.0),))
        slow = run_spmd(NR, ring_program, faults=plan)
        assert slow.makespan > clean.makespan
        assert slow.results == clean.results
        compute = lambda r, i: r.stats[i].compute_time
        assert compute(slow, 2) == pytest.approx(10.0 * compute(clean, 2))

    def test_faults_injected_counter(self):
        plan = FaultPlan(stragglers=(Straggler(rank=1, slowdown=2.0),))
        result = run_spmd(NR, ring_program, faults=plan)
        assert result.stats[1].faults_injected >= 1
        assert result.critical_stats().faults_injected >= 1


class TestTraceIntegration:
    def test_fault_events_appear_in_gantt(self):
        from repro.simmpi.trace import render_gantt

        plan = FaultPlan(stragglers=(Straggler(rank=1, slowdown=4.0),))
        result = run_spmd(NR, ring_program, faults=plan, trace=True)
        chart = render_gantt(result.traces)
        assert "X" in chart
        assert "X fault" in chart  # legend
