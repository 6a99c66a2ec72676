"""Event tracing of the simulated cluster."""
import numpy as np
import pytest

from repro.simmpi import MachineModel, run_spmd
from repro.simmpi.trace import busy_fraction, merge_timeline, render_gantt


class TestTracing:
    def test_trace_off_by_default(self):
        res = run_spmd(2, lambda comm: comm.compute(0.1))
        assert res.traces is None

    def test_compute_events_recorded(self):
        def prog(comm):
            comm.compute(0.5, phase="stencil")
            comm.compute(0.25)

        res = run_spmd(2, prog, trace=True)
        events = res.traces[0].events
        assert len(events) == 2
        assert events[0].kind == "compute"
        assert events[0].duration == pytest.approx(0.5)
        assert events[0].phase == "stencil"
        assert events[1].t_start == pytest.approx(0.5)

    def test_wait_events_recorded(self):
        machine = MachineModel(alpha=0.0, beta=0.0)

        def prog(comm):
            if comm.rank == 0:
                comm.compute(1.0)
                comm.send(1, np.zeros(4))
            else:
                comm.recv(0)

        res = run_spmd(2, prog, machine=machine, trace=True)
        waits = [e for e in res.traces[1].events if e.kind == "recv_wait"]
        assert len(waits) == 1
        assert waits[0].duration == pytest.approx(1.0)

    def test_collective_events_recorded(self):
        def prog(comm):
            comm.compute(0.1 * comm.rank)
            comm.allgather(np.zeros(8))

        res = run_spmd(3, prog, trace=True)
        colls = [e for e in res.traces[0].events if e.kind == "collective"]
        assert len(colls) == 1
        assert "allgather" in colls[0].detail

    def test_merge_timeline_ordered(self):
        def prog(comm):
            comm.compute(0.1 * (comm.rank + 1))
            comm.barrier()

        res = run_spmd(3, prog, trace=True)
        events = merge_timeline(res.traces)
        starts = [e.t_start for e in events]
        assert starts == sorted(starts)

    def test_busy_fraction(self):
        machine = MachineModel(alpha=0.0, beta=0.0)

        def prog(comm):
            if comm.rank == 0:
                comm.compute(1.0)
                comm.send(1, np.zeros(4))
            else:
                comm.recv(0)

        res = run_spmd(2, prog, machine=machine, trace=True)
        assert busy_fraction(res.traces[0], "compute") == pytest.approx(1.0)
        assert busy_fraction(res.traces[1], "recv_wait") == pytest.approx(1.0)

    def test_gantt_renders(self):
        def prog(comm):
            comm.compute(0.2 if comm.rank else 0.6)
            comm.barrier()

        res = run_spmd(2, prog, trace=True)
        text = render_gantt(res.traces, width=40)
        assert "rank   0" in text
        assert "#" in text and "=" in text

    def test_gantt_empty(self):
        res = run_spmd(2, lambda comm: None, trace=True)
        assert render_gantt(res.traces) == "(empty trace)"


class TestTraceEdgeCases:
    def test_busy_fraction_empty_recorder(self):
        from repro.simmpi.trace import TraceRecorder

        assert busy_fraction(TraceRecorder(0)) == 0.0
        assert busy_fraction(TraceRecorder(0), "recv_wait") == 0.0

    def test_busy_fraction_zero_duration_events(self):
        from repro.simmpi.trace import TraceRecorder

        rec = TraceRecorder(0)
        rec.record("compute", 0.0, 0.0)
        rec.record("collective", 0.0, 0.0)
        assert busy_fraction(rec, "compute") == 0.0

    def test_gantt_zero_duration_events_only(self):
        from repro.simmpi.trace import TraceRecorder

        rec = TraceRecorder(0)
        rec.record("compute", 0.0, 0.0)
        assert render_gantt([rec]) == "(empty trace)"

    def test_gantt_zero_duration_span_amid_real_work(self):
        from repro.simmpi.trace import TraceRecorder

        rec = TraceRecorder(0)
        rec.record("compute", 0.0, 1.0)
        rec.record("collective", 0.5, 0.5)  # zero-duration, mid-timeline
        text = render_gantt([rec], width=10)
        assert "rank   0" in text and "#" in text

    def test_merge_timeline_empty(self):
        from repro.simmpi.trace import TraceRecorder

        assert merge_timeline([TraceRecorder(0), TraceRecorder(1)]) == []

    def test_chrome_trace_round_trip(self, tmp_path):
        from repro.obs.exporters import (
            duration_events,
            load_chrome_trace,
            logical_events,
            write_chrome_trace,
        )

        def prog(comm):
            comm.compute(0.5, phase="stencil")
            comm.allgather(np.zeros(4))

        res = run_spmd(2, prog, trace=True)
        events = logical_events(res.traces)
        path = write_chrome_trace(tmp_path / "t.json", events)
        doc = load_chrome_trace(path)
        xs = duration_events(doc)
        originals = [e for rec in res.traces for e in rec.events]
        assert len(xs) == len(originals)
        assert {e["name"] for e in xs} == {e.kind for e in originals}
        # logical seconds → trace microseconds, per-rank lanes preserved
        comp = next(e for e in xs if e["name"] == "compute")
        assert comp["dur"] == pytest.approx(0.5e6)
        assert {e["tid"] for e in xs} == {0, 1}

    def test_chrome_trace_rejects_non_trace(self, tmp_path):
        from repro.obs.exporters import load_chrome_trace

        p = tmp_path / "nope.json"
        p.write_text('{"foo": 1}')
        with pytest.raises(ValueError):
            load_chrome_trace(p)

