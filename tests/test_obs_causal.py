"""Causal tracing, profiling and the flight recorder (``repro.obs``).

Covers the cross-process observability layer end to end:

* trace-context plumbing: span/trace id minting, traceparent headers,
  thread-local context scoping, ``absorb``-time re-parenting;
* propagation through ``run_spmd`` on both backends — every rank span
  chains up to the launch span under one trace_id;
* the serve path: a process-executor job exports one causal tree
  (supervisor job span → worker attempt span → rank spans), and a
  watchdog-killed worker leaves flight-recorder dumps naming the kill;
* Prometheus text exposition edge cases: label escaping, NaN/Inf
  values, bucket cumulativity, exemplars, quantile interpolation;
* exporter round-trips of the new span fields, chrome pid rows and
  isend/irecv flow events;
* the sampling profiler (collapsed stacks, ``ObsConfig(profile=...)``);
* the flight recorder ring, SIGTERM dump-then-die, and the report CLI
  renderings (``--top``, flight summaries).
"""
import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.constants import ModelParameters
from repro.core.driver import DynamicalCore
from repro.grid.latlon import LatLonGrid
from repro.obs import ObsConfig
from repro.obs.exporters import (
    chrome_trace,
    jsonl_records,
    read_jsonl,
    write_jsonl,
    write_text_atomic,
)
from repro.obs.flightrec import FlightRecorder, load_dump
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profile import ProfileConfig, SamplingProfiler
from repro.obs.spans import (
    SpanTracer,
    current_trace_context,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    set_active,
    set_trace_context,
    trace_context,
    tracing,
)
from repro.physics import perturbed_rest_state
from repro.serve import JobServer, JobSpec

WAIT = 120.0


# ---------------------------------------------------------------------------
# trace context primitives
# ---------------------------------------------------------------------------
class TestTraceContext:
    def test_span_ids_unique_and_pid_scoped(self):
        ids = {new_span_id() for _ in range(1000)}
        assert len(ids) == 1000
        assert all(i >> 40 == os.getpid() for i in ids)

    def test_trace_ids_are_16_hex(self):
        tid = new_trace_id()
        assert len(tid) == 16 and int(tid, 16) >= 0
        assert tid != new_trace_id()

    def test_traceparent_round_trip(self):
        header = format_traceparent("ab" * 8, 12345)
        assert parse_traceparent(header) == ("ab" * 8, 12345)

    def test_traceparent_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_traceparent("not-a-header")

    def test_context_scoping_restores(self):
        assert current_trace_context() == ("", 0)
        prev = set_trace_context("f" * 16, 7)
        assert current_trace_context() == ("f" * 16, 7)
        set_trace_context(*prev)
        assert current_trace_context() == ("", 0)

    def test_context_manager_nests(self):
        with trace_context("a" * 16, 1):
            assert current_trace_context() == ("a" * 16, 1)
            with trace_context("b" * 16, 2):
                assert current_trace_context() == ("b" * 16, 2)
            assert current_trace_context() == ("a" * 16, 1)
        assert current_trace_context() == ("", 0)

    def test_context_is_thread_local(self):
        seen = {}

        def probe():
            seen["other"] = current_trace_context()

        with trace_context("c" * 16, 3):
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        assert seen["other"] == ("", 0)

    def test_spans_inherit_context_and_nest(self):
        with tracing() as tracer:
            with trace_context("d" * 16, 99):
                with tracer.span("outer", "t"):
                    with tracer.span("inner", "t"):
                        pass
        inner, outer = sorted(tracer.spans, key=lambda s: s.t_start,
                              reverse=True)[:2]
        assert outer.trace_id == inner.trace_id == "d" * 16
        assert outer.parent_id == 99
        assert inner.parent_id == outer.span_id
        assert outer.pid == inner.pid == os.getpid()

    def test_absorb_reparents_orphans(self):
        donor = SpanTracer()
        with donor.span("orphan", "t"):
            pass
        host = SpanTracer()
        host.absorb(donor.spans, trace_id="e" * 16, parent_id=424242)
        (s,) = host.spans
        assert s.trace_id == "e" * 16
        assert s.parent_id == 424242

    def test_absorb_keeps_existing_links(self):
        donor = SpanTracer()
        with trace_context("1" * 16, 5):
            with donor.span("child", "t"):
                pass
        host = SpanTracer()
        host.absorb(donor.spans, trace_id="2" * 16, parent_id=9)
        (s,) = host.spans
        assert s.trace_id == "1" * 16  # already set: not overwritten
        assert s.parent_id == 5


# ---------------------------------------------------------------------------
# propagation through run_spmd
# ---------------------------------------------------------------------------
def _rank_noop(comm, _cfg=None):
    from repro.obs.spans import active_tracer

    tr = active_tracer()
    if tr is not None:
        with tr.span("work", "test"):
            comm.barrier()
    else:
        comm.barrier()
    return comm.rank


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_spmd_ranks_share_one_causal_tree(backend):
    from repro.simmpi.launcher import run_spmd

    if backend == "process" and not hasattr(os, "fork"):
        pytest.skip("no fork")
    tracer = SpanTracer()
    prev = set_active(tracer)
    try:
        run_spmd(2, _rank_noop, backend=backend)
    finally:
        set_active(prev)
    spans = tracer.spans
    launch = [s for s in spans if s.name.startswith("spmd[")]
    assert len(launch) == 1
    work = [s for s in spans if s.name == "work"]
    assert {s.rank for s in work} == {0, 1}
    by_id = {s.span_id: s for s in spans}
    for w in work:
        assert w.trace_id == launch[0].trace_id
        cur = w
        while cur.parent_id and cur.parent_id in by_id:
            cur = by_id[cur.parent_id]
        assert cur.span_id == launch[0].span_id
    if backend == "process":
        assert len({s.pid for s in work}) == 2


# ---------------------------------------------------------------------------
# serve: one causal tree per job + post-mortem dumps
# ---------------------------------------------------------------------------
class TestServeCausal:
    def test_process_job_exports_single_tree_with_ranks(self, tmp_path):
        srv = JobServer(tmp_path / "cache", workers=1,
                        heartbeat_timeout=10.0)
        try:
            if srv.executor != "process":
                pytest.skip("process executor unavailable")
            spec = JobSpec(name="causal", nsteps=2, algorithm="ca",
                           ny=32, nprocs=2, backend="thread")
            res = srv.submit(spec).result(timeout=WAIT)
            assert res.ok
            spans = srv.tracer.spans
            jobs = [s for s in spans if s.name.startswith("job:")]
            assert len(jobs) == 1 and jobs[0].parent_id == 0
            trace = [s for s in spans if s.trace_id == jobs[0].trace_id]
            assert {s.rank for s in trace if s.rank >= 0} == {0, 1}
            assert any(s.name.startswith("attempt:") for s in trace)
            by_id = {s.span_id: s for s in trace}
            for s in trace:
                cur = s
                while cur.parent_id and cur.parent_id in by_id:
                    cur = by_id[cur.parent_id]
                assert cur.span_id == jobs[0].span_id, s.name
            assert len({s.pid for s in trace}) >= 2  # supervisor + worker
        finally:
            srv.close(drain=False, timeout=20.0)

    def test_wedge_leaves_flight_dump_naming_watchdog(self, tmp_path):
        srv = JobServer(tmp_path / "cache", workers=1,
                        heartbeat_timeout=1.5)
        try:
            if srv.executor != "process":
                pytest.skip("process executor unavailable")
            spec = JobSpec(name="wedge", nsteps=2,
                           chaos={"kind": "wedge", "attempts": [1]})
            res = srv.submit(spec).result(timeout=WAIT)
            assert res.ok and res.attempts >= 2
            dumps = sorted(srv.flight_dir.glob("*.json"))
            assert dumps, "no flight dumps written"
            docs = [load_dump(p) for p in dumps]
            reasons = [d["reason"] for d in docs]
            assert any("watchdog" in r for r in reasons), reasons
            # the supervisor-side record names job and attempt
            sup = next(d for d in docs if "watchdog" in d["reason"])
            assert sup["meta"]["kind"] == "watchdog-kill"
            assert sup["meta"]["trace_id"]
        finally:
            srv.close(drain=False, timeout=20.0)

    def test_job_latency_histogram_with_exemplar(self, tmp_path):
        srv = JobServer(tmp_path / "cache", workers=1,
                        heartbeat_timeout=10.0)
        try:
            res = srv.submit(JobSpec(name="h", nsteps=1)).result(
                timeout=WAIT)
            assert res.ok
            text = srv.metrics_text()
            assert "serve_job_latency_seconds_bucket" in text
            assert 'trace_id="' in text  # exemplar attached
        finally:
            srv.close(drain=False, timeout=20.0)


# ---------------------------------------------------------------------------
# Prometheus exposition edge cases
# ---------------------------------------------------------------------------
class TestPrometheusEdges:
    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("weird_total", path='a"b\\c\nd').inc(1)
        text = reg.to_prometheus_text()
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_nan_and_inf_values(self):
        reg = MetricsRegistry()
        reg.gauge("g_nan").set(float("nan"))
        reg.gauge("g_pinf", sign="p").set(float("inf"))
        reg.gauge("g_ninf", sign="n").set(float("-inf"))
        text = reg.to_prometheus_text()
        assert "g_nan NaN" in text
        assert 'g_pinf{sign="p"} +Inf' in text
        assert 'g_ninf{sign="n"} -Inf' in text

    def test_histogram_buckets_cumulative_and_exemplars(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0, 10.0))
        h.observe(0.05, trace_id="t1")
        h.observe(0.5, trace_id="t2")
        h.observe(5.0)
        h.observe(50.0, trace_id="t4")  # overflow bucket
        text = reg.to_prometheus_text()
        lines = [ln for ln in text.splitlines() if "lat_bucket" in ln]
        counts = [int(ln.split("#")[0].split()[-1]) for ln in lines]
        assert counts == sorted(counts), "buckets must be cumulative"
        assert counts[-1] == 4  # +Inf sees every observation
        assert 'le="+Inf"' in lines[-1]
        assert '# {trace_id="t1"} 0.05' in text
        assert '# {trace_id="t4"} 50' in text
        s = h.summary()
        assert s["count"] == 4
        assert s["sum"] == pytest.approx(55.55)
        assert 0.0 < s["p50"] <= 10.0
        assert s["p99"] >= s["p50"]

    def test_histogram_quantiles_empty_and_overflow(self):
        h = Histogram(buckets=(1.0, 2.0))
        assert math.isnan(h.quantile(0.5))
        h.observe(100.0)
        assert h.quantile(0.5) == 2.0  # clamped to last finite edge


# ---------------------------------------------------------------------------
# exporters: new span fields, pid rows, flow events
# ---------------------------------------------------------------------------
class TestExporterRoundTrip:
    def _traced_spans(self):
        tracer = SpanTracer()
        with trace_context(new_trace_id(), 0):
            with tracer.span("parent", "t", args={"k": "v"}):
                tracer.point("isend", "comm", args={"flow": "0>1t7#0"})
                tracer.point("irecv", "comm", args={"flow": "0>1t7#0"})
        return tracer

    def test_jsonl_round_trips_ids(self, tmp_path):
        tracer = self._traced_spans()
        path = tmp_path / "ev.jsonl"
        write_jsonl(path, jsonl_records(spans=tracer.spans))
        spans = [r for r in read_jsonl(path) if r["type"] == "span"]
        parent = next(s for s in spans if s["name"] == "parent")
        assert parent["trace_id"] and parent["span_id"] > 0
        assert parent["pid"] == os.getpid()
        assert parent["args"] == {"k": "v"}
        send = next(s for s in spans if s["name"] == "isend")
        assert send["parent_id"] == parent["span_id"]
        assert send["args"]["flow"] == "0>1t7#0"

    def test_chrome_trace_flow_events_pair_up(self):
        tracer = self._traced_spans()
        doc = chrome_trace(spans=tracer.spans)
        flows = [e for e in doc["traceEvents"] if e.get("ph") in ("s", "f")]
        assert len(flows) == 2
        start = next(e for e in flows if e["ph"] == "s")
        finish = next(e for e in flows if e["ph"] == "f")
        assert start["id"] == finish["id"]
        assert finish["bp"] == "e"

    def test_chrome_trace_pid_rows_per_process(self):
        tracer = SpanTracer()
        with tracer.span("local", "t"):
            pass
        import dataclasses

        foreign = [
            dataclasses.replace(s, pid=s.pid + 1, rank=0)
            for s in tracer.spans
        ]
        doc = chrome_trace(spans=tracer.spans + foreign)
        events = doc["traceEvents"]
        pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert len(pids) == 2
        names = {
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert any("wall-clock pid" in n for n in names)

    def test_write_text_atomic_no_tmp_left(self, tmp_path):
        target = tmp_path / "deep" / "out.txt"
        got = write_text_atomic(target, "hello")
        assert got == target and target.read_text() == "hello"
        assert list(target.parent.glob("*tmp*")) == []


# ---------------------------------------------------------------------------
# sampling profiler
# ---------------------------------------------------------------------------
class TestProfiler:
    def test_collects_samples_and_writes(self, tmp_path):
        out = tmp_path / "p.collapsed"
        with SamplingProfiler(hz=200.0, out=out) as prof:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.15:
                sum(range(500))
        assert prof.nsamples > 0
        path = prof.write()
        text = path.read_text()
        assert text
        for line in text.splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert stack.startswith(("main;", "rank "))

    def test_config_coercion(self):
        assert ProfileConfig.coerce(None) is None
        assert ProfileConfig.coerce(False) is None
        assert ProfileConfig.coerce(True).hz == ProfileConfig().hz
        assert ProfileConfig.coerce(50).hz == 50.0
        assert ProfileConfig.coerce("x.collapsed").out == "x.collapsed"
        cfg = ProfileConfig(hz=10)
        assert ProfileConfig.coerce(cfg) is cfg
        with pytest.raises(TypeError):
            ProfileConfig.coerce(object())
        with pytest.raises(ValueError):
            ProfileConfig(hz=0)

    def test_obs_config_profile_writes_flamegraph(self, tmp_path):
        out = tmp_path / "run.collapsed"
        grid = LatLonGrid(nx=16, ny=8, nz=4)
        core = DynamicalCore(
            grid, algorithm="serial",
            params=ModelParameters(m_iterations=1),
            observe=ObsConfig(profile=str(out)),
        )
        core.run(perturbed_rest_state(grid), nsteps=2)
        assert core.observation.profiler is not None
        assert not core.observation.profiler.running  # stopped with scope
        assert out.exists()

    def test_step_wall_histogram_recorded(self):
        grid = LatLonGrid(nx=16, ny=8, nz=4)
        core = DynamicalCore(
            grid, algorithm="serial",
            params=ModelParameters(m_iterations=1),
            observe=True,
        )
        core.run(perturbed_rest_state(grid), nsteps=3)
        text = core.observation.prometheus_text()
        assert "step_wall_seconds_count 3" in text


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_is_bounded(self, tmp_path):
        rec = FlightRecorder(tmp_path / "f.json", capacity=4)
        for i in range(10):
            rec.note("tick", i=i)
        assert len(rec.events) == 4
        assert [e["i"] for e in rec.events] == [6, 7, 8, 9]

    def test_dump_round_trip(self, tmp_path):
        rec = FlightRecorder(tmp_path / "f.json", meta={"worker": 3})
        rec.note("hello", x=1)
        path = rec.dump("test reason")
        doc = load_dump(path)
        assert doc["reason"] == "test reason"
        assert doc["meta"] == {"worker": 3}
        assert doc["pid"] == os.getpid()
        assert doc["events"][-1]["kind"] == "hello"

    def test_load_dump_rejects_non_flight(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"not": "a dump"}')
        with pytest.raises(ValueError):
            load_dump(p)

    def test_log_handler_mirrors_warnings(self, tmp_path):
        import logging

        rec = FlightRecorder(tmp_path / "f.json")
        handler = rec.attach_log_handler()
        try:
            logging.getLogger("flight.test").warning("trouble %d", 7)
        finally:
            logging.getLogger().removeHandler(handler)
        kinds = [e["kind"] for e in rec.events]
        assert "log" in kinds
        assert any("trouble 7" in str(e) for e in rec.events)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_sigterm_dumps_then_dies(self, tmp_path):
        out = tmp_path / "term.json"
        pid = os.fork()
        if pid == 0:  # child
            try:
                from repro.obs import flightrec

                flightrec.install(out, meta={"role": "victim"})
                flightrec.note("working", step=1)
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(10)
            finally:
                os._exit(99)  # only reached if the handler didn't re-raise
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status)
        assert os.WTERMSIG(status) == signal.SIGTERM
        doc = load_dump(out)
        assert doc["reason"] == "signal SIGTERM"
        assert doc["events"][-1]["kind"] == "working"


# ---------------------------------------------------------------------------
# report CLI
# ---------------------------------------------------------------------------
class TestReportCli:
    def test_top_table_lists_slowest(self, tmp_path, capsys):
        from repro.obs.exporters import write_chrome_trace
        from repro.obs.report import main

        tracer = SpanTracer()
        with tracer.span("slowest", "t"):
            time.sleep(0.02)
        with tracer.span("fast", "t"):
            pass
        path = tmp_path / "t.json"
        write_chrome_trace(path, chrome_trace(spans=tracer.spans))
        assert main([str(path), "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "top 1 slowest spans" in out
        assert "slowest" in out

    def test_flight_dump_auto_detected(self, tmp_path, capsys):
        from repro.obs.report import main

        rec = FlightRecorder(tmp_path / "f.json", meta={"worker": 1})
        rec.note("last-breath", job=9)
        rec.dump("watchdog kill: no heartbeat")
        assert main([str(tmp_path / "f.json")]) == 0
        out = capsys.readouterr().out
        assert "watchdog kill" in out
        assert "last-breath" in out


def test_numpy_is_available_marker():
    """Guard: this suite assumes the baked-in numeric stack."""
    assert np.zeros(1).size == 1 and sys.version_info >= (3, 11)
