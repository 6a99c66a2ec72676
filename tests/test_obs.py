"""The unified observability layer: spans, metrics, telemetry, exporters.

The crown-jewel assertion lives in ``TestDriverIntegration``: with
observation on, the executed communication-avoiding core records exactly
2 halo-exchange spans per step per rank against the original Y-Z
program's 13 (+1 initial refresh) — the paper's Table 1 claim, read off
the wall-clock trace of the real run.
"""
import numpy as np
import pytest

from repro.core.driver import DynamicalCore
from repro.grid.latlon import LatLonGrid
from repro.obs.config import ObsConfig, Observation
from repro.obs.metrics import (
    MetricsRegistry,
    absorb_workspace_counters,
)
from repro.obs.spans import (
    NULL_SPAN,
    active_tracer,
    current_rank,
    set_active,
    set_rank,
    span,
    traced,
    tracing,
)
from repro.obs.telemetry import (
    TelemetryRecord,
    TelemetrySeries,
    block_partials,
    combine_partials,
    record_for_state,
)
from repro.state.variables import ModelState


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing globally disabled."""
    prev = set_active(None)
    yield
    set_active(prev)


def _random_state(grid, seed=7, amplitude=1.0):
    return ModelState.random(
        (grid.nz, grid.ny, grid.nx), np.random.default_rng(seed), amplitude
    )


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
class TestSpans:
    def test_disabled_span_is_shared_null(self):
        assert span("anything") is NULL_SPAN
        with span("anything", "cat"):
            pass  # must be a harmless no-op

    def test_tracing_scope_records_and_restores(self):
        assert active_tracer() is None
        with tracing() as t:
            assert active_tracer() is t
            with span("outer", "a"):
                with span("inner", "b"):
                    pass
        assert active_tracer() is None
        names = [(s.name, s.cat, s.depth) for s in t.spans]
        assert names == [("outer", "a", 0), ("inner", "b", 1)]

    def test_nesting_order_and_times(self):
        with tracing() as t:
            with span("outer"):
                with span("inner"):
                    pass
        outer = next(s for s in t.spans if s.name == "outer")
        inner = next(s for s in t.spans if s.name == "inner")
        assert outer.t_start <= inner.t_start
        assert inner.t_end <= outer.t_end
        assert outer.duration >= inner.duration >= 0.0

    def test_count_and_durations(self):
        with tracing() as t:
            for _ in range(3):
                with span("x", "k"):
                    pass
            with span("y", "k"):
                pass
        assert t.count("x") == 3
        assert t.count(cat="k") == 4
        assert t.count("x", "other") == 0
        assert len(t.durations("x")) == 3
        assert t.total_duration("x") == pytest.approx(
            sum(t.durations("x"))
        )

    def test_traced_decorator(self):
        @traced("fn-span", "deco")
        def add(a, b):
            return a + b

        assert add(2, 3) == 5  # disabled: plain call
        with tracing() as t:
            assert add(2, 3) == 5
        assert t.count("fn-span", "deco") == 1
        assert add.__name__ == "add"

    def test_rank_labels_are_thread_local(self):
        assert current_rank() == -1
        prev = set_rank(5)
        try:
            assert current_rank() == 5
            with tracing() as t:
                with span("labelled"):
                    pass
            assert t.spans[0].rank == 5
        finally:
            set_rank(prev)
        assert current_rank() == -1

    def test_spans_merge_across_threads(self):
        import threading

        with tracing() as t:
            def work(r):
                prev = set_rank(r)
                try:
                    with span("w"):
                        pass
                finally:
                    set_rank(prev)

            threads = [
                threading.Thread(target=work, args=(r,)) for r in range(3)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        assert sorted(s.rank for s in t.spans) == [0, 1, 2]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_accumulates_and_rejects_negative(self):
        reg = MetricsRegistry()
        c = reg.counter("events_total", "things that happened", rank="0")
        c.inc()
        c.inc(4)
        assert reg.counter("events_total", rank="0").value == 5.0
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.counter("n_total", rank="0").inc(1)
        reg.counter("n_total", rank="1").inc(2)
        d = reg.as_dict()["n_total"]
        assert [s["value"] for s in d["samples"]] == [1.0, 2.0]

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError):
            reg.gauge("thing")

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 100.0):
            h.observe(v)
        assert h.cumulative() == [(0.1, 1), (1.0, 3), (10.0, 4)]
        assert h.count == 5
        assert h.sum == pytest.approx(106.05)

    def test_absorb_workspace_counters(self):
        reg = MetricsRegistry()
        counters = {"fresh_allocations": 10, "reuses": 90,
                    "pooled_bytes": 4096}
        absorb_workspace_counters(reg, counters, rank=3)
        absorb_workspace_counters(reg, counters, rank=3)  # chunked run
        assert reg.counter(
            "workspace_reuses_total", rank="3"
        ).value == 180.0
        # gauge: set wins, no accumulation
        assert reg.gauge(
            "workspace_pooled_bytes", rank="3"
        ).value == 4096.0


# ---------------------------------------------------------------------------
# telemetry
# ---------------------------------------------------------------------------
class TestTelemetry:
    def test_serial_record_matches_energy_budget(self):
        from repro.analysis.energy import energy_budget, global_mean_psa
        from repro.grid.sigma import SigmaLevels

        grid = LatLonGrid(12, 16, 6)
        sigma = SigmaLevels.uniform(grid.nz)
        state = _random_state(grid)
        rec = record_for_state(1, state, grid, sigma)
        budget = energy_budget(state, grid, sigma)
        assert rec.energy == pytest.approx(budget.total, rel=1e-12)
        assert rec.kinetic == pytest.approx(budget.kinetic, rel=1e-12)
        assert rec.mass == pytest.approx(
            global_mean_psa(state, grid), rel=1e-12
        )
        assert rec.finite

    def test_distributed_partials_match_serial(self):
        from repro.grid.decomposition import yz_decomposition
        from repro.grid.sigma import SigmaLevels

        grid = LatLonGrid(12, 16, 8)
        sigma = SigmaLevels.uniform(grid.nz)
        state = _random_state(grid)
        serial = record_for_state(3, state, grid, sigma)
        dec = yz_decomposition(grid.nx, grid.ny, grid.nz, 4)  # py*pz blocks
        partials = []
        for r in range(dec.nranks):
            ext = dec.extent(r)
            block = ModelState(
                U=state.U[ext.slices3d()].copy(),
                V=state.V[ext.slices3d()].copy(),
                Phi=state.Phi[ext.slices3d()].copy(),
                psa=state.psa[ext.slices2d()].copy(),
            )
            partials.append(block_partials(block, grid, sigma, extent=ext))
        combined = combine_partials(3, partials, grid)
        assert combined.mass == pytest.approx(serial.mass, rel=1e-12)
        assert combined.energy == pytest.approx(serial.energy, rel=1e-12)
        assert combined.surface_potential == pytest.approx(
            serial.surface_potential, rel=1e-12
        )
        assert combined.max_wind == pytest.approx(serial.max_wind)
        assert combined.max_abs == serial.max_abs

    def test_nonfinite_sentinel(self):
        from repro.grid.sigma import SigmaLevels

        grid = LatLonGrid(8, 8, 4)
        sigma = SigmaLevels.uniform(grid.nz)
        state = _random_state(grid)
        state.U[0, 0, 0] = np.nan
        rec = record_for_state(2, state, grid, sigma)
        assert not rec.finite

    def test_series_first_nonfinite_and_summary(self):
        series = TelemetrySeries()
        assert series.summary() == "telemetry: (empty)"
        assert series.first_nonfinite_step() is None

        def rec(step, finite=True):
            return TelemetryRecord(
                step=step, mass=0.0, energy=1.0, kinetic=1.0,
                available_potential=0.0, surface_potential=0.0,
                max_wind=1.0, max_abs=1.0, finite=finite,
            )

        series.extend([rec(1), rec(2, finite=False), rec(3, finite=False)])
        assert series.steps() == [1, 2, 3]
        assert series.first_nonfinite_step() == 2
        assert "NON-FINITE fields first seen at step 2" in series.summary()
        assert len(series.column("energy")) == 3


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------
class TestExporters:
    def test_chrome_trace_round_trip_spans(self, tmp_path):
        from repro.obs.exporters import (
            duration_events,
            load_chrome_trace,
            write_chrome_trace,
        )

        with tracing() as t:
            with span("a", "x"):
                with span("b", "y"):
                    pass
        doc = Observation(config=ObsConfig(), tracer=t).chrome_trace()
        path = write_chrome_trace(tmp_path / "t.json", doc)
        back = load_chrome_trace(path)
        xs = duration_events(back)
        assert {e["name"] for e in xs} == {"a", "b"}
        assert all(e["dur"] >= 0 for e in xs)

    def test_jsonl_round_trip(self, tmp_path):
        from repro.grid.sigma import SigmaLevels
        from repro.obs.exporters import (
            jsonl_records,
            read_jsonl,
            write_jsonl,
        )

        grid = LatLonGrid(8, 8, 4)
        sigma = SigmaLevels.uniform(grid.nz)
        rec = record_for_state(1, _random_state(grid), grid, sigma)
        reg = MetricsRegistry()
        reg.counter("c_total", rank="0").inc(2)
        with tracing() as t:
            with span("s", "k"):
                pass
        path = write_jsonl(
            tmp_path / "e.jsonl",
            jsonl_records(
                spans=t.spans, telemetry=[rec], metrics=reg.as_dict()
            ),
        )
        records = read_jsonl(path)
        kinds = sorted(r["type"] for r in records)
        assert kinds == ["metric", "span", "telemetry"]
        telem = next(r for r in records if r["type"] == "telemetry")
        assert telem["energy"] == pytest.approx(rec.energy)

    def test_obs_config_coercion(self):
        assert ObsConfig.coerce(None) is None
        assert ObsConfig.coerce(False) is None
        assert isinstance(ObsConfig.coerce(True), ObsConfig)
        cfg = ObsConfig(telemetry=False)
        assert ObsConfig.coerce(cfg) is cfg
        with pytest.raises(TypeError):
            ObsConfig.coerce("yes")


# ---------------------------------------------------------------------------
# driver integration: the paper's exchange counts on the executed core
# ---------------------------------------------------------------------------
class TestDriverIntegration:
    NSTEPS = 2
    NPROCS = 2

    def _grid(self):
        # CA needs ny/p_y > 3M + 2 (gy = 11), hence the tall mesh
        return LatLonGrid(16, 24, 8)

    def test_observe_off_by_default(self):
        core = DynamicalCore(self._grid(), algorithm="serial")
        core.run(_random_state(self._grid()), 1)
        assert core.observation is None

    def test_serial_observed_run(self):
        grid = self._grid()
        core = DynamicalCore(grid, algorithm="serial", observe=True)
        core.run(_random_state(grid), self.NSTEPS)
        obs = core.observation
        assert obs.tracer.count("step", "step") == self.NSTEPS
        assert obs.tracer.count("C", "tendency") > 0
        assert obs.telemetry.steps() == list(range(1, self.NSTEPS + 1))
        assert "workspace_reuses_total" in obs.registry.as_dict()
        # global tracer restored after the run
        assert active_tracer() is None

    def test_original_yz_halo_exchanges_per_step(self):
        grid = self._grid()
        core = DynamicalCore(
            grid, algorithm="original-yz", nprocs=self.NPROCS, observe=True
        )
        core.run(_random_state(grid), self.NSTEPS)
        obs = core.observation
        n = obs.tracer.count("halo-exchange", "comm")
        # 13 per step per rank + 1 initial refresh per rank (Table 1)
        assert n == (13 * self.NSTEPS + 1) * self.NPROCS
        assert {s.rank for s in obs.spans if s.name == "halo-exchange"} == {
            0, 1,
        }

    def test_ca_two_exchanges_per_step(self):
        grid = self._grid()
        core = DynamicalCore(
            grid, algorithm="ca", nprocs=self.NPROCS, observe=True
        )
        core.run(_random_state(grid), self.NSTEPS)
        obs = core.observation
        n = obs.tracer.count("halo-exchange", "comm")
        assert n == 2 * self.NSTEPS * self.NPROCS
        # the fused final smoothing exchange: once per run per rank
        assert obs.tracer.count("smoothing-exchange") == self.NPROCS
        assert obs.telemetry.steps() == list(range(1, self.NSTEPS + 1))

    def test_distributed_telemetry_matches_serial(self):
        grid = self._grid()
        state0 = _random_state(grid)
        dist = DynamicalCore(
            grid, algorithm="original-yz", nprocs=self.NPROCS, observe=True
        )
        dist.run(state0, self.NSTEPS)
        ser = DynamicalCore(grid, algorithm="serial", observe=True)
        ser.run(state0, self.NSTEPS)
        for rd, rs in zip(
            dist.observation.telemetry.records,
            ser.observation.telemetry.records,
        ):
            assert rd.step == rs.step
            assert rd.energy == pytest.approx(rs.energy, rel=1e-9)
            assert rd.mass == pytest.approx(rs.mass, rel=1e-9, abs=1e-15)

    def test_output_files_written(self, tmp_path):
        grid = self._grid()
        core = DynamicalCore(
            grid, algorithm="original-yz", nprocs=self.NPROCS,
            observe=ObsConfig(
                chrome_trace=tmp_path / "trace.json",
                jsonl=tmp_path / "events.jsonl",
            ),
        )
        core.run(_random_state(grid), 1)
        from repro.obs.exporters import (
            duration_events,
            load_chrome_trace,
            read_jsonl,
        )

        doc = load_chrome_trace(tmp_path / "trace.json")
        xs = duration_events(doc)
        # wall-clock spans AND logical-clock events: two process lanes
        assert {e["pid"] for e in xs} == {1, 2}
        records = read_jsonl(tmp_path / "events.jsonl")
        assert {r["type"] for r in records} == {
            "span", "telemetry", "metric",
        }

    def test_observation_accumulates_across_runs(self):
        grid = self._grid()
        core = DynamicalCore(grid, algorithm="serial", observe=True)
        s0 = _random_state(grid)
        core.run(s0, 1)
        core.run(s0, 1)
        assert core.observation.tracer.count("step") == 2

    def test_metrics_cover_comm_counters(self):
        grid = self._grid()
        core = DynamicalCore(
            grid, algorithm="original-yz", nprocs=self.NPROCS, observe=True
        )
        _, diag = core.run(_random_state(grid), 1)
        reg = core.observation.registry
        total_sent = sum(
            reg.counter("simmpi_p2p_messages_sent_total", rank=str(r)).value
            for r in range(self.NPROCS)
        )
        assert total_sent == diag.p2p_messages


# ---------------------------------------------------------------------------
# resilience integration
# ---------------------------------------------------------------------------
class TestResilientObservation:
    def test_rollback_discards_staged_telemetry(self, tmp_path):
        from repro.core.resilience import ResilienceConfig
        from repro.simmpi.faults import CrashSpec, FaultPlan

        grid = LatLonGrid(16, 24, 8)
        state0 = _random_state(grid)
        plan = FaultPlan(
            seed=3, crashes=(CrashSpec(rank=1, at_call=5, at_attempt=1),)
        )
        core = DynamicalCore(
            grid, algorithm="original-yz", nprocs=2, observe=True
        )
        rcfg = ResilienceConfig(
            checkpoint_dir=tmp_path, checkpoint_interval=2, faults=plan
        )
        final, _, report = core.run_resilient(state0, 4, rcfg)
        obs = core.observation
        assert report.nrestarts == 1
        # the failed attempt left no duplicate/partial records behind
        assert obs.telemetry.steps() == [1, 2, 3, 4]
        assert obs.tracer.count("chunk", "resilience") == 3  # 2 ok + 1 retry
        ref, _ = DynamicalCore(
            grid, algorithm="original-yz", nprocs=2
        ).run(state0, 4)
        assert np.array_equal(final.U, ref.U)

    def test_blowup_guard_reads_staged_telemetry(self):
        from repro.core.resilience import ResilienceConfig, _blowup_detail

        grid = LatLonGrid(8, 8, 4)
        healthy = _random_state(grid)

        class StubCore:
            _staged_telemetry = [
                TelemetryRecord(
                    step=7, mass=0.0, energy=1.0, kinetic=1.0,
                    available_potential=0.0, surface_potential=0.0,
                    max_wind=1.0, max_abs=1.0, finite=False,
                )
            ]

        rcfg = ResilienceConfig(checkpoint_dir="unused")
        detail = _blowup_detail(StubCore(), healthy, rcfg)
        assert detail is not None and "step 7" in detail

        StubCore._staged_telemetry = []
        assert _blowup_detail(StubCore(), healthy, rcfg) is None

    def test_blowup_guard_threshold_from_telemetry(self):
        from repro.core.resilience import ResilienceConfig, _blowup_detail

        grid = LatLonGrid(8, 8, 4)
        healthy = _random_state(grid)

        class StubCore:
            _staged_telemetry = [
                TelemetryRecord(
                    step=2, mass=0.0, energy=1.0, kinetic=1.0,
                    available_potential=0.0, surface_potential=0.0,
                    max_wind=1.0, max_abs=5e9, finite=True,
                )
            ]

        rcfg = ResilienceConfig(
            checkpoint_dir="unused", blowup_threshold=1e8
        )
        detail = _blowup_detail(StubCore(), healthy, rcfg)
        assert detail is not None and "step 2" in detail


# ---------------------------------------------------------------------------
# report CLI
# ---------------------------------------------------------------------------
class TestReportCli:
    def _observed_outputs(self, tmp_path):
        grid = LatLonGrid(16, 24, 8)
        core = DynamicalCore(
            grid, algorithm="ca", nprocs=2,
            observe=ObsConfig(
                chrome_trace=tmp_path / "trace.json",
                jsonl=tmp_path / "events.jsonl",
            ),
        )
        core.run(_random_state(grid), 2)
        return tmp_path / "trace.json", tmp_path / "events.jsonl"

    def test_report_chrome_counts_exchanges(self, tmp_path, capsys):
        from repro.obs.report import main

        chrome, _ = self._observed_outputs(tmp_path)
        assert main([str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "Chrome trace" in out
        assert "halo exchanges per step: 2" in out

    def test_report_jsonl_shows_telemetry(self, tmp_path, capsys):
        from repro.obs.report import main

        _, jsonl = self._observed_outputs(tmp_path)
        assert main([str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "JSONL log" in out
        assert "telemetry steps 1..2" in out

    def test_report_missing_file_errors(self):
        from repro.obs.report import main

        with pytest.raises(SystemExit):
            main(["/nonexistent/path.json"])
