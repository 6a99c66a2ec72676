"""Wall-clock benchmark harness: schema, IO and the regression gate."""
import json

import pytest

from repro.perf.wallclock import (
    MeshSpec,
    SCHEMA_VERSION,
    bench_serial,
    bench_transport_overhead,
    case_key,
    compare_reports,
    load_report,
    transport_overhead_violations,
    write_report,
)

MICRO = MeshSpec("micro", 16, 8, 3, nsteps=1)


def _report(cases):
    return {"schema_version": SCHEMA_VERSION, "quick": True,
            "bench_seed": 0, "machine": {}, "cases": cases}


def _case(steps_per_sec, kind="serial_step", mesh="small", **extra):
    return {"kind": kind, "mesh": mesh, "steps_per_sec": steps_per_sec,
            **extra}


class TestRegressionGate:
    def test_no_regression_within_tolerance(self):
        cur = _report([_case(9.0)])
        base = _report([_case(10.0)])
        assert compare_reports(cur, base, tolerance=0.2) == []

    def test_regression_beyond_tolerance_reported(self):
        cur = _report([_case(7.0)])
        base = _report([_case(10.0)])
        out = compare_reports(cur, base, tolerance=0.2)
        assert len(out) == 1 and "serial_step:small" in out[0]

    def test_speedup_never_flags(self):
        cur = _report([_case(20.0)])
        base = _report([_case(10.0)])
        assert compare_reports(cur, base) == []

    def test_unmatched_cases_ignored(self):
        cur = _report([_case(1.0, mesh="new-mesh")])
        base = _report([_case(10.0)])
        assert compare_reports(cur, base) == []

    def test_distributed_cases_keyed_by_algorithm(self):
        a = _case(5.0, kind="distributed_step", algorithm="ca", nprocs=2)
        b = _case(5.0, kind="distributed_step", algorithm="original-yz",
                  nprocs=2)
        assert case_key(a) != case_key(b)


class TestTransportOverheadGate:
    def _case(self, frac):
        return {"kind": "transport_overhead", "mesh": "small",
                "algorithm": "original-yz", "nprocs": 2,
                "logical_overhead_frac": frac}

    def test_within_limit_passes(self):
        report = _report([self._case(0.04)])
        assert transport_overhead_violations(report, limit=0.05) == []

    def test_over_limit_flagged(self):
        report = _report([self._case(0.12)])
        out = transport_overhead_violations(report, limit=0.05)
        assert len(out) == 1
        assert "transport_overhead:small" in out[0]
        assert "12.00%" in out[0]

    def test_other_kinds_ignored(self):
        report = _report([_case(10.0)])
        assert transport_overhead_violations(report) == []


class TestReportIO:
    def test_round_trip(self, tmp_path):
        report = _report([_case(10.0)])
        path = write_report(report, tmp_path / "BENCH_test.json")
        assert load_report(path) == report

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 999, "cases": []}))
        with pytest.raises(ValueError, match="schema"):
            load_report(path)


class TestExecutedBench:
    def test_serial_case_record(self):
        case = bench_serial(MICRO)
        assert case["kind"] == "serial_step"
        assert "seed_ms_per_step" not in case and "speedup" not in case
        assert case["ws_ms_per_step"] > 0
        assert case["steps_per_sec"] == pytest.approx(
            1e3 / case["ws_ms_per_step"]
        )
        assert case["allocations"]["reuses"] > 0

    def test_transport_overhead_case_is_free_of_logical_cost(self):
        """On a clean network the reliable transport must not move the
        simulated clocks at all — the overhead gate rides on this."""
        case = bench_transport_overhead(MICRO, nsteps=1)
        assert case["kind"] == "transport_overhead"
        assert case["plain_makespan"] > 0
        assert case["logical_overhead_frac"] == 0.0
        assert transport_overhead_violations(_report([case])) == []


def test_committed_baseline_is_loadable():
    """The regression gate's reference artifact stays valid."""
    from pathlib import Path

    base = (
        Path(__file__).resolve().parent.parent
        / "benchmarks" / "baseline" / "BENCH_baseline.json"
    )
    report = load_report(base)
    kinds = {c["kind"] for c in report["cases"]}
    assert {
        "serial_step", "kernels", "distributed_step", "parallel_scaling"
    } <= kinds
    # the seed column is gone (schema 2): one path, one number per case
    assert not any(
        "seed_ms_per_step" in c or "speedup" in c
        for c in report["cases"]
        if c["kind"] in ("serial_step", "distributed_step")
    )
    # the multicore claim is carried by the gated CA scaling case; the
    # gate itself only binds on hosts with the cores (see gate_enforced)
    gated = [
        c for c in report["cases"]
        if c["kind"] == "parallel_scaling" and c.get("gate_beats_serial")
    ]
    assert gated and gated[0]["algorithm"] == "ca"
    assert gated[0]["nprocs"] == 4 and gated[0]["mesh"] == "medium"
    assert gated[0]["cpu_count"] >= 1
