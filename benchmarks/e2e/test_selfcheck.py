"""Self-test of the benchmark's plumbing (not collected by tier-1):

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
from common import load_contract, summarize
from spans import Span, SpanRecorder, self_times

HERE = Path(__file__).resolve().parent
CONTRACT = load_contract()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_py(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_contract_names_and_units():
    metrics = CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    names = [w["name"] for w in CONTRACT["workloads"]]
    names += [m["name"] for m in metrics]
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_pass_emits_exactly_the_contract(tmp_path, trace):
    t0 = time.perf_counter()
    done = run_py("--smoke", "--trace", str(trace), "--out", str(tmp_path))
    assert time.perf_counter() - t0 < 30
    assert done.returncode == 0, done.stdout + done.stderr
    stem = "results_trace" if trace else "results"
    result = json.loads((tmp_path / f"{stem}.json").read_text())
    assert result["provenance"]["smoke"] is True
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in CONTRACT[key]}
    assert list(result["workloads"]) == [
        w["name"] for w in CONTRACT["workloads"]
    ]
    for name, entry in result["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, (name, entry["notes"])
        got = {k: m["unit"] for k, m in entry["metrics"].items()}
        assert got == want, name
        if trace:
            events = json.loads(
                (tmp_path / f"trace_{name}.json").read_text()
            )["traceEvents"]
            assert any(e["name"] == f"workload:{name}" for e in events)
    assert not list(tmp_path.glob("ckpt-*"))


def test_driver_line_and_smoke_rejected_by_compare(tmp_path):
    done = run_py("--workload", "serial", "--seed", "7", "--seconds", "1",
                  "--trace", "0", "--smoke", "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())
    path = str(tmp_path / "results_serial.json")
    refused = run_py("--compare", path, path)
    assert refused.returncode == 2 and "smoke" in refused.stderr


def test_span_self_time_arithmetic():
    spans = [
        Span(1, None, "root", "bench", "main", 0.0, 10.0),
        Span(2, 1, "a", "core", "main", 1.0, 4.0),
        # two ranks overlapping in time: their union covers [3, 8]
        Span(3, 1, "r0", "kernels", "rank0", 3.0, 7.0),
        Span(4, 1, "r1", "kernels", "rank1", 5.0, 8.0),
        Span(5, 3, "k", "kernels", "rank0", 3.5, 4.5),
        # a child outliving its parent is clipped to it
        Span(6, 2, "late", "core", "main", 3.5, 6.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 7.0)   # [1, 8] covered
    assert own[2] == pytest.approx(3.0 - 0.5)    # [3.5, 4] covered
    assert own[3] == pytest.approx(4.0 - 1.0)
    assert own[4] == pytest.approx(3.0)
    assert sum(own.values()) <= sum(s.duration for s in spans)


def test_recorder_nests_and_absorbs(tmp_path):
    rec = SpanRecorder("w")
    with rec.span("outer", "bench") as outer:
        with rec.span("inner", "core"):
            pass
    child = SpanRecorder("w", lane="rank0", id_base=1 << 32)
    with child.span("k", "kernels"):
        pass
    rec.absorb(child.spans, outer.id)
    by_name = {s.name: s for s in rec.spans}
    assert by_name["inner"].parent == outer.id
    assert by_name["k"].parent == outer.id and by_name["k"].lane == "rank0"
    assert len({s.id for s in rec.spans}) == 3
    rec.write_chrome_trace(tmp_path / "t.json")
    events = json.loads((tmp_path / "t.json").read_text())["traceEvents"]
    assert {e["name"] for e in events if e["ph"] == "X"} == {
        "outer", "inner", "k"}


def _set(step_ms: list[float], **prov) -> dict:
    provenance = {"fused_backend": "c", "nproc": 2, "seed": 1, **prov}
    return {
        "provenance": provenance,
        "workloads": {"serial": {"failed": 0, "metrics": {
            "step_ms": {"unit": "ms", **summarize(step_ms)}}}},
    }


def test_compare_verdicts():
    bound = next(
        m["bound"] for m in CONTRACT["end_to_end"] if m["name"] == "step_ms")
    tight = [100.0, 100.5, 99.5, 100.2, 99.8]
    row = lambda a, b: compare.compare_sets(a, b, CONTRACT)[0]  # noqa: E731
    same = row(_set(tight), _set([x * (1 + bound / 2) for x in tight]))
    assert same["verdict"] == compare.WITHIN
    worse = row(_set(tight), _set([x * (1 + 2 * bound) for x in tight]))
    assert worse["verdict"] == compare.REGRESSION
    assert worse["ratio"] == pytest.approx(1 + 2 * bound)
    better = row(_set(tight), _set([x / 2 for x in tight]))
    assert better["verdict"] == compare.WITHIN
    wide = [100.0 * (1 + k * bound) for k in (-2, -1, 0, 1, 2)]
    assert row(_set(tight), _set(wide))["verdict"] == compare.UNRESOLVED
    # a slowdown beyond both the bound and the spread is still a regression
    far = row(_set(tight), _set([x * 3 for x in wide]))
    assert far["verdict"] == compare.REGRESSION


def test_compare_refuses_mismatched_provenance():
    a = _set([1.0, 1.0])
    assert compare.refusal(a, _set([1.0, 1.0])) is None
    for key, other in (("fused_backend", "numpy"), ("nproc", 4), ("seed", 2)):
        assert key in compare.refusal(a, _set([1.0, 1.0], **{key: other}))
    assert "smoke" in compare.refusal(a, _set([1.0, 1.0], smoke=True))
