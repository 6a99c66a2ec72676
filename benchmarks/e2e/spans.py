"""The benchmark's own in-memory span recorder.

Spans wrap the calls the benchmark makes into each layer's public
functions; nothing inside ``src/`` is instrumented.  A span is
``(id, parent, name, layer, lane, start, end)`` with times from
``time.perf_counter`` — ``CLOCK_MONOTONIC`` on Linux, shared by forked rank
processes, so spans recorded inside a rank land on the parent's timeline
unchanged.  Spans stay in memory until the pass ends and are then dumped
as one Chrome trace (``chrome://tracing`` / https://ui.perfetto.dev).

A span's *self time* is its duration minus the part of that interval its
child spans cover (children on different lanes may overlap each other, so
the cover is the union of their intervals, clipped to the parent).
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    lane: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans of one process; rank processes get their own and the
    launching process :meth:`absorb`s what they return."""

    def __init__(self, workload: str, lane: str = "main", id_base: int = 0):
        self.workload = workload
        self.lane = lane
        self.spans: list[Span] = []
        self._next_id = id_base + 1
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._open[-1].id if self._open else None
        s = Span(self._next_id, parent, name, layer, self.lane,
                 time.perf_counter())
        self._next_id += 1
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            self.spans.append(s)

    def absorb(self, spans: list[Span], parent: int | None) -> None:
        """Adopt spans recorded in another process under ``parent``."""
        for s in spans:
            if s.parent is None:
                s.parent = parent
            self.spans.append(s)

    def durations(self, name: str, lane: str | None = None) -> list[float]:
        """Seconds of every closed span called ``name`` (on ``lane``)."""
        return [
            s.duration for s in self.spans
            if s.name == name and (lane is None or s.lane == lane)
        ]

    def median_ms(self, name: str, lane: str | None = None) -> float:
        return statistics.median(self.durations(name, lane)) * 1e3

    def span_cost(self, n: int = 20000) -> float:
        """Seconds one empty span costs (measured on a throwaway recorder)."""
        probe = SpanRecorder(self.workload)
        t0 = time.perf_counter()
        for _ in range(n):
            with probe.span("empty", "bench"):
                pass
        return (time.perf_counter() - t0) / n

    def write_chrome_trace(self, path: Path) -> None:
        own = self_times(self.spans)
        lanes = {lane: i for i, lane in enumerate(
            dict.fromkeys(s.lane for s in self.spans))}
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": lane},
            }
            for lane, tid in lanes.items()
        ]
        for s in sorted(self.spans, key=lambda s: s.start):
            events.append({
                "name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
                "tid": lanes[s.lane],
                "ts": (s.start - t0) * 1e6, "dur": s.duration * 1e6,
                "args": {
                    "id": s.id, "parent": s.parent,
                    "workload": self.workload,
                    "self_us": own[s.id] * 1e6,
                },
            })
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> seconds not covered by any child span."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = s.duration - covered
    return out
