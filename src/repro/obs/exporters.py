"""Exporters: Chrome-trace/Perfetto JSON and JSONL event logs.

Two timelines coexist in this codebase: *wall-clock* spans recorded by
:class:`~repro.obs.spans.SpanTracer` from the executed integrators, and
*logical-clock* events recorded by the simulated cluster's
:class:`~repro.simmpi.trace.TraceRecorder`.  Both export to the Chrome
trace-event format (``chrome://tracing`` / https://ui.perfetto.dev), on
separate process lanes of one file, so the real execution and the
simulated schedule can be inspected side by side in the same viewer.

Spans absorbed from rank processes carry their OS pid, so a process-
backend run renders with one Chrome process row per real process, and
halo ``isend``/``irecv`` instant spans pair up as flow arrows between
rank lanes (matched by their transport-level ``link#seq`` flow key).

The JSONL exporter writes one JSON object per line (spans, telemetry
records, metric snapshots) — the grep-able event log for ad-hoc
analysis; :mod:`repro.obs.report` is the bundled reader for both
formats.  All file writers go through :func:`write_text_atomic`
(tmp + fsync + rename, the same discipline as :mod:`repro.state.io`)
so a crash mid-export never leaves a truncated artifact.
"""
from __future__ import annotations

import json
import zlib
from pathlib import Path

#: timestamp scale of the Chrome trace format (microseconds)
_US = 1e6

#: Chrome pid of the logical-clock lane; wall-clock process rows must
#: not collide with it
_LOGICAL_PID = 2


def write_text_atomic(path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (tmp + fsync + rename)."""
    from repro.state.io import atomic_write_bytes

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(path, text.encode(), checksum=False)
    return path


def _meta(pid: int, name: str) -> dict:
    return {
        "ph": "M", "pid": pid, "tid": 0,
        "name": "process_name", "args": {"name": name},
    }


def _flow_id(flow: str) -> int:
    """Deterministic numeric flow id shared by both ends of a message."""
    return zlib.crc32(flow.encode())


def span_events(
    spans, pid: int = 1, process_name: str = "wall-clock"
) -> list[dict]:
    """Chrome-trace events of wall-clock :class:`~repro.obs.spans.Span`.

    Process rows (``pid``): spans from the first OS process render as
    chrome pid ``pid`` (1 by default); spans absorbed from other OS
    processes (SPMD rank children) each get their own
    row, numbered past the logical-clock lane so the two exporters
    never collide.  Lanes (``tid``): the simulated rank for
    rank-labelled spans, with unlabelled (serial/driver) spans on a
    ``main`` lane.  Instant spans whose ``args`` carry a ``flow`` key
    are emitted as flow start/finish events (``ph`` ``s``/``f``) so the
    viewer draws arrows between matching isend/irecv pairs.
    """
    events = [_meta(pid, process_name)]
    pid_rows: dict[int, int] = {}
    next_row = max(pid, _LOGICAL_PID) + 1
    lanes: dict[tuple[int, int, int], int] = {}
    for s in spans:
        os_pid = getattr(s, "pid", 0)
        row = pid_rows.get(os_pid)
        if row is None:
            if not pid_rows:
                row = pid
            else:
                row = next_row
                next_row += 1
                events.append(
                    _meta(row, f"{process_name} pid {os_pid}")
                )
            pid_rows[os_pid] = row
        lane_key = (row, s.rank, s.tid if s.rank < 0 else 0)
        lane = lanes.get(lane_key)
        if lane is None:
            lane = s.rank if s.rank >= 0 else 1000 + len(lanes)
            lanes[lane_key] = lane
            events.append({
                "ph": "M", "pid": row, "tid": lane,
                "name": "thread_name",
                "args": {
                    "name": f"rank {s.rank}" if s.rank >= 0 else "main"
                },
            })
        args = {"depth": s.depth}
        if getattr(s, "span_id", 0):
            args["span_id"] = s.span_id
            args["parent_id"] = s.parent_id
        if getattr(s, "trace_id", ""):
            args["trace_id"] = s.trace_id
        if s.args:
            args.update(s.args)
        events.append({
            "ph": "X", "pid": row, "tid": lane,
            "name": s.name, "cat": s.cat,
            "ts": s.t_start * _US, "dur": s.duration * _US,
            "args": args,
        })
        flow = (s.args or {}).get("flow")
        if flow:
            events.append({
                "ph": "s" if s.name == "isend" else "f",
                **({} if s.name == "isend" else {"bp": "e"}),
                "pid": row, "tid": lane,
                "name": "msg", "cat": "comm",
                "ts": s.t_start * _US, "id": _flow_id(flow),
            })
    return events


def logical_events(
    recorders,
    pid: int = _LOGICAL_PID,
    process_name: str = "logical-clock",
    time_scale: float = _US,
) -> list[dict]:
    """Chrome-trace events of per-rank logical-clock ``TraceRecorder``s.

    Logical seconds map to trace microseconds one-to-one by default
    (``time_scale=1e6``), which keeps simulated timelines readable at
    the zoom levels the viewer starts at.
    """
    events = [_meta(pid, process_name)]
    for rec in recorders:
        events.append({
            "ph": "M", "pid": pid, "tid": rec.rank,
            "name": "thread_name", "args": {"name": f"rank {rec.rank}"},
        })
        for e in rec.events:
            events.append({
                "ph": "X", "pid": pid, "tid": rec.rank,
                "name": e.kind, "cat": e.phase or e.kind,
                "ts": e.t_start * time_scale,
                "dur": e.duration * time_scale,
                "args": {"detail": e.detail} if e.detail else {},
            })
    return events


def chrome_trace(spans=(), recorders=(), extra_events=()) -> dict:
    """Assemble one Chrome-trace document from any mix of sources."""
    events: list[dict] = []
    if spans:
        events.extend(span_events(spans))
    if recorders:
        events.extend(logical_events(recorders))
    events.extend(extra_events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, trace) -> Path:
    """Write a trace document (dict, or a bare event list) to ``path``."""
    if isinstance(trace, list):
        trace = {"traceEvents": trace, "displayTimeUnit": "ms"}
    return write_text_atomic(path, json.dumps(trace) + "\n")


def load_chrome_trace(path) -> dict:
    """Read a Chrome-trace JSON back (dict with a ``traceEvents`` list)."""
    doc = json.loads(Path(path).read_text())
    if isinstance(doc, list):  # bare-array form is legal Chrome trace
        doc = {"traceEvents": doc}
    if "traceEvents" not in doc:
        raise ValueError(f"{path}: not a Chrome trace (no traceEvents)")
    return doc


def duration_events(doc: dict) -> list[dict]:
    """The complete (``ph == "X"``) events of a loaded trace document."""
    return [e for e in doc["traceEvents"] if e.get("ph") == "X"]


# ---------------------------------------------------------------------------
# JSONL event log
# ---------------------------------------------------------------------------
def jsonl_records(spans=(), telemetry=(), metrics: dict | None = None):
    """Yield the JSONL records of one observation snapshot."""
    for s in spans:
        rec = {
            "type": "span", "name": s.name, "cat": s.cat,
            "t_start": s.t_start, "t_end": s.t_end,
            "rank": s.rank, "depth": s.depth,
        }
        if getattr(s, "span_id", 0):
            rec["trace_id"] = s.trace_id
            rec["span_id"] = s.span_id
            rec["parent_id"] = s.parent_id
            rec["pid"] = s.pid
        if getattr(s, "args", None):
            rec["args"] = s.args
        yield rec
    for r in telemetry:
        yield {"type": "telemetry", **r.as_dict()}
    if metrics:
        for name, family in metrics.items():
            for sample in family["samples"]:
                yield {
                    "type": "metric", "name": name,
                    "kind": family["kind"], **sample,
                }


def write_jsonl(path, records) -> Path:
    lines = [json.dumps(rec) for rec in records]
    text = "\n".join(lines) + ("\n" if lines else "")
    return write_text_atomic(path, text)


def read_jsonl(path) -> list[dict]:
    out = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            out.append(json.loads(line))
    return out
