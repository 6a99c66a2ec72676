"""``python -m repro.obs.report`` — summarise exported observations.

Reads a Chrome-trace JSON (as written by
``Observation.write_chrome_trace`` / ``--chrome-trace``), a JSONL event
log (``Observation.write_jsonl``), or a flight-recorder dump
(:mod:`repro.obs.flightrec`) and prints a span-count/duration breakdown
— plus, for JSONL, the physics-telemetry trajectory, and for flight
dumps, the last events before death.  Format is auto-detected from the
file contents; ``--top N`` adds a table of the N slowest individual
spans for quick triage without opening a trace viewer.
"""
from __future__ import annotations

import argparse
import json
from collections import defaultdict
from pathlib import Path


def _detect_format(path: Path) -> str:
    """``"chrome"``, ``"jsonl"`` or ``"flight"``, sniffed from the file."""
    first = ""
    with path.open() as fh:
        for line in fh:
            if line.strip():
                first = line.strip()
                break
    if not first:
        return "jsonl"
    try:
        rec = json.loads(first)
    except json.JSONDecodeError:
        # single multi-line JSON document: chrome trace or flight dump
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError:
            return "chrome"
        if isinstance(doc, dict) and "flight_schema" in doc:
            return "flight"
        return "chrome"
    if isinstance(rec, dict) and "flight_schema" in rec:
        return "flight"
    if isinstance(rec, dict) and rec.get("type") in (
        "span", "telemetry", "metric"
    ):
        return "jsonl"
    return "chrome"


def _top_table(spans: list[dict], top: int) -> list[str]:
    """The ``top`` slowest individual spans, one line each.

    ``spans`` are dicts with name/cat/dur (seconds) plus optional
    rank/trace_id — the summarisers normalise both chrome events and
    JSONL records into this shape.
    """
    ranked = sorted(spans, key=lambda s: -s.get("dur", 0.0))[:top]
    lines = [
        f"  top {len(ranked)} slowest spans:",
        f"    {'dur_ms':>10} {'name':<24} {'cat':<12} {'rank':>4}  trace_id",
    ]
    for s in ranked:
        rank = s.get("rank")
        lines.append(
            f"    {1e3 * s.get('dur', 0.0):>10.3f} "
            f"{s.get('name', '?'):<24} {s.get('cat', '?'):<12} "
            f"{rank if rank is not None else '-':>4}  "
            f"{s.get('trace_id') or '-'}"
        )
    return lines


def _span_table(rows: dict[tuple[str, str], list[float]]) -> list[str]:
    lines = [
        f"  {'name':<24} {'cat':<12} {'count':>6} "
        f"{'total_s':>10} {'mean_ms':>9}"
    ]
    for (name, cat), durs in sorted(
        rows.items(), key=lambda kv: -sum(kv[1])
    ):
        total = sum(durs)
        mean_ms = 1e3 * total / len(durs) if durs else 0.0
        lines.append(
            f"  {name:<24} {cat:<12} {len(durs):>6} "
            f"{total:>10.4f} {mean_ms:>9.3f}"
        )
    return lines


def report_chrome(path: Path, top: int = 0) -> str:
    from repro.obs.exporters import duration_events, load_chrome_trace

    doc = load_chrome_trace(path)
    events = duration_events(doc)
    lanes = {(e.get("pid", 0), e.get("tid", 0)) for e in events}
    rows: dict[tuple[str, str], list[float]] = defaultdict(list)
    for e in events:
        rows[(e.get("name", "?"), e.get("cat", "?"))].append(
            e.get("dur", 0.0) / 1e6
        )
    lines = [
        f"{path}: Chrome trace, {len(events)} events on {len(lanes)} lanes"
    ]
    lines.extend(_span_table(rows))
    if top:
        flat = [
            {
                "name": e.get("name", "?"),
                "cat": e.get("cat", "?"),
                "dur": e.get("dur", 0.0) / 1e6,
                "rank": (e.get("args") or {}).get("rank"),
                "trace_id": (e.get("args") or {}).get("trace_id"),
            }
            for e in events
        ]
        lines.extend(_top_table(flat, top))
    steps = sum(len(d) for (n, _), d in rows.items() if n == "step")
    if steps:
        per_step = {
            name: len(durs) / steps
            for (name, _), durs in rows.items()
            if name != "step"
        }
        exch = per_step.get("halo-exchange")
        if exch is not None:
            lines.append(f"  halo exchanges per step: {exch:g}")
    return "\n".join(lines)


def report_jsonl(path: Path, top: int = 0) -> str:
    from repro.obs.exporters import read_jsonl

    records = read_jsonl(path)
    spans = [r for r in records if r.get("type") == "span"]
    telem = [r for r in records if r.get("type") == "telemetry"]
    metrics = [r for r in records if r.get("type") == "metric"]
    lines = [
        f"{path}: JSONL log — {len(spans)} spans, "
        f"{len(telem)} telemetry records, {len(metrics)} metric samples"
    ]
    if spans:
        rows: dict[tuple[str, str], list[float]] = defaultdict(list)
        for s in spans:
            rows[(s["name"], s.get("cat", "?"))].append(
                s["t_end"] - s["t_start"]
            )
        lines.extend(_span_table(rows))
        if top:
            flat = [
                {
                    "name": s["name"],
                    "cat": s.get("cat", "?"),
                    "dur": s["t_end"] - s["t_start"],
                    "rank": s.get("rank"),
                    "trace_id": s.get("trace_id"),
                }
                for s in spans
            ]
            lines.extend(_top_table(flat, top))
    if telem:
        first, last = telem[0], telem[-1]
        lines.append(
            f"  telemetry steps {first['step']}..{last['step']}: "
            f"mass {first['mass']:+.4e} -> {last['mass']:+.4e}, "
            f"energy {first['energy']:.4e} -> {last['energy']:.4e}, "
            f"peak max|V| {max(t['max_wind'] for t in telem):.3f} m/s"
        )
        bad = [t["step"] for t in telem if not t.get("finite", True)]
        if bad:
            lines.append(f"  NON-FINITE fields first seen at step {bad[0]}")
    return "\n".join(lines)


def report_flight(path: Path, last: int = 12) -> str:
    """Summarise a flight-recorder dump: who died, why, doing what."""
    from repro.obs.flightrec import load_dump

    doc = load_dump(path)
    meta = doc.get("meta") or {}
    who = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
    lines = [
        f"{path}: flight recording — pid {doc.get('pid', '?')}"
        + (f" ({who})" if who else ""),
        f"  reason: {doc.get('reason', '?')}",
    ]
    events = doc.get("events") or []
    lines.append(f"  {len(events)} events in ring; last {min(last, len(events))}:")
    t_dump = doc.get("dumped_at")
    for ev in events[-last:]:
        age = ""
        if t_dump is not None and "t" in ev:
            age = f"  t-{t_dump - ev['t']:.3f}s"
        fields = ", ".join(
            f"{k}={v}" for k, v in ev.items() if k not in ("t", "kind")
        )
        lines.append(f"    {ev.get('kind', '?'):<12} {fields}{age}")
    tail = doc.get("spans_tail") or []
    if tail:
        open_names = [s["name"] for s in tail[-3:]]
        lines.append(
            f"  last spans before death: {', '.join(open_names)}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description=(
            "Summarise a Chrome-trace JSON, obs JSONL log, or "
            "flight-recorder dump."
        ),
    )
    parser.add_argument("paths", nargs="+", help="exported files to read")
    parser.add_argument(
        "--format",
        choices=("auto", "chrome", "jsonl", "flight"),
        default="auto",
    )
    parser.add_argument(
        "--top", type=int, default=0, metavar="N",
        help="also list the N slowest individual spans",
    )
    ns = parser.parse_args(argv)
    for raw in ns.paths:
        path = Path(raw)
        if not path.exists():
            parser.error(f"{path}: no such file")
        fmt = ns.format if ns.format != "auto" else _detect_format(path)
        if fmt == "flight":
            print(report_flight(path))
        elif fmt == "chrome":
            print(report_chrome(path, top=ns.top))
        else:
            print(report_jsonl(path, top=ns.top))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
