"""Post-mortem flight recorder: a bounded ring of recent events per process.

A killed process dies silently — its parent learns *that* it died, but
its last moments are lost.  A :class:`FlightRecorder` keeps a fixed-size
ring (``deque(maxlen=...)``) of recent structured events — recovery
decisions, node losses, log records, anything :meth:`note`-worthy —
entirely in memory, costing one dict append per event, and flushes it to
disk only when something goes wrong:

* **SIGTERM** (the first rung of the launcher's join→TERM→KILL reaping):
  :meth:`install_signal_handler` arms a handler that dumps the ring and
  then re-raises the default disposition, so the process still dies
  promptly and SIGKILL escalation is never needed for a healthy-enough
  process.
* **explicitly**: callers dump on crash paths (a rank process that the
  fault plan loses dumps to a per-victim path before its SIGKILL; the
  chaos gate dumps its verdict).

Dumps are single JSON documents (``flight_schema`` versioned) written
atomically; :mod:`repro.obs.report` summarizes them (the last events
before death).  A module-level default recorder makes the integration
one-liner-cheap: ``flightrec.install(path, meta=...)`` in the process
entry point, ``flightrec.note(kind, **fields)`` anywhere — a no-op when
nothing is installed.
"""
from __future__ import annotations

import json
import logging
import os
import signal
import time
from collections import deque
from pathlib import Path

#: schema version of the dump document
FLIGHT_SCHEMA = 1

#: default ring capacity (events kept per process)
DEFAULT_CAPACITY = 256


class _RecorderLogHandler(logging.Handler):
    """Routes log records into the recorder's ring."""

    def __init__(self, recorder: "FlightRecorder") -> None:
        super().__init__(level=logging.WARNING)
        self._recorder = recorder

    def emit(self, record: logging.LogRecord) -> None:
        try:
            self._recorder.note(
                "log", level=record.levelname, logger=record.name,
                message=record.getMessage(),
            )
        except Exception:  # never let observability break the workload
            pass


class FlightRecorder:
    """Bounded in-memory event ring, dumped to ``path`` on demand."""

    def __init__(
        self,
        path: str | Path,
        capacity: int = DEFAULT_CAPACITY,
        meta: dict | None = None,
    ) -> None:
        self.path = Path(path)
        self.meta = dict(meta or {})
        self.events: deque[dict] = deque(maxlen=capacity)
        self.dumped = False
        self._log_handler: _RecorderLogHandler | None = None
        self._prev_sigterm = None

    # ---- recording -------------------------------------------------------
    def note(self, kind: str, **fields) -> None:
        """Append one event to the ring (cheap; overwrites the oldest)."""
        self.events.append({"t": time.time(), "kind": kind, **fields})

    def attach_log_handler(
        self, logger: logging.Logger | None = None
    ) -> None:
        """Mirror WARNING+ log records of ``logger`` (root by default)
        into the ring."""
        if self._log_handler is not None:
            return
        self._log_handler = _RecorderLogHandler(self)
        (logger or logging.getLogger()).addHandler(self._log_handler)

    # ---- dumping ---------------------------------------------------------
    def dump(self, reason: str) -> Path:
        """Write the ring (plus any active tracer's span tail) to disk."""
        from repro.obs.exporters import write_text_atomic
        from repro.obs.spans import active_tracer

        spans_tail = []
        tracer = active_tracer()
        if tracer is not None:
            for s in tracer.spans[-32:]:
                spans_tail.append({
                    "name": s.name, "cat": s.cat,
                    "t_start": s.t_start, "t_end": s.t_end,
                    "rank": s.rank, "trace_id": s.trace_id,
                    "span_id": s.span_id, "parent_id": s.parent_id,
                })
        doc = {
            "flight_schema": FLIGHT_SCHEMA,
            "reason": reason,
            "pid": os.getpid(),
            "meta": self.meta,
            "dumped_at": time.time(),
            "events": list(self.events),
            "spans_tail": spans_tail,
        }
        out = write_text_atomic(self.path, json.dumps(doc, indent=1) + "\n")
        self.dumped = True
        return out

    # ---- signal integration ---------------------------------------------
    def install_signal_handler(self, signum: int = signal.SIGTERM) -> None:
        """Dump-then-die on ``signum`` (main thread only).

        The handler writes the ring, restores the default disposition,
        and re-raises the signal against this process — so the observed
        exit status is indistinguishable from an uninstrumented kill and
        a TERM→KILL escalation still works if the dump
        itself wedges (the escalation's SIGKILL cannot be caught).
        """

        def _dump_and_die(sig, frame):
            try:
                self.dump(f"signal {signal.Signals(sig).name}")
            finally:
                signal.signal(sig, signal.SIG_DFL)
                os.kill(os.getpid(), sig)

        self._prev_sigterm = signal.signal(signum, _dump_and_die)


# ---------------------------------------------------------------------------
# module-level default recorder (per-process convenience)
# ---------------------------------------------------------------------------
_installed: FlightRecorder | None = None


def install(
    path: str | Path,
    capacity: int = DEFAULT_CAPACITY,
    meta: dict | None = None,
    signals: bool = True,
    logs: bool = True,
) -> FlightRecorder:
    """Create and arm this process's default recorder."""
    global _installed
    rec = FlightRecorder(path, capacity=capacity, meta=meta)
    if signals:
        rec.install_signal_handler()
    if logs:
        rec.attach_log_handler()
    _installed = rec
    return rec


def get_recorder() -> FlightRecorder | None:
    return _installed


def note(kind: str, **fields) -> None:
    """Record into the default recorder; no-op when none is installed."""
    if _installed is not None:
        _installed.note(kind, **fields)


def load_dump(path: str | Path) -> dict:
    """Read one dump back; raises ``ValueError`` on schema mismatch."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or "flight_schema" not in doc:
        raise ValueError(f"{path}: not a flight-recorder dump")
    return doc
