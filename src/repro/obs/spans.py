"""Low-overhead wall-clock span tracing for the executed core.

A :class:`SpanTracer` records nested, named wall-clock spans — ``step >
tendency > adaptation/C/advection > halo-exchange`` — from every thread
that runs instrumented code (the simulated-MPI rank threads included).
Instrumentation sites call the module-level :func:`span` context manager;
when no tracer is active (the default) it returns a shared no-op object,
so the disabled overhead of an instrumented call site is one global read
plus an empty ``with`` block.

Causal trace context
--------------------
Every recorded span carries three identities on top of its timing:

* ``trace_id`` — a 16-hex-char id naming the causal tree the span
  belongs to (one run of a core, one benchmark run, ...).  Threads inherit
  it from their :func:`trace_context`; spans recorded outside any
  context fall back to the tracer's own ``trace_id``.
* ``span_id`` — unique per span across *processes* (the OS pid is
  folded into the id, refreshed after ``fork``), so spans shipped back
  from rank processes never collide with the parent's.
* ``parent_id`` — the enclosing open span on the same thread, else the
  thread's context parent (``0`` marks a root).  Cross-process edges
  are sewn at :meth:`SpanTracer.absorb` time: absorbing re-parents the
  orphan roots of a child process under the launch span that forked it.

Context crosses the process boundary as a ``(trace_id, parent_id)``
pair: the SPMD process backend passes it to rank children as a fork
argument, and :meth:`SpanTracer.absorb` sews their spans back in.

Thread/rank model
-----------------
Spans are buffered per thread with no locking on the hot path; the
buffers are merged (sorted by start time) when :attr:`SpanTracer.spans`
is read.  The SPMD launcher labels each rank thread via :func:`set_rank`,
so spans recorded inside a rank program carry their simulated rank;
spans from unlabelled threads (the serial core, the driver) carry rank
``-1`` and are exported as the ``main`` lane.

Timebase: ``time.perf_counter()`` seconds relative to the tracer's
construction (``epoch``).  This is *real* elapsed time, deliberately
distinct from the simulated cluster's logical clocks — the Chrome-trace
exporter puts both on separate process lanes of the same timeline.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    """One completed wall-clock span."""

    name: str
    cat: str
    t_start: float  # seconds since the tracer's epoch
    t_end: float
    rank: int       # simulated rank, or -1 for unlabelled threads
    tid: int        # OS thread ident (display/debug only)
    depth: int      # nesting depth within the recording thread
    trace_id: str = ""   # causal tree this span belongs to
    span_id: int = 0     # unique across threads and processes
    parent_id: int = 0   # enclosing span (0 = root of its process)
    pid: int = 0         # OS process that recorded the span
    args: dict | None = None  # small JSON-able payload (flow ids, ...)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()
    span_id = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()

#: thread-local simulated-rank label (see :func:`set_rank`)
_rank_local = threading.local()

#: thread-local (trace_id, parent_id) causal context
_ctx_local = threading.local()

#: this process's pid, folded into span ids and recorded on every span;
#: refreshed in fork children so their spans are attributable
_PID = os.getpid()


def _refresh_pid() -> None:
    global _PID
    _PID = os.getpid()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX always has it
    os.register_at_fork(after_in_child=_refresh_pid)

_span_counter = itertools.count(1)


def new_span_id() -> int:
    """A span id unique across threads and (forked) processes.

    The pid occupies the high bits; ``itertools.count`` is atomic under
    the GIL, and a fork child inherits the counter position but gets a
    fresh pid, so parent and child never mint the same id.
    """
    return (_PID << 40) | next(_span_counter)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return os.urandom(8).hex()


def set_rank(rank: int) -> int:
    """Label this thread's subsequent spans with a simulated rank.

    Returns the previous label so callers can restore it (``-1`` when
    none was set) — the SPMD launcher does exactly that around each rank
    program so the serial fast path does not leak a rank label onto the
    caller's thread.
    """
    prev = getattr(_rank_local, "value", -1)
    _rank_local.value = rank
    return prev


def current_rank() -> int:
    """The simulated-rank label of the calling thread (-1 if none)."""
    return getattr(_rank_local, "value", -1)


# ---------------------------------------------------------------------------
# causal context
# ---------------------------------------------------------------------------
def set_trace_context(
    trace_id: str, parent_id: int = 0
) -> tuple[str, int]:
    """Set this thread's causal context; returns the previous one.

    Subsequent root spans on this thread join the tree ``trace_id`` as
    children of ``parent_id``.  Pass the returned pair back to restore.
    """
    prev = getattr(_ctx_local, "value", ("", 0))
    _ctx_local.value = (trace_id, parent_id)
    return prev


def current_trace_context() -> tuple[str, int]:
    """This thread's ``(trace_id, parent_id)`` causal context."""
    return getattr(_ctx_local, "value", ("", 0))


@contextmanager
def trace_context(trace_id: str, parent_id: int = 0):
    """Scope-bound :func:`set_trace_context` (restores on exit)."""
    prev = set_trace_context(trace_id, parent_id)
    try:
        yield
    finally:
        set_trace_context(*prev)


class _ThreadBuf:
    """Per-thread span buffer (append without locking)."""

    __slots__ = ("spans", "depth", "stack")

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.depth = 0
        self.stack: list[int] = []  # open span ids, innermost last


class _LiveSpan:
    """An open span; closes (and records) on ``__exit__``."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_buf", "_depth",
                 "_t0", "span_id")

    def __init__(
        self, tracer: "SpanTracer", name: str, cat: str,
        args: dict | None = None,
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_LiveSpan":
        buf = self._tracer._thread_buf()
        self._buf = buf
        self._depth = buf.depth
        buf.depth += 1
        self.span_id = new_span_id()
        buf.stack.append(self.span_id)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        t1 = time.perf_counter()
        buf = self._buf
        buf.depth -= 1
        buf.stack.pop()
        ctx = getattr(_ctx_local, "value", ("", 0))
        epoch = self._tracer.epoch
        buf.spans.append(
            Span(
                name=self._name,
                cat=self._cat,
                t_start=self._t0 - epoch,
                t_end=t1 - epoch,
                rank=getattr(_rank_local, "value", -1),
                tid=threading.get_ident(),
                depth=self._depth,
                trace_id=ctx[0] or self._tracer.trace_id,
                span_id=self.span_id,
                parent_id=buf.stack[-1] if buf.stack else ctx[1],
                pid=_PID,
                args=self._args,
            )
        )
        return False


class SpanTracer:
    """Collects wall-clock spans from any number of threads."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.trace_id = new_trace_id()
        self._lock = threading.Lock()
        self._bufs: list[_ThreadBuf] = []
        self._tls = threading.local()

    def _thread_buf(self) -> _ThreadBuf:
        buf = getattr(self._tls, "buf", None)
        if buf is None:
            buf = _ThreadBuf()
            self._tls.buf = buf
            with self._lock:
                self._bufs.append(buf)
        return buf

    def span(
        self, name: str, cat: str = "core", args: dict | None = None
    ) -> _LiveSpan:
        """An open span context manager recording into this tracer."""
        return _LiveSpan(self, name, cat, args)

    def point(
        self, name: str, cat: str = "core", args: dict | None = None
    ) -> None:
        """Record an instant (zero-duration) span — e.g. a flow endpoint."""
        buf = self._thread_buf()
        ctx = getattr(_ctx_local, "value", ("", 0))
        t = time.perf_counter() - self.epoch
        buf.spans.append(
            Span(
                name=name, cat=cat, t_start=t, t_end=t,
                rank=getattr(_rank_local, "value", -1),
                tid=threading.get_ident(), depth=buf.depth,
                trace_id=ctx[0] or self.trace_id,
                span_id=new_span_id(),
                parent_id=buf.stack[-1] if buf.stack else ctx[1],
                pid=_PID, args=args,
            )
        )

    def absorb(
        self,
        spans: list[Span],
        trace_id: str | None = None,
        parent_id: int | None = None,
    ) -> None:
        """Merge completed spans recorded elsewhere into this tracer.

        Used by the process-backed SPMD launcher: each rank process
        records into its own tracer (sharing this tracer's epoch, since
        ``perf_counter`` is system-wide on the platforms we run on) and
        ships its spans back at join; absorbing them here keeps span
        counts and per-rank lanes identical to the thread backend.

        ``trace_id``/``parent_id`` sew the causal tree across the
        process boundary: the absorbed process's *root* spans
        (``parent_id == 0``) are re-parented under ``parent_id`` —
        normally the launch span that forked the rank — and every
        span of such an *unanchored* trace (one whose root dangles)
        adopts ``trace_id``.  Spans whose trace was already anchored by
        a propagated context (their roots point at a cross-process
        parent) pass through untouched, so absorbing an
        already-contextualised batch is a no-op.
        """
        orphan_traces = {s.trace_id for s in spans if s.parent_id == 0}
        merged: list[Span] = []
        for s in spans:
            patch = {}
            if trace_id is not None and (
                not s.trace_id or s.trace_id in orphan_traces
            ):
                patch["trace_id"] = trace_id
            if parent_id is not None and s.parent_id == 0:
                patch["parent_id"] = parent_id
            merged.append(dataclasses.replace(s, **patch) if patch else s)
        buf = _ThreadBuf()
        buf.spans = merged
        with self._lock:
            self._bufs.append(buf)

    @property
    def spans(self) -> list[Span]:
        """All completed spans of all threads, ordered by start time."""
        with self._lock:
            bufs = list(self._bufs)
        out: list[Span] = []
        for buf in bufs:
            out.extend(buf.spans)
        out.sort(key=lambda s: (s.t_start, s.rank))
        return out

    def named(self, name: str) -> list[Span]:
        """The completed spans called ``name``, ordered by start time —
        filtered before the sort, so cheap on a long-lived tracer."""
        with self._lock:
            bufs = list(self._bufs)
        out = [s for buf in bufs for s in buf.spans if s.name == name]
        out.sort(key=lambda s: (s.t_start, s.rank))
        return out

    def count(self, name: str | None = None, cat: str | None = None) -> int:
        """Number of completed spans matching ``name`` and/or ``cat``."""
        return sum(
            1
            for s in self.spans
            if (name is None or s.name == name)
            and (cat is None or s.cat == cat)
        )

    def total_duration(self, name: str) -> float:
        """Summed duration (seconds) of all spans named ``name``."""
        return sum(s.duration for s in self.named(name))

    def durations(self, name: str) -> list[float]:
        """Durations (seconds) of all spans named ``name``, in order."""
        return [s.duration for s in self.named(name)]


#: the process-global active tracer; ``None`` means tracing is disabled
_active: SpanTracer | None = None


def active_tracer() -> SpanTracer | None:
    return _active


def set_active(tracer: SpanTracer | None) -> SpanTracer | None:
    """Install (or clear, with ``None``) the active tracer; returns the
    previous one so callers can restore it."""
    global _active
    prev = _active
    _active = tracer
    return prev


def enable(tracer: SpanTracer | None = None) -> SpanTracer:
    """Activate tracing globally; returns the (possibly new) tracer."""
    tracer = tracer if tracer is not None else SpanTracer()
    set_active(tracer)
    return tracer


def disable() -> None:
    """Deactivate tracing globally (instrumentation reverts to no-ops)."""
    set_active(None)


@contextmanager
def tracing(tracer: SpanTracer | None = None):
    """Scope-bound activation: ``with tracing() as t: ... t.spans``."""
    t = tracer if tracer is not None else SpanTracer()
    prev = set_active(t)
    try:
        yield t
    finally:
        set_active(prev)


def span(name: str, cat: str = "core", args: dict | None = None):
    """The instrumentation entry point: a context manager that records a
    wall-clock span into the active tracer, or a shared no-op when
    tracing is disabled."""
    tracer = _active
    if tracer is None:
        return NULL_SPAN
    return _LiveSpan(tracer, name, cat, args)


def point(name: str, cat: str = "core", args: dict | None = None) -> None:
    """Record an instant span into the active tracer (no-op when off)."""
    tracer = _active
    if tracer is not None:
        tracer.point(name, cat, args)


def traced(name: str, cat: str = "core"):
    """Decorator form of :func:`span` for whole-function spans."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with span(name, cat):
                return fn(*args, **kwargs)

        return wrapped

    return deco
