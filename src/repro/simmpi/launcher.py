"""SPMD launcher: run the same function on every simulated rank.

``run_spmd(nranks, fn, *args)`` starts one thread per rank, each with its
own :class:`SimComm`, and collects the per-rank return values, statistics
and final logical clocks.  Exceptions on any rank abort the run promptly
— the world's abort flag wakes every blocked receive and collective — and
are re-raised on the caller with rank attribution.  ``backend="process"``
is a :class:`RankWorld` — forked ranks serving commands — of one command.

Fault injection: pass ``faults=FaultPlan(...)`` (or a reusable
:class:`~repro.simmpi.faults.FaultInjector`) to have the communicators
inject rank crashes, message drops/corruption, degraded-network windows
and compute stragglers; ``verify_checksums=True`` arms the in-flight
payload integrity check (:class:`~repro.simmpi.faults.CorruptedMessage`).
"""
from __future__ import annotations

import pickle
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.spans import (
    SpanTracer,
    active_tracer,
    current_trace_context,
    set_active,
    set_rank,
    set_trace_context,
)
from repro.simmpi.comm import SimComm, SimWorld
from repro.simmpi.faults import FaultInjector, FaultPlan
from repro.simmpi.machine import LAPTOP_LIKE, MachineModel
from repro.simmpi.network import DeadlockError
from repro.simmpi.stats import CommStats
from repro.simmpi.trace import TraceRecorder
from repro.simmpi.transport import TransportConfig


class SpmdError(RuntimeError):
    """One or more ranks raised; carries the per-rank tracebacks.

    Attributes
    ----------
    failures:
        ``{rank: traceback string}`` of every failed rank.
    exceptions:
        ``{rank: exception object}`` (same keys) — lets callers classify
        failures by type (``RankCrash``, ``CorruptedMessage``,
        ``DeadlockError``, ...) without string matching.
    stats:
        Per-rank :class:`CommStats` captured at failure time (fault
        events of the doomed attempt survive here), or ``None``.
    """

    def __init__(
        self,
        failures: dict[int, str],
        exceptions: dict[int, BaseException] | None = None,
        stats: list[CommStats] | None = None,
    ) -> None:
        self.failures = failures
        self.exceptions = exceptions or {}
        self.stats = stats
        ranks = ", ".join(str(r) for r in sorted(failures))
        lines = [f"SPMD ranks [{ranks}] failed:"]
        for r in sorted(failures):
            exc = self.exceptions.get(r)
            if exc is not None:
                summary = f"{type(exc).__name__}: {exc}"
            else:
                tb_lines = failures[r].strip().splitlines()
                summary = tb_lines[-1] if tb_lines else "unknown failure"
            lines.append(f"  rank {r}: {summary}")
        first = failures[min(failures)]
        lines.append(f"first failing rank traceback:\n{first}")
        super().__init__("\n".join(lines))


@dataclass
class SpmdResult:
    """Outcome of one SPMD run."""

    results: list[Any]
    stats: list[CommStats]
    clocks: list[float]
    traces: list[TraceRecorder] | None = None

    @property
    def nranks(self) -> int:
        return len(self.results)

    @property
    def makespan(self) -> float:
        """Simulated wall time: the slowest rank's final logical clock."""
        return max(self.clocks)

    def critical_stats(self) -> CommStats:
        """Per-field max over ranks (critical-path accounting of [16])."""
        return self.stats[0].merge_max(self.stats[1:])

    def total_comm_time(self) -> float:
        """Max over ranks of (p2p + collective) logical time."""
        return max(s.comm_time for s in self.stats)

    def total_compute_time(self) -> float:
        """Max over ranks of compute logical time."""
        return max(s.compute_time for s in self.stats)

    def fault_events(self) -> list:
        """All fault events of all ranks, in rank order."""
        return [e for s in self.stats for e in s.fault_events]


BACKENDS = ("thread", "process")

#: default extra wall-clock slack granted past ``timeout`` before the
#: join watchdog declares the run wedged
DEFAULT_JOIN_GRACE = 30.0


def reap_processes(
    procs,
    *,
    join_timeout: float = 2.0,
    term_timeout: float = 5.0,
    kill_timeout: float = 5.0,
) -> list[int]:
    """Join, then terminate, then kill: never leave a child running.

    The escalation ladder of process cleanup — a polite ``join``, a
    SIGTERM with a grace period, and finally SIGKILL for children that
    ignore SIGTERM (wedged in a handler, signal-blocked, ...).  Returns
    the pids that needed SIGKILL.  Shared by the SPMD process backend
    and the :mod:`repro.serve` worker supervisor: any component that
    owns child processes must be able to reap a wedged one without
    hanging itself.
    """
    procs = list(procs)
    for p in procs:
        p.join(timeout=join_timeout)
    for p in procs:
        if p.is_alive():
            p.terminate()
    for p in procs:
        if p.is_alive():
            p.join(timeout=term_timeout)
    killed: list[int] = []
    for p in procs:
        if p.is_alive():
            p.kill()
            p.join(timeout=kill_timeout)
            if p.pid is not None:
                killed.append(p.pid)
    return killed


def run_spmd(
    nranks: int,
    fn: Callable[..., Any],
    *args: Any,
    machine: MachineModel | None = None,
    timeout: float = 120.0,
    trace: bool = False,
    faults: FaultPlan | FaultInjector | None = None,
    verify_checksums: bool = False,
    transport: TransportConfig | None = None,
    backend: str = "thread",
    shm_link_bytes: int | None = None,
    join_grace: float = DEFAULT_JOIN_GRACE,
) -> SpmdResult:
    """Run ``fn(comm, *args)`` on ``nranks`` simulated ranks.

    Parameters
    ----------
    nranks:
        Number of simulated ranks (threads or processes, see ``backend``).
    fn:
        The rank program; first argument is its :class:`SimComm`.
    machine:
        Cost model; defaults to :data:`repro.simmpi.machine.LAPTOP_LIKE`.
    timeout:
        Wall-clock seconds after which a blocked receive or collective is
        declared a deadlock.  Callers running many model steps should
        scale this with the work (see ``repro.core.driver``, which does).
    trace:
        Record per-rank :class:`TraceRecorder` timelines (compute spans,
        receive waits, collectives, fault events) in the result.
    faults:
        Declarative :class:`FaultPlan` (deterministic under its seed), or
        a live :class:`FaultInjector` when the caller wants one-shot
        crash state to persist across restart attempts.
    verify_checksums:
        Checksum every point-to-point payload at the sender and verify on
        receive; in-flight corruption then raises ``CorruptedMessage``
        instead of silently contaminating the receiver.
    transport:
        Reliable-transport policy (:class:`~repro.simmpi.transport.
        TransportConfig`): sequence-numbered messages with bounded,
        backed-off retransmission of drops and (checksummed) corruption,
        per-link circuit breakers, and prompt ``MessageLost`` detection
        of permanently dropped messages.  ``None`` models the raw
        network of the seed substrate.
    backend:
        ``"thread"`` (default) runs every rank as a thread in this
        process — deterministic fault injection, zero launch cost.
        ``"process"`` forks one OS process per rank and moves messages
        and collectives over shared-memory ring buffers
        (:mod:`repro.simmpi.shm`), so rank compute genuinely runs in
        parallel.  Numerics and logical clocks are bit-identical between
        backends.  ``nranks == 1`` always runs in the caller.
    shm_link_bytes:
        Process backend only: ring capacity per directed link (default
        sized by :func:`repro.simmpi.shm.default_link_bytes`; larger
        messages stream through in chunks).
    join_grace:
        Hard join watchdog: wall-clock slack past ``timeout`` before a
        rank that neither reported nor died is declared wedged and the
        run fails with :class:`SpmdError` (process backend children are
        then terminated, escalating to SIGKILL).  A hung child must
        never hang the caller.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; pick from {BACKENDS}")
    if backend == "process":
        if faults is not None:
            plan = faults.plan if isinstance(faults, FaultInjector) else faults
            if not plan.node_loss_only:
                raise ValueError(
                    "fault injection on backend='process' is limited to "
                    "node-loss-only plans (the victim kills its own OS "
                    "process) — injected drops/crashes rely on "
                    "deterministic in-process delivery (backend='thread')"
                )
        if nranks > 1:
            # a rank world of one command
            world = RankWorld(
                nranks, fn, machine=machine, join_grace=join_grace,
                verify_checksums=verify_checksums, transport=transport,
                link_bytes=shm_link_bytes,
            )
            try:
                return world.call(
                    *args, timeout=timeout, trace=trace, faults=faults
                )
            finally:
                world.close()
        # single rank: the serial fast path below is already process-free
    injector = faults.injector() if isinstance(faults, FaultPlan) else faults
    if injector is not None:
        injector.begin_attempt()
    world = SimWorld(
        nranks,
        machine or LAPTOP_LIKE,
        timeout=timeout,
        injector=injector,
        verify_checksums=verify_checksums,
        transport=transport,
    )
    comms = [SimComm(world, r) for r in range(nranks)]
    tracers: list[TraceRecorder] | None = None
    if trace:
        tracers = [TraceRecorder(r) for r in range(nranks)]
        for c, t in zip(comms, tracers):
            c.tracer = t
    results: list[Any] = [None] * nranks
    failures: dict[int, str] = {}
    exceptions: dict[int, BaseException] = {}
    failures_lock = threading.Lock()

    def runner(rank: int) -> None:
        # Label wall-clock spans with the simulated rank and hand the
        # launch's causal context to this (possibly fresh) thread;
        # restore after — the serial fast path runs in the caller's
        # thread.
        prev_rank = set_rank(rank)
        prev_ctx = (
            set_trace_context(*launch_ctx) if launch_ctx is not None else None
        )
        try:
            results[rank] = fn(comms[rank], *args)
        except BaseException as exc:  # noqa: BLE001 - report everything to caller
            with failures_lock:
                failures[rank] = traceback.format_exc()
                exceptions[rank] = exc
            # fail fast: wake the surviving ranks out of blocked waits
            world.abort(f"rank {rank} failed with {type(exc).__name__}: {exc}")
        finally:
            if prev_ctx is not None:
                set_trace_context(*prev_ctx)
            set_rank(prev_rank)

    with _launch_span(nranks) as launch_ctx:
        if nranks == 1:
            # Fast path: no threads for serial runs.
            runner(0)
        else:
            threads = [
                threading.Thread(
                    target=runner, args=(r,), daemon=True, name=f"rank{r}"
                )
                for r in range(nranks)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=timeout + join_grace)
            hung = [t.name for t in threads if t.is_alive()]
            if hung and not failures:
                raise _wedged(
                    f"rank threads still alive: {hung}", world,
                    [c.stats for c in comms],
                )
        if failures:
            raise SpmdError(
                failures, exceptions=exceptions, stats=[c.stats for c in comms]
            )
    return SpmdResult(
        results=results,
        stats=[c.stats for c in comms],
        clocks=[c.clock for c in comms],
        traces=tracers,
    )


def _wedged(what: str, world, stats: list[CommStats]) -> SpmdError:
    """The join watchdog's verdict: ranks that neither reported nor died."""
    backlog = {r: mb.pending_summary() for r, mb in enumerate(world.mailboxes)}
    detail = f"{what}; per-rank mailbox backlog: {backlog}"
    return SpmdError(
        {-1: detail}, exceptions={-1: DeadlockError(detail)}, stats=stats
    )


@contextmanager
def _launch_span(nranks: int):
    """The causal launch span of one SPMD run or command: yields the
    ``(trace_id, span_id)`` every rank's spans — thread or forked process —
    parent under, so the run exports as one subtree of the caller's trace;
    ``None`` when tracing is off."""
    tracer = active_tracer()
    if tracer is None:
        yield None
        return
    with tracer.span(f"spmd[{nranks}]", "spmd") as launch:
        ctx_trace, _ = current_trace_context()
        yield ctx_trace or tracer.trace_id, launch.span_id


# ---------------------------------------------------------------------------
# process backend (shared-memory rings; see repro.simmpi.shm)
# ---------------------------------------------------------------------------
def _picklable(exc: BaseException) -> BaseException:
    """``exc`` itself when it survives pickling, else a summary stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _serve_command(shm, comm: SimComm, fn, cmd) -> dict:
    """One command on a rank: ``fn(comm, *args)`` on a restarted
    communicator.  Returns the status dict — result, stats, clock, logical
    trace, wall-clock spans; a failure aborts the world (fail fast for the
    peers) and ships the traceback instead."""
    args, timeout, trace, trace_ctx, epoch, faults_state = cmd
    status: dict[str, Any] = {"ok": False, "result": None, "tb": None, "exc": None}
    shm.timeout = timeout
    shm.injector = None
    if faults_state is not None:
        # this rank's injector from the launcher's snapshot: same plan,
        # attempt number and consumed one-shot specs, so node-loss triggers
        # fire at the same logical point as on the thread backend
        plan, snap = faults_state
        shm.injector = FaultInjector(plan)
        shm.injector.restore_snapshot(snap)
    tracer = None
    if trace_ctx is not None:
        # fresh tracer per command on the parent's epoch (perf_counter is
        # CLOCK_MONOTONIC on Linux, shared across processes): this rank's
        # spans land on the parent's timeline, under the launch span
        tracer = SpanTracer()
        tracer.epoch = epoch
        tracer.trace_id = trace_ctx[0]
        set_trace_context(*trace_ctx)
    set_active(tracer)
    comm.restart()
    if trace:
        comm.tracer = TraceRecorder(comm.rank)
    try:
        status["result"] = fn(comm, *args)
        status["ok"] = True
    except BaseException as exc:  # noqa: BLE001 - report everything to caller
        status["tb"] = traceback.format_exc()
        status["exc"] = _picklable(exc)
        shm.abort(f"rank {comm.rank} failed with {type(exc).__name__}: {exc}")
    status.update(
        stats=comm.stats, clock=comm.clock, trace=comm.tracer,
        spans=tracer.spans if tracer is not None else None,
    )
    return status


def _rank_main(shm, rank: int, fn, cmd, pipes) -> None:
    """Entry point of one rank process (after fork): serve ``cmd``, then
    every command the launcher sends, until one fails or the pipe EOFs
    (world closed, or launcher dead)."""
    conn = pipes[rank][1]
    # fork copied every pipe end into every child; keep only ours, so a
    # dead peer's pipe EOFs in the parent and a dead parent's EOFs here
    for i, (parent_end, child_end) in enumerate(pipes):
        parent_end.close()
        if i != rank:
            child_end.close()
    shm.attach(rank)
    set_rank(rank)
    comm = SimComm(shm, rank)
    try:
        while True:
            status = _serve_command(shm, comm, fn, cmd)
            try:
                payload = shm.dump(status, rank + 1)
            except Exception as exc:  # e.g. unpicklable rank result
                status.update(
                    ok=False, result=None, trace=None, spans=None,
                    tb=traceback.format_exc(),
                    exc=RuntimeError(
                        f"rank {rank}: could not ship its result back: {exc}"
                    ),
                )
                payload = shm.dump(status, rank + 1)
            conn.send(payload)
            if not status["ok"]:
                break  # a failed command discards the world
            cmd = shm.load(*conn.recv(), 0)
    except (EOFError, OSError):
        pass
    finally:
        conn.close()


class RankWorld:
    """The process backend: one OS process per rank over shared-memory
    rings, forked by the first :meth:`call` and serving one command per
    call until :meth:`close`.

    Fork keeps the launch cheap and the first command pickle-free: ``fn``
    (closures welcome), the first arguments and the shared world are
    inherited copy-on-write; later arguments and every result travel
    pickled, bulk buffers through the world's data segment.  A rank that
    dies without reporting is detected by its pipe's EOF and surfaces as a
    :class:`SpmdError` carrying a ``ChildProcessError``.  A failed command
    discards the world; whoever opened it must :meth:`close` it.
    """

    def __init__(
        self,
        nranks: int,
        fn: Callable[..., Any],
        *,
        machine: MachineModel | None = None,
        join_grace: float = DEFAULT_JOIN_GRACE,
        **shm_options: Any,
    ) -> None:
        """``shm_options``: ``verify_checksums``, ``transport`` and
        ``link_bytes`` of :class:`~repro.simmpi.shm.ShmWorld`."""
        from repro.simmpi.shm import ShmWorld

        self.nranks = nranks
        self.fn = fn
        self.join_grace = join_grace
        self.shm = ShmWorld(nranks, machine or LAPTOP_LIKE, **shm_options)
        self._procs: dict[int, Any] = {}
        self._conns: dict[int, Any] = {}
        #: one-shot work the next :meth:`call` runs while its ranks compute
        self.meanwhile: Callable[[], None] | None = None

    @property
    def is_open(self) -> bool:
        return self.shm is not None

    def call(
        self,
        *args: Any,
        timeout: float = 120.0,
        trace: bool = False,
        faults: FaultPlan | FaultInjector | None = None,
    ) -> SpmdResult:
        """One command: ``fn(comm, *args)`` on every rank (``timeout``,
        ``trace`` and ``faults`` as in :func:`run_spmd`; the join watchdog
        deadline is per command)."""
        injector = faults.injector() if isinstance(faults, FaultPlan) else faults
        faults_state = None
        if injector is not None:
            injector.begin_attempt()
            # ranks hold *copies* of the injector: ship the plan plus the
            # fired-spec snapshot so one-shot semantics and the attempt
            # number survive the process boundary
            faults_state = (injector.plan, injector.snapshot())
        with _launch_span(self.nranks) as trace_ctx:
            epoch = active_tracer().epoch if trace_ctx is not None else None
            cmd = (args, timeout, trace, trace_ctx, epoch, faults_state)
            deadline = time.monotonic() + timeout + self.join_grace
            try:
                self._dispatch(cmd)
                self.run_meanwhile()
                return self._collect(deadline, trace, trace_ctx)
            except BaseException:
                self.close()
                raise

    def run_meanwhile(self) -> None:
        """Run (and clear) :attr:`meanwhile`, if any is pending."""
        work, self.meanwhile = self.meanwhile, None
        if work is not None:
            work()

    def _dispatch(self, cmd) -> None:
        if self._procs:
            payload = self.shm.dump(cmd, 0)
            for conn in self._conns.values():
                try:
                    conn.send(payload)
                except OSError:
                    pass  # died while idle: _collect reads its pipe's EOF
            return
        ctx = self.shm.ctx
        pipes = [ctx.Pipe() for _ in range(self.nranks)]
        for r, (parent_end, _) in enumerate(pipes):
            self._conns[r] = parent_end
            self._procs[r] = ctx.Process(
                target=_rank_main, args=(self.shm, r, self.fn, cmd, pipes),
                daemon=True, name=f"rank{r}",
            )
        for p in self._procs.values():
            p.start()
        for _, child_end in pipes:
            child_end.close()  # EOF on a rank's pipe now means "its process died"

    def _collect(self, deadline: float, trace: bool, trace_ctx) -> SpmdResult:
        from multiprocessing.connection import wait as conn_wait

        shm, procs, nranks = self.shm, self._procs, self.nranks
        rank_of = {conn: r for r, conn in self._conns.items()}
        pending = dict(self._conns)
        reports: dict[int, dict] = {}
        crashed: dict[int, int | None] = {}

        def receive(conn) -> None:
            r = rank_of[conn]
            try:
                reports[r] = shm.load(*conn.recv(), r + 1)
            except (EOFError, OSError):
                procs[r].join(timeout=2.0)
                crashed[r] = procs[r].exitcode
                shm.abort(
                    f"rank {r} process died with exit code "
                    f"{procs[r].exitcode} before reporting"
                )
            del pending[r]

        while pending:
            for conn in conn_wait(list(pending.values()), timeout=0.5):
                receive(conn)
            if pending and time.monotonic() > deadline:
                shm.abort("SPMD command exceeded its join deadline")
                # one last short grace period for in-flight reports
                for conn in conn_wait(list(pending.values()), timeout=2.0):
                    receive(conn)
                break

        stats = [
            reports[r]["stats"] if r in reports else CommStats()
            for r in range(nranks)
        ]
        failures: dict[int, str] = {}
        exceptions: dict[int, BaseException] = {}
        tracer = active_tracer()
        for r, rep in sorted(reports.items()):
            if tracer is not None and rep["spans"]:
                tracer.absorb(
                    rep["spans"], trace_id=trace_ctx[0], parent_id=trace_ctx[1]
                )
            if not rep["ok"]:
                failures[r] = rep["tb"] or "(no traceback captured)"
                exceptions[r] = rep["exc"] or RuntimeError(
                    f"rank {r} failed without detail"
                )
        for r, code in sorted(crashed.items()):
            detail = (
                f"rank {r} process died with exit code {code} "
                "before reporting its result"
            )
            failures[r] = detail
            exceptions[r] = ChildProcessError(detail)
        if failures:
            raise SpmdError(failures, exceptions=exceptions, stats=stats)
        if pending:
            raise _wedged(
                f"rank processes still running: {sorted(pending)}", shm, stats
            )
        done = [reports[r] for r in range(nranks)]
        return SpmdResult(
            results=[rep["result"] for rep in done],
            stats=stats,
            clocks=[rep["clock"] for rep in done],
            traces=[rep["trace"] for rep in done] if trace else None,
        )

    def close(self) -> None:
        """Discard the world (idempotent): idle ranks leave at their pipe's
        EOF, busy ones at the abort flag, wedged ones by TERM -> KILL — a
        child must never outlive its world — then the segments go."""
        if self.shm is None:
            return
        from repro.simmpi.shm import sweep_stale_segments

        shm, self.shm = self.shm, None
        if self._procs:
            shm.abort("rank world closed")
        for conn in self._conns.values():
            conn.close()
        reap_processes(self._procs.values())
        shm.destroy()
        # reclaim segments a *previous*, SIGKILLed launcher left behind
        # (our own are covered by destroy() and the shm atexit hook)
        sweep_stale_segments()
