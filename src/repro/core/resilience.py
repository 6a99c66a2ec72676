"""Self-healing resilience for :class:`~repro.core.driver.DynamicalCore`.

A host can have two faults: a rank process dies, or the state blows up
or is silently corrupted.  The resilient driver heals both with one
rewind, on a ladder of three rungs:

1. **message retransmit** (:mod:`repro.simmpi.transport`, on by default
   here) — injected drops and corruption of point-to-point payloads are
   retried at the message level inside the running chunk; the
   application never notices;
2. **rewind** — the failed chunk re-runs from the last committed chunk
   boundary, a state the driver already holds in memory.  When the failed
   command killed the rank world (a dead rank process on the process
   backend), the retry forks a fresh world at the same layout;
3. **abort** — ``max_restarts`` rewinds exhaust into
   :class:`ResilienceExhausted`.

The run is divided into chunks of ``checkpoint_interval`` steps; each
chunk executes through ``DynamicalCore._run_once``.  A chunk that raises a
*retryable* failure — ``RankCrash`` (``RankLost`` included),
``CorruptedMessage``, ``MessageLost``, ``DeadlockError``, or an
``SpmdError`` carrying one or a killed rank's ``ChildProcessError`` — is
rewound and retried; a chunk that completes is vetted before commit:

* the **blowup guard** (``blowup_policy``) rejects non-finite or
  exploding fields, using the staged per-step telemetry to catch
  mid-chunk excursions;
* the **SDC acceptance gate** (``sdc_mass_tol`` / ``sdc_energy_tol``)
  compares the chunk-end mass/energy against the last accepted chunk
  boundary and rejects drifts beyond the tolerance (absolute for the
  near-zero mass proxy, fractional for energy) — an ABFT-style check
  that catches silent corruption checksums cannot see.

Every committed chunk appends a disk checkpoint — on the process backend
while the ranks of the call's one rank world already compute the next
chunk.  Disk is read only to start a run with ``resume=True``.

Determinism: because the simulated cluster advances logical clocks only,
a retry replays the chunk bit-identically when no new faults fire — the
property tests assert crash-interrupted runs end byte-equal to
fault-free ones.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from repro.core.driver import StepDiagnostics
from repro.grid.sigma import SigmaLevels
from repro.obs.spans import span
from repro.obs.telemetry import TelemetryRecord, record_for_state
from repro.simmpi.faults import (
    CorruptedMessage,
    FaultInjector,
    FaultPlan,
    RankCrash,
)
from repro.simmpi.launcher import SpmdError
from repro.simmpi.network import DeadlockError, MessageLost
from repro.simmpi.transport import TransportConfig
from repro.state.io import (
    checkpoint_path,
    latest_verified_checkpoint,
    load_state,
    save_state,
)
from repro.state.variables import ModelState

logger = logging.getLogger(__name__)


class BlowupError(RuntimeError):
    """The model produced non-finite or exploding fields (policy: abort)."""


class ResilienceExhausted(RuntimeError):
    """More recoveries were needed than ``max_restarts`` allows."""


@dataclass
class ResilienceConfig:
    """Knobs of the resilient driver.

    Parameters
    ----------
    checkpoint_dir:
        Directory for ``ckpt_XXXXXXXX.npz`` files (created if missing).
    checkpoint_interval:
        Model steps per chunk; a checkpoint is written after every
        committed chunk.
    max_restarts:
        Total rewinds before giving up.
    blowup_policy:
        ``"abort"`` or ``"rollback"`` — what to do when a chunk completes
        with non-finite fields or ``max_abs() > blowup_threshold``.
    blowup_threshold:
        Stability bound on the committed state's max absolute value.
    verify_halo_checksums:
        Payload checksums on every simulated message (default **on**: a
        resilient run that cannot see corruption cannot heal it).  With
        the reliable transport armed, a checksum failure is retransmitted
        in place; set ``False`` to opt out and let silent corruption fall
        through to the blowup/SDC gates.
    transport:
        Reliable-transport policy injected into every chunk (default: a
        stock :class:`~repro.simmpi.transport.TransportConfig`, i.e.
        message-level retransmit on).  ``None`` models the raw seed
        network, making every drop/corruption escalate to a rewind.
    sdc_mass_tol / sdc_energy_tol:
        SDC acceptance gates, measured against the last accepted chunk
        boundary: maximum *absolute* drift of the telemetry mass (the
        mass proxy is a conserved perturbation mean that hovers near
        zero, so a fractional test would be noise) and maximum
        *fractional* drift of the total energy across one chunk.
        ``None`` (default) disables a gate.
    faults:
        Optional :class:`FaultPlan`/:class:`FaultInjector` injected into
        every chunk.  A plan is converted to ONE injector up front, so
        one-shot crash specs stay consumed across restarts (the "failed
        node got replaced" model) and the retry can succeed.
    spmd_timeout:
        Override for the per-chunk deadlock timeout; ``None`` defers to
        ``CoreConfig.timeout`` / ``default_spmd_timeout``.
    resume:
        Start from the newest *verified* checkpoint already in
        ``checkpoint_dir`` instead of ``state0``
        (restart-after-process-death).  Checkpoints failing their
        checksum sidecar — e.g. torn by a crash mid-write — are skipped,
        so the resume falls back to the previous good checkpoint.
    """

    checkpoint_dir: str | Path
    checkpoint_interval: int = 1
    max_restarts: int = 8
    blowup_policy: str = "rollback"
    blowup_threshold: float = 1e8
    verify_halo_checksums: bool = True
    transport: TransportConfig | None = field(default_factory=TransportConfig)
    sdc_mass_tol: float | None = None
    sdc_energy_tol: float | None = None
    faults: FaultPlan | FaultInjector | None = None
    spmd_timeout: float | None = None
    resume: bool = False

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.blowup_policy not in ("abort", "rollback"):
            raise ValueError(
                f"blowup_policy must be 'abort' or 'rollback', "
                f"got {self.blowup_policy!r}"
            )
        for name in ("sdc_mass_tol", "sdc_energy_tol"):
            tol = getattr(self, name)
            if tol is not None and tol <= 0:
                raise ValueError(f"{name} must be positive (or None)")


@dataclass(frozen=True)
class RestartRecord:
    """One rewind of the resilient driver."""

    step: int          # model step the run was rewound to
    kind: str          # "crash" | "corruption" | "loss" | "deadlock" | "blowup" | "sdc"
    attempt: int       # retry count for the failing chunk (1-based)
    detail: str = ""


@dataclass
class ResilienceReport:
    """What happened during one resilient run."""

    checkpoints: list[tuple[int, Path]] = field(default_factory=list)
    restarts: list[RestartRecord] = field(default_factory=list)
    chunk_makespans: list[float] = field(default_factory=list)
    fault_events: list = field(default_factory=list)
    resumed_from_step: int = 0
    #: rank worlds forked during the call (process backend: 1 + failed chunks)
    rank_launches: int = 0

    @property
    def nrestarts(self) -> int:
        return len(self.restarts)

    def describe(self) -> str:
        lines = [
            f"chunks committed: {len(self.chunk_makespans)}",
            f"checkpoints written: {len(self.checkpoints)}",
            f"rank worlds forked: {self.rank_launches}",
            f"restarts: {self.nrestarts}",
        ]
        for r in self.restarts:
            lines.append(
                f"  rewound to step {r.step} ({r.kind}, "
                f"attempt {r.attempt}): {r.detail}"
            )
        if self.fault_events:
            lines.append(f"fault events observed: {len(self.fault_events)}")
        return "\n".join(lines)


def _classify(exc: BaseException) -> str | None:
    """Retryable-failure kind of one exception, or None if fatal."""
    if isinstance(exc, (RankCrash, ChildProcessError)):
        return "crash"
    if isinstance(exc, CorruptedMessage):
        return "corruption"
    if isinstance(exc, MessageLost):
        return "loss"
    if isinstance(exc, DeadlockError):
        return "deadlock"
    if isinstance(exc, FloatingPointError):
        return "blowup"
    return None


def classify_failure(exc: BaseException) -> str | None:
    """Map an exception from a chunk run to a recovery kind.

    For an :class:`SpmdError` the *root cause* wins: a rank crash aborts
    every surviving rank with a ``DeadlockError``, so crash outranks
    corruption outranks message loss outranks deadlock when classifying
    the per-rank exceptions.  A rank process that died without reporting
    (a ``ChildProcessError``) is a crash.  Returns ``None`` for failures
    that should propagate (programming errors, bad configuration, ...).
    """
    if isinstance(exc, SpmdError):
        kinds = {
            k
            for k in map(_classify, exc.exceptions.values())
            if k is not None
        }
        for kind in ("crash", "corruption", "loss", "blowup", "deadlock"):
            if kind in kinds:
                return kind
        return None
    return _classify(exc)


def crashed_ranks(exc: BaseException) -> tuple[int, ...]:
    """The ranks that died in ``exc`` (sorted): an injected crash or node
    loss, or a rank process that died without reporting."""
    if isinstance(exc, SpmdError):
        return tuple(sorted(
            r for r, e in exc.exceptions.items()
            if r >= 0 and isinstance(e, (RankCrash, ChildProcessError))
        ))
    if isinstance(exc, RankCrash):
        return (exc.rank,)
    return ()


def failure_detail(exc: BaseException, kind: str) -> str:
    """What a restart record says of ``exc``, classified as ``kind``.

    For an :class:`SpmdError`, the ``rank r: ExcType: message`` line of
    every rank whose own failure is of that kind: the survivors a crash
    aborts would only repeat it, each from wherever thread scheduling
    left it blocked, so leaving them out keeps the record reproducible.
    Any other exception gives its first line.
    """
    if isinstance(exc, SpmdError):
        return "; ".join(
            f"rank {r}: {summary}"
            for r, summary in sorted(exc.summaries.items())
            if _classify(exc.exceptions.get(r)) == kind
        )
    return str(exc).splitlines()[0]


#: retryable exception types of one chunk run
_RETRYABLE = (
    SpmdError, RankCrash, CorruptedMessage, MessageLost, DeadlockError,
    FloatingPointError,
)


def run_resilient(
    core,
    state0: ModelState,
    nsteps: int,
    rcfg: ResilienceConfig,
) -> tuple[ModelState, StepDiagnostics, ResilienceReport]:
    """Advance ``nsteps`` with the recovery ladder armed.

    ``core`` is a :class:`~repro.core.driver.DynamicalCore`.  Returns the
    final gathered state, diagnostics accumulated over committed chunks
    (retried chunks count only their successful attempt), and the
    :class:`ResilienceReport`.
    """
    ckdir = Path(rcfg.checkpoint_dir)
    ckdir.mkdir(parents=True, exist_ok=True)
    report = ResilienceReport()
    diag = StepDiagnostics()

    injector = (
        rcfg.faults.injector()
        if isinstance(rcfg.faults, FaultPlan)
        else rcfg.faults
    )

    sdc_armed = (
        rcfg.sdc_mass_tol is not None or rcfg.sdc_energy_tol is not None
    )
    sigma = (
        core.config.sigma
        if core.config.sigma is not None
        else SigmaLevels.uniform(core.config.grid.nz)
    )

    logger.info(
        "resilient run: %d step(s), chunks of %d — integrity mode: "
        "payload checksums %s, reliable transport %s, SDC gates %s",
        nsteps, rcfg.checkpoint_interval,
        "ON" if rcfg.verify_halo_checksums else "OFF",
        "ON" if rcfg.transport is not None and rcfg.transport.reliable
        else "OFF",
        "ON" if sdc_armed else "OFF",
    )

    def _metric(name: str, help: str, **labels) -> None:
        obs = core.observation
        if obs is not None and obs.config.metrics:
            obs.registry.counter(name, help, **labels).inc()

    step = 0
    state = state0
    resumed = False
    if rcfg.resume:
        found = latest_verified_checkpoint(ckdir)
        if found is not None:
            state, step = load_state(found[0])
            report.resumed_from_step = step
            resumed = True
    if not resumed:
        path = checkpoint_path(ckdir, 0)
        save_state(path, state0, step=0)
        report.checkpoints.append((0, path))
    accepted: TelemetryRecord | None = (
        record_for_state(step, state, core.config.grid, sigma)
        if sdc_armed else None
    )

    restarts_left = rcfg.max_restarts
    chunk_attempt = 1

    def _recover(kind: str, detail: str) -> ModelState:
        """Rewind to the committed boundary state ``state``.

        Returns a copy: on the process backend ``state`` may be a state
        area of the rank world, which the world overwrites two commands
        later — a retry that started from the area itself would, after a
        second rejection, rewind to what the retry wrote there.
        """
        nonlocal restarts_left, chunk_attempt
        core._discard_observation()
        if restarts_left <= 0:
            logger.error(
                "resilience exhausted at step %d after %d restarts "
                "(last failure: %s: %s)",
                step, rcfg.max_restarts, kind, detail,
            )
            raise ResilienceExhausted(
                f"gave up at step {step} after {rcfg.max_restarts} "
                f"restarts (last failure: {kind}: {detail})"
            )
        restarts_left -= 1
        logger.warning(
            "chunk at step %d failed (%s, attempt %d): %s — rewinding",
            step, kind, chunk_attempt, detail,
        )
        report.restarts.append(
            RestartRecord(step=step, kind=kind, attempt=chunk_attempt,
                          detail=detail)
        )
        chunk_attempt += 1
        _metric("resilience_restarts_total", "chunk recoveries", kind=kind)
        return state.copy()

    def _persist(step: int, state: ModelState) -> None:
        """Checkpoint the chunk committed at ``step``."""
        path = checkpoint_path(ckdir, step)
        save_state(path, state, step=step)
        report.checkpoints.append((step, path))

    launches0 = core.rank_launches
    # Activate the core's span tracer for the whole resilient run, so the
    # chunk spans below land in the same trace as the per-step spans, and
    # own the rank world across the chunks; the per-chunk _run_once
    # scopes no-op inside these.
    with core._obs_scope(), core._world_scope():
        while step < nsteps:
            chunk = min(rcfg.checkpoint_interval, nsteps - step)
            try:
                try:
                    with span("chunk", "resilience"):
                        new_state, chunk_diag, stats = core._run_once(
                            state,
                            chunk,
                            faults=injector,
                            verify_checksums=rcfg.verify_halo_checksums,
                            transport=rcfg.transport,
                            timeout=rcfg.spmd_timeout,
                            step0=step,
                        )
                finally:
                    if core._world is not None:
                        # the deferred _persist no command picked up
                        core._world.run_meanwhile()
            except _RETRYABLE as exc:
                kind = classify_failure(exc)
                if isinstance(exc, SpmdError) and exc.stats:
                    report.fault_events.extend(
                        e for s in exc.stats for e in s.fault_events
                    )
                if kind is None:
                    raise
                if kind == "blowup" and rcfg.blowup_policy == "abort":
                    raise BlowupError(
                        f"model blew up in chunk starting at step {step}: "
                        f"{exc}"
                    ) from exc
                if injector is not None:
                    # a killed process rank fired its node loss in a
                    # forked copy of the injector: spend it here too, so
                    # the relaunched world does not lose the rank again
                    injector.consume_node_losses(crashed_ranks(exc))
                state = _recover(kind, failure_detail(exc, kind))
                continue

            if stats is not None:
                report.fault_events.extend(
                    e for s in stats for e in s.fault_events
                )

            detail = _blowup_detail(core, new_state, rcfg)
            if detail is not None:
                if rcfg.blowup_policy == "abort":
                    core._discard_observation()
                    raise BlowupError(
                        f"model blew up in chunk starting at step {step}: "
                        f"{detail}"
                    )
                state = _recover("blowup", detail)
                continue

            # SDC acceptance gate: vet the chunk-end invariants against
            # the last accepted boundary before committing anything.
            candidate: TelemetryRecord | None = None
            if sdc_armed:
                candidate = record_for_state(
                    step + chunk, new_state, core.config.grid, sigma
                )
                detail = _sdc_detail(candidate, accepted, rcfg)
                if detail is not None:
                    _metric(
                        "resilience_sdc_rejections_total",
                        "chunks rejected by the SDC acceptance gate",
                    )
                    state = _recover("sdc", detail)
                    continue

            # Commit the chunk.
            step += chunk
            state = new_state
            accepted = candidate
            diag.accumulate(chunk_diag)
            report.chunk_makespans.append(chunk_diag.makespan)
            core._commit_observation()
            chunk_attempt = 1
            world = core._world
            if step < nsteps and world is not None and world.is_open:
                # release the ranks first: the next chunk's command goes
                # out, then this runs while they compute
                world.meanwhile = partial(_persist, step, state)
            else:
                _persist(step, state)

    report.rank_launches = core.rank_launches - launches0
    obs = getattr(core, "_observation", None)
    if obs is not None:
        obs.finalize_outputs()
    return state, diag, report


def _blowup_detail(core, new_state: ModelState, rcfg: ResilienceConfig) -> str | None:
    """Blowup description for a completed chunk, or ``None`` when healthy.

    The final-state checks of the seed are kept; when per-step physics
    telemetry was staged by the chunk, its NaN/Inf sentinels extend the
    guard to *mid-chunk* blowups (a chunk can go non-finite at step k and
    wander back to finite — telemetry catches what the end-state check
    cannot) and pinpoint the first bad step.
    """
    if not new_state.isfinite():
        return "non-finite fields"
    max_abs = new_state.max_abs()
    if max_abs > rcfg.blowup_threshold:
        return f"max |field| = {max_abs:.3e} > {rcfg.blowup_threshold:.3e}"
    for rec in getattr(core, "_staged_telemetry", ()):
        if not rec.finite:
            return f"telemetry: non-finite fields at step {rec.step}"
        if rec.max_abs > rcfg.blowup_threshold:
            return (
                f"telemetry: max |field| = {rec.max_abs:.3e} "
                f"> {rcfg.blowup_threshold:.3e} at step {rec.step}"
            )
    return None


def telemetry_drift(new: float, ref: float) -> float:
    """Fractional drift of one telemetry invariant across a chunk."""
    scale = max(abs(ref), abs(new), 1e-300)
    return abs(new - ref) / scale


def _sdc_detail(
    candidate: TelemetryRecord,
    accepted: TelemetryRecord | None,
    rcfg: ResilienceConfig,
) -> str | None:
    """SDC-gate verdict on a completed chunk, or ``None`` when accepted."""
    if accepted is None:
        return None
    if rcfg.sdc_mass_tol is not None:
        # mass is a conserved perturbation mean near zero: gate on the
        # absolute drift (a fractional test of ~0 is pure noise)
        drift = abs(candidate.mass - accepted.mass)
        if drift > rcfg.sdc_mass_tol:
            return (
                f"mass drift {drift:.3e} > tolerance "
                f"{rcfg.sdc_mass_tol:.3e} over one chunk"
            )
    if rcfg.sdc_energy_tol is not None:
        drift = telemetry_drift(candidate.energy, accepted.energy)
        if drift > rcfg.sdc_energy_tol:
            return (
                f"energy drift {drift:.3e} > tolerance "
                f"{rcfg.sdc_energy_tol:.3e} over one chunk"
            )
    return None
