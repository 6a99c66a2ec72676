"""Self-healing resilience for :class:`~repro.core.driver.DynamicalCore`.

Long climate integrations survive faults through an *escalation ladder*:
each layer absorbs what it can locally and hands the rest up, so the
expensive global recoveries run only when the cheap local ones fail:

1. **message retransmit** (:mod:`repro.simmpi.transport`, on by default
   here) — dropped or corrupted point-to-point payloads are retried at
   the message level inside the running chunk; the application never
   notices;
2. **buddy restore** (:mod:`repro.core.buddy`) — each rank's block state
   is mirrored in memory on a buddy rank at every chunk boundary, so a
   rank crash (or any other chunk failure) rewinds *disklessly* by
   reassembling the boundary state from surviving copies;
3. **elastic rank-loss recovery** (``rank_loss_policy``, default off) —
   when the failure detector (:mod:`repro.simmpi.membership`) declares a
   loss *permanent* (node death, killed OS process, flapping crasher),
   the run does not retry at the old membership: the boundary state is
   restored buddy-first, the communicator is rebuilt — a hot **spare**
   adopts the lost rank id, or the world **shrinks** to the survivors
   and the grid is re-decomposed — and blocks migrate live to their new
   owners (:mod:`repro.core.migrate`) before the chunk re-runs;
4. **disk rollback** — the seed behavior, now the escalation path: when
   the buddy snapshot cannot serve (double fault: a block's owner and
   its buddy both lost), the last ``ckpt_XXXXXXXX.npz`` is reloaded —
   elastic recoveries escalate here too, feeding the migration from a
   rank-0 scatter of the reloaded checkpoint;
5. **abort** — ``max_restarts`` recoveries of any kind exhaust into
   :class:`ResilienceExhausted`.

The recovery loop divides the run into chunks of ``checkpoint_interval``
steps; each chunk executes through ``DynamicalCore._run_once``.  A chunk
that raises a *retryable* failure — ``RankCrash``, ``CorruptedMessage``,
``MessageLost``, ``DeadlockError``, or any ``SpmdError`` carrying one —
triggers a buddy-first rewind and a retry; a chunk that completes is
vetted before commit:

* the **blowup guard** (``blowup_policy``) rejects non-finite or
  exploding fields, using the staged per-step telemetry to catch
  mid-chunk excursions;
* the **SDC acceptance gate** (``sdc_mass_tol`` / ``sdc_energy_tol``)
  compares the chunk-end mass/energy against the last accepted chunk
  boundary and rejects drifts beyond the tolerance (absolute for the
  near-zero mass proxy, fractional for energy) — an ABFT-style check
  that catches silent corruption checksums cannot see.

Committed chunks refresh the buddy mirror and append a disk checkpoint —
on the process backend while the ranks of the call's one rank world
already compute the next chunk (a failed command discards that world; the
retry forks a new one).

Determinism: because the simulated cluster advances logical clocks only,
a retry replays the chunk bit-identically when no new faults fire — the
property tests assert crash-interrupted runs end byte-equal to
fault-free ones, whether the rewind came from buddy memory or disk.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from repro.core.buddy import BuddyLost, BuddyStore, buddy_of
from repro.core.driver import StepDiagnostics
from repro.core.migrate import migrate_state
from repro.grid.decomposition import redecompose
from repro.grid.sigma import SigmaLevels
from repro.obs import flightrec
from repro.obs.spans import span
from repro.obs.telemetry import TelemetryRecord, record_for_state
from repro.simmpi.faults import (
    CorruptedMessage,
    FaultInjector,
    FaultPlan,
    RankCrash,
)
from repro.simmpi.launcher import SpmdError
from repro.simmpi.membership import (
    FailureDetector,
    MembershipConfig,
    MembershipView,
    RankLossUnrecoverable,
    evidence_from_failure,
)
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
        Model steps per chunk; buddy mirrors refresh and a checkpoint is
        written after every committed chunk.
    max_restarts:
        Total recoveries (of any kind) before giving up.
    backoff_base / backoff_factor / backoff_max:
        Settle time before retry ``k`` is
        ``min(backoff_base * backoff_factor**(k-1), backoff_max)``
        seconds, charged to the *logical* makespan (the simulated
        cluster must not block real wall-clock); the default base of 0
        disables it.
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
        network, making every drop/corruption escalate to a rollback.
    buddy_checkpoints:
        Keep the diskless buddy mirror (default on; it only engages on
        distributed runs with at least two ranks).
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
    rank_loss_policy:
        What a *permanent* rank loss (node death, killed OS process, or
        a flapping rank escalated by the failure detector) recovers to:
        ``"abort"`` (default — the loss is fatal), ``"spare"`` (a rank
        from the hot-spare pool adopts the lost rank id; falls back to
        shrink when the pool is dry), or ``"shrink"`` (the communicator
        is rebuilt over the survivors and the grid re-decomposed onto
        them).  Either elastic tier sits between the buddy restore and
        the disk rollback: the chunk-boundary state is recovered
        buddy-first (disk on a double fault), then the membership is
        rebuilt and blocks migrate live to their new owners.
    spare_ranks:
        Size of the pre-forked hot-spare pool the ``"spare"`` policy
        draws from.
    membership:
        Failure-detector knobs (:class:`~repro.simmpi.membership.
        MembershipConfig`); ``None`` uses the stock configuration.
    """

    checkpoint_dir: str | Path
    checkpoint_interval: int = 1
    max_restarts: int = 8
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    blowup_policy: str = "rollback"
    blowup_threshold: float = 1e8
    verify_halo_checksums: bool = True
    transport: TransportConfig | None = field(default_factory=TransportConfig)
    buddy_checkpoints: bool = True
    sdc_mass_tol: float | None = None
    sdc_energy_tol: float | None = None
    faults: FaultPlan | FaultInjector | None = None
    spmd_timeout: float | None = None
    resume: bool = False
    rank_loss_policy: str = "abort"
    spare_ranks: int = 0
    membership: MembershipConfig | None = None

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.rank_loss_policy not in ("abort", "spare", "shrink"):
            raise ValueError(
                f"rank_loss_policy must be 'abort', 'spare' or 'shrink', "
                f"got {self.rank_loss_policy!r}"
            )
        if self.spare_ranks < 0:
            raise ValueError("spare_ranks must be >= 0")
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
    """One recovery event of the resilient driver."""

    step: int          # model step the run was rewound to
    kind: str          # "crash" | "corruption" | "loss" | "deadlock" | "blowup" | "sdc" | "rank-loss"
    attempt: int       # retry count for the failing chunk (1-based)
    detail: str = ""
    source: str = "disk"   # where the rewound state came from: "buddy" | "disk"


@dataclass(frozen=True)
class RankLossRecord:
    """One elastic recovery from a permanent rank loss."""

    step: int                 # chunk boundary the run was rewound to
    lost: tuple[int, ...]     # rank ids declared permanently lost
    policy: str               # rebuild kind that ran: "spare" | "shrink"
    epoch: int                # membership epoch after the rebuild
    source: str               # boundary state source: "buddy" | "disk"
    mttr: float               # logical seconds: detect + consensus + migrate
    new_size: int             # communicator size after the rebuild
    #: MTTR decomposition: suspicion-to-consensus, block migration
    detect_s: float = 0.0
    migrate_s: float = 0.0


@dataclass
class ResilienceReport:
    """What happened during one resilient run."""

    checkpoints: list[tuple[int, Path]] = field(default_factory=list)
    restarts: list[RestartRecord] = field(default_factory=list)
    chunk_makespans: list[float] = field(default_factory=list)
    fault_events: list = field(default_factory=list)
    resumed_from_step: int = 0
    buddy_restores: int = 0
    disk_rollbacks: int = 0
    #: logical seconds charged to the makespan by retry backoff
    backoff_time: float = 0.0
    #: elastic recoveries from permanent rank losses
    rank_losses: list[RankLossRecord] = field(default_factory=list)
    #: logical seconds charged to the makespan by rank-loss recovery
    #: (failure detection + survivor consensus + block migration)
    recovery_time: float = 0.0
    spare_adoptions: int = 0
    shrinks: int = 0
    #: membership epoch at the end of the run (0: original membership)
    membership_epoch: int = 0
    #: communicator size at the end of the run
    final_nranks: int = 0
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
            f"restarts: {self.nrestarts} "
            f"({self.buddy_restores} buddy, {self.disk_rollbacks} disk)",
        ]
        for r in self.restarts:
            lines.append(
                f"  rewound to step {r.step} from {r.source} ({r.kind}, "
                f"attempt {r.attempt}): {r.detail}"
            )
        if self.rank_losses:
            lines.append(
                f"rank losses recovered: {len(self.rank_losses)} "
                f"({self.spare_adoptions} spare, {self.shrinks} shrink), "
                f"epoch {self.membership_epoch}, "
                f"MTTR total {self.recovery_time:.3g} s logical"
            )
            for rl in self.rank_losses:
                lines.append(
                    f"  epoch {rl.epoch}: lost {list(rl.lost)} at step "
                    f"{rl.step} -> {rl.policy} ({rl.source} restore, "
                    f"{rl.new_size} rank(s), MTTR {rl.mttr:.3g} s)"
                )
        if self.fault_events:
            lines.append(f"fault events observed: {len(self.fault_events)}")
        return "\n".join(lines)


def _classify(exc: BaseException) -> str | None:
    """Retryable-failure kind of one exception, or None if fatal."""
    if isinstance(exc, RankCrash):
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
    the per-rank exceptions.  Returns ``None`` for failures that should
    propagate (programming errors, bad configuration, ...).
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
    """The ranks that died of an injected crash in ``exc`` (sorted)."""
    if isinstance(exc, SpmdError):
        return tuple(sorted(
            r for r, e in exc.exceptions.items()
            if r >= 0 and isinstance(e, RankCrash)
        ))
    if isinstance(exc, RankCrash):
        return (exc.rank,)
    return ()


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
    """Advance ``nsteps`` with the full escalation ladder armed.

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

    decomp = core.config.resolve_decomposition()
    buddy: BuddyStore | None = None
    if rcfg.buddy_checkpoints and decomp.nranks >= 2:
        buddy = BuddyStore(decomp)

    # Elastic membership: armed only when a non-abort policy asks for it.
    detector: FailureDetector | None = None
    view: MembershipView | None = None
    if rcfg.rank_loss_policy != "abort" and decomp.nranks >= 2:
        detector = FailureDetector(
            decomp.nranks,
            rcfg.membership if rcfg.membership is not None
            else MembershipConfig(),
            core.config.machine,
        )
        view = MembershipView(decomp.nranks, spares=rcfg.spare_ranks)

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
        "payload checksums %s, reliable transport %s, buddy checkpoints "
        "%s, SDC gates %s",
        nsteps, rcfg.checkpoint_interval,
        "ON" if rcfg.verify_halo_checksums else "OFF",
        "ON" if rcfg.transport is not None and rcfg.transport.reliable
        else "OFF",
        "ON" if buddy is not None else "OFF",
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
    if buddy is not None:
        buddy.store(step, state)
    accepted: TelemetryRecord | None = (
        record_for_state(step, state, core.config.grid, sigma)
        if sdc_armed else None
    )

    restarts_left = rcfg.max_restarts
    chunk_attempt = 1

    def _restore_boundary(lost: tuple[int, ...]) -> tuple[ModelState, str]:
        """State of the last committed boundary and where it came from:
        the buddy mirrors that survive ``lost``, else — the escalation
        path — the disk checkpoint, exactly as a process restarted from
        scratch would reload it."""
        if buddy is not None:
            buddy.drop_ranks(lost)
            try:
                with span("buddy-restore", "resilience"):
                    restored = buddy.restore(step)
                report.buddy_restores += 1
                logger.info(
                    "restored step %d from buddy memory (lost ranks: %s)",
                    step, list(lost) or "none",
                )
                return restored, "buddy"
            except BuddyLost as why:
                logger.warning(
                    "buddy restore unavailable at step %d (%s) — "
                    "escalating to disk rollback", step, why,
                )
        with span("rollback", "resilience"):
            found = latest_verified_checkpoint(ckdir)
            if found is None:
                raise ResilienceExhausted(
                    f"no checkpoint to roll back to in {ckdir}"
                )
            restored, saved_step = load_state(found[0])
        if saved_step != step:
            raise ResilienceExhausted(
                f"latest checkpoint is for step {saved_step}, "
                f"expected step {step} — checkpoint directory corrupted?"
            )
        report.disk_rollbacks += 1
        logger.info("restored checkpoint for step %d from %s", step, found[0])
        return restored, "disk"

    def _recover(
        kind: str, detail: str, crashed: tuple[int, ...] = ()
    ) -> ModelState:
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
        if rcfg.backoff_base > 0.0:
            # Settle time is logical: it lands in the makespan, never in
            # wall-clock (the simulated cluster must not sleep for real).
            report.backoff_time += min(
                rcfg.backoff_base * rcfg.backoff_factor ** (chunk_attempt - 1),
                rcfg.backoff_max,
            )
        chunk_attempt += 1

        restored, source = _restore_boundary(crashed)
        report.restarts.append(
            RestartRecord(step=step, kind=kind, attempt=chunk_attempt - 1,
                          detail=detail, source=source)
        )
        _metric("resilience_restarts_total", "chunk recoveries", kind=kind)
        _metric(
            "resilience_buddy_restores_total"
            if source == "buddy" else "resilience_disk_rollbacks_total",
            "diskless buddy restores"
            if source == "buddy" else "disk checkpoint rollbacks",
        )
        if buddy is not None:
            # Re-mirror: the replacement rank needs a fresh primary and
            # every surviving rank a fresh mirror of it.
            buddy.store(step, restored)
        return restored

    def _recover_rank_loss(decision, exc: BaseException) -> ModelState:
        """The elastic tier: restore, rebuild the membership, migrate.

        Runs between the buddy restore and the disk rollback of the
        ladder: the chunk-boundary state is recovered buddy-first (disk
        when the owner AND its buddy are both among the lost — the
        double fault), the communicator is rebuilt per the policy, and
        every block migrates live to its owner under the new layout.
        """
        nonlocal restarts_left, chunk_attempt, decomp, buddy
        core._discard_observation()
        lost = decision.lost
        old_n = decomp.nranks
        if restarts_left <= 0:
            raise ResilienceExhausted(
                f"gave up at step {step} after {rcfg.max_restarts} "
                f"restarts (last failure: rank-loss: ranks {list(lost)} "
                f"permanently lost)"
            )
        restarts_left -= 1
        chunk_attempt += 1
        logger.warning(
            "permanent loss of rank(s) %s at step %d (epoch %d, policy "
            "%s) — rebuilding", list(lost), step, decision.epoch,
            rcfg.rank_loss_policy,
        )

        # 1. Recover the chunk-boundary state: buddy mirrors first, the
        # disk checkpoint when the loss took a block AND its mirror.
        restored, source = _restore_boundary(lost)

        # 2. Rebuild the communicator: spare adoption or survivor shrink.
        with span("membership-rebuild", "resilience",
                  args={"lost": list(lost), "policy": rcfg.rank_loss_policy}):
            try:
                plan = view.rebuild(lost, rcfg.rank_loss_policy)
            except RankLossUnrecoverable as why:
                raise ResilienceExhausted(str(why)) from why
        if injector is not None:
            # The victims fired their one-shot node-loss specs in their
            # own (possibly forked) injector copies; mark them consumed
            # here so the retry does not lose the same node twice.
            injector.consume_node_losses(lost)
        if plan.kind == "spare":
            new_decomp = decomp  # layout unchanged; spares adopt rank ids
        else:
            try:
                new_decomp = redecompose(decomp, plan.new_size)
            except ValueError as why:
                raise ResilienceExhausted(
                    f"cannot re-decompose {decomp.kind} layout onto "
                    f"{plan.new_size} rank(s): {why}"
                ) from why

        # 3. Migrate blocks from wherever their bytes live (survivors,
        # buddy-mirror hosts, or rank 0 after a disk rollback) to their
        # owners under the new layout, over the simulated transport.
        if source == "disk":
            carrier_of = {o: 0 for o in range(old_n)}
        else:
            carrier_of = {}
            for o in range(old_n):
                host = buddy_of(o, old_n) if o in lost else o
                carrier_of[o] = plan.rank_map.get(host, host)
        with span("block-migrate", "resilience",
                  args={"kind": plan.kind, "new_size": plan.new_size}):
            migrated, mig = migrate_state(
                restored, decomp, new_decomp, carrier_of,
                machine=core.config.machine,
                timeout=rcfg.spmd_timeout
                if rcfg.spmd_timeout is not None else 60.0,
            )
        if migrated.max_difference(restored) != 0.0:
            raise ResilienceExhausted(
                f"block migration corrupted the state at step {step} "
                f"(max diff {migrated.max_difference(restored):.3e})"
            )

        # 4. Adopt the new layout everywhere the run references it.
        decomp = new_decomp
        core.config.decomp = new_decomp
        core.config.nprocs = new_decomp.nranks
        if rcfg.buddy_checkpoints and new_decomp.nranks >= 2:
            buddy = BuddyStore(new_decomp)
            buddy.store(step, migrated)
        else:
            buddy = None

        mttr = decision.overhead + mig.makespan
        report.recovery_time += mttr
        report.rank_losses.append(RankLossRecord(
            step=step, lost=lost, policy=plan.kind, epoch=view.epoch,
            source=source, mttr=mttr, new_size=plan.new_size,
            detect_s=decision.overhead, migrate_s=mig.makespan,
        ))
        if plan.kind == "spare":
            report.spare_adoptions += 1
        else:
            report.shrinks += 1
        report.restarts.append(RestartRecord(
            step=step, kind="rank-loss", attempt=chunk_attempt - 1,
            detail=f"{plan.describe()}; {mig.describe()}", source=source,
        ))
        _metric("resilience_rank_losses_total",
                "permanent rank losses recovered", policy=plan.kind)
        obs = core.observation
        if obs is not None and obs.config.metrics:
            obs.registry.gauge(
                "membership_epoch", "current membership epoch"
            ).set(view.epoch)
            obs.registry.histogram(
                "recovery_mttr_seconds",
                "logical detect+consensus+migrate time per rank loss",
            ).observe(mttr)
        flightrec.note(
            "rank-loss-recovered", lost=list(lost), policy=plan.kind,
            epoch=view.epoch, step=step, source=source, mttr=mttr,
            new_size=plan.new_size,
        )
        logger.info(
            "epoch %d: %s; %s; MTTR %.3g s logical",
            view.epoch, plan.describe(), mig.describe(), mttr,
        )
        return migrated

    def _persist(step: int, state: ModelState) -> None:
        """Mirror and checkpoint the chunk committed at ``step``."""
        if buddy is not None:
            buddy.store(step, state)
        path = checkpoint_path(ckdir, step)
        save_state(path, state, step=step)
        report.checkpoints.append((step, path))

    launches0 = core.rank_launches
    # Activate the core's span tracer for the whole resilient run, so the
    # chunk/rollback spans below land in the same trace as the per-step
    # spans, and own the rank world across the chunks; the per-chunk
    # _run_once scopes no-op inside these.
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
                evidence = evidence_from_failure(exc)
                if detector is not None and evidence:
                    # Survivor-side detection round: every failure with
                    # rank evidence feeds the detector; only a permanent
                    # verdict (node loss, process death, flapping
                    # escalation) takes the elastic path — transient
                    # crashes fall through to the ordinary rewind.
                    with span("failure-detect", "resilience",
                              args={"evidence": [
                                  (e.rank, e.kind) for e in evidence]}):
                        decision = detector.decide(evidence)
                    if decision.permanent:
                        state = _recover_rank_loss(decision, exc)
                        continue
                elif any(e.directly_permanent for e in evidence):
                    perm = sorted(
                        {e.rank for e in evidence if e.directly_permanent}
                    )
                    raise ResilienceExhausted(
                        f"rank(s) {perm} permanently lost at step {step} "
                        f"and rank_loss_policy is 'abort' — set it to "
                        f"'spare' or 'shrink' to recover elastically"
                    ) from exc
                if kind is None:
                    raise
                if kind == "blowup" and rcfg.blowup_policy == "abort":
                    raise BlowupError(
                        f"model blew up in chunk starting at step {step}: "
                        f"{exc}"
                    ) from exc
                state = _recover(
                    kind, str(exc).splitlines()[0], crashed_ranks(exc)
                )
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

    diag.makespan += report.backoff_time + report.recovery_time
    report.rank_launches = core.rank_launches - launches0
    report.membership_epoch = view.epoch if view is not None else 0
    report.final_nranks = decomp.nranks
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
