"""Declarative fault injection for the simulated cluster.

A :class:`FaultPlan` is pure data: a seeded, deterministic description of
what goes wrong, where and when.  The launcher turns it into a
:class:`FaultInjector` — the runtime object the communicator consults on
every operation — so that, with a fixed seed, any faulty run is
bit-reproducible: same logical clocks, same fault events, same failures.

Supported fault classes (each mirrors a failure mode large production
runs actually see):

* **rank crash** (:class:`CrashSpec`) — a rank dies at a given logical
  time, comm-call count and/or launch attempt, raising :class:`RankCrash`
  on the victim; the launcher then aborts the surviving ranks promptly
  instead of letting them hit the full deadlock timeout;
* **message drop / payload corruption** (:class:`LinkFault`) — per-link
  Bernoulli loss or silent data corruption, drawn from per-rank RNG
  streams; corrupted payloads are caught by the substrate's message
  checksums (when enabled) as :class:`CorruptedMessage`, otherwise they
  propagate silently until a NaN/blowup guard notices;
* **degraded network window** (:class:`DegradedWindow`) — alpha/beta
  multipliers over a logical-time interval, modelling a congested or
  flapping link; clocks silently inflate;
* **compute straggler** (:class:`Straggler`) — a per-rank compute
  slowdown factor over a window, modelling a thermally-throttled or
  oversubscribed node;
* **node loss** (:class:`NodeLoss`) — a rank's host dies: on the process
  backend its OS process is really SIGKILLed.

Every injected fault is recorded as a :class:`FaultEvent` in the
victim's :class:`~repro.simmpi.stats.CommStats` (and in its trace, when
tracing is on), so perturbed schedules can be rendered and audited.

Determinism
-----------
All randomized decisions are drawn from per-``(seed, attempt, rank)``
NumPy generator streams and are consumed in each rank's own deterministic
operation order, so outcomes never depend on thread scheduling.  Crash
specs are *one-shot per injector*: once fired they stay consumed across
launch attempts, which is what lets a resilient driver restart from a
checkpoint and complete (the "replaced node" model).
"""
from __future__ import annotations

import logging
import math
import threading
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)


class RankCrash(RuntimeError):
    """An injected fatal failure of one simulated rank."""

    def __init__(self, rank: int, detail: str = "") -> None:
        self.rank = rank
        suffix = f": {detail}" if detail else ""
        super().__init__(f"rank {rank} crashed (injected){suffix}")


class RankLost(RankCrash):
    """A node loss: the rank's host is gone.  On the thread backend the
    victim raises this; on the process backend the victim's OS process is
    SIGKILLed instead (the parent sees the pipe EOF as a
    ``ChildProcessError``)."""

    def __init__(self, rank: int, detail: str = "") -> None:
        super().__init__(rank, detail)
        # overwrite the message: this is a node death, not a mere crash
        suffix = f": {detail}" if detail else ""
        self.args = (f"rank {rank} lost its node (injected){suffix}",)


class CorruptedMessage(RuntimeError):
    """A received payload failed its checksum — corrupted in flight."""


@dataclass(frozen=True)
class CrashSpec:
    """Crash ``rank`` when every given trigger condition holds.

    ``at_time`` compares against the victim's logical clock, ``at_call``
    against its cumulative comm-operation count (send/recv/collective,
    1-based), ``at_attempt`` against the injector's launch-attempt number
    (1-based; lets a sweep target "step k" of a chunked resilient run).
    At least one trigger must be given.  Crashes are one-shot: a spec
    fires at most once per injector lifetime.
    """

    rank: int
    at_time: float | None = None
    at_call: int | None = None
    at_attempt: int | None = None

    def __post_init__(self) -> None:
        if self.at_time is None and self.at_call is None and self.at_attempt is None:
            raise ValueError("CrashSpec needs at_time, at_call and/or at_attempt")

    def triggered(self, clock: float, ncalls: int, attempt: int) -> bool:
        if self.at_attempt is not None and attempt != self.at_attempt:
            return False
        if self.at_time is not None and clock < self.at_time:
            return False
        if self.at_call is not None and ncalls < self.at_call:
            return False
        return True


@dataclass(frozen=True)
class NodeLoss:
    """Kill ``rank``'s node when every trigger condition holds.

    Trigger semantics match :class:`CrashSpec` (logical time, cumulative
    comm-call count, launch attempt; at least one required).  On the
    thread backend the victim raises :class:`RankLost`, on the process
    backend the victim's OS process SIGKILLs itself — the one injected
    fault that is a real failure of the host.  Node losses are one-shot
    per injector, like crash specs: the relaunched rank is the replaced
    node.
    """

    rank: int
    at_time: float | None = None
    at_call: int | None = None
    at_attempt: int | None = None

    def __post_init__(self) -> None:
        if self.at_time is None and self.at_call is None and self.at_attempt is None:
            raise ValueError("NodeLoss needs at_time, at_call and/or at_attempt")

    def triggered(self, clock: float, ncalls: int, attempt: int) -> bool:
        if self.at_attempt is not None and attempt != self.at_attempt:
            return False
        if self.at_time is not None and clock < self.at_time:
            return False
        if self.at_call is not None and ncalls < self.at_call:
            return False
        return True


@dataclass(frozen=True)
class LinkFault:
    """Bernoulli message loss / corruption on matching point-to-point links.

    ``source``/``dest`` of ``None`` match any rank; the fault is active
    for sends whose sender clock lies in ``[t_start, t_end)`` and — when
    ``attempts`` is given — only on those launch attempts.
    ``corrupt_mode`` is ``"scale"`` (one element blown up to ~1e15,
    caught by a blowup threshold) or ``"nan"`` (caught by NaN guards).
    """

    source: int | None = None
    dest: int | None = None
    drop_probability: float = 0.0
    corrupt_probability: float = 0.0
    corrupt_mode: str = "scale"
    t_start: float = 0.0
    t_end: float = math.inf
    attempts: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.corrupt_mode not in ("scale", "nan"):
            raise ValueError(f"unknown corrupt_mode {self.corrupt_mode!r}")
        for p in (self.drop_probability, self.corrupt_probability):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")

    def matches(self, source: int, dest: int, clock: float, attempt: int) -> bool:
        if self.source is not None and self.source != source:
            return False
        if self.dest is not None and self.dest != dest:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        return self.t_start <= clock < self.t_end


@dataclass(frozen=True)
class DegradedWindow:
    """Transient network degradation: alpha/beta multipliers over a
    logical-time window.  ``ranks`` of ``None`` degrades every link;
    otherwise a p2p message is degraded when its sender or receiver is
    listed, and a collective when the observing member is listed.
    Collectives are slowed by ``max(alpha_factor, beta_factor)``."""

    t_start: float
    t_end: float
    alpha_factor: float = 1.0
    beta_factor: float = 1.0
    ranks: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if min(self.alpha_factor, self.beta_factor) < 0:
            raise ValueError("degradation factors must be non-negative")

    def active(self, clock: float) -> bool:
        return self.t_start <= clock < self.t_end

    def applies_to(self, *ranks: int) -> bool:
        return self.ranks is None or any(r in self.ranks for r in ranks)


@dataclass(frozen=True)
class Straggler:
    """Compute slowdown of one rank over a logical-time window — the
    clock silently advances ``slowdown`` times further per unit of
    charged work."""

    rank: int
    slowdown: float
    t_start: float = 0.0
    t_end: float = math.inf

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError("slowdown must be >= 1 (use 1 for no-op)")

    def active(self, rank: int, clock: float) -> bool:
        return rank == self.rank and self.t_start <= clock < self.t_end


@dataclass(frozen=True)
class FaultPlan:
    """The declarative, seeded description of everything that will go
    wrong in a simulated run.  Pure data; build a runtime injector with
    :meth:`injector` (or pass the plan straight to ``run_spmd``)."""

    seed: int = 0
    crashes: tuple[CrashSpec, ...] = ()
    link_faults: tuple[LinkFault, ...] = ()
    degraded: tuple[DegradedWindow, ...] = ()
    stragglers: tuple[Straggler, ...] = ()
    node_losses: tuple[NodeLoss, ...] = ()

    def injector(self) -> "FaultInjector":
        return FaultInjector(self)

    @property
    def node_loss_only(self) -> bool:
        """True when the plan injects nothing but node losses.

        Such plans are *process-safe*: the victim kills its own OS
        process (no cross-rank RNG coordination needed), so the launcher
        allows them on the process backend — the only fault class that
        genuinely exercises kill-the-OS-process recovery.
        """
        return bool(self.node_losses) and not (
            self.crashes or self.link_faults or self.degraded or self.stragglers
        )

    def describe(self) -> str:
        parts = [
            f"{len(self.crashes)} crash(es)",
            f"{len(self.link_faults)} link fault(s)",
            f"{len(self.degraded)} degraded window(s)",
            f"{len(self.stragglers)} straggler(s)",
            f"{len(self.node_losses)} node loss(es)",
        ]
        return f"FaultPlan(seed={self.seed}: " + ", ".join(parts) + ")"


@dataclass(frozen=True)
class FaultEvent:
    """One injected (or detected) fault occurrence on one rank."""

    rank: int
    #: "crash" | "node-loss" | "drop" | "corrupt" | "degrade" |
    #: "straggle" | "corruption-detected"
    kind: str
    t: float
    attempt: int = 1
    detail: str = ""


class FaultInjector:
    """Runtime fault state shared by all ranks of one (or several)
    ``run_spmd`` attempts.

    Reusable across attempts: :meth:`begin_attempt` resets the per-rank
    RNG streams (seeded ``(plan.seed, attempt, rank)``) while crash specs
    stay one-shot for the injector's whole lifetime.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.attempt = 0
        self._fired_crashes: set[int] = set()
        self._fired_node_losses: set[int] = set()
        self._noted: set[tuple] = set()
        self._rngs: dict[int, np.random.Generator] = {}
        self._lock = threading.Lock()

    # ---- lifecycle -------------------------------------------------------
    def begin_attempt(self) -> None:
        """Start a new launch attempt: fresh RNG streams, fresh one-per-
        attempt event markers; fired crashes stay consumed."""
        with self._lock:
            self.attempt += 1
            self._rngs = {}
            self._noted = set()

    def snapshot(self) -> tuple[int, frozenset[int], frozenset[int]]:
        """Fork-shippable injector state: ``(attempt, fired crash spec
        indices, fired node-loss spec indices)``.  A process-backend
        child rebuilds an equivalent injector from the (picklable) plan
        plus this snapshot, so one-shot semantics hold across the fork
        boundary."""
        with self._lock:
            return (
                self.attempt,
                frozenset(self._fired_crashes),
                frozenset(self._fired_node_losses),
            )

    def restore_snapshot(
        self, snap: tuple[int, frozenset[int], frozenset[int]]
    ) -> None:
        """Adopt a :meth:`snapshot` (process-backend child, post-fork)."""
        attempt, crashes, losses = snap
        with self._lock:
            self.attempt = attempt
            self._fired_crashes = set(crashes)
            self._fired_node_losses = set(losses)
            self._rngs = {}
            self._noted = set()

    def _rng(self, rank: int) -> np.random.Generator:
        with self._lock:
            rng = self._rngs.get(rank)
            if rng is None:
                rng = np.random.default_rng(
                    [self.plan.seed, self.attempt, rank]
                )
                self._rngs[rank] = rng
            return rng

    def _note_once(self, key: tuple) -> bool:
        """True the first time ``key`` is seen this attempt."""
        with self._lock:
            if key in self._noted:
                return False
            self._noted.add(key)
            return True

    # ---- crashes ---------------------------------------------------------
    def check_crash(
        self, rank: int, clock: float, ncalls: int
    ) -> FaultEvent | None:
        """The crash event to fire now, or None.  Marks the spec consumed."""
        for i, spec in enumerate(self.plan.crashes):
            if spec.rank != rank:
                continue
            if not spec.triggered(clock, ncalls, self.attempt):
                continue
            with self._lock:
                if i in self._fired_crashes:
                    continue
                self._fired_crashes.add(i)
            logger.warning(
                "injected crash on rank %d (t=%.6g, call %d, attempt %d)",
                rank, clock, ncalls, self.attempt,
            )
            return FaultEvent(
                rank, "crash", clock, self.attempt,
                f"t={clock:.6g} call={ncalls} attempt={self.attempt}",
            )
        return None

    # ---- node losses -----------------------------------------------------
    def check_node_loss(
        self, rank: int, clock: float, ncalls: int
    ) -> FaultEvent | None:
        """The node-loss event to fire now, or None.  Marks the spec
        consumed (one-shot, like crashes)."""
        for i, spec in enumerate(self.plan.node_losses):
            if spec.rank != rank:
                continue
            if not spec.triggered(clock, ncalls, self.attempt):
                continue
            with self._lock:
                if i in self._fired_node_losses:
                    continue
                self._fired_node_losses.add(i)
            logger.warning(
                "injected node loss on rank %d (t=%.6g, call %d, attempt %d)",
                rank, clock, ncalls, self.attempt,
            )
            return FaultEvent(
                rank, "node-loss", clock, self.attempt,
                f"t={clock:.6g} call={ncalls} attempt={self.attempt}",
            )
        return None

    def consume_node_losses(self, ranks) -> None:
        """Mark every node-loss spec targeting ``ranks`` as fired.

        The resilient driver calls this for the ranks that died in a
        failed chunk: on the process backend the victim died in a *forked
        copy* of this injector, so the parent's copy must be told the
        spec is spent — otherwise the relaunched world would lose the
        same rank again.
        """
        targets = set(ranks)
        with self._lock:
            for i, spec in enumerate(self.plan.node_losses):
                if spec.rank in targets:
                    self._fired_node_losses.add(i)

    # ---- point-to-point --------------------------------------------------
    def on_send(
        self, rank: int, dest: int, nbytes: int, clock: float
    ) -> tuple[str, str, float, float, list[FaultEvent]]:
        """Fate of a message: ``(action, corrupt_mode, alpha_factor,
        beta_factor, events)`` with action in
        ``{"deliver", "drop", "corrupt"}``."""
        events: list[FaultEvent] = []
        action = "deliver"
        corrupt_mode = "scale"
        for fi, f in enumerate(self.plan.link_faults):
            if not f.matches(rank, dest, clock, self.attempt):
                continue
            rng = self._rng(rank)
            if f.drop_probability > 0 and rng.random() < f.drop_probability:
                action = "drop"
                logger.info(
                    "injected message drop on link %d->%d (%d B, t=%.6g)",
                    rank, dest, nbytes, clock,
                )
                events.append(FaultEvent(
                    rank, "drop", clock, self.attempt,
                    f"link {rank}->{dest} ({nbytes} B)",
                ))
                break
            if f.corrupt_probability > 0 and rng.random() < f.corrupt_probability:
                action = "corrupt"
                corrupt_mode = f.corrupt_mode
                logger.info(
                    "injected payload corruption on link %d->%d "
                    "(mode=%s, t=%.6g)",
                    rank, dest, f.corrupt_mode, clock,
                )
                events.append(FaultEvent(
                    rank, "corrupt", clock, self.attempt,
                    f"link {rank}->{dest} mode={f.corrupt_mode}",
                ))
                break
        alpha_f = beta_f = 1.0
        for wi, w in enumerate(self.plan.degraded):
            if w.active(clock) and w.applies_to(rank, dest):
                alpha_f *= w.alpha_factor
                beta_f *= w.beta_factor
                if self._note_once(("degrade", rank, wi)):
                    events.append(FaultEvent(
                        rank, "degrade", clock, self.attempt,
                        f"window [{w.t_start:.6g}, {w.t_end:.6g}) "
                        f"alpha x{w.alpha_factor:g} beta x{w.beta_factor:g}",
                    ))
        return action, corrupt_mode, alpha_f, beta_f, events

    def corrupt_payload(self, payload: np.ndarray, rank: int, mode: str) -> None:
        """Silently damage one element of ``payload`` in place."""
        if payload.size == 0:
            return
        flat = payload.reshape(-1)
        idx = int(self._rng(rank).integers(flat.size))
        if not np.issubdtype(flat.dtype, np.floating):
            if np.issubdtype(flat.dtype, np.integer):
                flat[idx] = np.iinfo(flat.dtype).max
            return
        flat[idx] = np.nan if mode == "nan" else (flat[idx] + 1.0) * 1e15

    # ---- collectives / compute -------------------------------------------
    def collective_factor(
        self, rank: int, clock: float
    ) -> tuple[float, list[FaultEvent]]:
        """Duration multiplier of a collective observed by ``rank``."""
        factor = 1.0
        events: list[FaultEvent] = []
        for wi, w in enumerate(self.plan.degraded):
            if w.active(clock) and w.applies_to(rank):
                factor *= max(w.alpha_factor, w.beta_factor)
                if self._note_once(("degrade", rank, wi)):
                    logger.debug(
                        "degraded collective on rank %d in window "
                        "[%.6g, %.6g)", rank, w.t_start, w.t_end,
                    )
                    events.append(FaultEvent(
                        rank, "degrade", clock, self.attempt,
                        f"collective window [{w.t_start:.6g}, {w.t_end:.6g})",
                    ))
        return factor, events

    def on_compute(
        self, rank: int, clock: float
    ) -> tuple[float, list[FaultEvent]]:
        """Compute-time multiplier of ``rank`` at ``clock`` (stragglers)."""
        factor = 1.0
        events: list[FaultEvent] = []
        for si, s in enumerate(self.plan.stragglers):
            if s.active(rank, clock):
                factor *= s.slowdown
                if self._note_once(("straggle", rank, si)):
                    logger.debug(
                        "rank %d straggling x%g from t=%.6g",
                        rank, s.slowdown, clock,
                    )
                    events.append(FaultEvent(
                        rank, "straggle", clock, self.attempt,
                        f"slowdown x{s.slowdown:g} from t={clock:.6g}",
                    ))
        return factor, events
