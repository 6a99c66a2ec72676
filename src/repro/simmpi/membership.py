"""Deterministic membership: failure detection, consensus, rebuild plans.

Permanent node loss is the one failure the escalation ladder of
:mod:`repro.core.resilience` could not absorb: a crashed rank that never
returns used to abort the attempt.  This module supplies the missing
machinery, in the same spirit as ULFM's ``MPI_Comm_shrink``/
``MPI_Comm_agree`` but built for the simulated cluster:

* a **failure detector** (:class:`FailureDetector`) that turns the
  evidence carried by a failed SPMD attempt — ``RankLost`` exceptions,
  dead-process EOFs, repeated crashes of the same rank — into a
  transient-vs-permanent classification, and *charges* the detection to
  the logical clock with a deterministic per-link heartbeat/suspicion
  timeline plus a survivor consensus round (allreduce of the suspicion
  bitmap, costed by the machine model);
* a **membership view** (:class:`MembershipView`) tracking the epoch —
  bumped on every accepted loss — and the hot-spare pool
  (:class:`SparePool`);
* a **communicator rebuild plan** (:class:`CommRebuild`): either
  ``spare`` (a pre-provisioned spare adopts the lost rank id; the world
  keeps its size and decomposition) or ``shrink`` (a new, smaller world
  over the survivors, with a dense old-rank → new-rank map).

Determinism (the PR-4 discipline, applied to detection)
-------------------------------------------------------
Nothing here reads the wall clock or sleeps.  Heartbeats tick on the
*logical* clock at ``heartbeat_period``; each surviving observer suspects
a silent peer after ``suspicion_multiplier`` missed beats plus a seeded
per-link jitter (the same blake2b construction the reliable transport
uses for retransmit backoff, :func:`repro.simmpi.transport.jitter_unit`).
The loss is *declared* when a quorum of survivors suspects, and the
declaration is *agreed* after one allreduce over the survivors.  All of
these are pure functions of ``(seed, epoch, machine model, failure
time)`` — two runs with the same seed produce bit-identical detection
timelines, so recovered trajectories stay replayable.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

from repro.simmpi.faults import RankCrash, RankLost
from repro.simmpi.machine import MachineModel
from repro.simmpi.transport import jitter_unit

logger = logging.getLogger(__name__)


class RankLossUnrecoverable(RuntimeError):
    """A permanent rank loss that the configured policy cannot absorb."""


@dataclass(frozen=True)
class MembershipConfig:
    """Knobs of the deterministic failure detector.

    Parameters
    ----------
    heartbeat_period:
        Logical seconds between the heartbeats every rank is assumed to
        emit on each link (the detector models them; the simulated ranks
        do not literally send them — heartbeat traffic is pure overhead
        accounting, exactly like the alpha-beta cost model itself).
    suspicion_multiplier:
        Missed heartbeats before an observer suspects a silent peer.
    suspicion_jitter:
        Fractional, seeded per-``(observer, lost)`` jitter on the
        suspicion timeout — models independent timers without breaking
        determinism.
    quorum:
        Fraction of survivors that must suspect before the loss is
        declared (strictly more than ``quorum * nsurvivors`` observers,
        floor-capped at 1).
    permanent_after:
        A rank whose *transient* crashes repeat this many times across
        attempts is reclassified as permanently lost ("flapping node"
        escalation); direct node-loss evidence is permanent immediately.
    seed:
        Jitter seed; resilient runs pass the fault plan's seed so one
        seed fixes the entire failure-and-recovery timeline.
    consensus_bytes_per_rank:
        Payload of the agreement allreduce: one suspicion bitmap entry
        per world rank.
    """

    heartbeat_period: float = 5.0e-4
    suspicion_multiplier: float = 3.0
    suspicion_jitter: float = 0.1
    quorum: float = 0.5
    permanent_after: int = 2
    seed: int = 0
    consensus_bytes_per_rank: int = 1

    def __post_init__(self) -> None:
        if self.heartbeat_period <= 0:
            raise ValueError("heartbeat_period must be positive")
        if self.suspicion_multiplier < 1:
            raise ValueError("suspicion_multiplier must be >= 1")
        if not 0.0 <= self.suspicion_jitter <= 1.0:
            raise ValueError("suspicion_jitter must lie in [0, 1]")
        if not 0.0 < self.quorum <= 1.0:
            raise ValueError("quorum must lie in (0, 1]")
        if self.permanent_after < 1:
            raise ValueError("permanent_after must be >= 1")


@dataclass(frozen=True)
class RankFailureEvidence:
    """One observed failure of one rank, extracted from a failed attempt."""

    rank: int
    #: "node-loss" (explicit RankLost / injected loss event),
    #: "process-death" (rank OS process died without reporting),
    #: "crash" (transient injected crash)
    kind: str
    t: float = 0.0
    detail: str = ""

    @property
    def directly_permanent(self) -> bool:
        return self.kind in ("node-loss", "process-death")


def evidence_from_failure(exc: BaseException) -> tuple[RankFailureEvidence, ...]:
    """Extract per-rank failure evidence from a chunk failure.

    Understands :class:`~repro.simmpi.launcher.SpmdError` (per-rank
    exceptions plus fault events in the attached stats), bare
    :class:`RankCrash`/:class:`RankLost`, and returns evidence sorted by
    rank.  Survivor-side ``DeadlockError``s are *not* evidence — they are
    the wake-up of the abort broadcast, not a failure of that rank.
    """
    from repro.simmpi.launcher import SpmdError

    by_rank: dict[int, RankFailureEvidence] = {}

    def _add(rank: int, kind: str, t: float, detail: str) -> None:
        prev = by_rank.get(rank)
        # strongest evidence wins: node-loss > process-death > crash
        order = {"node-loss": 2, "process-death": 1, "crash": 0}
        if prev is None or order[kind] > order[prev.kind]:
            by_rank[rank] = RankFailureEvidence(rank, kind, t, detail)

    if isinstance(exc, SpmdError):
        # logical death times, where the victim managed to report them
        death_t: dict[int, float] = {}
        for s in exc.stats or ():
            for ev in s.fault_events:
                if ev.kind in ("crash", "node-loss"):
                    death_t[ev.rank] = max(death_t.get(ev.rank, 0.0), ev.t)
        for rank, e in exc.exceptions.items():
            if rank < 0:
                continue
            t = death_t.get(rank, 0.0)
            if isinstance(e, RankLost):
                _add(rank, "node-loss", t, str(e))
            elif isinstance(e, RankCrash):
                _add(rank, "crash", t, str(e))
            elif isinstance(e, ChildProcessError):
                # the rank's OS process died without reporting: on the
                # process backend this is what a node loss looks like
                _add(rank, "process-death", t, str(e))
        # a SIGKILLed process-backend victim reports nothing, but its
        # injected loss may still be recorded in surviving ranks' stats
        for s in exc.stats or ():
            for ev in s.fault_events:
                if ev.kind == "node-loss":
                    _add(ev.rank, "node-loss", ev.t, ev.detail)
    elif isinstance(exc, RankLost):
        _add(exc.rank, "node-loss", 0.0, str(exc))
    elif isinstance(exc, RankCrash):
        _add(exc.rank, "crash", 0.0, str(exc))
    return tuple(by_rank[r] for r in sorted(by_rank))


@dataclass(frozen=True)
class MembershipDecision:
    """The agreed outcome of one detection round.

    All times are logical seconds on the failed attempt's clock.  The
    ``overhead`` (consensus completion minus failure time) is what the
    resilient driver charges to the makespan for having *detected* the
    loss — rebuild and migration costs are charged separately.
    """

    epoch: int
    permanent: tuple[int, ...]
    transient: tuple[int, ...]
    t_fail: float
    #: per lost rank: logical time the survivor quorum was reached
    declared_at: dict[int, float]
    #: logical completion time of the survivors' agreement allreduce
    consensus_at: float
    nsurvivors: int
    quorum_votes: int

    @property
    def lost(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.permanent) | set(self.transient)))

    @property
    def overhead(self) -> float:
        return max(0.0, self.consensus_at - self.t_fail)


class FailureDetector:
    """Classify failed ranks and charge a deterministic detection timeline.

    One detector serves one resilient run: it keeps the per-rank crash
    history (for the flapping-node escalation) and the membership epoch
    used to seed the per-link suspicion jitter.
    """

    def __init__(
        self,
        nranks: int,
        config: MembershipConfig | None = None,
        machine: MachineModel | None = None,
    ) -> None:
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.nranks = nranks
        self.config = config or MembershipConfig()
        self.machine = machine or MachineModel()
        self.crash_counts: dict[int, int] = {}
        self.epoch = 0

    # ---- classification --------------------------------------------------
    def classify(
        self, evidence: tuple[RankFailureEvidence, ...]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(permanent, transient)`` rank tuples for this evidence set.

        Updates the crash history: a rank reaching ``permanent_after``
        observed crashes is escalated to permanent even without direct
        node-loss evidence.
        """
        permanent: set[int] = set()
        transient: set[int] = set()
        for ev in evidence:
            if ev.directly_permanent:
                permanent.add(ev.rank)
                continue
            count = self.crash_counts.get(ev.rank, 0) + 1
            self.crash_counts[ev.rank] = count
            if count >= self.config.permanent_after:
                logger.warning(
                    "rank %d crashed %d time(s) — escalating to permanent "
                    "loss (flapping node)", ev.rank, count,
                )
                permanent.add(ev.rank)
            else:
                transient.add(ev.rank)
        return tuple(sorted(permanent)), tuple(sorted(transient - permanent))

    # ---- deterministic detection timeline --------------------------------
    def suspicion_time(self, observer: int, lost: int, t_fail: float) -> float:
        """Logical time ``observer`` suspects ``lost``, given death at
        ``t_fail``: the last heartbeat it saw, plus the suspicion timeout
        with this link's seeded jitter."""
        cfg = self.config
        period = cfg.heartbeat_period
        last_beat = (t_fail // period) * period
        u = jitter_unit(cfg.seed, self.epoch + 1, observer, lost, 0)
        timeout = cfg.suspicion_multiplier * period * (
            1.0 + cfg.suspicion_jitter * u
        )
        return last_beat + timeout

    def decide(
        self, evidence: tuple[RankFailureEvidence, ...]
    ) -> MembershipDecision:
        """Run one detection round over ``evidence``; bumps the epoch.

        The returned decision carries the full logical timeline:
        per-rank quorum declaration times and the completion time of the
        survivors' agreement allreduce.
        """
        permanent, transient = self.classify(evidence)
        lost = sorted(set(permanent) | set(transient))
        t_fail = max((ev.t for ev in evidence), default=0.0)
        survivors = [r for r in range(self.nranks) if r not in lost]
        nsurv = len(survivors)
        votes = max(1, int(self.config.quorum * nsurv + 1e-12))
        declared_at: dict[int, float] = {}
        for lr in lost:
            times = sorted(
                self.suspicion_time(s, lr, t_fail) for s in survivors
            )
            declared_at[lr] = times[votes - 1] if times else t_fail
        declared = max(declared_at.values(), default=t_fail)
        agree_cost = self.machine.allreduce_time(
            max(1, nsurv),
            self.nranks * self.config.consensus_bytes_per_rank,
        )
        self.epoch += 1
        decision = MembershipDecision(
            epoch=self.epoch,
            permanent=tuple(permanent),
            transient=tuple(transient),
            t_fail=t_fail,
            declared_at=declared_at,
            consensus_at=declared + agree_cost,
            nsurvivors=nsurv,
            quorum_votes=votes,
        )
        logger.info(
            "membership epoch %d: lost=%s (permanent=%s) declared at "
            "t=%.6g, agreed at t=%.6g (overhead %.3g s logical)",
            decision.epoch, decision.lost, decision.permanent,
            declared, decision.consensus_at, decision.overhead,
        )
        return decision


# ---------------------------------------------------------------------------
# rebuild plans
# ---------------------------------------------------------------------------
@dataclass
class SparePool:
    """Capacity accounting of pre-provisioned hot-spare ranks.

    A spare is a standby host that can *adopt* a lost rank's id, keeping
    the communicator size and decomposition unchanged.  On the process
    backend the adopting worker is physically instantiated by the next
    chunk's fork (the launcher forks one process per rank each chunk, so
    provisioning is the fork itself); the pool tracks how many adoptions
    the run is allowed before it must shrink instead.
    """

    size: int
    used: int = 0
    adopted: list[tuple[int, int]] = field(default_factory=list)

    @property
    def available(self) -> int:
        return max(0, self.size - self.used)

    def adopt(self, lost_rank: int) -> int:
        """Consume one spare for ``lost_rank``; returns the spare's id."""
        if self.available <= 0:
            raise RankLossUnrecoverable(
                f"no hot spare left to adopt rank {lost_rank} "
                f"({self.used}/{self.size} used)"
            )
        spare_id = self.size - self.available  # 0-based spare index
        self.used += 1
        self.adopted.append((spare_id, lost_rank))
        return spare_id


def shrink_map(old_size: int, lost: tuple[int, ...]) -> dict[int, int]:
    """Dense old-rank → new-rank map over the survivors (order-preserving)."""
    lost_set = set(lost)
    if len(lost_set) >= old_size:
        raise ValueError(
            f"cannot shrink: all {old_size} rank(s) would be lost"
        )
    mapping: dict[int, int] = {}
    new = 0
    for old in range(old_size):
        if old in lost_set:
            continue
        mapping[old] = new
        new += 1
    return mapping


@dataclass(frozen=True)
class CommRebuild:
    """One communicator reconstruction: how the world continues.

    ``kind == "spare"``: the world keeps ``old_size`` ranks; each lost
    rank id is re-hosted by a spare (``adopted`` maps lost rank →
    spare id) and ``rank_map`` is the identity over survivors.

    ``kind == "shrink"``: the world continues with ``new_size =
    old_size - len(lost)`` ranks; ``rank_map`` maps every survivor's old
    rank to its dense new rank.
    """

    kind: str
    old_size: int
    new_size: int
    lost: tuple[int, ...]
    survivors: tuple[int, ...]
    rank_map: dict[int, int]
    adopted: dict[int, int] = field(default_factory=dict)

    def describe(self) -> str:
        if self.kind == "spare":
            pairs = ", ".join(
                f"rank {lr}<-spare {sp}" for lr, sp in sorted(self.adopted.items())
            )
            return f"spare adoption ({pairs}); size stays {self.old_size}"
        return (
            f"shrink {self.old_size}->{self.new_size} "
            f"(lost {list(self.lost)})"
        )


class MembershipView:
    """Epoch-counted membership of one resilient run."""

    def __init__(self, nranks: int, spares: int = 0) -> None:
        self.nranks = nranks
        self.epoch = 0
        self.pool = SparePool(size=spares)
        self.rebuilds: list[CommRebuild] = []

    def rebuild(self, lost: tuple[int, ...], policy: str) -> CommRebuild:
        """Plan the communicator reconstruction for ``lost`` ranks.

        ``policy`` is ``"spare"`` (falls back to shrink when the pool
        runs dry) or ``"shrink"``.  Raises
        :class:`RankLossUnrecoverable` when no viable world remains.
        """
        if policy not in ("spare", "shrink"):
            raise ValueError(f"unknown rank-loss policy {policy!r}")
        lost = tuple(sorted(set(lost)))
        if not lost:
            raise ValueError("rebuild called without lost ranks")
        survivors = tuple(
            r for r in range(self.nranks) if r not in set(lost)
        )
        if not survivors:
            raise RankLossUnrecoverable(
                f"all {self.nranks} rank(s) lost — nothing to rebuild on"
            )
        if policy == "spare" and self.pool.available >= len(lost):
            adopted = {lr: self.pool.adopt(lr) for lr in lost}
            plan = CommRebuild(
                kind="spare",
                old_size=self.nranks,
                new_size=self.nranks,
                lost=lost,
                survivors=survivors,
                rank_map={r: r for r in survivors},
                adopted=adopted,
            )
        else:
            if policy == "spare":
                logger.warning(
                    "spare pool exhausted (%d/%d used, %d lost) — "
                    "falling back to shrink",
                    self.pool.used, self.pool.size, len(lost),
                )
            plan = CommRebuild(
                kind="shrink",
                old_size=self.nranks,
                new_size=len(survivors),
                lost=lost,
                survivors=survivors,
                rank_map=shrink_map(self.nranks, lost),
            )
            self.nranks = plan.new_size
        self.epoch += 1
        self.rebuilds.append(plan)
        logger.info(
            "membership epoch %d: %s", self.epoch, plan.describe()
        )
        return plan
