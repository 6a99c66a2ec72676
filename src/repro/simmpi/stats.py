"""Per-rank communication/computation accounting.

These counters are the ground truth for the Section 5.3 verification: the
per-step communication relationships the projection (:mod:`repro.perf.model`)
assumes are asserted against them in ``tests/test_perf_counts.py``.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CommStats:
    """Counters and logical-time accumulators of one simulated rank.

    Counter semantics
    -----------------
    * ``p2p_messages_sent/received`` — number of point-to-point messages.
    * ``p2p_bytes_sent/received`` — their payload bytes.
    * ``collective_ops`` — number of collective calls (allgather, barrier).
    * ``collective_bytes`` — modelled bytes moved by this rank inside
      collectives (``(q-1) * n`` for a ring allgather of ``n`` bytes each).
    * ``synchronizations`` — events at which this rank's clock was forced
      to wait for another rank (blocking recv/wait that actually waited,
      plus every collective/barrier); this is the instrumented analogue of
      the paper's latency cost ``S``.

    Time semantics (all logical seconds)
    ------------------------------------
    * ``compute_time`` — explicit compute advances.
    * ``p2p_time`` — time spent inside send/recv/wait calls (sender
      overhead + receiver waiting).
    * ``collective_time`` — time spent inside collectives, including
      waiting for stragglers.

    Fault accounting
    ----------------
    * ``faults_injected`` — number of fault events observed by this rank
      (injected crashes/drops/corruptions/degradations plus detected
      checksum failures).
    * ``fault_events`` — the :class:`~repro.simmpi.faults.FaultEvent`
      records themselves, in occurrence order.

    Reliable-transport accounting
    -----------------------------
    * ``retransmits`` — failed wire attempts this rank re-sent (message-
      level recovery, invisible to the application).
    * ``retransmit_time`` — logical seconds lost to failure detection
      and backoff before those retransmissions.
    * ``breaker_trips`` — circuit breakers this rank tripped open on its
      outgoing links.
    * ``messages_lost`` — permanently lost upstream messages this rank
      detected as sequence gaps (:class:`~repro.simmpi.network.
      MessageLost`).
    """

    p2p_messages_sent: int = 0
    p2p_messages_received: int = 0
    p2p_bytes_sent: int = 0
    p2p_bytes_received: int = 0
    collective_ops: int = 0
    collective_bytes: int = 0
    synchronizations: int = 0
    faults_injected: int = 0
    retransmits: int = 0
    breaker_trips: int = 0
    messages_lost: int = 0
    compute_time: float = 0.0
    p2p_time: float = 0.0
    collective_time: float = 0.0
    retransmit_time: float = 0.0
    #: free-form buckets: algorithms tag phases ("stencil", "fourier", ...)
    tagged_time: dict = field(default_factory=dict)
    #: fault events observed by this rank, in order
    fault_events: list = field(default_factory=list)

    @property
    def comm_time(self) -> float:
        """Total communication time (p2p + collective)."""
        return self.p2p_time + self.collective_time

    @property
    def total_time(self) -> float:
        """compute + communication time."""
        return self.compute_time + self.comm_time

    def add_tagged(self, tag: str, seconds: float) -> None:
        """Accumulate ``seconds`` into the free-form bucket ``tag``."""
        self.tagged_time[tag] = self.tagged_time.get(tag, 0.0) + seconds

    def merge_max(self, others: list["CommStats"]) -> "CommStats":
        """Elementwise max over ranks — the critical-path view of [16]."""
        out = CommStats()
        allstats = [self, *others]
        for f in (
            "p2p_messages_sent", "p2p_messages_received",
            "p2p_bytes_sent", "p2p_bytes_received",
            "collective_ops", "collective_bytes", "synchronizations",
            "faults_injected", "retransmits", "breaker_trips",
            "messages_lost",
        ):
            setattr(out, f, max(getattr(s, f) for s in allstats))
        for f in ("compute_time", "p2p_time", "collective_time",
                  "retransmit_time"):
            setattr(out, f, max(getattr(s, f) for s in allstats))
        keys = set()
        for s in allstats:
            keys.update(s.tagged_time)
        out.tagged_time = {
            k: max(s.tagged_time.get(k, 0.0) for s in allstats) for k in keys
        }
        out.fault_events = [e for s in allstats for e in s.fault_events]
        return out
