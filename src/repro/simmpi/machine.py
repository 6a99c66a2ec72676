"""Alpha-beta machine model used by the logical clocks and the projection.

The standard two-parameter point-to-point cost ``T(n) = alpha + beta * n``
(latency + inverse bandwidth) plus a per-point compute rate.  The two
collectives the cores send, the ring allgather (the ``C`` and ``F``
operators) and the dissemination barrier, are costed from these with the
formulas of Thakur, Rabenseifner & Gropp (2005), the paper's reference
[19].  Three more terms (round and synchronization overheads) are read
only by the paper-scale projection, :class:`repro.perf.model.PerformanceModel`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

#: job size at which a collective's synchronization overhead is ``sync_base``
SYNC_REF_PROCS = 128


@dataclass(frozen=True)
class MachineModel:
    """Cost parameters of the simulated cluster.

    Parameters
    ----------
    alpha:
        Per-message latency [s].
    beta:
        Per-byte transfer time [s/B] (inverse bandwidth).
    seconds_per_point:
        Baseline cost of one stencil point-update [s]; the dynamical-core
        layer multiplies this by a per-operator weight (see
        :mod:`repro.perf.costs`).
    round_overhead, sync_base, sync_per_doubling:
        Projection-only terms, ignored by the logical clock: the
        rendezvous/jitter cost of one halo-exchange round [s], and the
        per-collective synchronization overhead at ``SYNC_REF_PROCS``
        ranks [s] and its growth per doubling of the job size [s].
    """

    alpha: float = 2.0e-6
    beta: float = 1.0e-9
    seconds_per_point: float = 2.0e-8
    round_overhead: float = 0.0
    sync_base: float = 0.0
    sync_per_doubling: float = 0.0

    def __post_init__(self) -> None:
        terms = (self.alpha, self.beta, self.seconds_per_point)
        terms += (self.round_overhead, self.sync_base, self.sync_per_doubling)
        if min(terms) < 0:
            raise ValueError("machine parameters must be non-negative")

    def sync_overhead(self, nprocs: int) -> float:
        """Per-collective synchronization overhead of an ``nprocs``-rank job
        (projection only)."""
        doublings = max(0.0, math.log2(max(1, nprocs) / SYNC_REF_PROCS))
        return self.sync_base + self.sync_per_doubling * doublings

    # ---- point-to-point --------------------------------------------------
    def p2p_time(self, nbytes: int) -> float:
        """Transfer time of one ``nbytes`` message."""
        return self.alpha + self.beta * nbytes

    # ---- collectives (Thakur et al. 2005 cost formulas) --------------------
    def allgather_time(self, q: int, nbytes_each: int) -> float:
        """Ring allgather; every rank contributes ``nbytes_each``."""
        if q <= 1:
            return 0.0
        return (q - 1) * (self.alpha + nbytes_each * self.beta)

    def barrier_time(self, q: int) -> float:
        """Dissemination barrier."""
        if q <= 1:
            return 0.0
        return math.ceil(math.log2(q)) * self.alpha


#: The paper's machine (Tianhe-2: TH Express-2 fabric, Ivy Bridge cores),
#: fitted once by grid search to the paper's anchor numbers — the machine
#: of Figs. 1 and 6-8: ~4 us per message, ~6 GB/s effective per-rank
#: bandwidth, optimized-Fortran point-update rate.
TIANHE2_LIKE = MachineModel(
    alpha=4.0e-6,
    beta=1.7e-10,
    seconds_per_point=1.2e-9,
    round_overhead=2.2e-3,
    sync_base=1.2e-2,
    sync_per_doubling=6.0e-3,
)

#: A single multicore box with shared-memory "messages" — used by tests
#: to keep simulated numbers small and by the quickstart example.
LAPTOP_LIKE = MachineModel(
    alpha=5.0e-7, beta=5.0e-11, seconds_per_point=5.0e-9
)
