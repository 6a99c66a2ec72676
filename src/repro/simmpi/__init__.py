"""A simulated distributed-memory message-passing substrate.

The paper evaluates on 1024 MPI ranks of Tianhe-2; neither the machine nor
mpi4py is available here, so this package provides the substitute described
in DESIGN.md: an SPMD runtime where every rank is a Python thread (or,
with ``run_spmd(..., backend="process")``, an OS process communicating
over shared-memory rings — see :mod:`repro.simmpi.shm`) with a
private mailbox, tag-matched point-to-point messages, sub-communicators and
the two collectives the cores send (``allgather`` for the ``C`` and ``F``
operators, ``barrier``) — plus a deterministic **logical clock** driven by
an alpha-beta machine model.  All reported "times" come from the logical
clock, never from wall-clock, so results are reproducible and independent
of the host machine; the communication *structure* (message counts, bytes,
synchronisations) is exactly that of the real algorithms.

Public API
----------
:func:`run_spmd`
    Launch ``fn(comm, *args)`` on ``nranks`` simulated ranks.
:class:`SimComm`
    The per-rank communicator handle (p2p, allgather/barrier,
    sub-communicators).
:class:`MachineModel`
    The alpha-beta-compute cost model.
:class:`CommStats`
    Per-rank communication/computation accounting.
"""
from repro.simmpi.machine import MachineModel, TIANHE2_LIKE, LAPTOP_LIKE
from repro.simmpi.stats import CommStats
from repro.simmpi.network import DeadlockError, Message, MessageLost
from repro.simmpi.transport import LinkHealth, TransportConfig
from repro.simmpi.faults import (
    CorruptedMessage,
    CrashSpec,
    DegradedWindow,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    LinkFault,
    NodeLoss,
    RankCrash,
    RankLost,
    Straggler,
)
from repro.simmpi.comm import SimComm, Request
from repro.simmpi.launcher import BACKENDS, run_spmd, SpmdResult, SpmdError

__all__ = [
    "BACKENDS",
    "run_spmd",
    "SpmdResult",
    "SpmdError",
    "SimComm",
    "Request",
    "MachineModel",
    "TIANHE2_LIKE",
    "LAPTOP_LIKE",
    "CommStats",
    "DeadlockError",
    "Message",
    "MessageLost",
    "TransportConfig",
    "LinkHealth",
    "FaultPlan",
    "FaultInjector",
    "FaultEvent",
    "CrashSpec",
    "LinkFault",
    "DegradedWindow",
    "Straggler",
    "NodeLoss",
    "RankCrash",
    "RankLost",
    "CorruptedMessage",
]
