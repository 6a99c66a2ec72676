"""The per-rank communicator of the simulated cluster.

:class:`SimComm` is what the distributed dynamical cores program against.
It deliberately mirrors the mpi4py surface (``send``/``recv``/``isend``/
``irecv``/``allreduce``/``bcast``/``barrier``/sub-communicators) so the
algorithms read like the MPI codes they model, but every operation also
advances a deterministic logical clock and updates :class:`CommStats`.
"""
from __future__ import annotations

import threading
from typing import Any, Sequence

import numpy as np

from repro.obs.spans import point as obs_point, span as obs_span
from repro.simmpi.collectives import (
    GroupContext,
    REDUCE_OPS,
    collective_cost,
    combine_gather,
)
from repro.simmpi.faults import (
    CorruptedMessage,
    FaultEvent,
    FaultInjector,
    RankCrash,
    RankLost,
)
from repro.simmpi.machine import MachineModel
from repro.simmpi.network import (
    AbortFlag,
    Mailbox,
    Message,
    MessageLost,
    payload_checksum,
)
from repro.simmpi.stats import CommStats
from repro.simmpi.transport import (
    LinkHealth,
    TransportConfig,
    detection_delay,
    jitter_unit,
)


class SimWorld:
    """Shared state of one simulated cluster run."""

    #: thread-backend mailboxes hand the payload object to the receiver,
    #: so senders must copy it first (see ``SimComm._as_payload``); the
    #: shared-memory world (repro.simmpi.shm) packs bytes into its rings
    #: inside ``deliver`` and overrides this to True
    copies_on_deliver = False

    def __init__(
        self,
        nranks: int,
        machine: MachineModel,
        timeout: float = 120.0,
        injector: FaultInjector | None = None,
        verify_checksums: bool = False,
        transport: TransportConfig | None = None,
    ) -> None:
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.nranks = nranks
        self.machine = machine
        self.timeout = timeout
        self.injector = injector
        self.verify_checksums = verify_checksums
        self.transport = transport
        self.abort_flag = AbortFlag()
        self.mailboxes = [Mailbox(r, abort=self.abort_flag) for r in range(nranks)]
        self._groups: dict[tuple[int, ...], GroupContext] = {}
        self._groups_lock = threading.Lock()

    def group(self, ranks: tuple[int, ...]) -> GroupContext:
        """The shared rendezvous context of a rank group (created once)."""
        with self._groups_lock:
            ctx = self._groups.get(ranks)
            if ctx is None:
                ctx = GroupContext(ranks, abort=self.abort_flag)
                self._groups[ranks] = ctx
            return ctx

    def abort(self, reason: str) -> None:
        """Fail fast: wake every blocked receive/collective with ``reason``."""
        self.abort_flag.set(reason)
        for mb in self.mailboxes:
            mb.wake()
        with self._groups_lock:
            groups = list(self._groups.values())
        for ctx in groups:
            ctx.wake_all()


class Request:
    """Handle of a non-blocking operation.

    * isend requests are complete at creation (buffered-send semantics);
      ``wait`` is a no-op.
    * irecv requests match and deliver on ``wait``.
    """

    def __init__(
        self,
        comm: "SimComm",
        kind: str,
        source: int = -1,
        tag: int = 0,
    ) -> None:
        self._comm = comm
        self._kind = kind
        self._source = source
        self._tag = tag
        self._done = kind == "isend"
        self._payload: np.ndarray | None = None

    def wait(self) -> np.ndarray | None:
        """Complete the operation; returns the payload for irecv.

        Raises :class:`~repro.simmpi.faults.CorruptedMessage` when
        integrity checking is on and the payload fails its checksum, and
        :class:`~repro.simmpi.network.MessageLost` when reliable
        transport is on and the message's sequence number shows an
        upstream message was permanently dropped.
        """
        if self._done:
            return self._payload
        self._comm._fault_hook()
        with obs_span("recv-wait", "simmpi"):
            msg = self._comm._world.mailboxes[self._comm.rank].collect(
                self._source, self._tag, self._comm._world.timeout
            )
        comm = self._comm
        transport = comm._world.transport
        if transport is not None and transport.reliable:
            key = (self._source, self._tag)
            expected = comm._recv_seq.get(key, 0)
            if msg.seq != expected:
                comm.stats.messages_lost += max(1, msg.seq - expected)
                comm._recv_seq[key] = msg.seq + 1
                comm._record_fault(FaultEvent(
                    comm.rank, "message-lost", comm.clock,
                    comm._injector.attempt if comm._injector else 1,
                    f"stream {self._source}->{comm.rank} tag {self._tag}: "
                    f"got seq {msg.seq}, expected {expected}",
                ))
                raise MessageLost(
                    f"rank {comm.rank}: message(s) from rank {self._source} "
                    f"(tag {self._tag}) permanently lost — received seq "
                    f"{msg.seq}, expected {expected}"
                )
            comm._recv_seq[key] = expected + 1
        if msg.checksum is not None and payload_checksum(msg.payload) != msg.checksum:
            comm._record_fault(FaultEvent(
                comm.rank, "corruption-detected", comm.clock,
                comm._injector.attempt if comm._injector else 1,
                f"message from rank {self._source} tag {self._tag}",
            ))
            raise CorruptedMessage(
                f"rank {comm.rank}: payload of message from rank "
                f"{self._source} (tag {self._tag}) failed its checksum — "
                "corrupted in flight"
            )
        t0 = comm.clock
        waited = max(0.0, msg.arrival - comm.clock)
        if waited > 0.0:
            comm.stats.synchronizations += 1
        comm.clock = max(comm.clock, msg.arrival)
        comm.stats.p2p_time += waited
        comm.stats.p2p_messages_received += 1
        comm.stats.p2p_bytes_received += msg.payload.nbytes
        if comm._phase is not None:
            comm.stats.add_tagged(comm._phase, waited)
        if comm.tracer is not None and waited > 0:
            comm.tracer.record(
                "recv_wait", t0, comm.clock,
                detail=f"src={self._source} tag={self._tag}",
                phase=comm._phase,
            )
        obs_point(
            "irecv", "comm",
            args={"flow": f"{self._source}>{comm.rank}t{self._tag}#{msg.seq}"},
        )
        self._payload = msg.payload
        self._done = True
        return self._payload


class SimComm:
    """Communicator handle owned by one simulated rank."""

    def __init__(self, world: SimWorld, rank: int) -> None:
        self._world = world
        self.rank = rank
        self.size = world.nranks
        #: what the rank program keeps across the commands of a persistent
        #: rank world (its built program); never touched by the communicator
        self.resident: Any = None
        self.restart()

    def restart(self) -> None:
        """Fresh logical clock, statistics, collective generations and
        transport sequence numbers: every command a persistent rank serves
        starts where a newly launched rank would."""
        self.clock = 0.0
        self.stats = CommStats()
        self._generations: dict[tuple[int, ...], int] = {}
        self._phase: str | None = None
        self._injector = self._world.injector
        self._comm_calls = 0
        self.tracer = None  # TraceRecorder, attached by the launcher
        # reliable-transport state (all single-threaded: owned by this rank)
        self._send_seq: dict[tuple[int, int], int] = {}   # (dest, tag) -> next
        self._recv_seq: dict[tuple[int, int], int] = {}   # (source, tag) -> next
        self._link_health: dict[int, LinkHealth] = {}     # dest -> health

    # ---- fault plumbing ---------------------------------------------------
    def _record_fault(self, event) -> None:
        """Log one injected/detected fault into stats (and the trace)."""
        self.stats.fault_events.append(event)
        self.stats.faults_injected += 1
        if self.tracer is not None:
            self.tracer.record(
                "fault", event.t, event.t, detail=f"{event.kind}: {event.detail}"
            )

    def _fault_hook(self, count: bool = True) -> None:
        """Consult the injector before a communication operation; raises
        :class:`~repro.simmpi.faults.RankCrash` when a crash spec fires
        and :class:`~repro.simmpi.faults.RankLost` (thread backend) or a
        self-inflicted SIGKILL (process backend) on a node loss."""
        inj = self._injector
        if inj is None:
            return
        if count:
            self._comm_calls += 1
        event = inj.check_node_loss(self.rank, self.clock, self._comm_calls)
        if event is not None:
            self._record_fault(event)
            if getattr(self._world, "hard_kill_on_node_loss", False):
                self._die_hard(event)
            raise RankLost(self.rank, event.detail)
        event = inj.check_crash(self.rank, self.clock, self._comm_calls)
        if event is not None:
            self._record_fault(event)
            raise RankCrash(self.rank, event.detail)

    def _die_hard(self, event: FaultEvent) -> None:
        """Process backend node loss: genuinely kill this rank's OS
        process.  SIGKILL is unmaskable and skips every handler and
        ``finally`` — the parent learns of the death only through the
        status pipe's EOF, exactly like a real node failure.  A flight
        recorder installed in this process dumps first (post-mortem
        artifact naming the lost rank), since nothing runs after KILL.
        """
        import os
        import signal

        from repro.obs import flightrec

        flightrec.note(
            "node-loss", rank=self.rank, t=event.t, detail=event.detail
        )
        rec = flightrec.get_recorder()
        if rec is not None:
            try:
                # the recorder was fork-inherited: dump to a per-victim
                # path so the parent's own dump is not clobbered
                rec.path = rec.path.with_name(
                    f"{rec.path.stem}-lostrank{self.rank}-"
                    f"pid{os.getpid()}{rec.path.suffix}"
                )
                rec.dump(f"node loss: rank {self.rank} killed")
            except Exception:  # noqa: BLE001 - nothing may delay the kill
                pass
        os.kill(os.getpid(), signal.SIGKILL)

    # ---- phases -----------------------------------------------------------
    def set_phase(self, phase: str | None) -> None:
        """Label subsequent communication time with ``phase`` (for figures)."""
        self._phase = phase

    @property
    def machine(self) -> MachineModel:
        return self._world.machine

    @property
    def pack_in_place(self) -> bool:
        """True when sends consume payload bytes synchronously (the
        shared-memory process backend), so callers may hand reusable
        pack buffers to ``send``/``isend`` without an aliasing copy."""
        return self._world.copies_on_deliver

    # ---- compute ------------------------------------------------------------
    def compute(self, seconds: float, phase: str | None = None) -> None:
        """Advance the logical clock by ``seconds`` of local computation.

        An active straggler fault silently inflates ``seconds`` by its
        slowdown factor — the degraded-clock failure mode.
        """
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        self._fault_hook(count=False)
        if self._injector is not None:
            factor, events = self._injector.on_compute(self.rank, self.clock)
            for ev in events:
                self._record_fault(ev)
            seconds *= factor
        t0 = self.clock
        self.clock += seconds
        self.stats.compute_time += seconds
        if phase is not None:
            self.stats.add_tagged(phase, seconds)
        if self.tracer is not None and seconds > 0:
            self.tracer.record("compute", t0, self.clock, phase=phase)

    # ---- point-to-point -------------------------------------------------------
    def _as_payload(self, array: np.ndarray) -> np.ndarray:
        arr = np.ascontiguousarray(array)
        if self._world.copies_on_deliver:
            # deliver() packs the bytes into a shared ring synchronously,
            # so the payload may alias sender memory (pack-in-place)
            return arr
        if arr is array or arr.base is not None:
            return arr.copy()  # messages must not alias sender memory
        return arr  # ascontiguousarray already produced a private copy

    def send(self, dest: int, array: np.ndarray, tag: int = 0) -> None:
        """Buffered send: the sender pays only the overhead ``alpha``.

        Under a reliable :class:`~repro.simmpi.transport.TransportConfig`
        a failed wire attempt (injected drop, or corruption with
        checksums armed) is retransmitted with exponential backoff until
        it delivers, the per-link retry budget runs out, or the link's
        circuit breaker opens; each retry draws a *fresh* fault fate.  A
        message the transport gives up on falls back to raw-network
        semantics: a drop stays lost (the receiver detects the sequence
        gap), a corruption is delivered for the receiver's checksum.
        """
        self._fault_hook()
        payload = self._as_payload(array)
        transport = self._world.transport
        reliable = transport is not None and transport.reliable
        checksum = (
            payload_checksum(payload) if self._world.verify_checksums else None
        )
        health: LinkHealth | None = None
        if reliable:
            health = self._link_health.get(dest)
            if health is None:
                health = self._link_health[dest] = LinkHealth()
        attempt = self._injector.attempt if self._injector is not None else 1
        retry = 0
        while True:
            alpha_f = beta_f = 1.0
            action = "deliver"
            corrupt_mode = "scale"
            if self._injector is not None:
                action, corrupt_mode, alpha_f, beta_f, events = (
                    self._injector.on_send(
                        self.rank, dest, payload.nbytes, self.clock
                    )
                )
                for ev in events:
                    self._record_fault(ev)
            # Corruption is only sender-visible when the receiver would
            # NACK it, i.e. when payload checksums are armed; a drop is
            # always noticed as a missing ack.
            detectable = action == "drop" or (
                action == "corrupt" and self._world.verify_checksums
            )
            if reliable and detectable:
                if health.record_failure(transport.breaker_threshold):
                    self.stats.breaker_trips += 1
                    self._record_fault(FaultEvent(
                        self.rank, "breaker-open", self.clock, attempt,
                        f"link {self.rank}->{dest} after "
                        f"{health.consecutive_failures} consecutive failures",
                    ))
                if health.open or retry >= transport.max_retransmits:
                    self._record_fault(FaultEvent(
                        self.rank, "retransmit-exhausted", self.clock,
                        attempt,
                        f"link {self.rank}->{dest} tag {tag}: giving up "
                        f"after {retry} retransmit(s)"
                        + (" (breaker open)" if health.open else ""),
                    ))
                    break
                # Failed wire attempt: pay its overhead plus the
                # detection + backoff delay, then go around again.
                overhead = alpha_f * self.machine.alpha
                u = 0.5
                if transport.rto_jitter > 0.0:
                    seed = (
                        self._injector.plan.seed
                        if self._injector is not None else 0
                    )
                    u = jitter_unit(seed, attempt, self.rank, dest, retry)
                delay = detection_delay(
                    transport, self.machine, action, payload.nbytes, retry,
                    u=u,
                )
                self.clock += overhead + delay
                self.stats.p2p_time += overhead + delay
                self.stats.p2p_messages_sent += 1
                self.stats.p2p_bytes_sent += payload.nbytes
                self.stats.retransmits += 1
                self.stats.retransmit_time += delay
                if self._phase is not None:
                    self.stats.add_tagged(self._phase, overhead + delay)
                retry += 1
                continue
            if reliable and action == "deliver":
                health.record_success()
            break
        if action == "corrupt":
            # checksum was taken first, so integrity checking catches this
            self._injector.corrupt_payload(payload, self.rank, corrupt_mode)
        arrival = self.clock + (
            alpha_f * self.machine.alpha
            + beta_f * self.machine.beta * payload.nbytes
        )
        overhead = alpha_f * self.machine.alpha
        self.clock += overhead
        self.stats.p2p_time += overhead
        self.stats.p2p_messages_sent += 1
        self.stats.p2p_bytes_sent += payload.nbytes
        if self._phase is not None:
            self.stats.add_tagged(self._phase, overhead)
        seq = self._send_seq.get((dest, tag), 0)
        self._send_seq[(dest, tag)] = seq + 1
        if action == "drop":
            return  # the sender is oblivious; the receiver never sees it
        self._world.mailboxes[dest].deliver(
            Message(self.rank, dest, tag, payload, arrival, checksum, seq)
        )
        obs_point(
            "isend", "comm",
            args={"flow": f"{self.rank}>{dest}t{tag}#{seq}"},
        )

    def isend(self, dest: int, array: np.ndarray, tag: int = 0) -> Request:
        """Non-blocking send (identical cost accounting to :meth:`send`)."""
        self.send(dest, array, tag)
        return Request(self, "isend")

    def recv(self, source: int, tag: int = 0) -> np.ndarray:
        """Blocking receive from ``source`` with matching ``tag``."""
        return self.irecv(source, tag).wait()

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Post a non-blocking receive; completion happens in ``wait``."""
        return Request(self, "irecv", source=source, tag=tag)

    def sendrecv(
        self, dest: int, array: np.ndarray, source: int, tag: int = 0
    ) -> np.ndarray:
        """Exchange with (possibly different) partners without deadlock."""
        req = self.isend(dest, array, tag)
        out = self.recv(source, tag)
        req.wait()
        return out

    # ---- sub-communicators -----------------------------------------------------
    def subcomm(self, ranks: Sequence[int]) -> "SubComm":
        """Sub-communicator over ``ranks`` (must include this rank).

        All members must construct the sub-communicator with the same rank
        list, and must then call the same sequence of collectives on it.
        """
        key = tuple(sorted(set(int(r) for r in ranks)))
        if self.rank not in key:
            raise ValueError(f"rank {self.rank} not in group {key}")
        return SubComm(self, key)

    def world_comm(self) -> "SubComm":
        """Sub-communicator spanning all ranks."""
        return self.subcomm(range(self.size))

    # ---- world-wide collectives (convenience) -------------------------------------
    def allreduce(self, array: np.ndarray, op: str = "sum") -> np.ndarray:
        return self.world_comm().allreduce(array, op)

    def barrier(self) -> None:
        self.world_comm().barrier()

    def bcast(self, array: np.ndarray | None, root: int = 0) -> np.ndarray:
        return self.world_comm().bcast(array, root)

    def allgather(self, array: np.ndarray) -> list[np.ndarray]:
        return self.world_comm().allgather(array)

    def allgather_obj(self, obj: Any) -> list[Any]:
        return self.world_comm().allgather_obj(obj)


class SubComm:
    """A collective-capable group view; thin wrapper over :class:`SimComm`."""

    def __init__(self, comm: SimComm, ranks: tuple[int, ...]) -> None:
        self._comm = comm
        self.ranks = ranks
        self.size = len(ranks)
        self.rank = ranks.index(comm.rank)

    # ---- plumbing ------------------------------------------------------------
    def _next_generation(self) -> int:
        gens = self._comm._generations
        gen = gens.get(self.ranks, 0)
        gens[self.ranks] = gen + 1
        return gen

    def _run(
        self,
        op: str,
        contribution: Any,
        nbytes: int,
        combine,
    ) -> Any:
        comm = self._comm
        comm._fault_hook()
        if self.size == 1:
            return combine({comm.rank: contribution})
        ctx = comm._world.group(self.ranks)
        duration, bytes_moved = collective_cost(
            comm.machine, op, self.size, nbytes
        )
        if comm._injector is not None:
            factor, events = comm._injector.collective_factor(
                comm.rank, comm.clock
            )
            for ev in events:
                comm._record_fault(ev)
            duration *= factor
        gen = self._next_generation()
        t_before = comm.clock
        with obs_span("collective", "simmpi"):
            result, t_end = ctx.execute(
                gen,
                comm.rank,
                comm.clock,
                contribution,
                combine,
                duration,
                comm._world.timeout,
            )
        comm.clock = max(comm.clock, t_end)
        elapsed = comm.clock - t_before
        comm.stats.collective_time += elapsed
        comm.stats.collective_ops += 1
        comm.stats.collective_bytes += bytes_moved
        comm.stats.synchronizations += 1
        if comm._phase is not None:
            comm.stats.add_tagged(comm._phase, elapsed)
        if comm.tracer is not None and elapsed > 0:
            comm.tracer.record(
                "collective", t_before, comm.clock,
                detail=f"{op} q={self.size}", phase=comm._phase,
            )
        return result

    # ---- collectives --------------------------------------------------------------
    def allreduce(self, array: np.ndarray, op: str = "sum") -> np.ndarray:
        """Elementwise reduction, result available on all members."""
        arr = np.ascontiguousarray(array)
        combine = REDUCE_OPS[op]
        result = self._run("allreduce", arr.copy(), arr.nbytes, combine)
        return np.array(result, copy=True)

    def reduce(
        self, array: np.ndarray, root: int = 0, op: str = "sum"
    ) -> np.ndarray | None:
        """Reduction to the group-local ``root``; others get ``None``."""
        arr = np.ascontiguousarray(array)
        combine = REDUCE_OPS[op]
        result = self._run("reduce", arr.copy(), arr.nbytes, combine)
        return np.array(result, copy=True) if self.rank == root else None

    def bcast(self, array: np.ndarray | None, root: int = 0) -> np.ndarray:
        """Broadcast from group-local ``root``."""
        contribution = None
        nbytes = 0
        if self.rank == root:
            if array is None:
                raise ValueError("root must supply the broadcast payload")
            contribution = np.ascontiguousarray(array).copy()
            nbytes = contribution.nbytes
        root_world = self.ranks[root]

        def combine(contribs):
            return contribs[root_world]

        # every member must agree on nbytes for the cost model: gather it
        # from the root's contribution inside combine; cost uses sender value
        # which only the root knows — non-roots pass 0 and the max is taken
        # by using the root's nbytes via a fixed convention: all members are
        # required to know the payload size in this simulated setting, so we
        # conservatively cost with the local estimate (root's actual size).
        result = self._run("bcast", contribution, nbytes, combine)
        return np.array(result, copy=True)

    def allgather(self, array: np.ndarray) -> list[np.ndarray]:
        """Rank-ordered list of every member's array."""
        arr = np.ascontiguousarray(array).copy()
        return self._run("allgather", arr, arr.nbytes, combine_gather)

    def allgather_obj(self, obj: Any) -> list[Any]:
        """Allgather of arbitrary Python objects (zero modelled bytes).

        For test plumbing and result assembly only — not for modelling
        communication cost.
        """
        return self._run("allgather", obj, 0, combine_gather)

    def gather(self, array: np.ndarray, root: int = 0) -> list[np.ndarray] | None:
        """Rank-ordered list at the group-local ``root``; others get None."""
        arr = np.ascontiguousarray(array).copy()
        result = self._run("gather", arr, arr.nbytes, combine_gather)
        return result if self.rank == root else None

    def scatter(
        self, arrays: list[np.ndarray] | None, root: int = 0
    ) -> np.ndarray:
        """Distribute ``arrays[i]`` from the group-local ``root`` to member ``i``."""
        contribution = None
        nbytes = 0
        if self.rank == root:
            if arrays is None or len(arrays) != self.size:
                raise ValueError("root must supply one payload per member")
            contribution = [np.ascontiguousarray(a).copy() for a in arrays]
            nbytes = contribution[0].nbytes if contribution else 0
        root_world = self.ranks[root]

        def combine(contribs):
            return contribs[root_world]

        payloads = self._run("scatter", contribution, nbytes, combine)
        return np.array(payloads[self.rank], copy=True)

    def alltoall(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Personalized exchange: ``blocks[i]`` goes to member ``i``;
        returns the blocks every member addressed to this rank, in group
        order.  (The transpose primitive of distributed FFTs.)"""
        if len(blocks) != self.size:
            raise ValueError(
                f"alltoall needs {self.size} blocks, got {len(blocks)}"
            )
        payload = [np.ascontiguousarray(b).copy() for b in blocks]
        nbytes_pair = payload[0].nbytes if payload else 0

        def combine(contribs):
            # full exchange matrix: row = sender (world rank order)
            return {r: contribs[r] for r in contribs}

        matrix = self._run("alltoall", payload, nbytes_pair, combine)
        me = self.rank
        return [matrix[r][me] for r in sorted(matrix)]

    def exscan(self, array: np.ndarray, op: str = "sum") -> np.ndarray:
        """Exclusive prefix reduction in group rank order.

        Member ``i`` receives ``op`` over members ``0..i-1``; member 0
        receives zeros.
        """
        arr = np.ascontiguousarray(array).astype(np.float64)

        def combine(contribs):
            ordered = [contribs[r] for r in sorted(contribs)]
            return ordered

        ordered = self._run("scan", arr.copy(), arr.nbytes, combine)
        out = np.zeros_like(arr)
        for i in range(self.rank):
            out += ordered[i]
        return out

    def barrier(self) -> None:
        """Synchronize all members (clocks aligned to the max)."""
        self._run("barrier", None, 0, lambda c: None)
