"""Shared-memory transport: the process backend of the simulated cluster.

``run_spmd(..., backend="process")`` launches one OS process per rank, so
rank compute genuinely runs in parallel (no GIL serialization).  This
module provides the world object behind that backend: :class:`ShmWorld`
duck-types :class:`~repro.simmpi.comm.SimWorld` — per-rank mailboxes with
``deliver``/``collect``, ``group()`` collectives, a fail-fast ``abort`` —
but moves every payload through preallocated per-link ring buffers in one
anonymous shared mapping instead of in-process queues.

Design notes
------------
* **Per-link byte rings.**  Every directed pair ``(src, dst)`` owns a ring
  (monotonic 64-bit head/tail counters + data area).  A send packs a fixed
  record header plus the raw payload bytes into the ring; the receiver
  unpacks into a freshly allocated array.  One copy on each side, no
  pickling for plain ndarrays; everything else (collective contributions,
  object payloads) travels pickled.
* **Streaming writes.**  A message larger than the ring is written in
  chunks as the reader drains; while blocked on ring space a sender also
  drains its *own* incoming rings into its local pending lists, so the
  buffered-send semantics of the thread backend (send-send-then-recv-recv
  never deadlocks) carry over to bounded rings.
* **One global condition variable.**  All ring head/tail updates happen
  under a single fork-inherited ``multiprocessing.Condition``; waiters use
  short timed waits and also poll the abort flag, so a crashed peer never
  leaves a rank blocked forever.
* **Root-based collectives.**  :class:`ShmGroupContext` mirrors the thread
  backend's rendezvous semantics: members ship ``(generation,
  contribution, clock, duration)`` to the group's first rank over reserved
  negative tags; the root combines contributions keyed by world rank (the
  same sorted-rank order as the thread backend) and broadcasts ``(result,
  t_end)`` with ``t_end = max(clocks) + max(durations)``.  Logical clocks
  are therefore bit-identical between backends.
* **Anonymous world memory.**  The rings and the control block (abort
  flag + reason) are anonymous shared mappings (:func:`anonymous`): the
  ranks inherit them through ``fork`` and nothing has a name, so nothing
  can be left behind — the kernel frees the memory when the last process
  mapping it is gone, a SIGKILLed launcher included.  Bulk state between
  the launcher and its ranks goes the same way (:func:`shared_zeros`, the
  core's two global-state areas); the command pipes carry plain pickles.

Fault injection stays on the thread backend (deterministic in-process
delivery) with one exception: *node-loss-only* plans, whose victims
SIGKILL their own OS process (see ``SimComm._die_hard``) — the genuine
kill-the-process failure mode the resilient driver recovers from by
relaunching the world.
:func:`~repro.simmpi.launcher.run_spmd` enforces the restriction.
"""
from __future__ import annotations

import mmap
import os
import pickle
import struct
import time
import zlib
from collections import deque
from multiprocessing import get_context
from typing import Any

import numpy as np

from repro.simmpi.machine import MachineModel
from repro.simmpi.network import DeadlockError, Message, _summarize_pending
from repro.simmpi.transport import TransportConfig

#: payload encodings of one ring record
KIND_ARRAY = 0   # raw ndarray bytes (dtype/shape in the header)
KIND_PICKLE = 1  # pickled Python object (collectives, exotic payloads)

#: per-record header: kind, source, tag, seq, arrival, has_checksum,
#: checksum, ndim, dtype string, shape (4 axes max), payload nbytes
_REC = struct.Struct("<BiqQdBIB16s4qQ")

#: per-ring header: monotonic bytes-written (head) and bytes-read (tail)
_RING_HDR = 16

#: control block: abort flag byte + reason length + reason text
_CTRL_REASON_OFF = 8
_CTRL_SIZE = 8 + 4 + 1024

#: default ring capacity per directed link (clamped so huge worlds do not
#: reserve quadratic memory; messages beyond capacity stream in chunks)
DEFAULT_LINK_BYTES = 2 * 1024 * 1024


def default_link_bytes(nranks: int) -> int:
    """Ring capacity per directed link, bounded to ~64 MB per world."""
    budget = (64 * 1024 * 1024) // max(1, nranks * nranks)
    return max(256 * 1024, min(DEFAULT_LINK_BYTES, budget))


# ---------------------------------------------------------------------------
# world memory: anonymous shared mappings, inherited by fork
# ---------------------------------------------------------------------------
def anonymous(nbytes: int) -> memoryview:
    """``nbytes`` of zero-filled memory shared with every process forked
    after this call.  No name, nothing to unlink: the kernel frees it when
    the last process mapping it exits or drops it."""
    return memoryview(mmap.mmap(-1, max(1, nbytes)))


def shared_zeros(*shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Float64 zero arrays of ``shapes`` in one :func:`anonymous` mapping:
    what a forked rank writes into them, its parent reads."""
    sizes = [int(np.prod(s)) for s in shapes]
    buf = anonymous(8 * sum(sizes))
    out, off = [], 0
    for shape, n in zip(shapes, sizes):
        out.append(np.frombuffer(buf, np.float64, n, 8 * off).reshape(shape))
        off += n
    return out


def live_segment_names(shm_dir: str = "/dev/shm") -> list[str]:
    """Named ``repro-shm-*`` segments present under ``shm_dir``
    (diagnostics for leak checks: repro itself creates none)."""
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return []
    return sorted(n for n in names if n.startswith("repro-shm-"))


def _encode_payload(payload: Any) -> tuple[int, int, bytes, tuple[int, ...], Any]:
    """(kind, ndim, dtype bytes, shape, flat byte buffer) of a payload."""
    if (
        isinstance(payload, np.ndarray)
        and payload.ndim <= 4
        and not payload.dtype.hasobject
    ):
        arr = np.ascontiguousarray(payload)
        body = arr.reshape(-1).view(np.uint8) if arr.nbytes else b""
        return KIND_ARRAY, arr.ndim, arr.dtype.str.encode(), arr.shape, body
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return KIND_PICKLE, 0, b"", (), body


class _RecordReader:
    """Per-source reassembly state of one incoming ring (partial records)."""

    __slots__ = ("hdr", "meta", "out", "view", "filled")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.hdr = bytearray()
        self.meta = None       # unpacked header tuple once complete
        self.out = None        # ndarray (KIND_ARRAY) or bytearray (KIND_PICKLE)
        self.view = None       # flat uint8 view of ``out``
        self.filled = 0

    def begin_payload(self) -> None:
        """Allocate the destination buffer from the completed header."""
        kind, _src, _tag, _seq, _arr, _hc, _ck, ndim, dtype_b, *rest = self.meta
        shape = tuple(rest[:4])[:ndim]
        nbytes = rest[4]
        if kind == KIND_ARRAY:
            dtype = np.dtype(dtype_b.rstrip(b"\x00").decode())
            self.out = np.empty(shape, dtype=dtype)
            self.view = (
                memoryview(self.out.reshape(-1).view(np.uint8))
                if nbytes
                else memoryview(b"")
            )
        else:
            self.out = bytearray(nbytes)
            self.view = memoryview(self.out)
        self.filled = 0

    def finish(self, dest: int) -> Message:
        """Build the Message of a fully reassembled record and reset."""
        kind, src, tag, seq, arrival, has_ck, ck, *_ = self.meta
        payload = self.out if kind == KIND_ARRAY else pickle.loads(bytes(self.out))
        msg = Message(
            source=src,
            dest=dest,
            tag=tag,
            payload=payload,
            arrival=arrival,
            checksum=ck if has_ck else None,
            seq=seq,
        )
        self.reset()
        return msg


class ShmMailbox:
    """Per-rank mailbox view over the shared rings.

    ``deliver`` runs in the *sender's* process and packs into the ring for
    link ``(source, dest)``; ``collect`` runs in the owning rank's process
    and drains all of its incoming rings into local pending lists, then
    matches FIFO per ``(source, tag)`` — the same matching rule as the
    thread backend's :class:`~repro.simmpi.network.Mailbox`.
    """

    def __init__(self, world: "ShmWorld", rank: int) -> None:
        self.rank = rank
        self._world = world
        self._pending: dict[tuple[int, int], deque[Message]] = {}
        self._readers = {
            src: _RecordReader()
            for src in range(world.nranks)
            if src != rank
        }

    # ---- sender side -------------------------------------------------------
    def deliver(self, msg: Message) -> None:
        """Pack ``msg`` into the ring of link (msg.source -> this rank)."""
        kind, ndim, dtype_b, shape, body = _encode_payload(msg.payload)
        shape4 = tuple(shape) + (0,) * (4 - len(shape))
        nbytes = body.nbytes if isinstance(body, np.ndarray) else len(body)
        header = _REC.pack(
            kind,
            msg.source,
            msg.tag,
            msg.seq,
            msg.arrival,
            msg.checksum is not None,
            msg.checksum or 0,
            ndim,
            dtype_b,
            *shape4,
            nbytes,
        )
        self._world._stream_write(msg.source, self.rank, (header, body))

    # ---- receiver side -----------------------------------------------------
    def _drain_locked(self) -> int:
        """Move complete records from the rings to pending (lock held)."""
        w = self._world
        completed = 0
        for src, reader in self._readers.items():
            while True:
                if reader.meta is None:
                    got = w._ring_read(src, self.rank, _REC.size - len(reader.hdr))
                    if got:
                        reader.hdr += got
                        w.cond.notify_all()  # freed ring space for the writer
                    if len(reader.hdr) < _REC.size:
                        break
                    reader.meta = _REC.unpack(bytes(reader.hdr))
                    reader.begin_payload()
                need = len(reader.view) - reader.filled
                if need:
                    n = w._ring_read_into(
                        src, self.rank, reader.view[reader.filled:]
                    )
                    if n:
                        reader.filled += n
                        w.cond.notify_all()
                    if reader.filled < len(reader.view):
                        break
                msg = reader.finish(self.rank)
                self._pending.setdefault((msg.source, msg.tag), deque()).append(msg)
                completed += 1
        return completed

    def collect(self, source: int, tag: int, timeout: float) -> Message:
        """Block until the first message matching ``(source, tag)`` arrives."""
        w = self._world
        key = (source, tag)
        deadline = None
        with w.cond:
            while True:
                q = self._pending.get(key)
                if q:
                    return q.popleft()
                if self._drain_locked():
                    continue
                w._check_abort(
                    f"rank {self.rank}: recv(source={source}, tag={tag})"
                )
                if deadline is None:
                    deadline = time.monotonic() + timeout
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlockError(
                        f"rank {self.rank}: recv(source={source}, tag={tag}) "
                        f"timed out after {timeout}s; mailbox holds "
                        f"{self.pending_summary()}"
                    )
                # timed wait: peers notify on every ring write, but a
                # SIGKILLed peer cannot, so never sleep unbounded
                w.cond.wait(min(remaining, 0.05))

    def wake(self) -> None:
        """Wake blocked collectors (fail-fast abort)."""
        with self._world.cond:
            self._world.cond.notify_all()

    def pending_count(self) -> int:
        with self._world.cond:
            return sum(len(q) for q in self._pending.values())

    def pending_summary(self) -> str:
        """Local pending messages plus undrained ring bytes (diagnostics)."""
        local = _summarize_pending(
            [m for q in self._pending.values() for m in q]
        )
        residue = []
        for src in range(self._world.nranks):
            if src == self.rank:
                continue
            n = self._world._ring_used(src, self.rank)
            if n:
                residue.append(f"{n}B from rank {src}")
        if residue:
            return f"{local}; undrained ring bytes: {', '.join(residue)}"
        return local


class ShmGroupContext:
    """Root-based rendezvous collective over the shared rings.

    Same ``execute`` signature and result semantics as the thread
    backend's :class:`~repro.simmpi.collectives.GroupContext`.
    """

    def __init__(self, world: "ShmWorld", ranks: tuple[int, ...]) -> None:
        self.world = world
        self.ranks = ranks
        self.root = ranks[0]
        # reserved negative tag space: app tags are non-negative
        digest = zlib.crc32(("group:" + ",".join(map(str, ranks))).encode())
        self.systag = -(1 + digest)

    def _mismatch(self, rank: int, got: int, want: int) -> DeadlockError:
        return DeadlockError(
            f"collective generation mismatch on group {self.ranks}: "
            f"rank {rank} at generation {got}, expected {want} — "
            "members issued different collective sequences"
        )

    def execute(
        self,
        generation: int,
        rank: int,
        clock: float,
        contribution: Any,
        combine,
        duration: float,
        timeout: float,
    ) -> tuple[Any, float]:
        w = self.world
        inbox = w.mailboxes[rank]
        if rank != self.root:
            w.mailboxes[self.root].deliver(Message(
                rank, self.root, self.systag,
                (generation, contribution, clock, duration), 0.0,
            ))
            msg = inbox.collect(self.root, self.systag, timeout)
            gen, result, t_end = msg.payload
            if gen != generation:
                raise self._mismatch(self.root, gen, generation)
            return result, t_end
        contribs = {rank: contribution}
        clocks = {rank: clock}
        durations = {rank: duration}
        for r in self.ranks[1:]:
            msg = inbox.collect(r, self.systag, timeout)
            gen, c, ck, d = msg.payload
            if gen != generation:
                raise self._mismatch(r, gen, generation)
            contribs[r] = c
            clocks[r] = ck
            durations[r] = d
        result = combine(contribs)
        t_end = max(clocks.values()) + max(durations.values())
        for r in self.ranks[1:]:
            w.mailboxes[r].deliver(Message(
                rank, r, self.systag, (generation, result, t_end), 0.0,
            ))
        return result, t_end


class ShmWorld:
    """Shared state of one process-backed cluster run.

    Created by the parent; child processes get it through ``fork``
    inheritance and call :meth:`attach` with their
    rank.  Duck-types :class:`~repro.simmpi.comm.SimWorld` for
    :class:`~repro.simmpi.comm.SimComm`.
    """

    #: deliver() copies payload bytes into the ring before returning, so
    #: SimComm may skip its defensive payload copy (see ``_as_payload``)
    copies_on_deliver = True

    #: a node-loss fault on this backend kills the victim's OS process
    #: outright (SIGKILL) instead of raising — the real failure mode of a
    #: host (see ``SimComm._die_hard``)
    hard_kill_on_node_loss = True

    def __init__(
        self,
        nranks: int,
        machine: MachineModel,
        verify_checksums: bool = False,
        transport: TransportConfig | None = None,
        link_bytes: int | None = None,
    ) -> None:
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.nranks = nranks
        self.machine = machine
        # per command: each rank sets both on its copy before it serves one
        self.timeout = 120.0
        self.injector = None
        self.verify_checksums = verify_checksums
        self.transport = transport
        self.link_bytes = int(link_bytes or default_link_bytes(nranks))
        self.ctx = get_context("fork")
        self.cond = self.ctx.Condition()
        self.rank = -1  # parent; children set this in attach()
        self._creator = os.getpid()
        stride = _RING_HDR + self.link_bytes
        self._stride = stride
        # anonymous mappings are zero-filled, which is exactly the initial
        # ring state (head == tail == 0) and a clear abort flag
        self._rings = anonymous(nranks * nranks * stride)
        self._ctrl = anonymous(_CTRL_SIZE)
        self.mailboxes = [ShmMailbox(self, r) for r in range(nranks)]
        self._groups: dict[tuple[int, ...], ShmGroupContext] = {}

    # ---- lifecycle ---------------------------------------------------------
    def attach(self, rank: int) -> None:
        """Adopt ``rank`` in a child process (after fork)."""
        self.rank = rank

    def destroy(self) -> None:
        """Unmap the world's memory in this process (idempotent); the
        kernel frees it once the ranks' mappings are gone too."""
        self._rings = self._ctrl = None

    # ---- SimWorld surface --------------------------------------------------
    def group(self, ranks: tuple[int, ...]) -> ShmGroupContext:
        ctx = self._groups.get(ranks)
        if ctx is None:
            ctx = self._groups[ranks] = ShmGroupContext(self, ranks)
        return ctx

    def abort(self, reason: str) -> None:
        """Fail fast: set the shared abort flag and wake every waiter."""
        buf = self._ctrl
        with self.cond:
            if not buf[0]:
                data = reason.encode(errors="replace")[: _CTRL_SIZE - 12]
                struct.pack_into("<I", buf, _CTRL_REASON_OFF, len(data))
                buf[12 : 12 + len(data)] = data
                buf[0] = 1
            self.cond.notify_all()

    def abort_reason(self) -> str | None:
        buf = self._ctrl
        if not buf[0]:
            return None
        (n,) = struct.unpack_from("<I", buf, _CTRL_REASON_OFF)
        return bytes(buf[12 : 12 + n]).decode(errors="replace")

    def _check_abort(self, what: str) -> None:
        if self._ctrl[0]:
            raise DeadlockError(f"{what} aborted — {self.abort_reason()}")
        if self.rank >= 0 and os.getppid() != self._creator:
            # a SIGKILLed launcher can set no flag: its orphans must not
            # wait out the timeout
            raise DeadlockError(f"{what} aborted — the launcher is gone")

    # ---- ring primitives (caller holds ``self.cond``) ----------------------
    def _ring_off(self, src: int, dst: int) -> int:
        return (src * self.nranks + dst) * self._stride

    def _counters(self, off: int) -> tuple[int, int]:
        return struct.unpack_from("<QQ", self._rings, off)

    def _ring_used(self, src: int, dst: int) -> int:
        head, tail = self._counters(self._ring_off(src, dst))
        return head - tail

    def _ring_write(self, src: int, dst: int, mv: memoryview) -> int:
        """Copy up to ``len(mv)`` bytes into the ring; returns bytes written."""
        off = self._ring_off(src, dst)
        head, tail = self._counters(off)
        cap = self.link_bytes
        n = min(len(mv), cap - (head - tail))
        if n <= 0:
            return 0
        buf = self._rings
        data0 = off + _RING_HDR
        pos = head % cap
        first = min(n, cap - pos)
        buf[data0 + pos : data0 + pos + first] = mv[:first]
        if n > first:
            buf[data0 : data0 + n - first] = mv[first:n]
        struct.pack_into("<Q", buf, off, head + n)
        return n

    def _ring_read_into(self, src: int, dst: int, out: memoryview) -> int:
        """Copy up to ``len(out)`` available bytes out of the ring."""
        off = self._ring_off(src, dst)
        head, tail = self._counters(off)
        cap = self.link_bytes
        n = min(len(out), head - tail)
        if n <= 0:
            return 0
        buf = self._rings
        data0 = off + _RING_HDR
        pos = tail % cap
        first = min(n, cap - pos)
        out[:first] = buf[data0 + pos : data0 + pos + first]
        if n > first:
            out[first:n] = buf[data0 : data0 + n - first]
        struct.pack_into("<Q", buf, off + 8, tail + n)
        return n

    def _ring_read(self, src: int, dst: int, nmax: int) -> bytes:
        out = bytearray(nmax)
        n = self._ring_read_into(src, dst, memoryview(out))
        return bytes(out[:n])

    def _stream_write(self, src: int, dst: int, pieces) -> None:
        """Write all ``pieces`` into link (src, dst), streaming on full rings.

        While blocked on ring space the caller drains its *own* incoming
        rings (into its pending lists), which is what keeps mutual bulk
        sends deadlock-free on bounded rings.
        """
        deadline = time.monotonic() + self.timeout
        with self.cond:
            for piece in pieces:
                mv = memoryview(piece)
                if mv.nbytes and mv.ndim != 1:
                    mv = mv.cast("B")
                pos = 0
                total = mv.nbytes
                while pos < total:
                    wrote = self._ring_write(src, dst, mv[pos:])
                    if wrote:
                        pos += wrote
                        self.cond.notify_all()
                        continue
                    self._check_abort(f"rank {src}: send to rank {dst}")
                    if self.rank >= 0 and self.mailboxes[self.rank]._drain_locked():
                        continue  # made room on our side; the peer may now progress
                    if time.monotonic() > deadline:
                        raise DeadlockError(
                            f"rank {src}: send to rank {dst} stalled for "
                            f"{self.timeout}s — ring full "
                            f"({self._ring_used(src, dst)}B undrained of "
                            f"{self.link_bytes}B) and the receiver is not "
                            "collecting"
                        )
                    self.cond.wait(0.05)
