"""Mailboxes and message transport of the simulated cluster.

Each rank owns a :class:`Mailbox`; a send appends a :class:`Message` to the
destination mailbox under its condition variable; a receive blocks until a
message matching ``(source, tag)`` is present.  Matching is FIFO per
``(source, tag)`` pair, which — together with single-threaded senders —
makes message delivery deterministic regardless of thread scheduling.

When one rank fails, the launcher raises the world's :class:`AbortFlag`;
blocked receivers (and collectives) wake immediately and raise a
``DeadlockError`` naming the originating failure instead of sitting out
the full wall-clock timeout.
"""
from __future__ import annotations

import threading
import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np


class DeadlockError(RuntimeError):
    """A blocking receive timed out — the SPMD program deadlocked."""


class MessageLost(RuntimeError):
    """A sequence gap on one (source, tag) stream: an upstream message was
    permanently dropped (retransmits exhausted or breaker open).  Raised
    by the receiver as soon as the *next* message on the stream arrives,
    instead of sitting out the full deadlock timeout."""


class AbortFlag:
    """World-wide fail-fast switch: set once by the launcher when any
    rank fails; blocked operations check it and bail out promptly."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason = ""
        self._lock = threading.Lock()

    def set(self, reason: str) -> None:
        with self._lock:
            if not self._event.is_set():
                self._reason = reason
        self._event.set()

    def is_set(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> str:
        with self._lock:
            return self._reason


def payload_checksum(payload: np.ndarray) -> int:
    """CRC32 of a (contiguous) payload — the in-flight integrity check."""
    return zlib.crc32(payload.tobytes())


@dataclass
class Message:
    """One in-flight point-to-point message.

    ``arrival`` is the logical time at which the payload is available at
    the receiver (sender clock at send + alpha + beta * bytes); the
    receiver's clock is advanced to at least this value on receive.
    ``checksum`` is the sender-side CRC32 of the *uncorrupted* payload
    (None when integrity checking is off).  ``seq`` numbers the
    ``(source, dest, tag)`` stream so the reliable transport can detect
    permanently lost messages as a gap at the receiver.
    """

    source: int
    dest: int
    tag: int
    payload: np.ndarray
    arrival: float
    checksum: int | None = None
    seq: int = 0


def _summarize_pending(messages: list[Message]) -> str:
    """Compact ``(source, tag) xN`` summary of a mailbox's backlog."""
    if not messages:
        return "empty"
    counts = Counter((m.source, m.tag) for m in messages)
    parts = [
        f"(src={s}, tag={t}) x{n}" if n > 1 else f"(src={s}, tag={t})"
        for (s, t), n in sorted(counts.items())
    ]
    return f"{len(messages)} message(s): " + ", ".join(parts)


class Mailbox:
    """The incoming-message queue of one rank."""

    def __init__(self, rank: int, abort: AbortFlag | None = None) -> None:
        self.rank = rank
        self._messages: list[Message] = []
        self._cond = threading.Condition()
        self._abort = abort

    def deliver(self, msg: Message) -> None:
        """Called by the *sender* thread to enqueue a message."""
        with self._cond:
            self._messages.append(msg)
            self._cond.notify_all()

    def wake(self) -> None:
        """Wake blocked collectors (used by the launcher's fail-fast abort)."""
        with self._cond:
            self._cond.notify_all()

    def collect(self, source: int, tag: int, timeout: float) -> Message:
        """Block until the first message matching ``(source, tag)`` arrives.

        Raises
        ------
        DeadlockError
            If no matching message arrives within ``timeout`` wall
            seconds, or another rank failed and the run was aborted.
        """
        import time

        with self._cond:
            deadline = None
            while True:
                for idx, msg in enumerate(self._messages):
                    if msg.source == source and msg.tag == tag:
                        return self._messages.pop(idx)
                if self._abort is not None and self._abort.is_set():
                    raise DeadlockError(
                        f"rank {self.rank}: recv(source={source}, tag={tag}) "
                        f"aborted — {self._abort.reason}"
                    )
                if deadline is None:
                    deadline = time.monotonic() + timeout
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlockError(
                        f"rank {self.rank}: recv(source={source}, tag={tag}) "
                        f"timed out after {timeout}s; mailbox holds "
                        f"{_summarize_pending(self._messages)}"
                    )
                self._cond.wait(remaining)

    def pending_count(self) -> int:
        """Number of undelivered messages (used by shutdown sanity checks)."""
        with self._cond:
            return len(self._messages)

    def pending_summary(self) -> str:
        """Human-readable backlog summary (for launcher diagnostics)."""
        with self._cond:
            return _summarize_pending(self._messages)
