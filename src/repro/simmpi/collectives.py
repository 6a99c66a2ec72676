"""Rendezvous-based collectives over rank groups.

A :class:`GroupContext` is shared by all member ranks of one
sub-communicator.  Every collective call opens (or joins) the slot for the
group's next generation number; the last rank to arrive combines the
contributions, computes the completion time from the machine model and the
members' clocks, and wakes everyone.  Clocks of all participants are set to
the common completion time — collectives are synchronizing, exactly as the
paper counts them in the latency cost ``S``.
"""
from __future__ import annotations

import threading
from typing import Any, Callable

from repro.simmpi.machine import MachineModel
from repro.simmpi.network import AbortFlag, DeadlockError


class _Slot:
    """One in-flight collective operation (one generation of one group)."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.contributions: dict[int, Any] = {}
        self.clocks: dict[int, float] = {}
        self.durations: dict[int, float] = {}
        self.result: Any = None
        self.t_end: float = 0.0
        self.done = False
        self.cond = threading.Condition()


class GroupContext:
    """Shared rendezvous state of one sub-communicator."""

    def __init__(
        self, ranks: tuple[int, ...], abort: AbortFlag | None = None
    ) -> None:
        self.ranks = ranks
        self.size = len(ranks)
        self._slots: dict[int, _Slot] = {}
        self._lock = threading.Lock()
        self._abort = abort

    def wake_all(self) -> None:
        """Wake every blocked member (launcher fail-fast abort)."""
        with self._lock:
            slots = list(self._slots.values())
        for slot in slots:
            with slot.cond:
                slot.cond.notify_all()

    def _slot(self, generation: int) -> _Slot:
        with self._lock:
            slot = self._slots.get(generation)
            if slot is None:
                slot = _Slot(self.size)
                self._slots[generation] = slot
            return slot

    def _retire(self, generation: int) -> None:
        # Drop completed slots so long runs do not accumulate memory.
        with self._lock:
            self._slots.pop(generation, None)

    def execute(
        self,
        generation: int,
        rank: int,
        clock: float,
        contribution: Any,
        combine: Callable[[dict[int, Any]], Any],
        duration: float,
        timeout: float,
    ) -> tuple[Any, float]:
        """Join the collective; returns ``(combined_result, t_end)``.

        ``combine`` maps {rank: contribution} to the common result;
        ``duration`` is this member's view of the modelled collective
        cost; the max over members' views is added to the max of their
        arrival clocks (so per-rank cost estimates and fault-injected
        degradation factors resolve deterministically, independent of
        which thread happens to arrive last).
        """
        slot = self._slot(generation)
        with slot.cond:
            slot.contributions[rank] = contribution
            slot.clocks[rank] = clock
            slot.durations[rank] = duration
            if len(slot.contributions) == slot.size:
                slot.result = combine(slot.contributions)
                slot.t_end = max(slot.clocks.values()) + max(
                    slot.durations.values()
                )
                slot.done = True
                slot.cond.notify_all()
            else:
                import time

                deadline = time.monotonic() + timeout
                while not slot.done:
                    if self._abort is not None and self._abort.is_set():
                        raise DeadlockError(
                            f"rank {rank}: collective gen={generation} on "
                            f"group {self.ranks} aborted — "
                            f"{self._abort.reason}"
                        )
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        arrived = sorted(slot.contributions)
                        missing = sorted(set(self.ranks) - set(arrived))
                        raise DeadlockError(
                            f"rank {rank}: collective gen={generation} on group "
                            f"{self.ranks} timed out after {timeout}s "
                            f"({len(arrived)}/{slot.size} arrived: "
                            f"ranks {arrived} present, ranks {missing} missing)"
                        )
                    slot.cond.wait(remaining)
            result, t_end = slot.result, slot.t_end
        # Last reader retires the slot: count readers via contributions set.
        with slot.cond:
            slot.size -= 1
            if slot.size == 0:
                self._retire(generation)
        return result, t_end


# ---- allgather's combine and the cost of both collectives --------------


def combine_gather(contribs: dict[int, Any]) -> list[Any]:
    """Rank-ordered list of all contributions."""
    return [contribs[r] for r in sorted(contribs)]


def collective_cost(
    model: MachineModel, op: str, q: int, nbytes: int
) -> tuple[float, int]:
    """(duration, modelled bytes moved per rank) of collective ``op``."""
    if q <= 1:
        return 0.0, 0
    if op == "allgather":
        return model.allgather_time(q, nbytes), (q - 1) * nbytes
    if op == "barrier":
        return model.barrier_time(q), 0
    raise ValueError(f"unknown collective {op!r}")
