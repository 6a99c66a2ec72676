"""The operator form of the calculating flow (Sec. 4.1, Eq. 8; Figure 2).

One model step of the dynamical core is

.. math::

    \\xi^{(k)} = S\\, (F L)^3\\, (F C A)^{3M}\\, \\xi^{(k-1)}

where each operator involves exactly one kind of communication:

========  =========================  ===================================
operator  computation                communication
========  =========================  ===================================
``A``     adaptation stencil         halo exchange (local)
``C``     vertical summation         collective along z
``L``     advection stencil          halo exchange (local)
``F``     Fourier filtering          collective along x
``S``     smoothing stencil          halo exchange (local)
========  =========================  ===================================

This module makes that abstraction executable: :func:`step_schedule`
expands Eq. 8 into the exact operator sequence of one step, annotates each
application with the communication it costs under a given decomposition
and algorithm, and derives the per-step totals — the same numbers the
instrumented simulated-MPI cores report, which the tests verify.
:func:`render_flow` prints the Figure 2 diagram.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

#: communication classes of Figure 2
COMM_NONE = "none"
COMM_HALO = "halo"
COMM_COLLECTIVE_X = "collective_x"
COMM_COLLECTIVE_Z = "collective_z"


@dataclass(frozen=True)
class OperatorApplication:
    """One operator application inside a step."""

    operator: str           # "A" | "C" | "L" | "F" | "S"
    index: int              # position in the step's sequence
    communication: str      # one of the COMM_* classes
    note: str = ""


@dataclass(frozen=True)
class StepSchedule:
    """The fully expanded operator sequence of one model step."""

    algorithm: str
    decomposition: str       # "xy" | "yz" | "3d"
    m_iterations: int
    applications: tuple[OperatorApplication, ...]

    # ---- derived totals -------------------------------------------------
    @property
    def halo_exchanges(self) -> int:
        """Point-to-point exchange rounds per step."""
        return sum(
            1 for a in self.applications if a.communication == COMM_HALO
        )

    @property
    def z_collectives(self) -> int:
        return sum(
            1 for a in self.applications
            if a.communication == COMM_COLLECTIVE_Z
        )

    @property
    def x_collectives(self) -> int:
        return sum(
            1 for a in self.applications
            if a.communication == COMM_COLLECTIVE_X
        )

    @property
    def synchronizations(self) -> int:
        """Events that force a rank to wait on others (the latency cost S
        of Sec. 5.3): every collective and every exchange round."""
        return self.halo_exchanges + self.z_collectives + self.x_collectives

    def count(self, operator: str) -> int:
        return sum(1 for a in self.applications if a.operator == operator)

    def __iter__(self) -> Iterator[OperatorApplication]:
        return iter(self.applications)


def step_schedule(
    algorithm: str, decomposition: str, m_iterations: int = 3
) -> StepSchedule:
    """Expand Eq. 8 for one step of ``algorithm`` under ``decomposition``.

    ``algorithm``: ``"original"`` (Algorithm 1: exchange before every
    stencil update, fresh ``C`` everywhere) or ``"ca"`` (Algorithm 2:
    2 fused exchanges, stale first ``C`` per iteration).
    ``decomposition``: ``"xy"``, ``"yz"`` or ``"3d"`` — decides which
    collectives actually cost communication (``F`` is free when the x axis
    is whole; ``C`` is free when the z axis is whole).
    """
    if algorithm not in ("original", "ca"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if decomposition not in ("xy", "yz", "3d"):
        raise ValueError(f"unknown decomposition {decomposition!r}")
    if algorithm == "ca" and decomposition != "yz":
        raise ValueError("Algorithm 2 is defined on the Y-Z decomposition")
    M = m_iterations
    f_comm = COMM_COLLECTIVE_X if decomposition in ("xy", "3d") else COMM_NONE
    c_comm = COMM_COLLECTIVE_Z if decomposition in ("yz", "3d") else COMM_NONE

    apps: list[OperatorApplication] = []

    def add(op: str, comm: str, note: str = "") -> None:
        apps.append(OperatorApplication(op, len(apps), comm, note))

    if algorithm == "original":
        # (F C A)^{3M}: each internal update = exchange + C + A + F
        for i in range(M):
            for u in range(3):
                add("A", COMM_HALO, f"iter {i + 1} update {u + 1}: exchange")
                add("C", c_comm, "fresh vertical collective")
                add("F", f_comm)
        # (F L)^3
        for u in range(3):
            add("L", COMM_HALO, f"advection update {u + 1}: exchange")
            add("F", f_comm)
        # S with its own exchange
        add("S", COMM_HALO, "smoothing exchange")
    else:
        # Algorithm 2: one wide exchange covers S (fused) + all 3M updates
        add("S", COMM_HALO, "fused: smoothing + 3M-wide adaptation halo")
        for i in range(M):
            for u in range(3):
                if u == 0:
                    add("C", COMM_NONE, "stale bundle (approx. iteration)")
                else:
                    add("C", c_comm, "fresh vertical collective")
                add("A", COMM_NONE, "batched on block + halo")
                add("F", COMM_NONE, "x whole: filter is local")
        # one thin exchange covers the 3 advection updates
        add("L", COMM_HALO, "advection exchange (width 3)")
        for u in range(3):
            if u > 0:
                add("L", COMM_NONE, "batched")
            add("F", COMM_NONE)
    return StepSchedule(
        algorithm=algorithm,
        decomposition=decomposition,
        m_iterations=M,
        applications=tuple(apps),
    )


def render_flow(schedule: StepSchedule, per_line: int = 9) -> str:
    """Figure 2 as text: the operator string of one step with its
    communication classes marked."""
    marks = {
        COMM_NONE: " ",
        COMM_HALO: "h",
        COMM_COLLECTIVE_X: "x",
        COMM_COLLECTIVE_Z: "z",
    }
    ops = [a.operator for a in schedule.applications]
    comm = [marks[a.communication] for a in schedule.applications]
    lines = [
        f"one step of {schedule.algorithm} on {schedule.decomposition} "
        f"(M = {schedule.m_iterations}); read left to right:",
    ]
    for start in range(0, len(ops), per_line):
        seg_ops = ops[start:start + per_line]
        seg_comm = comm[start:start + per_line]
        lines.append("  " + "  ".join(f"{o}" for o in seg_ops))
        lines.append("  " + "  ".join(f"{c}" for c in seg_comm))
    lines.append(
        "legend: h halo exchange  z z-collective  x x-collective  "
        "(blank: no communication)"
    )
    lines.append(
        f"totals: {schedule.halo_exchanges} exchanges, "
        f"{schedule.z_collectives} z-collectives, "
        f"{schedule.x_collectives} x-collectives, "
        f"{schedule.synchronizations} synchronizations"
    )
    return "\n".join(lines)
