"""Machine-readable Tables 1-3: the paper's declared stencil footprints.

Each term of the adaptation process (Table 1), advection process (Table 2)
and smoothing (Table 3) is recorded with the exact index offsets the paper
lists.  Two uses:

* the halo machinery sizes ghost zones by the *maxima* of these extents
  (so the communication model is faithful to the paper even where our
  discretization is narrower), and
* the footprint tests verify that our discrete operators' *measured*
  dependencies (see :mod:`repro.operators.footprint`) stay within the
  declared extents.

Offsets are relative to the updated point: ``x`` offsets in units of
``i``, ``y`` of ``j``, ``z`` of ``k``.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StencilEntry:
    """Declared dependency offsets of one term."""

    term: str
    x: tuple[int, ...]
    y: tuple[int, ...]
    z: tuple[int, ...]

    @property
    def radius_x(self) -> int:
        return max(abs(o) for o in self.x)

    @property
    def radius_y(self) -> int:
        return max(abs(o) for o in self.y)

    @property
    def radius_z(self) -> int:
        return max(abs(o) for o in self.z)


#: Table 1 — stencil computation in the adaptation process.
TABLE1_ADAPTATION: tuple[StencilEntry, ...] = (
    StencilEntry("P_lambda_1", (0, 1, -1, -2), (0,), (0, 1)),
    StencilEntry("P_lambda_2", (0, 1, -1, -2), (0,), (0,)),
    StencilEntry("f_star_V", (0, -1), (0, -1), (0,)),
    StencilEntry("P_theta_1", (0,), (0, 1), (0, 1)),
    StencilEntry("P_theta_2", (0,), (0, 1), (0,)),
    StencilEntry("f_star_U", (0, 1), (0, 1), (0,)),
    StencilEntry("Omega_1", (0,), (0,), (0, 1)),
    StencilEntry("Omega_2_theta", (0,), (0, 1, -1), (0,)),
    StencilEntry("Omega_2_lambda", (0, 1, -1, -2, 3, -3), (0,), (0,)),
    StencilEntry("D_P", (0, -1, 2, 3, -3), (0, -1), (0,)),
    StencilEntry("D_sa", (0, 1, -1), (0, 1, -1), (0,)),
)

#: Table 2 — stencil computation in the advection process.
TABLE2_ADVECTION: tuple[StencilEntry, ...] = (
    StencilEntry("L1_U", (0, 1, -1, 2, -2, 3, -3), (0,), (0, 1)),
    StencilEntry("L2_U", (0, -1), (0, 1, -1), (0,)),
    StencilEntry("L3_U", (0, -1), (0,), (0, 1, -1)),
    StencilEntry("L1_V", (0, 1, -1, 2, 3, -3), (0, 1), (0,)),
    StencilEntry("L2_V", (0,), (0, 1, -1), (0,)),
    StencilEntry("L3_V", (0,), (0, 1), (0, 1, -1)),
    StencilEntry("L1_Phi", (0, 1, -1, 2, 3, -3), (0,), (0,)),
    StencilEntry("L2_Phi", (0,), (0, 1, -1), (0,)),
    StencilEntry("L3_Phi", (0,), (0,), (0, 1, -1)),
)

#: Table 3 — stencil computation in the smoothing.
TABLE3_SMOOTHING: tuple[StencilEntry, ...] = (
    StencilEntry("P1", (0, 1, -1, 2, -2), (0,), (0,)),
    StencilEntry("P2", (0, 1, -1, 2, -2), (0, 1, -1, 2, -2), (0,)),
)


def max_radii(entries: tuple[StencilEntry, ...]) -> tuple[int, int, int]:
    """``(rx, ry, rz)`` maxima over a table."""
    return (
        max(e.radius_x for e in entries),
        max(e.radius_y for e in entries),
        max(e.radius_z for e in entries),
    )


#: Paper-faithful per-update halo radii used by the communication model.
ADAPTATION_RADII = max_radii(TABLE1_ADAPTATION)  # (3, 1, 1)
ADVECTION_RADII = max_radii(TABLE2_ADVECTION)    # (3, 1, 1)
SMOOTHING_RADII = max_radii(TABLE3_SMOOTHING)    # (2, 2, 0)


def render_table(entries: tuple[StencilEntry, ...], title: str) -> str:
    """Human-readable rendering (the ``figures tables`` target)."""
    def fmt(offs: tuple[int, ...], sym: str) -> str:
        parts = []
        for o in sorted(set(offs)):
            if o == 0:
                parts.append(sym)
            else:
                parts.append(f"{sym}{o:+d}")
        return ", ".join(parts)

    lines = [title, "-" * len(title)]
    lines.append(
        f"{'Term':<16} {'x direction':<26} "
        f"{'y direction':<20} {'z direction'}"
    )
    for e in entries:
        lines.append(
            f"{e.term:<16} {fmt(e.x, 'i'):<26} {fmt(e.y, 'j'):<20} {fmt(e.z, 'k')}"
        )
    return "\n".join(lines)


def row_window_schedule(
    lo: int, hi: int, batch: int, north: bool, south: bool
) -> tuple[tuple[int, int], ...]:
    """Target rows ``[lo_u, hi_u)`` of every update of a halo-batched sweep.

    A batch of ``batch`` updates behind one wide halo loses one valid row
    per update (the y-radius of ``A``, ``L`` and ``C`` alike, Tables 1-2)
    on every side that is fed by a neighbour (Figure 4), so update ``u``
    (1-based) can still be valid — and is therefore only computed — on
    the block ``[lo, hi)`` plus ``batch - u`` rows on each *neighbour*
    side.  A side without a neighbour (a pole, whose ghost rows are a
    local mirror of the block) contributes nothing beyond the block.  The
    executed CA core and the analytic model both take their row counts
    from here.
    """
    return tuple(
        (lo - (batch - u) * north, hi + (batch - u) * south)
        for u in range(1, batch + 1)
    )
