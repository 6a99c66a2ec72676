"""Inner/boundary split of a stencil pass for the task-graph executor.

The executor needs the per-step updates split into an *inner* pass over
rows whose stencils touch no halo data (runnable while the halo exchange
is in flight) and a *boundary* pass over the remaining rows (runnable only
after the unpack); each half is a :class:`repro.core.rowslab.RowSlab`.
"""
from __future__ import annotations

from repro.core.rowslab import RowSlab
from repro.operators.filter import PolarFilter
from repro.operators.geometry import WorkingGeometry


def split_rows(
    parent: WorkingGeometry,
    a: int,
    b: int,
    margin: int,
    polar_filter: PolarFilter | None = None,
) -> tuple[RowSlab, list[RowSlab]]:
    """(inner slab ``[a, b)``, boundary slabs covering the complement).

    The boundary slabs cover ``[0, a)`` and ``[b, ny_w)`` so the union of
    all three passes writes every working row exactly once.
    """
    ny_w = parent.shape2d[0]
    if not 0 < a < b < ny_w:
        raise ValueError(f"inner rows [{a}, {b}) must be a strict sub-range")
    inner = RowSlab(parent, a, b, margin, polar_filter)
    boundary = [
        RowSlab(parent, 0, a, margin, polar_filter),
        RowSlab(parent, b, ny_w, margin, polar_filter),
    ]
    return inner, boundary
