"""Shift primitives and boundary ghost fills for working arrays.

Working arrays carry ghost zones: ``g_y`` rows at each latitude end,
``g_z`` levels at top/bottom, and (only under an X-Y decomposition)
``g_x`` columns at each longitude end.  All stencil shifts are implemented
with :func:`numpy.roll`; with ghost zones present the wrap-around only ever
moves *ghost* entries into *ghost* positions, so interior results are
correct as long as the ghost width covers the accumulated stencil radius —
the validity-margin discipline described in DESIGN.md.

Shift convention: ``sx(a, d)[..., i] == a[..., i + d]`` (and likewise
``sy``/``sz``), i.e. a positive ``d`` reads from larger indices.
"""
from __future__ import annotations

import numpy as np


def roll_into(a: np.ndarray, shift: int, out: np.ndarray, axis: int) -> np.ndarray:
    """``out[...] = np.roll(a, shift, axis)`` without allocating.

    Pure data movement (two slice copies), therefore bit-identical to
    ``np.roll``.  ``out`` must not alias ``a``.
    """
    n = a.shape[axis]
    k = shift % n if n else 0
    if k == 0:
        out[...] = a
        return out
    nd = a.ndim
    ax = axis % nd
    lo = [slice(None)] * nd
    hi = [slice(None)] * nd
    lo[ax] = slice(0, k)
    hi[ax] = slice(k, None)
    src_lo = [slice(None)] * nd
    src_hi = [slice(None)] * nd
    src_lo[ax] = slice(n - k, None)
    src_hi[ax] = slice(0, n - k)
    out[tuple(lo)] = a[tuple(src_lo)]
    out[tuple(hi)] = a[tuple(src_hi)]
    return out


def sx(a: np.ndarray, d: int) -> np.ndarray:
    """Longitude shift: ``out[..., i] = a[..., i + d]``."""
    if d == 0:
        return a
    return np.roll(a, -d, axis=-1)


def sx_into(a: np.ndarray, d: int, out: np.ndarray) -> np.ndarray:
    """Allocation-free :func:`sx` into ``out`` (bit-identical)."""
    return roll_into(a, -d, out, axis=-1)


def sy_into(a: np.ndarray, d: int, out: np.ndarray) -> np.ndarray:
    """Allocation-free :func:`sy` into ``out`` (bit-identical)."""
    return roll_into(a, -d, out, axis=-2)


def sy(a: np.ndarray, d: int) -> np.ndarray:
    """Latitude shift: ``out[..., j, :] = a[..., j + d, :]``."""
    if d == 0:
        return a
    return np.roll(a, -d, axis=-2)


def sz(a: np.ndarray, d: int) -> np.ndarray:
    """Vertical shift (3-D arrays only): ``out[k] = a[k + d]``."""
    if d == 0:
        return a
    if a.ndim != 3:
        raise ValueError("sz requires a 3-D array")
    return np.roll(a, -d, axis=0)


def _mirror_row_into(
    dst: np.ndarray, src: np.ndarray, half: int, negate: bool
) -> None:
    """``dst = (+/-) roll(src, half)`` along x, without the roll temporary.

    The rolled row's left half is the source's right half and vice versa,
    so two slice copies (or :func:`np.negative` writes, an exact sign
    flip) reproduce ``sign * np.roll(src, half, axis=-1)`` bit for bit.
    ``dst`` and ``src`` are distinct rows, so the slices never alias.
    """
    if negate:
        np.negative(src[..., half:], out=dst[..., :half])
        np.negative(src[..., :half], out=dst[..., half:])
    else:
        dst[..., :half] = src[..., half:]
        dst[..., half:] = src[..., :half]


def fill_pole_ghosts(
    a: np.ndarray,
    gy: int,
    vector: bool,
    north: bool = True,
    south: bool = True,
    depth: int | None = None,
) -> None:
    """Fill latitude ghost rows by the cross-pole mirror condition, in place.

    A point "beyond" the pole at colatitude ``-eps`` is physically the
    point at colatitude ``+eps`` on the meridian shifted by 180 degrees.
    Scalars copy the mirrored value; horizontal vector components flip
    sign (both unit vectors reverse when the meridian flips).

    Requires the full longitude circle in the array (serial, Y-Z
    decomposition, or after the antipodal exchange of the X-Y core).

    Parameters
    ----------
    a:
        Working array ``(..., ny_w, nx)`` whose first ``gy`` and last
        ``gy`` rows are ghosts.
    gy:
        Ghost width; 0 is a no-op.
    vector:
        Apply the sign flip of vector components.
    north, south:
        Whether this array's y-range actually touches the north/south
        pole (interior-block ghosts are filled by exchange instead).
    depth:
        Number of ghost rows to fill, counted from the block outwards
        (default: all ``gy``).  Rows beyond ``depth`` are left untouched —
        a caller whose stencils reach only ``depth`` rows across the pole
        need not pay for the rest.
    """
    if gy == 0:
        return
    depth = gy if depth is None else min(depth, gy)
    nx = a.shape[-1]
    if nx % 2 != 0:
        raise ValueError("pole mirror requires even nx")
    half = nx // 2
    if north:
        for m in range(depth):
            # ghost row (gy-1-m) mirrors interior row (gy+m)
            src = a[..., gy + m, :]
            _mirror_row_into(a[..., gy - 1 - m, :], src, half, vector)
    if south:
        ny_w = a.shape[-2]
        for m in range(depth):
            src = a[..., ny_w - 1 - gy - m, :]
            _mirror_row_into(a[..., ny_w - gy + m, :], src, half, vector)


def fill_pole_ghosts_vrow(
    a: np.ndarray,
    gy: int,
    north: bool = True,
    south: bool = True,
    depth: int | None = None,
) -> None:
    """Pole conditions for fields stored on V (interface) rows, in place.

    V-row ``j`` holds the interface between centre rows ``j`` and ``j+1``,
    so for a north-touching block the *ghost row* ``gy - 1`` is exactly the
    north-pole interface (colatitude 0) and for a south-touching block the
    *last interior row* is the south-pole interface (colatitude pi).  The
    meridional wind is antisymmetric across a pole: it vanishes on the pole
    interface itself and mirror rows pick up a sign flip and the usual
    half-circle longitude shift.  ``depth`` limits the fill to that many
    ghost rows (see :func:`fill_pole_ghosts`); the pole interface row is
    zeroed regardless.
    """
    if gy == 0:
        return
    depth = gy if depth is None else min(depth, gy)
    nx = a.shape[-1]
    half = nx // 2
    if north:
        pole = gy - 1  # the theta = 0 interface row
        a[..., pole, :] = 0.0
        for m in range(1, depth):
            src = a[..., pole + m, :]
            _mirror_row_into(a[..., pole - m, :], src, half, True)
    if south:
        ny_w = a.shape[-2]
        pole = ny_w - 1 - gy  # the theta = pi interface row (last interior)
        a[..., pole, :] = 0.0
        for m in range(1, depth + 1):
            src = a[..., pole - m, :]
            _mirror_row_into(a[..., pole + m, :], src, half, True)


def fill_z_edge_ghosts(
    a: np.ndarray, gz: int, top: bool = True, bottom: bool = True
) -> None:
    """Fill vertical ghost levels by edge replication, in place.

    The vertical operators are written so that the physically meaningful
    boundary conditions (vanishing ``sigma-dot`` at the model top and
    surface) are applied through the interface arrays; the replicated
    ghost level values only enter terms that are multiplied by those zero
    fluxes, so replication is the natural neutral fill.
    """
    if gz == 0:
        return
    if a.ndim != 3:
        raise ValueError("z ghosts only exist on 3-D arrays")
    nz_w = a.shape[0]
    if top:
        a[:gz] = a[gz]
    if bottom:
        a[nz_w - gz:] = a[nz_w - 1 - gz]


def interior3d(a: np.ndarray, gy: int, gz: int, gx: int = 0) -> np.ndarray:
    """View of the interior (ghost-stripped) part of a 3-D working array."""
    nz_w, ny_w, nx_w = a.shape
    return a[gz:nz_w - gz or None, gy:ny_w - gy or None, gx:nx_w - gx or None]


def interior2d(a: np.ndarray, gy: int, gx: int = 0) -> np.ndarray:
    """View of the interior part of a 2-D working array."""
    ny_w, nx_w = a.shape
    return a[gy:ny_w - gy or None, gx:nx_w - gx or None]
