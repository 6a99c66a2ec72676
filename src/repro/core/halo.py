"""Halo exchange machinery for the distributed cores.

Supports the three decomposition families:

* Y-Z plane exchange: up to 8 neighbours ``(dy, dz)`` including the corner
  blocks of Figure 4;
* X-Y plane exchange: up to 8 neighbours ``(dx, dy)`` with periodic
  longitude wrap;
* full 3-D exchange (26 neighbours) for the 3-D baseline.

Each exchange sends **one message per field per neighbour** (matching how
the paper counts communication operations: "one communication involves
about 20 MPI_Isend and MPI_Recv operations due to the length of xi").
Non-blocking start/finish pairs carry the computation-communication
overlap of Sec. 4.3.1 on the logical clock: between ``start`` and
``finish`` the CA core charges the inner-block part of its next update
(``CommAvoidingRank.charge_inner``), so the waits in ``finish`` find a
later local clock and the exchange hides behind that compute; the
arithmetic itself runs after ``finish``, on the whole row window.

Pole ranks additionally need the cross-pole mirror values; when the
longitude axis is distributed the mirror columns live on the *antipodal*
rank, handled by :class:`AntipodalPoleExchanger`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.decomposition import Decomposition
from repro.operators.geometry import WorkingGeometry
from repro.simmpi.comm import Request, SimComm

#: tag bases; direction index * FIELD_STRIDE + field index fits well below
DIR_STRIDE = 64
FIELD_STRIDE = 1
TAG_HALO = 1_000
TAG_POLE_N = 8_000
TAG_POLE_S = 9_000


def _axis_slices(
    n_interior: int, g: int, d: int, side: str, w: int | None = None
) -> slice:
    """Slice along one axis of the working array for direction ``d``.

    ``side="send"`` selects the ``w`` interior cells adjacent to the ``d``
    face; ``side="recv"`` selects the ``w`` ghost cells adjacent to the
    interior on the ``d`` face.  ``d`` in {-1, 0, +1}; ``d=0`` selects the
    whole interior.  ``w`` defaults to the full ghost width ``g``.
    """
    if d == 0:
        return slice(g, g + n_interior)
    if w is None:
        w = g
    if w > g or w > n_interior:
        raise ValueError(
            f"exchange width {w} exceeds ghost width {g} or block {n_interior}"
        )
    if side == "send":
        return slice(g, g + w) if d < 0 else slice(g + n_interior - w, g + n_interior)
    return slice(g - w, g) if d < 0 else slice(g + n_interior, g + n_interior + w)


class PackPool:
    """Reusable contiguous send buffers for halo/bundle packing.

    The thread backend keeps a reference to every sent payload until the
    receiver consumes it, so each send must own a private copy — there the
    pool is a no-op and strided blocks flow through ``isend`` unchanged
    (``SimComm._as_payload`` copies them as before).  The process backend
    packs payload bytes into a shared-memory ring *synchronously* inside
    ``send``/``isend`` (``SimComm.pack_in_place``), so a block can be
    staged into a reusable buffer: one ``np.copyto`` per message and zero
    per-message allocations.  Buffers are keyed by caller key + shape, so
    alternating wide/thin exchanges keep distinct buffers instead of
    reallocating.
    """

    __slots__ = ("enabled", "_bufs")

    def __init__(self, comm: SimComm) -> None:
        self.enabled = comm.pack_in_place
        self._bufs: dict[tuple, np.ndarray] = {}

    def pack(self, key: tuple, block: np.ndarray) -> np.ndarray:
        """Stage ``block`` for sending; returns the array to pass to send."""
        if not self.enabled:
            return block
        buf = self._bufs.get(key)
        if buf is None or buf.shape != block.shape or buf.dtype != block.dtype:
            buf = np.empty(block.shape, dtype=block.dtype)
            self._bufs[key] = buf
        np.copyto(buf, block)
        return buf


@dataclass
class PendingExchange:
    """In-flight non-blocking halo exchange.

    ``recv_reqs`` entries are ``(request, field_index, slices, neighbour)``;
    the neighbour rank is kept so unpack errors (e.g. a corrupted or
    truncated payload) can name the offending link.
    """

    recv_reqs: list[tuple[Request, int, tuple[slice, ...], int]]
    send_reqs: list[Request]


class HaloExchanger:
    """Plane (or 3-D) halo exchange of one rank's working arrays."""

    def __init__(
        self,
        comm: SimComm,
        decomp: Decomposition,
        geom: WorkingGeometry,
    ) -> None:
        self.comm = comm
        self.decomp = decomp
        self.geom = geom
        self.neighbours = decomp.plane_neighbours(comm.rank)
        self._pool = PackPool(comm)

    # ---- slice computation ---------------------------------------------------
    def _block_slices(
        self,
        key: tuple,
        ndim: int,
        side: str,
        wy: int | None = None,
        wz: int | None = None,
        wx: int | None = None,
    ) -> tuple[slice, ...]:
        """Working-array slices of the send/recv block toward neighbour ``key``."""
        g = self.geom
        ext = g.extent
        kind = self.decomp.kind
        if kind in ("yz", "serial"):
            dy, dz = key
            dx = 0
        elif kind == "xy":
            dx, dy = key
            dz = 0
        else:
            dx, dy, dz = key
        ys = _axis_slices(ext.ny, g.gy, dy, side, wy)
        xs = _axis_slices(ext.nx, g.gx, dx, side, wx) if g.gx else slice(None)
        if ndim == 2:
            return (ys, xs)
        zs = _axis_slices(ext.nz, g.gz, dz, side, wz)
        return (zs, ys, xs)

    def _tag(self, key: tuple, field_idx: int, receiver_view: bool) -> int:
        """Deterministic tag; sender and receiver derive the same value.

        The tag encodes the direction as seen by the *sender*; the receiver
        flips the direction of its own key.
        """
        if receiver_view:
            key = tuple(-d for d in key)
        # the direction is encoded as seen by the sender; base-3 digits of
        # (d + 1) give a canonical per-direction code both sides agree on
        enc = 0
        for d in key:
            enc = enc * 3 + (d + 1)
        return TAG_HALO + enc * DIR_STRIDE + field_idx

    # ---- exchange ------------------------------------------------------------
    def start(
        self,
        fields: list[np.ndarray],
        wy: int | None = None,
        wz: int | None = None,
        wx: int | None = None,
    ) -> PendingExchange:
        """Post all receives and sends; returns the pending handle.

        ``fields`` is a list of working arrays (3-D or 2-D).  One message
        per (field, neighbour).  ``wy``/``wz``/``wx`` narrow the exchanged
        widths below the allocated ghost widths (used by the CA core whose
        advection exchange is much thinner than its adaptation one).
        """
        recv_reqs = []
        send_reqs = []
        # post receives first (tags are direction-of-sender encoded)
        for key, nb in self.neighbours.items():
            for fi, arr in enumerate(fields):
                slc = self._block_slices(key, arr.ndim, "recv", wy, wz, wx)
                tag = self._tag(key, fi, receiver_view=True)
                req = self.comm.irecv(nb, tag=tag)
                recv_reqs.append((req, fi, slc, nb))
        for key, nb in self.neighbours.items():
            for fi, arr in enumerate(fields):
                slc = self._block_slices(key, arr.ndim, "send", wy, wz, wx)
                tag = self._tag(key, fi, receiver_view=False)
                block = arr[slc]
                payload = self._pool.pack((key, fi) + block.shape, block)
                send_reqs.append(self.comm.isend(nb, payload, tag=tag))
        return PendingExchange(recv_reqs=recv_reqs, send_reqs=send_reqs)

    def finish(self, pending: PendingExchange, fields: list[np.ndarray]) -> None:
        """Wait for all receives and unpack into the ghost zones."""
        for req, fi, slc, nb in pending.recv_reqs:
            payload = req.wait()
            target = fields[fi][slc]
            if payload.size != target.size:
                raise ValueError(
                    f"rank {self.comm.rank}: halo payload from neighbour "
                    f"rank {nb} for field {fi} has {payload.size} elements, "
                    f"expected {target.size} for ghost block {target.shape}"
                )
            fields[fi][slc] = payload.reshape(target.shape)
        for req in pending.send_reqs:
            req.wait()

    def exchange(
        self,
        fields: list[np.ndarray],
        wy: int | None = None,
        wz: int | None = None,
        wx: int | None = None,
    ) -> None:
        """Blocking halo exchange (start + finish)."""
        pending = self.start(fields, wy, wz, wx)
        self.finish(pending, fields)


class AntipodalPoleExchanger:
    """Cross-pole ghost fill when longitude is distributed.

    The mirror value for a ghost row at columns ``[x0, x1)`` lives at
    columns ``[x0 + nx/2, x1 + nx/2)`` — on the antipodal rank of the same
    (polar) block row.  Requires an even number of equal x-blocks.
    """

    def __init__(
        self, comm: SimComm, decomp: Decomposition, geom: WorkingGeometry
    ) -> None:
        self.comm = comm
        self.decomp = decomp
        self.geom = geom
        if decomp.px > 1:
            if decomp.px % 2 != 0 or decomp.nx % decomp.px != 0:
                raise ValueError(
                    "antipodal pole exchange needs an even number of "
                    "equal-width x-blocks (px even, nx % px == 0)"
                )
        cx, cy, cz = decomp.coords(comm.rank)
        self.partner = decomp.rank_of(
            (cx + decomp.px // 2) % decomp.px, cy, cz
        )
        self.local = self.partner == comm.rank
        self._pool = PackPool(comm)

    def fill(self, fields: list[tuple[np.ndarray, str]]) -> None:
        """Fill pole ghost rows of the given fields.

        ``fields`` is a list of ``(array, kind)`` with kind in
        ``{"scalar", "vector", "vrow"}``.  Must run **after** the regular
        halo exchange: full *working-width* rows (interior + x-ghost
        columns) are exchanged, so the mirror also covers the corner
        ghost columns.  Full-x blocks are handled locally by
        ``fill_physical_ghosts`` and skip this entirely.
        """
        g = self.geom
        north, south = g.touches_north, g.touches_south
        if not ((north or south) and g.gy):
            return
        if g.full_x:
            return  # local mirror handled by fill_physical_ghosts
        gy = g.gy

        def working_rows(arr: np.ndarray, rows: slice) -> np.ndarray:
            if arr.ndim == 2:
                return arr[rows, :]
            return arr[:, rows, :]

        for pole, active, tag0 in (
            ("north", north, TAG_POLE_N),
            ("south", south, TAG_POLE_S),
        ):
            if not active:
                continue
            # working rows adjacent to the pole, full working width; the
            # south block is one row deeper because V-row mirrors are
            # offset by half a cell (interface rows)
            if pole == "north":
                rows = slice(gy, 2 * gy)
            else:
                rows = slice(-(2 * gy + 1), -gy)
            for fi, (arr, _kind) in enumerate(fields):
                block = working_rows(arr, rows)
                payload = self._pool.pack((pole, fi) + block.shape, block)
                self.comm.send(self.partner, payload, tag=tag0 + fi)
            for fi, (arr, kind) in enumerate(fields):
                got = self.comm.recv(self.partner, tag=tag0 + fi)
                block = working_rows(arr, rows)
                self._apply(arr, got.reshape(block.shape), kind, pole, rows)

    def _apply(
        self,
        arr: np.ndarray,
        mirror: np.ndarray,
        kind: str,
        pole: str,
        rows: slice,
    ) -> None:
        """Write mirror rows (already column-aligned) into ghost rows.

        ``mirror`` holds the partner's working rows selected by ``rows``
        (the partner has the same extents); mirror row for working row
        ``r`` is looked up by its global working index.
        """
        g = self.geom
        gy = g.gy
        ny_w = arr.shape[-2]
        block_start = rows.start if rows.start >= 0 else ny_w + rows.start

        def put(row_w: int, src_row: np.ndarray) -> None:
            if arr.ndim == 2:
                arr[row_w, :] = src_row
            else:
                arr[:, row_w, :] = src_row

        def take(row_w: int) -> np.ndarray:
            idx = row_w - block_start
            if arr.ndim == 2:
                return mirror[idx, :]
            return mirror[:, idx, :]

        sign = -1.0 if kind in ("vector", "vrow") else 1.0
        if kind in ("scalar", "vector"):
            if pole == "north":
                for m in range(gy):  # ghost gy-1-m mirrors interior gy+m
                    put(gy - 1 - m, sign * take(gy + m))
            else:
                for m in range(gy):  # ghost ny_w-gy+m mirrors ny_w-1-gy-m
                    put(ny_w - gy + m, sign * take(ny_w - 1 - gy - m))
        else:  # vrow: the pole interface row itself is zero
            zero = np.zeros(arr.shape[:-2] + (arr.shape[-1],))
            if pole == "north":
                pole_row = gy - 1
                put(pole_row, zero)
                for m in range(1, gy):  # ghost pole-m mirrors row gy-1+m
                    put(pole_row - m, sign * take(gy - 1 + m))
            else:
                pole_row = ny_w - 1 - gy
                put(pole_row, zero)
                for m in range(1, gy + 1):  # ghost pole+m mirrors pole-m
                    put(pole_row + m, sign * take(pole_row - m))
