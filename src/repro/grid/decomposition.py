"""Block domain decompositions of the latitude-longitude mesh.

Section 4.2 of the paper compares three decomposition families:

* **X-Y decomposition** (``p_z = 1``): avoids the z-collective of the
  summation operator ``C`` but pays for the x-collective of the Fourier
  filter ``F``.
* **Y-Z decomposition** (``p_x = 1``): makes the polar filter
  communication-free (every rank owns complete latitude circles) at the
  price of the z-collective; this is the paper's choice and the basis of
  the communication-avoiding algorithm.
* general 3-D decomposition: both collectives live; kept as a baseline.

A :class:`Decomposition` maps ranks to :class:`BlockExtent` sub-blocks, and
provides the neighbour tables (including the diagonal "corner" neighbours
of Figure 4) and gather/scatter helpers used by the distributed cores and
by the tests that compare against the serial reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


def balanced_partition(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous chunks of near-equal size.

    Returns a list of ``(start, stop)`` pairs.  The first ``n % parts``
    chunks get one extra element, matching the usual MPI block distribution.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if n < parts:
        raise ValueError(f"cannot split {n} points over {parts} parts")
    base, extra = divmod(n, parts)
    bounds = []
    start = 0
    for c in range(parts):
        size = base + (1 if c < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


@dataclass(frozen=True)
class BlockExtent:
    """The global index ranges owned by one rank: ``[x0, x1) x [y0, y1) x [z0, z1)``."""

    x0: int
    x1: int
    y0: int
    y1: int
    z0: int
    z1: int

    @property
    def nx(self) -> int:
        return self.x1 - self.x0

    @property
    def ny(self) -> int:
        return self.y1 - self.y0

    @property
    def nz(self) -> int:
        return self.z1 - self.z0

    @property
    def shape3d(self) -> tuple[int, int, int]:
        """Local array shape ``(nz, ny, nx)``."""
        return (self.nz, self.ny, self.nx)

    @property
    def shape2d(self) -> tuple[int, int]:
        """Local surface-array shape ``(ny, nx)``."""
        return (self.ny, self.nx)

    def slices3d(self) -> tuple[slice, slice, slice]:
        """Slices selecting this block out of a global ``(nz, ny, nx)`` array."""
        return (
            slice(self.z0, self.z1),
            slice(self.y0, self.y1),
            slice(self.x0, self.x1),
        )

    def slices2d(self) -> tuple[slice, slice]:
        """Slices selecting this block out of a global ``(ny, nx)`` array."""
        return (slice(self.y0, self.y1), slice(self.x0, self.x1))


@dataclass(frozen=True)
class Decomposition:
    """A ``p_x x p_y x p_z`` block decomposition of an ``nx x ny x nz`` mesh.

    Rank numbering is x-fastest: ``rank = cx + px * (cy + py * cz)`` with
    ``cx``, ``cy``, ``cz`` the block coordinates along each axis.
    """

    nx: int
    ny: int
    nz: int
    px: int
    py: int
    pz: int

    def __post_init__(self) -> None:
        for n, p, name in (
            (self.nx, self.px, "x"),
            (self.ny, self.py, "y"),
            (self.nz, self.pz, "z"),
        ):
            if p < 1:
                raise ValueError(f"p{name} must be >= 1")
            if n < p:
                raise ValueError(f"p{name}={p} exceeds n{name}={n}")

    # ---- basic queries -------------------------------------------------
    @property
    def nranks(self) -> int:
        """Total number of ranks ``px * py * pz``."""
        return self.px * self.py * self.pz

    @property
    def kind(self) -> str:
        """``"xy"``, ``"yz"``, ``"3d"`` or ``"serial"``."""
        if self.nranks == 1:
            return "serial"
        if self.pz == 1 and self.px > 1:
            return "xy"
        if self.px == 1 and (self.py > 1 or self.pz > 1):
            return "yz"
        return "3d"

    def coords(self, rank: int) -> tuple[int, int, int]:
        """Block coordinates ``(cx, cy, cz)`` of ``rank``."""
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range [0, {self.nranks})")
        cx = rank % self.px
        cy = (rank // self.px) % self.py
        cz = rank // (self.px * self.py)
        return cx, cy, cz

    def rank_of(self, cx: int, cy: int, cz: int) -> int:
        """Inverse of :meth:`coords`."""
        if not (0 <= cx < self.px and 0 <= cy < self.py and 0 <= cz < self.pz):
            raise ValueError(f"coords ({cx},{cy},{cz}) out of range")
        return cx + self.px * (cy + self.py * cz)

    def extent(self, rank: int) -> BlockExtent:
        """The global index block owned by ``rank``."""
        cx, cy, cz = self.coords(rank)
        xb = balanced_partition(self.nx, self.px)[cx]
        yb = balanced_partition(self.ny, self.py)[cy]
        zb = balanced_partition(self.nz, self.pz)[cz]
        return BlockExtent(xb[0], xb[1], yb[0], yb[1], zb[0], zb[1])

    def extents(self) -> list[BlockExtent]:
        """Extents of all ranks, indexed by rank."""
        return [self.extent(r) for r in range(self.nranks)]

    # ---- neighbours -----------------------------------------------------
    def neighbour(self, rank: int, dx: int, dy: int, dz: int) -> int | None:
        """Rank offset by block steps ``(dx, dy, dz)``; ``None`` if outside.

        The x axis is periodic (longitude); y and z are not (poles, model
        top/surface).
        """
        cx, cy, cz = self.coords(rank)
        nx_, ny_, nz_ = cx + dx, cy + dy, cz + dz
        nx_ %= self.px  # periodic longitude
        if not 0 <= ny_ < self.py or not 0 <= nz_ < self.pz:
            return None
        return self.rank_of(nx_, ny_, nz_)

    def plane_neighbours(self, rank: int) -> dict[tuple[int, int], int]:
        """The up-to-8 neighbours in the decomposed plane (Figure 4).

        For a Y-Z decomposition the plane axes are ``(dy, dz)``; for an X-Y
        decomposition ``(dx, dy)``; for a 3-D decomposition all 26 block
        neighbours are returned keyed by ``(dx, dy, dz)``.  Keys map to the
        neighbour rank; missing keys mean the block borders the domain
        boundary (pole / top / surface).
        """
        out: dict[tuple, int] = {}
        if self.kind in ("yz", "serial"):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    if dy == dz == 0:
                        continue
                    nb = self.neighbour(rank, 0, dy, dz)
                    if nb is not None and nb != rank:
                        out[(dy, dz)] = nb
        elif self.kind == "xy":
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    if dx == dy == 0:
                        continue
                    nb = self.neighbour(rank, dx, dy, 0)
                    if nb is not None and nb != rank:
                        out[(dx, dy)] = nb
        else:  # 3d
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dz in (-1, 0, 1):
                        if dx == dy == dz == 0:
                            continue
                        nb = self.neighbour(rank, dx, dy, dz)
                        if nb is not None and nb != rank:
                            out[(dx, dy, dz)] = nb
        return out

    # ---- sub-communicator rank groups ------------------------------------
    def ranks_along(self, axis: str, rank: int) -> list[int]:
        """All ranks sharing this rank's block line along ``axis`` ('x','y','z').

        These are the participants of the collective along that axis (the
        FFT gather along x, the vertical summation along z).
        """
        cx, cy, cz = self.coords(rank)
        if axis == "x":
            return [self.rank_of(i, cy, cz) for i in range(self.px)]
        if axis == "y":
            return [self.rank_of(cx, j, cz) for j in range(self.py)]
        if axis == "z":
            return [self.rank_of(cx, cy, k) for k in range(self.pz)]
        raise ValueError(f"unknown axis {axis!r}")

    # ---- gather / scatter -------------------------------------------------
    def scatter(self, global_array: np.ndarray, rank: int) -> np.ndarray:
        """Copy of this rank's block of a global 3-D or ``(ny, nx)`` array."""
        ext = self.extent(rank)
        if global_array.ndim == 3:
            return global_array[ext.slices3d()].copy()
        if global_array.ndim == 2:
            return global_array[ext.slices2d()].copy()
        raise ValueError("expected a 2-D or 3-D global array")

    def gather(self, locals_: list[np.ndarray]) -> np.ndarray:
        """Assemble per-rank blocks back into a global array."""
        if len(locals_) != self.nranks:
            raise ValueError(f"expected {self.nranks} blocks, got {len(locals_)}")
        ndim = locals_[0].ndim
        if ndim == 3:
            out = np.empty((self.nz, self.ny, self.nx), dtype=locals_[0].dtype)
            for r, block in enumerate(locals_):
                ext = self.extent(r)
                if block.shape != ext.shape3d:
                    raise ValueError(
                        f"rank {r}: block shape {block.shape} != extent {ext.shape3d}"
                    )
                out[ext.slices3d()] = block
            return out
        if ndim == 2:
            out = np.empty((self.ny, self.nx), dtype=locals_[0].dtype)
            for r, block in enumerate(locals_):
                ext = self.extent(r)
                out[ext.slices2d()] = block
            return out
        raise ValueError("expected 2-D or 3-D blocks")

    def __iter__(self) -> Iterator[BlockExtent]:
        return iter(self.extents())

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Decomposition({self.kind}: {self.px}x{self.py}x{self.pz} over "
            f"{self.nx}x{self.ny}x{self.nz})"
        )


def _factor_pairs(p: int) -> list[tuple[int, int]]:
    """All ordered factorizations ``p = a * b``."""
    out = []
    for a in range(1, p + 1):
        if p % a == 0:
            out.append((a, p // a))
    return out


def best_2d_factorization(
    p: int, n1: int, n2: int, max_frac: float = 0.5
) -> tuple[int, int]:
    """Pick ``(p1, p2)`` with ``p1*p2 = p`` minimizing block surface.

    ``p1 <= max_frac * n1`` and ``p2 <= max_frac * n2`` (the paper's
    ``p_y <= n_y / 2`` etc. constraint), and among feasible pairs the one
    minimizing the halo surface ``n1/p1 + n2/p2`` is chosen.
    """
    feasible = [
        (a, b)
        for a, b in _factor_pairs(p)
        if a <= max(1, int(max_frac * n1)) and b <= max(1, int(max_frac * n2))
    ]
    if not feasible:
        raise ValueError(
            f"no feasible factorization of p={p} with n1={n1}, n2={n2}"
        )
    return min(feasible, key=lambda ab: n1 / ab[0] + n2 / ab[1])


def xy_decomposition(nx: int, ny: int, nz: int, p: int) -> Decomposition:
    """Best X-Y decomposition (``p_z = 1``) of ``p`` ranks (Sec. 4.2)."""
    px, py = best_2d_factorization(p, nx, ny)
    return Decomposition(nx, ny, nz, px, py, 1)


def yz_decomposition(nx: int, ny: int, nz: int, p: int) -> Decomposition:
    """Best Y-Z decomposition (``p_x = 1``) of ``p`` ranks (Sec. 4.2.1)."""
    py, pz = best_2d_factorization(p, ny, nz)
    return Decomposition(nx, ny, nz, 1, py, pz)
