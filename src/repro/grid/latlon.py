"""The 3-D latitude-longitude mesh with Arakawa C-grid staggering.

Index conventions used throughout the package
---------------------------------------------

Arrays are laid out ``(nz, ny, nx)`` in C order so that the longitude axis
``x`` is contiguous: under the Y-Z decomposition every rank owns complete
latitude circles and the per-latitude FFTs of the polar filter touch
contiguous memory.

* ``x`` (longitude, index ``i``): periodic, ``lambda_i = 2*pi*i/nx``.
* ``y`` (latitude, index ``j``): the paper writes the metric terms with the
  colatitude ``theta`` (so ``f* = 2*Omega*cos(theta)``); ``j = 0`` is the
  row of cell centres next to the north pole, ``j = ny-1`` next to the
  south pole, ``theta_j = (j + 1/2) * pi / ny``.
* ``z`` (vertical, index ``k``): sigma levels, ``k = 0`` at the model top.

Arakawa C staggering (Sec. 2.2): scalars (``Phi``, ``p'_sa``) live at cell
centres ``(i, j)``; the zonal wind ``U`` lives at ``(i - 1/2, j)``; the
meridional wind ``V`` at ``(i, j + 1/2)``.  ``V`` is stored on the ``ny``
interior latitude interfaces plus the two pole interfaces where it is
identically zero, i.e. with the same ``(nz, ny, nx)`` shape where row ``j``
holds the interface between centre rows ``j`` and ``j + 1``; the last row
(the south-pole interface) is forced to zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import constants


@dataclass(frozen=True)
class LatLonGrid:
    """A regular latitude-longitude mesh of ``nx x ny x nz`` nodes.

    Parameters
    ----------
    nx, ny, nz:
        Number of nodes along longitude, latitude, vertical.
    radius:
        Sphere radius [m]; defaults to the earth radius.
    """

    nx: int
    ny: int
    nz: int
    radius: float = constants.EARTH_RADIUS

    # Derived coordinate arrays, filled in __post_init__ (frozen dataclass ->
    # object.__setattr__).  They are documented as read-only attributes.
    lon: np.ndarray = field(init=False, repr=False, compare=False)
    theta_c: np.ndarray = field(init=False, repr=False, compare=False)
    theta_v: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.nx < 4 or self.ny < 3 or self.nz < 1:
            raise ValueError(
                f"grid too small: nx={self.nx} ny={self.ny} nz={self.nz}"
            )
        if self.nx % 2 != 0:
            raise ValueError("nx must be even (FFT polar filter, pole pairing)")
        lon = 2.0 * np.pi * np.arange(self.nx) / self.nx
        theta_c = (np.arange(self.ny) + 0.5) * np.pi / self.ny
        # interface colatitudes for V rows: row j is the interface between
        # centre rows j and j+1; row ny-1 is the south pole interface.
        theta_v = (np.arange(self.ny) + 1.0) * np.pi / self.ny
        object.__setattr__(self, "lon", lon)
        object.__setattr__(self, "theta_c", theta_c)
        object.__setattr__(self, "theta_v", theta_v)

    # ---- spacings ----------------------------------------------------
    @property
    def dlambda(self) -> float:
        """Longitude spacing [rad]."""
        return 2.0 * np.pi / self.nx

    @property
    def dtheta(self) -> float:
        """Latitude spacing [rad]."""
        return np.pi / self.ny

    # ---- metric terms ------------------------------------------------
    @property
    def sin_theta_c(self) -> np.ndarray:
        """sin(colatitude) at cell-centre rows, shape ``(ny,)``."""
        return np.sin(self.theta_c)

    @property
    def cos_theta_c(self) -> np.ndarray:
        """cos(colatitude) at cell-centre rows, shape ``(ny,)``."""
        return np.cos(self.theta_c)

    def coriolis_centre(self) -> np.ndarray:
        """The planetary part ``2*Omega*cos(theta)`` of ``f*`` at centres."""
        return 2.0 * constants.EARTH_OMEGA * self.cos_theta_c

    # ---- geometry ----------------------------------------------------
    def cell_dx(self) -> np.ndarray:
        """Physical zonal grid spacing per centre row [m], shape ``(ny,)``."""
        return self.radius * self.sin_theta_c * self.dlambda

    def cell_dy(self) -> float:
        """Physical meridional grid spacing [m] (uniform)."""
        return self.radius * self.dtheta

    def cell_area(self) -> np.ndarray:
        """Spherical cell areas per centre row [m^2], shape ``(ny,)``.

        Exact integral of the area element over the cell so the global sum
        equals ``4*pi*a^2`` to round-off (used by the conservation
        diagnostics).
        """
        j = np.arange(self.ny)
        theta_n = j * self.dtheta
        theta_s = (j + 1) * self.dtheta
        band = np.cos(theta_n) - np.cos(theta_s)
        return self.radius**2 * self.dlambda * band

    def total_area(self) -> float:
        """Total sphere area ``4*pi*a^2`` [m^2]."""
        return 4.0 * np.pi * self.radius**2

    # ---- convenience -------------------------------------------------
    @property
    def shape3d(self) -> tuple[int, int, int]:
        """Array shape ``(nz, ny, nx)`` of a full-level 3-D field."""
        return (self.nz, self.ny, self.nx)

    @property
    def shape2d(self) -> tuple[int, int]:
        """Array shape ``(ny, nx)`` of a surface field."""
        return (self.ny, self.nx)

    @property
    def npoints(self) -> int:
        """Total number of mesh points ``nx*ny*nz``."""
        return self.nx * self.ny * self.nz

    def latitude_degrees(self) -> np.ndarray:
        """Geographic latitude of centre rows in degrees (north positive)."""
        return 90.0 - np.degrees(self.theta_c)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"LatLonGrid({self.nx}x{self.ny}x{self.nz})"


#: The paper's evaluation mesh: 720 x 360 x 30 (~50 km resolution).
PAPER_GRID_SHAPE = (720, 360, 30)


def paper_grid() -> LatLonGrid:
    """The 50 km mesh of the paper's evaluation (Sec. 5.1)."""
    nx, ny, nz = PAPER_GRID_SHAPE
    return LatLonGrid(nx=nx, ny=ny, nz=nz)
