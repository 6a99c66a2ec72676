"""CFL and pole-clustering diagnostics of the latitude-longitude mesh.

Section 2.2 motivates the Fourier polar filter: grid lines cluster at the
poles, so the physical zonal spacing ``dx = a * sin(theta) * dlambda``
collapses and an unfiltered explicit scheme would need a prohibitively
small time step.  These helpers quantify that restriction and are used by
the examples and by the tests of the filter's stabilizing effect.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from repro.constants import DEFAULT_PARAMETERS
from repro.grid.latlon import LatLonGrid


@dataclass(frozen=True)
class CflReport:
    """Summary of advective/gravity-wave CFL numbers on a mesh."""

    dt: float
    max_wind: float
    gravity_wave_speed: float
    min_dx: float
    max_dx: float
    dy: float
    cfl_zonal_worst: float
    cfl_zonal_equator: float
    cfl_meridional: float
    cfl_zonal_filtered: float

    @property
    def stable_unfiltered(self) -> bool:
        """Whether the worst-case (polar) zonal CFL is below 1."""
        return self.cfl_zonal_worst < 1.0

    @property
    def stable_filtered(self) -> bool:
        """Whether the meridional CFL and the zonal CFL at the finest ``dx``
        the polar filter leaves (:func:`filtered_dx`) are below 1."""
        return self.cfl_zonal_filtered < 1.0 and self.cfl_meridional < 1.0


def filtered_dx(grid: LatLonGrid) -> float:
    """The finest zonal spacing [m] the polar filter leaves: ``dx`` at the
    default filter latitude, or at the polemost row if that is coarser."""
    dx_f = grid.radius * math.cos(DEFAULT_PARAMETERS.filter_latitude) * grid.dlambda
    return max(float(grid.cell_dx().min()), dx_f)


def polar_clustering_ratio(grid: LatLonGrid) -> float:
    """``max dx / min dx`` over latitude rows — the pole-clustering severity."""
    dx = grid.cell_dx()
    return float(dx.max() / dx.min())


def cfl_report(
    grid: LatLonGrid,
    dt: float,
    max_wind: float = 100.0,
    gravity_wave_speed: float = 300.0,
) -> CflReport:
    """Compute CFL numbers for time step ``dt`` [s].

    ``max_wind`` is the assumed maximum advective wind [m/s];
    ``gravity_wave_speed`` the fastest gravity-wave phase speed [m/s].  The
    signal speed used is their sum (worst case).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    speed = max_wind + gravity_wave_speed
    dx = grid.cell_dx()
    dy = grid.cell_dy()
    return CflReport(
        dt=dt,
        max_wind=max_wind,
        gravity_wave_speed=gravity_wave_speed,
        min_dx=float(dx.min()),
        max_dx=float(dx.max()),
        dy=float(dy),
        cfl_zonal_worst=float(speed * dt / dx.min()),
        cfl_zonal_equator=float(speed * dt / dx.max()),
        cfl_meridional=float(speed * dt / dy),
        cfl_zonal_filtered=float(speed * dt / filtered_dx(grid)),
    )


def max_stable_dt(
    grid: LatLonGrid,
    filtered: bool = True,
    max_wind: float = 100.0,
    gravity_wave_speed: float = 300.0,
    safety: float = 0.7,
) -> float:
    """Largest stable explicit time step [s] with/without the polar filter."""
    speed = max_wind + gravity_wave_speed
    dx = filtered_dx(grid) if filtered else grid.cell_dx().min()
    return safety * min(dx, grid.cell_dy()) / speed
