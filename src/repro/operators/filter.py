"""The Fourier polar filter ``F`` (Sec. 2.2 / 4.2.1).

Grid lines of the latitude-longitude mesh cluster at the poles, so
explicit time stepping would be CFL-limited by the tiny physical zonal
spacing there.  The classical cure (Umscheid & Sankar-Rao 1971, the
paper's [21]) is to damp, on every latitude circle poleward of a filter
latitude, the zonal wavenumbers that the local physical resolution cannot
support: wavenumber ``m`` is damped by ``min(1, (m_c / m)^2)`` with the
cutoff ``m_c(theta) = (nx/2) * sin(theta) / cos(lat_f)``, which makes the
effective zonal resolution at the filtered rows no finer than at the
filter boundary.

Under ``p_x > 1`` the per-row FFTs require a collective along x — the
dominant communication term by Theorem 4.1; under the Y-Z decomposition
each rank owns full rows and the filter is communication-free.  The filter
object precomputes its damping factors once per geometry; an application
gathers the masked rows of all four fields of a tendency into one stack
and transforms it with one rfft, one scale per row family and one irfft
(:class:`repro.core.rowslab.FilterRows`).
"""
from __future__ import annotations

import numpy as np
# numpy 2 imports numpy.fft lazily, on first use; the parent never filters,
# so import it here, where forked ranks inherit it, not inside their first step
import numpy.fft  # noqa: F401

from repro.constants import ModelParameters
from repro.operators.geometry import WorkingGeometry


#: available damping profiles (see :func:`damping_factors`)
FILTER_PROFILES = ("quadratic", "sharp", "exponential")


def damping_factors(
    sin_rows: np.ndarray,
    nx: int,
    filter_latitude: float,
    profile: str = "quadratic",
) -> tuple[np.ndarray, np.ndarray]:
    """(row mask, per-row factor matrix) for one row family.

    ``sin_rows`` are the |sin(colatitude)| of the (possibly ghost-extended)
    rows.  Returns ``mask`` of rows where any damping applies and
    ``factors`` of shape ``(n_masked_rows, nx // 2 + 1)``.

    The per-wavenumber damping beyond the local cutoff
    ``m_c(theta) = (nx/2) sin(theta)/cos(lat_f)`` follows ``profile``:

    * ``"quadratic"`` — ``min(1, (m_c/m)^2)``: gentle roll-off (default);
    * ``"sharp"`` — hard cutoff: 1 for ``m <= m_c``, 0 above;
    * ``"exponential"`` — Gaussian taper ``exp(-((m-m_c)/m_c)^2)`` above
      the cutoff: the smoothest transition, least Gibbs ringing.
    """
    if profile not in FILTER_PROFILES:
        raise ValueError(
            f"unknown filter profile {profile!r}; pick from {FILTER_PROFILES}"
        )
    sin_f = float(np.cos(filter_latitude))
    mask = sin_rows < sin_f
    m = np.arange(nx // 2 + 1, dtype=np.float64)
    m_c = np.maximum(1.0, (nx / 2.0) * sin_rows[mask] / sin_f)
    if profile == "sharp":
        factors = (m[None, :] <= m_c[:, None]).astype(np.float64)
    elif profile == "exponential":
        over = np.maximum(0.0, m[None, :] - m_c[:, None]) / m_c[:, None]
        factors = np.exp(-(over**2))
    else:  # quadratic
        with np.errstate(divide="ignore"):
            ratio = m_c[:, None] / np.where(m > 0, m, 1.0)[None, :]
        factors = np.minimum(1.0, ratio**2)
    factors[:, 0] = 1.0  # never touch the zonal mean
    return mask, factors


#: memoised (mask, factors) pairs keyed by the full damping_factors input
_PLAN_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_PLAN_STATS = {"hits": 0, "misses": 0}


def filter_plan(
    sin_rows: np.ndarray,
    nx: int,
    filter_latitude: float,
    profile: str = "quadratic",
) -> tuple[np.ndarray, np.ndarray]:
    """Cached :func:`damping_factors`.

    Every distributed rank builds the same per-geometry damping tables at
    construction time — under the thread backend that is ``nranks``
    identical trig/power evaluations per run, and benchmark sweeps rebuild
    them for every repeat.  Plans are memoised on the exact inputs
    (``sin_rows`` bytes, ``nx``, latitude, profile) and returned as
    read-only arrays shared between all users; callers never mutate them
    (the filter multiplies into the spectrum, not into the factors).
    """
    key = (sin_rows.tobytes(), int(nx), float(filter_latitude), profile)
    cached = _PLAN_CACHE.get(key)
    if cached is not None:
        _PLAN_STATS["hits"] += 1
        return cached
    _PLAN_STATS["misses"] += 1
    mask, factors = damping_factors(sin_rows, nx, filter_latitude, profile)
    mask.setflags(write=False)
    factors.setflags(write=False)
    _PLAN_CACHE[key] = (mask, factors)
    return mask, factors


def plan_cache_stats() -> dict[str, int]:
    """Current filter-plan cache counters (``hits``, ``misses``, ``size``)."""
    return {**_PLAN_STATS, "size": len(_PLAN_CACHE)}


def clear_plan_cache() -> None:
    """Drop all cached filter plans and reset the counters (tests/benchmarks)."""
    _PLAN_CACHE.clear()
    _PLAN_STATS["hits"] = 0
    _PLAN_STATS["misses"] = 0


class PolarFilter:
    """Per-geometry polar filter over full latitude circles.

    Requires ``geom.full_x`` (serial or Y-Z decomposition); the X-Y
    distributed core gathers rows along its x sub-communicator and
    transforms the assembled circles instead.  It holds the masks and
    damping factors; :class:`repro.core.rowslab.FilterRows` applies them.
    """

    def __init__(self, geom: WorkingGeometry, params: ModelParameters) -> None:
        if not geom.full_x:
            raise ValueError(
                "PolarFilter needs full latitude circles; "
                "filter after an x-gather instead"
            )
        nx = geom.grid.nx
        profile = getattr(params, "filter_profile", "quadratic")
        self.mask_c, self.factors_c = filter_plan(
            geom.sin_c, nx, params.filter_latitude, profile
        )
        self.mask_v, self.factors_v = filter_plan(
            geom.sin_v, nx, params.filter_latitude, profile
        )

    @property
    def active(self) -> bool:
        """Whether any working row is filtered."""
        return bool(self.mask_c.any() or self.mask_v.any())

    @property
    def n_filtered_rows(self) -> int:
        """Number of filtered rows across both row families."""
        return int(self.mask_c.sum() + self.mask_v.sum())
