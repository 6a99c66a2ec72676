"""Standard stratification of the IAP transform.

The IAP-AGCM formulation subtracts a *standard stratification* — reference
profiles ``T~`` (temperature) and ``p~_s`` (surface pressure) — before
transforming to the prognostic variables (Eq. 1).  Subtracting the
reference removes the large hydrostatically balanced part of the state, so
the prognostic ``Phi`` and ``p'_sa`` are small perturbations; this is what
makes the energy-conserving formulation and the standard-stratification
approximation (``delta = 0`` in Eq. 2) possible.

We use the U.S. Standard Atmosphere troposphere profile (constant lapse
rate ``gamma`` up to the isothermal stratosphere), which is the common
concrete choice; the paper only requires *a* fixed reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import constants


@dataclass(frozen=True)
class StandardAtmosphere:
    """Reference profiles ``T~(p)`` and ``p~_s``.

    Parameters
    ----------
    t_surface:
        Reference sea-level temperature [K].
    lapse_rate:
        Tropospheric lapse rate [K/m].
    p_surface:
        Reference surface pressure ``p~_s`` [Pa].
    t_tropopause:
        Temperature floor [K]; above the level where the lapse profile
        reaches this value the reference is isothermal (stratosphere).
    """

    t_surface: float = constants.T_SEA_LEVEL
    lapse_rate: float = constants.LAPSE_RATE
    p_surface: float = constants.P_REFERENCE
    t_tropopause: float = 216.65

    def temperature(
        self, p: np.ndarray | float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Reference temperature ``T~`` at pressure ``p`` [Pa] (into
        ``out`` if given, which may be ``p`` itself).

        Uses the hydrostatic constant-lapse-rate relation
        ``T = T_s * (p / p_s)^(R*gamma/g)`` capped below by the tropopause
        temperature.
        """
        p = np.asarray(p, dtype=np.float64)
        exponent = constants.R_DRY * self.lapse_rate / constants.GRAVITY
        with np.errstate(invalid="ignore"):
            if out is None:
                t = self.t_surface * (p / self.p_surface) ** exponent
            else:  # the same ufuncs in place
                t = np.divide(p, self.p_surface, out=out)
                np.power(t, exponent, out=t)
                np.multiply(self.t_surface, t, out=t)
        return np.maximum(t, self.t_tropopause, out=out)

    def temperature_at_sigma(
        self, sigma_mid: np.ndarray, ps: np.ndarray | float | None = None
    ) -> np.ndarray:
        """``T~`` on sigma mid-levels.

        ``p = p_t + sigma * (p_s - p_t)``; by default the reference surface
        pressure is used, giving a horizontally uniform reference — the
        standard-stratification approximation of the paper.

        Returns an array broadcastable against ``(nz, ny, nx)`` fields:
        shape ``(nz, 1, 1)`` when ``ps`` is None or scalar.
        """
        sigma_mid = np.asarray(sigma_mid, dtype=np.float64)
        if ps is None:
            ps = self.p_surface
        p = constants.P_TOP + np.asarray(sigma_mid)[:, None, None] * (
            np.asarray(ps) - constants.P_TOP
        )
        return self.temperature(p)

    def tropopause_pressure(self) -> float:
        """Pressure [Pa] where the lapse profile reaches ``t_tropopause``."""
        exponent = constants.R_DRY * self.lapse_rate / constants.GRAVITY
        return self.p_surface * (self.t_tropopause / self.t_surface) ** (1.0 / exponent)

    def geopotential(self, p: np.ndarray | float) -> np.ndarray:
        """Standard-atmosphere geopotential ``phi~(p)`` [m^2/s^2].

        Analytic hydrostatic integral of the reference profile measured
        from the reference surface (``phi~(p~_s) = 0``):
        ``phi = (R T_s / alpha)(1 - (p/p_s)^alpha)`` in the troposphere and
        isothermal continuation above the tropopause.  Used for the local
        part of the sigma-coordinate geopotential perturbation — the
        restoring force of the external (surface-pressure) mode.
        """
        p = np.asarray(p, dtype=np.float64)
        alpha = constants.R_DRY * self.lapse_rate / constants.GRAVITY
        p_trop = self.tropopause_pressure()
        r_ts = constants.R_DRY * self.t_surface
        phi_tropo = (r_ts / alpha) * (
            1.0 - (np.maximum(p, p_trop) / self.p_surface) ** alpha
        )
        phi_strato = constants.R_DRY * self.t_tropopause * np.log(
            p_trop / np.minimum(np.maximum(p, 1e-3), p_trop)
        )
        return phi_tropo + phi_strato

    @property
    def t_surface_ref(self) -> float:
        """``T~_s``, the reference temperature at the reference surface."""
        return float(self.temperature(self.p_surface))

    @property
    def rho_sa(self) -> float:
        """Surface density ``rho~_sa = p~_s / (R * T~_s)`` of Eq. (6)."""
        return self.p_surface / (constants.R_DRY * self.t_surface_ref)
