"""The collection operator ``C``: vertical-integral diagnostics.

The fourth component of the adaptation function sums ``Delta sigma_k *
D(P)`` over the whole column (Sec. 4.1); the same column integrals also
yield the interface vertical velocities (``PW``, ``W``, ``sigma-dot``) used
by ``Omega^(1)`` and ``L3``, and the hydrostatic geopotential perturbation
``phi'`` used by the pressure-gradient terms.  Under a decomposition with
``p_z > 1`` all of them require one collective along the z direction — this
is exactly the communication the paper's operator ``C`` stands for, and the
one whose frequency the approximate nonlinear iteration (Sec. 4.2.2)
reduces.

The collective is implemented as a single allgather along the z
sub-communicator of the per-level contributions (two stacked fields), after
which each rank holds the full column and computes all integrals locally.
Ring allgather matches the data-movement lower bound of Theorem 4.2.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import constants
from repro.obs.spans import traced
from repro.operators.geometry import WorkingGeometry
from repro.operators.shifts import sx_into, sy_into
from repro.operators.staggering import ddx_u2c, ddy_v2c, to_u, to_v
from repro.state.standard_atmosphere import StandardAtmosphere
from repro.state.transforms import p_factor

#: Default reference stratification shared by every operator call.
DEFAULT_REFERENCE = StandardAtmosphere()


#: Type of the z-direction gather hook: maps the owned-level contribution
#: stack ``(2, nz_own, ny_w, nx_w)`` to the full-column stack
#: ``(2, nz, ny_w, nx_w)``.  ``None`` means the caller owns the full column.
GatherFn = Callable[[np.ndarray], np.ndarray]


class VerticalGeomCache:
    """Geometry-derived constants of the ``C`` operator, computed once.

    The seed path rebuilds these small arrays (owned-level slices, clipped
    interface/level index maps, broadcast metric rows) on every call; the
    workspace fast path hoists them here.  All values are bit-identical to
    what the seed expressions produce.
    """

    def __init__(self, geom: WorkingGeometry) -> None:
        gz = geom.gz
        nz = geom.grid.nz
        nz_own = geom.extent.nz
        self.owned = slice(gz, gz + nz_own)
        dsig_own = geom.dsigma[self.owned]
        sig_own = geom.sigma_mid[self.owned]
        self.dsig_own3 = geom.lev3(dsig_own)
        self.ratio_own3 = geom.lev3(dsig_own / sig_own)
        self.k_if = np.clip(
            np.arange(geom.extent.z0 - gz, geom.extent.z1 + gz + 1), 0, nz
        )
        self.k_lev = np.clip(
            np.arange(geom.extent.z0 - gz, geom.extent.z1 + gz), 0, nz - 1
        )
        self.k_if_identity = bool(np.array_equal(self.k_if, np.arange(nz + 1)))
        self.k_lev_identity = bool(np.array_equal(self.k_lev, np.arange(nz)))
        self.sig_if3 = geom.sigma_iface[:, None, None]
        self.a_sin_c3 = geom.grid.radius * geom.row3(geom.sin_c)
        self.sin_v_fac2 = geom.row2(geom.sin_v)


@dataclass
class VerticalDiagnostics:
    """Output bundle of one application of the ``C`` operator.

    All arrays are sized to the *working* (ghost-extended) shapes.

    Attributes
    ----------
    div_p:
        ``D(P)`` at centres, ``(nz_w, ny_w, nx_w)`` (reused by the
        adaptation stencil terms).
    column_sum:
        ``S_T = sum_k Delta sigma_k D(P)_k`` over the full column,
        ``(ny_w, nx_w)``.
    pw_iface, w_iface, sdot_iface:
        ``PW``, ``W = PW / P`` and ``sigma-dot = PW / P^2`` on the working
        z interfaces, ``(nz_w + 1, ny_w, nx_w)``; interface ``w`` sits above
        level ``w`` (i.e. at global interface ``z0 - gz + w``).
    phi_prime:
        Hydrostatic geopotential perturbation at mid-levels,
        ``(nz_w, ny_w, nx_w)``.
    p_fac:
        The transform factor ``P`` at centres, ``(ny_w, nx_w)``.
    """

    div_p: np.ndarray
    column_sum: np.ndarray
    pw_iface: np.ndarray
    w_iface: np.ndarray
    sdot_iface: np.ndarray
    phi_prime: np.ndarray
    p_fac: np.ndarray


def divergence_dp(
    U: np.ndarray, V: np.ndarray, p_fac: np.ndarray, geom: WorkingGeometry
) -> np.ndarray:
    """``D(P) = (1/(a sin theta)) (d(PU)/dlambda + d(PV sin theta)/dtheta)``.

    Eq. (6), evaluated at cell centres with the natural C-grid flux
    differences (U fluxes at zonal interfaces, V fluxes at meridional
    interfaces).
    """
    a = geom.grid.radius
    flux_x = to_u(p_fac)[None] * U
    dflux_x = ddx_u2c(flux_x, geom.grid.dlambda)
    flux_y = (to_v(p_fac) * geom.row2(geom.sin_v))[None] * V
    dflux_y = ddy_v2c(flux_y, geom.grid.dtheta)
    return (dflux_x + dflux_y) / (a * geom.row3(geom.sin_c))


@traced("vertical", "operator")
def compute_vertical_diagnostics(
    U: np.ndarray,
    V: np.ndarray,
    Phi: np.ndarray,
    psa: np.ndarray,
    geom: WorkingGeometry,
    gather: GatherFn | None = None,
    reference: StandardAtmosphere = DEFAULT_REFERENCE,
    ws=None,
    cache: VerticalGeomCache | None = None,
    out: VerticalDiagnostics | None = None,
) -> VerticalDiagnostics:
    """Apply the ``C`` operator.

    Parameters
    ----------
    U, V, Phi, psa:
        Working arrays (ghosts filled to at least width 1 in y).
    geom:
        Working geometry; its extent defines which z levels are *owned*
        (ghost levels are excluded from the column contributions so they
        are never double counted).
    gather:
        The z-collective hook; ``None`` for serial / ``p_z = 1``.
    ws:
        Optional :class:`~repro.core.workspace.Workspace`; when given, all
        temporaries and the returned bundle's arrays come from the pool
        (recycle them with ``ws.give_vd`` when the bundle dies) and the
        results are bit-identical to the allocating path.
    out:
        With ``ws``: write the bundle into these arrays (same shapes as
        the inputs' — e.g. row-slab views of a working-height bundle)
        instead of taking fresh ones from the pool.
    """
    if ws is not None:
        return _compute_vertical_diagnostics_ws(
            U, V, Phi, psa, geom, gather, ws,
            cache or VerticalGeomCache(geom), out,
        )
    ps = psa + constants.P_REFERENCE
    p_fac = p_factor(ps)

    div_p = divergence_dp(U, V, p_fac, geom)

    gz = geom.gz
    nz_w = U.shape[0]
    nz_own = geom.extent.nz
    owned = slice(gz, gz + nz_own)

    # per-level contributions on owned levels
    dsig_own = geom.lev3(geom.dsigma[owned])
    sig_own = geom.lev3(geom.sigma_mid[owned])
    contrib_div = dsig_own * div_p[owned]               # for PW / column sum
    contrib_phi = (dsig_own / sig_own) * Phi[owned]     # for phi'

    stack = np.stack([contrib_div, contrib_phi])
    if gather is not None:
        stack = gather(stack)
    if stack.shape[1] != geom.grid.nz:
        raise ValueError(
            f"column stack has {stack.shape[1]} levels, expected {geom.grid.nz}"
        )
    col_div, col_phi = stack[0], stack[1]

    # global prefix sums at interfaces: S_iface[k] = sum_{l<k} contrib[l]
    ny_w, nx_w = p_fac.shape
    s_iface = np.zeros((geom.grid.nz + 1, ny_w, nx_w))
    np.cumsum(col_div, axis=0, out=s_iface[1:])
    column_sum = s_iface[-1]

    # suffix sums of the phi' contributions: H_suffix[k] = sum_{l>=k} h_l
    h_suffix = np.zeros((geom.grid.nz + 1, ny_w, nx_w))
    h_suffix[:-1] = np.cumsum(col_phi[::-1], axis=0)[::-1]

    # slice the global interface/level ranges down to the working window
    k_if = np.clip(
        np.arange(geom.extent.z0 - gz, geom.extent.z1 + gz + 1), 0, geom.grid.nz
    )
    k_lev = np.clip(
        np.arange(geom.extent.z0 - gz, geom.extent.z1 + gz), 0, geom.grid.nz - 1
    )

    sig_if = geom.sigma_iface[:, None, None]
    pw_iface = sig_if * column_sum[None] - s_iface[k_if]
    w_iface = pw_iface / p_fac[None]
    sdot_iface = pw_iface / (p_fac[None] ** 2)

    # phi'_k = (b / P) * (suffix_k - h_k / 2)   (half-level centring).
    # This is the perturbation integral of T'' = T - T~(p_local); the
    # reference part of the sigma-coordinate pressure-gradient force does
    # NOT vanish but collapses to the barotropic term
    # R T~(p_s) grad(ln p_es), which lives in the adaptation operator's
    # pressure-gradient terms (see repro.operators.adaptation).
    h_lev = col_phi[k_lev]
    phi_prime = (
        constants.B_GRAVITY_WAVE / p_fac[None]
        * (h_suffix[k_lev] - 0.5 * h_lev)
    )

    if nz_w != phi_prime.shape[0]:  # pragma: no cover - internal consistency
        raise AssertionError("working level count mismatch")

    return VerticalDiagnostics(
        div_p=div_p,
        column_sum=column_sum,
        pw_iface=pw_iface,
        w_iface=w_iface,
        sdot_iface=sdot_iface,
        phi_prime=phi_prime,
        p_fac=p_fac,
    )


def _compute_vertical_diagnostics_ws(
    U: np.ndarray,
    V: np.ndarray,
    Phi: np.ndarray,
    psa: np.ndarray,
    geom: WorkingGeometry,
    gather: GatherFn | None,
    ws,
    cache: VerticalGeomCache,
    out: VerticalDiagnostics | None = None,
) -> VerticalDiagnostics:
    """Pool-backed ``C`` operator, bit-identical to the allocating path.

    Every floating-point operation below reproduces the exact binary-op
    sequence of :func:`compute_vertical_diagnostics` (only output buffers
    are preallocated; scalar-factor multiplies commute bitwise in IEEE
    arithmetic), so results match the seed path to the last bit.
    """
    dlam = geom.grid.dlambda
    dth = geom.grid.dtheta
    nz = geom.grid.nz
    nz_w = U.shape[0]
    ny_w, nx_w = psa.shape

    def result(name: str, shape: tuple[int, ...]) -> np.ndarray:
        return ws.take(shape) if out is None else getattr(out, name)

    # P = sqrt((psa + p0 - pt) / p0), same op chain as p_factor(psa + p0)
    p_fac = result("p_fac", (ny_w, nx_w))
    np.add(psa, constants.P_REFERENCE, out=p_fac)
    np.subtract(p_fac, constants.P_TOP, out=p_fac)
    if np.any(p_fac <= 0):
        raise ValueError("surface pressure must exceed the model-top pressure")
    np.divide(p_fac, constants.P_REFERENCE, out=p_fac)
    np.sqrt(p_fac, out=p_fac)

    # D(P), following divergence_dp term by term
    div_p = result("div_p", (nz_w, ny_w, nx_w))
    t3a = ws.take((nz_w, ny_w, nx_w))
    t3b = ws.take((nz_w, ny_w, nx_w))
    t2a = ws.take((ny_w, nx_w))
    # flux_x = to_u(p_fac)[None] * U ; dflux_x = ddx_u2c(flux_x)
    sx_into(p_fac, -1, t2a)
    np.add(t2a, p_fac, out=t2a)
    np.multiply(t2a, 0.5, out=t2a)
    np.multiply(t2a[None], U, out=t3a)
    sx_into(t3a, 1, t3b)
    np.subtract(t3b, t3a, out=t3b)
    np.divide(t3b, dlam, out=t3b)                      # dflux_x
    # flux_y = (to_v(p_fac) * sin_v)[None] * V ; dflux_y = ddy_v2c(flux_y)
    sy_into(p_fac, 1, t2a)
    np.add(p_fac, t2a, out=t2a)
    np.multiply(t2a, 0.5, out=t2a)
    np.multiply(t2a, cache.sin_v_fac2, out=t2a)
    np.multiply(t2a[None], V, out=t3a)                 # flux_y
    sy_into(t3a, -1, div_p)
    np.subtract(t3a, div_p, out=div_p)
    np.divide(div_p, dth, out=div_p)                   # dflux_y
    np.add(t3b, div_p, out=div_p)
    np.divide(div_p, cache.a_sin_c3, out=div_p)

    # per-level contributions on owned levels, stacked for the z-collective
    nz_own = geom.extent.nz
    owned = cache.owned
    stack = ws.take((2, nz_own, ny_w, nx_w))
    np.multiply(cache.dsig_own3, div_p[owned], out=stack[0])
    np.multiply(cache.ratio_own3, Phi[owned], out=stack[1])

    gathered = None
    if gather is not None:
        gathered = gather(stack)
        ws.give(stack)
        stack = None
    col = gathered if gathered is not None else stack
    if col.shape[1] != nz:
        raise ValueError(
            f"column stack has {col.shape[1]} levels, expected {nz}"
        )
    col_div, col_phi = col[0], col[1]

    # interface prefix sums of D(P) contributions
    s_iface = ws.take((nz + 1, ny_w, nx_w))
    s_iface[0] = 0.0
    np.cumsum(col_div, axis=0, out=s_iface[1:])
    column_sum = result("column_sum", (ny_w, nx_w))
    np.copyto(column_sum, s_iface[-1])

    # suffix sums of the phi' contributions
    h_suffix = ws.take((nz + 1, ny_w, nx_w))
    tz = ws.take((nz, ny_w, nx_w))
    np.cumsum(col_phi[::-1], axis=0, out=tz)
    h_suffix[:-1] = tz[::-1]
    h_suffix[-1] = 0.0

    pw_iface = result("pw_iface", (nz_w + 1, ny_w, nx_w))
    np.multiply(cache.sig_if3, column_sum[None], out=pw_iface)
    full_column = s_iface.shape[0] == nz_w + 1
    if cache.k_if_identity and full_column:
        np.subtract(pw_iface, s_iface, out=pw_iface)
    else:
        tif = ws.take((nz_w + 1, ny_w, nx_w))
        np.take(s_iface, cache.k_if, axis=0, out=tif)
        np.subtract(pw_iface, tif, out=pw_iface)
        ws.give(tif)

    w_iface = result("w_iface", (nz_w + 1, ny_w, nx_w))
    np.divide(pw_iface, p_fac[None], out=w_iface)
    np.power(p_fac, 2, out=t2a)
    sdot_iface = result("sdot_iface", (nz_w + 1, ny_w, nx_w))
    np.divide(pw_iface, t2a[None], out=sdot_iface)

    # phi'_k = (b / P) * (H_suffix[k] - h_k / 2)
    phi_prime = result("phi_prime", (nz_w, ny_w, nx_w))
    lev_identity = cache.k_lev_identity and nz_w == nz
    if lev_identity:
        h_lev = col_phi
        hs_lev = h_suffix[:-1]
    else:
        h_lev = ws.take((nz_w, ny_w, nx_w))
        np.take(col_phi, cache.k_lev, axis=0, out=h_lev)
        hs_lev = ws.take((nz_w, ny_w, nx_w))
        np.take(h_suffix, cache.k_lev, axis=0, out=hs_lev)
    np.multiply(h_lev, 0.5, out=phi_prime)
    np.subtract(hs_lev, phi_prime, out=phi_prime)
    np.divide(constants.B_GRAVITY_WAVE, p_fac, out=t2a)
    np.multiply(phi_prime, t2a[None], out=phi_prime)
    if not lev_identity:
        ws.give(h_lev, hs_lev)

    ws.give(stack, t3a, t3b, t2a, s_iface, h_suffix, tz)

    return VerticalDiagnostics(
        div_p=div_p,
        column_sum=column_sum,
        pw_iface=pw_iface,
        w_iface=w_iface,
        sdot_iface=sdot_iface,
        phi_prime=phi_prime,
        p_fac=p_fac,
    )


@traced("vertical-scan", "operator")
def compute_vertical_diagnostics_scan(
    U: np.ndarray,
    V: np.ndarray,
    Phi: np.ndarray,
    psa: np.ndarray,
    geom: WorkingGeometry,
    exscan: Callable[[np.ndarray], np.ndarray],
    allreduce: Callable[[np.ndarray], np.ndarray],
    reference: StandardAtmosphere = DEFAULT_REFERENCE,
) -> VerticalDiagnostics:
    """The ``C`` operator via exscan + allreduce (volume-optimal variant).

    The allgather implementation moves ``(p_z - 1) * n`` words per rank;
    prefix sums only need each rank's *partial sums*, so an exclusive scan
    plus an allreduce of the column totals moves ``O(n)`` — matching the
    Theorem 4.2 lower bound's ring constant.  Identical results to
    :func:`compute_vertical_diagnostics` (up to summation order round-off).

    ``exscan(x)`` must return the sum of ``x`` over all z-ranks *before*
    this one (zeros on the first); ``allreduce(x)`` the sum over all
    z-ranks.  Both operate on arrays of shape ``(2, ny_w, nx_w)`` — the
    stacked divergence and phi' contributions.
    """
    ps = psa + constants.P_REFERENCE
    p_fac = p_factor(ps)
    div_p = divergence_dp(U, V, p_fac, geom)

    gz = geom.gz
    nz_w = U.shape[0]
    nz_own = geom.extent.nz
    owned = slice(gz, gz + nz_own)

    # contributions on ALL working levels (D(P) has no z-stencil, so ghost
    # levels are locally computable); ghost rows use clipped sigma values
    dsig_w = geom.lev3(geom.dsigma)
    sig_w = geom.lev3(geom.sigma_mid)
    contrib_div_w = dsig_w * div_p
    contrib_phi_w = (dsig_w / sig_w) * Phi
    # zero the ghost contributions that fall outside the physical column
    # (edge-replicated sigma would otherwise double-count at the domain
    # top/bottom)
    for k in range(gz):
        if geom.extent.z0 - gz + k < 0:
            contrib_div_w[k] = 0.0
            contrib_phi_w[k] = 0.0
        kk = nz_w - 1 - k
        if geom.extent.z1 + gz - 1 - k >= geom.grid.nz:
            contrib_div_w[kk] = 0.0
            contrib_phi_w[kk] = 0.0

    own_sum = np.stack(
        [
            contrib_div_w[owned].sum(axis=0),
            contrib_phi_w[owned].sum(axis=0),
        ]
    )
    prefix = exscan(own_sum)      # sums over ranks below (smaller z0)
    total = allreduce(own_sum)
    column_sum = total[0]
    h_total = total[1]

    # S at the top interface of the working window: the prefix over all
    # earlier ranks minus this rank's ghost-below contributions
    ghost_below_div = contrib_div_w[:gz].sum(axis=0)
    ghost_below_phi = contrib_phi_w[:gz].sum(axis=0)
    s_start = prefix[0] - ghost_below_div
    h_start = prefix[1] - ghost_below_phi

    ny_w, nx_w = p_fac.shape
    s_iface_w = np.empty((nz_w + 1, ny_w, nx_w))
    s_iface_w[0] = s_start
    np.cumsum(contrib_div_w, axis=0, out=s_iface_w[1:])
    s_iface_w[1:] += s_start

    # suffix sums of phi contributions: H_suffix[k] = sum_{l >= k} h_l
    h_prefix_w = np.empty((nz_w + 1, ny_w, nx_w))
    h_prefix_w[0] = h_start
    np.cumsum(contrib_phi_w, axis=0, out=h_prefix_w[1:])
    h_prefix_w[1:] += h_start
    h_suffix_w = h_total[None] - h_prefix_w  # at interfaces

    sig_if = geom.sigma_iface[:, None, None]
    pw_iface = sig_if * column_sum[None] - s_iface_w
    w_iface = pw_iface / p_fac[None]
    sdot_iface = pw_iface / (p_fac[None] ** 2)
    phi_prime = (
        constants.B_GRAVITY_WAVE / p_fac[None]
        * (h_suffix_w[:-1] - 0.5 * contrib_phi_w)
    )

    return VerticalDiagnostics(
        div_p=div_p,
        column_sum=column_sum,
        pw_iface=pw_iface,
        w_iface=w_iface,
        sdot_iface=sdot_iface,
        phi_prime=phi_prime,
        p_fac=p_fac,
    )
