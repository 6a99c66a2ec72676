"""Inner/boundary sub-domain invocations of the stencil passes.

The task-graph executor needs the per-step updates split into an *inner*
pass over rows whose stencils touch no halo data (runnable while the halo
exchange is in flight) and a *boundary* pass over the remaining rows
(runnable only after the unpack).  A :class:`RowSlab` owns everything one
such pass needs: a real :class:`~repro.operators.geometry.WorkingGeometry`
covering exactly the slab's view rows (so the per-row metric arrays are
the same elementwise expressions on the same global row indices as the
parent geometry — bit-identical), per-slab operator caches, a persistent
slab-shaped tendency buffer, and the polar-filter row subset restricted to
the slab's target rows.

Bit-identity contract: a slab invocation reproduces, on its target rows
``[lo, hi)``, the exact floating-point results of the corresponding
full-array pass.  Interior slabs carry a read margin equal to the stencil
radius, so every target row sees the same neighbour values as the full
pass.  Edge slabs are clipped at the working-array boundary; there the
in-slab periodic wrap of the y-shifts reads different rows than the full
array's wrap would, which can alter only the outermost working rows —
rows that are *invalid* under the halo budget of both rank programs and
are refreshed by the next exchange (or pole mirror) before any read that
reaches the interior.  ``tests/test_taskgraph.py`` pins the resulting
trajectories to the synchronous executor with exact ``==``.
"""
from __future__ import annotations

import numpy as np

from repro.operators.adaptation import AdaptationGeomCache
from repro.operators.advection import AdvectionGeomCache
from repro.operators.filter import PolarFilter, apply_filter_rows
from repro.operators.geometry import WorkingGeometry
from repro.operators.smoothing import FieldSmoother
from repro.operators.vertical import VerticalDiagnostics
from repro.state.variables import FIELD_NAMES, ModelState

#: filter row family per prognostic field (centre rows vs V rows)
FIELD_FAMILY = {"U": "c", "V": "v", "Phi": "c", "psa": "c"}


def state_rows(state: ModelState, rows: slice) -> ModelState:
    """Row-slab view of a state (no copies)."""
    return ModelState(
        U=state.U[:, rows, :],
        V=state.V[:, rows, :],
        Phi=state.Phi[:, rows, :],
        psa=state.psa[rows, :],
    )


def vd_rows(vd: VerticalDiagnostics, rows: slice) -> VerticalDiagnostics:
    """Row-slab view of a ``C`` diagnostics bundle (no copies)."""
    return VerticalDiagnostics(
        div_p=vd.div_p[:, rows, :],
        column_sum=vd.column_sum[rows, :],
        pw_iface=vd.pw_iface[:, rows, :],
        w_iface=vd.w_iface[:, rows, :],
        sdot_iface=vd.sdot_iface[:, rows, :],
        phi_prime=vd.phi_prime[:, rows, :],
        p_fac=vd.p_fac[rows, :],
    )


class RowSlab:
    """One sub-domain pass over working rows ``[lo, hi)``.

    ``margin`` is the read radius of the pass (1 for the tendency
    operators, 2 for the smoother); the view extends ``margin`` rows past
    the target rows on each side, clipped at the working-array edges.
    """

    def __init__(
        self,
        parent: WorkingGeometry,
        lo: int,
        hi: int,
        margin: int,
        polar_filter: PolarFilter | None = None,
    ) -> None:
        if not 0 <= lo < hi <= parent.shape2d[0]:
            raise ValueError(f"bad slab rows [{lo}, {hi})")
        ny_w = parent.shape2d[0]
        self.lo, self.hi = lo, hi
        self.vlo = max(0, lo - margin)
        self.vhi = min(ny_w, hi + margin)
        #: working-array rows the pass reads
        self.view = slice(self.vlo, self.vhi)
        #: target rows in slab coordinates
        self.inner = slice(lo - self.vlo, hi - self.vlo)
        #: target rows in working-array coordinates
        self.rows = slice(lo, hi)
        ext = parent.extent
        # global row range of the *view*: the slab geometry has gy = 0, so
        # its metric arrays are evaluated on exactly these global rows —
        # the same indices the parent's ghost-extended arrays use.
        y0 = ext.y0 - parent.gy + self.vlo
        y1 = ext.y0 - parent.gy + self.vhi
        slab_ext = type(ext)(ext.x0, ext.x1, y0, y1, ext.z0, ext.z1)
        self.geom = WorkingGeometry.build(
            parent.grid, parent.sigma, slab_ext,
            gy=0, gz=parent.gz, gx=parent.gx,
        )
        self._adapt_cache: AdaptationGeomCache | None = None
        self._advec_cache: AdvectionGeomCache | None = None
        self._tend: ModelState | None = None
        self._smooth_tmp: dict[str, np.ndarray] = {}
        # polar-filter subset: slab-coordinate masks and the factor rows of
        # the target rows (the union over all slabs of a pass covers every
        # masked working row exactly once)
        self._filter: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        if polar_filter is not None:
            for fam, (mask, factors) in (
                ("c", (polar_filter.mask_c, polar_filter.factors_c)),
                ("v", (polar_filter.mask_v, polar_filter.factors_v)),
            ):
                sub = np.zeros_like(mask)
                sub[self.rows] = mask[self.rows]
                idx = np.flatnonzero(mask)
                keep = (idx >= lo) & (idx < hi)
                self._filter[fam] = (sub[self.view].copy(), factors[keep])

    # ---- lazy per-slab resources -----------------------------------------
    def _tendency(self) -> ModelState:
        if self._tend is None:
            self._tend = ModelState.zeros(self.geom.shape3d)
        return self._tend

    def _apply_filter(self, tend: ModelState) -> None:
        for name in FIELD_NAMES:
            got = self._filter.get(FIELD_FAMILY[name])
            if got is None:
                continue
            mask, factors = got
            if mask.any():
                apply_filter_rows(getattr(tend, name), mask, factors)

    def _axpy_rows(
        self, base: ModelState, dt: float, tend: ModelState, out: ModelState
    ) -> None:
        """``out[rows] = base[rows] + dt * tend[inner]``.

        The same two-ufunc sequence as ``ModelState.axpy_into``, applied to
        the target rows only (bit-identical per element).
        """
        for name in FIELD_NAMES:
            b = getattr(base, name)[..., self.rows, :]
            t = getattr(tend, name)[..., self.inner, :]
            o = getattr(out, name)[..., self.rows, :]
            np.multiply(t, dt, out=o)
            np.add(b, o, out=o)

    # ---- the split passes -------------------------------------------------
    def adaptation_update_rows(
        self,
        ctx,
        psi: ModelState,
        base: ModelState,
        vd: VerticalDiagnostics,
        dt: float,
        out: ModelState,
    ) -> None:
        """Rows ``[lo, hi)`` of ``base + dt * F(C-hat + A-hat)(psi)``."""
        if self._adapt_cache is None:
            self._adapt_cache = AdaptationGeomCache(self.geom)
        tend = ctx.kernels.adaptation(
            state_rows(psi, self.view), vd_rows(vd, self.view),
            self.geom, ctx.cfg.params,
            ctx.ws, self._tendency(), self._adapt_cache,
        )
        self._apply_filter(tend)
        self._axpy_rows(base, dt, tend, out)

    def advection_update_rows(
        self,
        ctx,
        psi: ModelState,
        base: ModelState,
        vd: VerticalDiagnostics,
        dt: float,
        out: ModelState,
    ) -> None:
        """Rows ``[lo, hi)`` of ``base + dt * F(L)(psi)``."""
        if self._advec_cache is None:
            self._advec_cache = AdvectionGeomCache(self.geom)
        tend = ctx.kernels.advection(
            state_rows(psi, self.view), vd_rows(vd, self.view),
            self.geom, ctx.ws, self._tendency(), self._advec_cache,
        )
        self._apply_filter(tend)
        self._axpy_rows(base, dt, tend, out)

    def midpoint_rows(
        self, a: ModelState, b: ModelState, out: ModelState
    ) -> None:
        """Rows ``[lo, hi)`` of ``(a + b) / 2`` (elementwise; margin 0)."""
        for name in FIELD_NAMES:
            x = getattr(a, name)[..., self.rows, :]
            y = getattr(b, name)[..., self.rows, :]
            t = getattr(out, name)[..., self.rows, :]
            np.add(x, y, out=t)
            np.multiply(t, 0.5, out=t)

    def smooth_rows(
        self,
        ctx,
        smoothers: dict[str, FieldSmoother],
        state: ModelState,
        out: ModelState,
    ) -> None:
        """Rows ``[lo, hi)`` of the full smoothing ``S(state)``.

        The smoother writes the whole slab view (its edge rows from
        in-slab wraps), so it lands in a persistent slab temp and only the
        target rows are copied out.
        """
        for name in FIELD_NAMES:
            a = getattr(state, name)[..., self.view, :]
            tmp = self._smooth_tmp.get(name)
            if tmp is None:
                tmp = np.empty(a.shape)
                self._smooth_tmp[name] = tmp
            ctx.kernels.smooth_field(smoothers[name], a, tmp, ctx.ws)
            np.copyto(
                getattr(out, name)[..., self.rows, :],
                tmp[..., self.inner, :],
            )

    @property
    def npoints(self) -> int:
        """Model points of the target rows (for compute charging)."""
        nz_w, _, nx_w = self.geom.shape3d
        return nz_w * (self.hi - self.lo) * nx_w


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
