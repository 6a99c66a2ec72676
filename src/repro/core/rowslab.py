"""Row-slab invocations of the stencil passes.

A :class:`RowSlab` is one pass of the operators over a row range of the
working arrays.  It owns everything such a pass needs: a real
:class:`~repro.operators.geometry.WorkingGeometry` covering exactly the
slab's view rows (so the per-row metric arrays are the same elementwise
expressions on the same global row indices as the parent geometry —
bit-identical), per-slab operator caches, and the polar-filter row subset
restricted to the slab's target rows.  Its user is the CA core's
halo-batched sweeps, where a slab is one update's still-valid rows
(:func:`repro.operators.stencil_meta.row_window_schedule`), the block rows
of ``S1`` or the received rows of ``S2``.

Bit-identity contract: a slab invocation reproduces, on its target rows
``[lo, hi)``, the exact floating-point results of the corresponding
full-array pass.  Interior slabs carry a read margin equal to the stencil
radius, so every target row sees the same neighbour values as the full
pass.  Edge slabs are clipped at the working-array boundary; there the
in-slab periodic wrap of the y-shifts reads different rows than the full
array's wrap would, which can alter only the outermost working rows —
rows that are *invalid* under the halo budget of the rank program and
are refreshed by the next exchange (or pole mirror) before any read that
reaches the interior.  ``tests/test_rowslab.py`` pins the slab metric rows
and the filter-mask partition, ``tests/test_core_ca.py::TestRowWindows``
the windowed trajectories against whole-array sweeps, with exact ``==``.
"""
from __future__ import annotations

import numpy as np

from repro.kernels.dispatch import Store
from repro.operators.adaptation import AdaptationGeomCache
from repro.operators.advection import AdvectionGeomCache
from repro.operators.filter import PolarFilter, apply_filter_rows
from repro.operators.geometry import WorkingGeometry
from repro.operators.smoothing import FieldSmoother
from repro.operators.vertical import VerticalDiagnostics, VerticalGeomCache
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


class FilterRows:
    """The polar filter restricted to the target rows ``[lo, hi)`` of a
    pass over the working rows ``view``.

    Per row family (``"c"`` / ``"v"``): ``subset[fam]`` is the filter's
    row mask in view coordinates — also the per-row flag by which a
    tendency kernel leaves a row's update to the caller — with the damping
    factors of its rows; ``bands[fam]`` the same rows as contiguous slices
    in working coordinates.  Over passes whose target rows partition the
    working rows every masked row is filtered exactly once.  Without a
    filter (a split latitude circle) both are empty.
    """

    def __init__(
        self, polar_filter: PolarFilter | None, lo: int, hi: int, view: slice
    ) -> None:
        self.view, self.rows = view, slice(lo, hi)
        self.subset: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.bands: dict[str, list[slice]] = {}
        if polar_filter is None:
            return
        for fam, mask, factors in (
            ("c", polar_filter.mask_c, polar_filter.factors_c),
            ("v", polar_filter.mask_v, polar_filter.factors_v),
        ):
            sub = np.zeros_like(mask)
            sub[lo:hi] = mask[lo:hi]
            self.subset[fam] = (sub[view].copy(), factors[sub[mask]])
            edges = np.flatnonzero(np.diff(sub, prepend=False, append=False))
            self.bands[fam] = [
                slice(a, b) for a, b in zip(edges[::2], edges[1::2])
            ]

    def apply(self, tend: ModelState) -> None:
        """``F`` on the masked target rows of ``tend``, in place."""
        for name in FIELD_NAMES:
            mask, factors = self.subset[FIELD_FAMILY[name]]
            if len(factors):
                apply_filter_rows(
                    getattr(tend, name)[..., self.view, :], mask, factors
                )

    def store(
        self, base: ModelState, dt: float, out: ModelState, midpoint: bool
    ) -> Store | None:
        """The update ``out = base + dt * tendency`` on the target rows,
        for a tendency kernel of this pass to fold into its store — or
        ``None`` without a local filter (every row waits for the x-line
        collective)."""
        if not self.subset:
            return None
        v = self.view
        return Store(
            state_rows(base, v), state_rows(out, v), dt, midpoint,
            (self.rows.start - v.start, self.rows.stop - v.start),
            self.subset["c"][0], self.subset["v"][0],
        )


class RowSlab:
    """One sub-domain pass over working rows ``[lo, hi)``.

    ``margin`` is the read radius of the pass (1 for the tendency
    operators, 2 for the smoother); the view extends ``margin`` rows past
    the target rows on each side, clipped at the working-array edges.
    Every pass takes working-height arrays and touches only their view
    rows: inputs are read and tendencies / ``C`` bundles written through
    row-slab *views* (no window-sized copies), and only the target rows of
    a result are ever consumed.
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
        self._vert_cache: VerticalGeomCache | None = None
        #: the polar filter on this slab's target rows
        self.polar = FilterRows(polar_filter, lo, hi, self.view)

    # ---- the operators on the slab ----------------------------------------
    def tendency(
        self,
        kind: str,
        kernels,
        params,
        ws,
        state: ModelState,
        vd: VerticalDiagnostics,
        tend: ModelState,
        store: Store | None = None,
    ) -> None:
        """The ``kind`` tendency (``"adaptation"``: ``C-hat + A-hat``;
        ``"advection"``: ``L``) of the view rows into the view rows of
        ``tend`` (valid on the target rows)."""
        s, v, t = (
            state_rows(state, self.view), vd_rows(vd, self.view),
            state_rows(tend, self.view),
        )
        if kind == "adaptation":
            if self._adapt_cache is None:
                self._adapt_cache = AdaptationGeomCache(self.geom)
            kernels.adaptation(
                s, v, self.geom, params, ws, t, self._adapt_cache, store
            )
        else:
            if self._advec_cache is None:
                self._advec_cache = AdvectionGeomCache(self.geom)
            kernels.advection(s, v, self.geom, ws, t, self._advec_cache, store)

    def vertical(
        self,
        kernels,
        gather,
        scan,
        ws,
        state: ModelState,
        out: VerticalDiagnostics,
    ) -> None:
        """``C`` of the view rows into the view rows of ``out``."""
        if self._vert_cache is None:
            self._vert_cache = VerticalGeomCache(self.geom)
        s = state_rows(state, self.view)
        kernels.vertical(
            s.U, s.V, s.Phi, s.psa, self.geom, gather, ws,
            self._vert_cache, scan=scan, out=vd_rows(out, self.view),
        )

    def smooth_field(
        self, kernels, ws, sm: FieldSmoother, a: np.ndarray, out: np.ndarray
    ) -> None:
        """Rows ``[lo, hi)`` of the full smoothing ``S(a)`` into ``out``
        (the view's edge rows, which in-slab wraps would spoil, are
        neither written nor needed)."""
        kernels.smooth_field(
            sm, a[..., self.view, :], out[..., self.view, :], ws,
            rows=(self.inner.start, self.inner.stop),
        )

    def smooth(
        self,
        kernels,
        ws,
        smoothers: dict[str, FieldSmoother],
        state: ModelState,
        out: ModelState,
    ) -> None:
        """Rows ``[lo, hi)`` of ``S(state)`` into ``out``."""
        for name in FIELD_NAMES:
            self.smooth_field(
                kernels, ws, smoothers[name],
                getattr(state, name), getattr(out, name),
            )

    @property
    def npoints(self) -> int:
        """Model points of the target rows (for compute charging)."""
        nz_w, _, nx_w = self.geom.shape3d
        return nz_w * (self.hi - self.lo) * nx_w
