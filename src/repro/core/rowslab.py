"""Row-slab invocations of the stencil passes.

A :class:`RowSlab` is one pass of the operators over a row range of the
working arrays.  It owns everything such a pass needs: a real
:class:`~repro.operators.geometry.WorkingGeometry` covering exactly the
slab's view rows (so the per-row metric arrays are the same elementwise
expressions on the same global row indices as the parent geometry —
bit-identical), per-slab operator caches, and the polar-filter row subset
restricted to the slab's target rows.  Every pass of a
:class:`~repro.core.tendencies.TendencyEngine` runs on one — the whole
working array is one more slab — and so do the CA core's halo-batched
sweeps, where a slab is one update's still-valid rows
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
from repro.operators.filter import PolarFilter
from repro.operators.geometry import WorkingGeometry
from repro.operators.smoothing import FieldSmoother
from repro.operators.vertical import VerticalGeomCache
from repro.state.variables import FIELD_NAMES, ModelState

#: filter row family per prognostic field (centre rows vs V rows)
FIELD_FAMILY = {"U": "c", "V": "v", "Phi": "c", "psa": "c"}

#: the geometry cache type of each operator pass
GEOM_CACHES = {
    "adaptation": AdaptationGeomCache,
    "advection": AdvectionGeomCache,
    "vertical": VerticalGeomCache,
}


class FilterRows:
    """The polar filter restricted to the target rows ``[lo, hi)`` of a
    pass over the working rows ``view``.

    Per row family (``"c"`` / ``"v"``): ``subset[fam]`` is the filter's
    row mask in view coordinates — also the per-row flag by which a
    tendency kernel leaves a row's update to the caller — with the damping
    factors of its rows; ``bands[fam]`` the same rows as contiguous slices
    in working coordinates, each after its slice of the filter's stack.
    Over passes whose target rows partition the working rows every masked
    row is filtered exactly once.  Without a filter both are empty.

    :meth:`apply` transforms the masked rows of all four fields as one
    stack: one ``rfft`` and one ``irfft`` per application.  Each row's
    transform is independent of the rows stacked with it
    (``tests/test_fixed_cost.py`` pins that bit for bit).
    """

    def __init__(
        self, polar_filter: PolarFilter | None, lo: int, hi: int, view: slice
    ) -> None:
        self.view, self.rows = view, slice(lo, hi)
        self.subset: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.bands: dict[str, list[tuple[slice, slice]]] = {}
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
            at = np.cumsum([0, *(edges[1::2] - edges[::2])]).tolist()
            self.bands[fam] = list(zip(
                map(slice, at, at[1:]), map(slice, edges[::2], edges[1::2])
            ))
        #: the masked target rows per family, in working coordinates
        self._index = {f: np.flatnonzero(self.subset[f][0]) + view.start for f in "cv"}

    def apply(self, tend: ModelState, bufs, finish=None, done=()) -> None:
        """``F`` on the masked target rows of ``tend``: the rows of ``U``,
        ``Phi``, ``p'_sa`` (``c``) and ``V`` (``v``) gathered band by band
        into the stack of ``bufs`` (stack, spectrum), transformed, damped,
        then back into ``tend`` — or, for a field in ``done``, handed to
        ``finish(stack, name, at, rows)``: from row ``at`` on, its rows."""
        if not self.subset or not any(map(len, self._index.values())):
            return
        (_, fc), (_, fv) = self.subset["c"], self.subset["v"]
        nz, nx, nc, nv = tend.U.shape[0], tend.U.shape[-1], len(fc), len(fv)
        planes, m = 2 * nz + 1, nx // 2 + 1  # U and Phi levels, then p'_sa
        rc, n = planes * nc, planes * nc + nz * nv
        stack, spec = bufs[0][:n], bufs[1][:n]
        c = stack[:rc].reshape(planes, nc, nx)
        parts = (
            ("U", 0, c[:nz]), ("Phi", nz * nc, c[nz:-1]),
            ("psa", 2 * nz * nc, c[-1]), ("V", rc, stack[rc:].reshape(nz, nv, nx)),
        )
        for name, _, block in parts:
            for at, rows in self.bands[FIELD_FAMILY[name]]:
                np.copyto(block[..., at, :], getattr(tend, name)[..., rows, :])
        np.fft.rfft(stack, axis=-1, out=spec)
        for part, factors in (
            (spec[:rc].reshape(planes, nc, m), fc), (spec[rc:].reshape(nz, nv, m), fv)
        ):
            np.multiply(part, factors, out=part)
        np.fft.irfft(spec, n=nx, axis=-1, out=stack)
        for name, at, block in parts:
            idx = self._index[FIELD_FAMILY[name]]
            if name in done:
                finish(bufs[0], name, at, idx)
            else:
                getattr(tend, name)[..., idx, :] = block

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
            base, out, dt, midpoint,
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
        #: target rows ``(j0, j1)`` in slab coordinates
        self.inner = (lo - self.vlo, hi - self.vlo)
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
        self._caches: dict = {}
        #: the polar filter on this slab's target rows
        self.polar = FilterRows(polar_filter, lo, hi, self.view)

    # ---- the operators on the slab ----------------------------------------
    def cache(self, kind: str):
        """The geometry cache of the ``kind`` operator (``"adaptation"``,
        ``"advection"``, ``"vertical"``) on this slab, built on first use."""
        if kind not in self._caches:
            self._caches[kind] = GEOM_CACHES[kind](self.geom)
        return self._caches[kind]

    def smooth(
        self,
        kernels,
        ws,
        smoothers: dict[str, FieldSmoother],
        state: ModelState,
        out: ModelState,
    ) -> None:
        """Rows ``[lo, hi)`` of ``S(state)`` into ``out`` (the view's edge
        rows, which in-slab wraps would spoil, are neither written nor
        needed)."""
        for name in FIELD_NAMES:
            kernels.smooth_field(
                smoothers[name], getattr(state, name), getattr(out, name), ws,
                rows=self.inner, view=self.view,
            )

    @property
    def npoints(self) -> int:
        """Model points of the target rows (for compute charging)."""
        nz_w, _, nx_w = self.geom.shape3d
        return nz_w * (self.hi - self.lo) * nx_w
