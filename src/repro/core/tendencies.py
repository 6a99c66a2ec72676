"""Composition of the five operators into the tendency evaluations of
Algorithm 1 / Algorithm 2.

One :class:`TendencyEngine` owns a working geometry, the polar filter and
the (optional) z-collective hook, and exposes the two composite
evaluations the integrators need — each as a plain tendency and, through
the one door :meth:`TendencyEngine.update`, as a finished internal update
``base + dt F(tendency)``:

* ``F (C-hat + A-hat)`` — the adaptation tendency (optionally with a
  *cached* ``C`` bundle, the approximate nonlinear iteration of
  Sec. 4.2.2);
* ``F L`` — the advection tendency (with the ``sigma-dot`` diagnostics
  frozen from the adaptation process, matching the operator form's absence
  of ``C`` in the advection block).

Ghost filling here covers only the *physical* boundaries (pole mirrors,
vertical edges); rank-to-rank halo exchange is the distributed cores'
job and happens before these evaluations are called.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.constants import ModelParameters
from repro.core.rowslab import FIELD_FAMILY, FilterRows, RowSlab
from repro.core.workspace import Workspace
from repro.kernels import KernelSet
from repro.kernels.dispatch import Store
from repro.obs.spans import span, traced
from repro.operators.adaptation import AdaptationGeomCache
from repro.operators.advection import AdvectionGeomCache
from repro.operators.filter import PolarFilter
from repro.operators.geometry import WorkingGeometry
from repro.operators.shifts import (
    fill_pole_ghosts,
    fill_pole_ghosts_vrow,
    fill_z_edge_ghosts,
)
from repro.operators.vertical import (
    GatherFn,
    VerticalDiagnostics,
    VerticalGeomCache,
)
from repro.state.variables import FIELD_NAMES, ModelState


@dataclass
class TendencyEngine:
    """Operator composition for one rank (or the serial core).

    Every operator is evaluated through :attr:`kernels` on buffers pooled
    in :attr:`ws`.  Both tendencies land in **one engine-owned buffer**,
    valid until the next :meth:`adaptation`/:meth:`advection` call — a
    caller that wants to hold two tendencies at once must copy the first.

    Every evaluation takes an optional *row window*
    (:meth:`slab`): the operator then runs on that window's rows only,
    through views of the same working arrays and of the same tendency
    buffer, and its result is valid on the window's target rows.  The
    default is the whole working array.
    """

    geom: WorkingGeometry
    params: ModelParameters
    polar_filter: PolarFilter | None = None
    gather_z: GatherFn | None = None
    #: alternative volume-optimal C collective: (exscan_fn, allreduce_fn)
    #: on the z line; takes precedence over ``gather_z`` when set
    scan_z: tuple | None = None
    #: the ``F`` operator where the latitude circle is split (``geom.full_x``
    #: false): filters a tendency in place through the x-line collective
    filter_x: Callable[[ModelState], None] | None = None
    #: per-rank scratch-buffer pool of the operator evaluations
    ws: Workspace = field(default_factory=Workspace)
    #: the kernel object (:class:`repro.kernels.KernelSet`) every operator
    #: call goes through; the reference tier by default
    kernels: KernelSet = field(default_factory=lambda: KernelSet("reference"))

    def __post_init__(self) -> None:
        if self.polar_filter is None and self.geom.full_x:
            self.polar_filter = PolarFilter(self.geom, self.params)
        self._vert_cache = VerticalGeomCache(self.geom)
        self._adapt_cache = AdaptationGeomCache(self.geom)
        self._advec_cache = AdvectionGeomCache(self.geom)
        self._tend = ModelState.zeros(self.geom.shape3d)
        self._slabs: dict[tuple[int, int, int], RowSlab] = {}
        #: the filter's rows on the whole working array
        ny_w = self.geom.shape2d[0]
        self._polar = FilterRows(self.polar_filter, 0, ny_w, slice(0, ny_w))

    def slab(self, lo: int, hi: int, margin: int = 1) -> RowSlab:
        """The (cached) row window ``[lo, hi)`` of this engine's working
        arrays, reading ``margin`` rows beyond it."""
        key = (lo, hi, margin)
        if key not in self._slabs:
            self._slabs[key] = RowSlab(
                self.geom, lo, hi, margin, self.polar_filter
            )
        return self._slabs[key]

    # ---- boundary conditions -----------------------------------------------
    def fill_physical_ghosts(
        self, state: ModelState, depth: int | None = None
    ) -> None:
        """Pole mirror + vertical edge ghost fill (no communication).

        Also (re)imposes V = 0 on pole interface rows owned by this block.
        Call after every state update and before any stencil evaluation.
        ``depth`` limits the mirror to that many ghost rows (default: all
        ``gy``) for callers whose stencils reach no further.
        """
        g = self.geom
        n, s = g.touches_north, g.touches_south
        if g.gy > 0 and (n or s):
            fill_pole_ghosts(state.U, g.gy, True, n, s, depth)
            fill_pole_ghosts(state.Phi, g.gy, False, n, s, depth)
            fill_pole_ghosts(state.psa, g.gy, False, n, s, depth)
            fill_pole_ghosts_vrow(state.V, g.gy, n, s, depth)
        elif s and g.gy == 0:
            # even without ghosts the south-pole interface row exists
            state.V[..., -1, :] = 0.0
        if g.gz > 0:
            for f in (state.U, state.V, state.Phi):
                fill_z_edge_ghosts(f, g.gz, top=g.touches_top, bottom=g.touches_bottom)

    # ---- the C operator ------------------------------------------------------
    @traced("C", "tendency")
    def vertical(
        self, state: ModelState, slab: RowSlab | None = None
    ) -> VerticalDiagnostics:
        """Apply ``C``: the vertical-integral diagnostics bundle.

        This is the only tendency ingredient that needs the z-collective.
        Uses the scan-based variant when ``scan_z`` is configured, the
        allgather variant otherwise.  With ``slab`` the (working-height)
        bundle is computed on the slab's rows only.
        """
        if slab is not None:
            vd = self.ws.take_vd(self.geom.shape3d)
            slab.vertical(
                self.kernels, self.gather_z, self.scan_z, self.ws, state, vd
            )
            return vd
        return self.kernels.vertical(
            state.U, state.V, state.Phi, state.psa, self.geom,
            self.gather_z, self.ws, self._vert_cache, scan=self.scan_z,
        )

    # ---- composite tendencies ----------------------------------------------------
    def _tendency(
        self, kind: str, state: ModelState, vd: VerticalDiagnostics,
        slab: RowSlab | None, store: Store | None = None,
    ) -> ModelState:
        with span(kind, "tendency"):
            if slab is not None:
                slab.tendency(
                    kind, self.kernels, self.params, self.ws, state, vd,
                    self._tend, store,
                )
            elif kind == "adaptation":
                self.kernels.adaptation(
                    state, vd, self.geom, self.params,
                    self.ws, self._tend, self._adapt_cache, store,
                )
            else:
                self.kernels.advection(
                    state, vd, self.geom, self.ws, self._tend,
                    self._advec_cache, store,
                )
        return self._tend

    def adaptation(
        self,
        state: ModelState,
        vd: VerticalDiagnostics,
        slab: RowSlab | None = None,
    ) -> ModelState:
        """``C-hat + A-hat``: the (unfiltered) adaptation tendency.

        ``vd`` may be the *fresh* diagnostics of ``state`` (original
        algorithm) or a cached bundle from an earlier iterate (the
        approximate nonlinear iteration): the caller decides, which is the
        whole point of the Sec. 4.2.2 optimization.  :meth:`update` is the
        door that also applies ``F`` and the update.
        """
        return self._tendency("adaptation", state, vd, slab)

    def advection(
        self,
        state: ModelState,
        vd: VerticalDiagnostics,
        slab: RowSlab | None = None,
    ) -> ModelState:
        """``L``: the (unfiltered) advection tendency with frozen
        ``sigma-dot``."""
        return self._tendency("advection", state, vd, slab)

    @traced("polar-filter", "tendency")
    def apply_filter(
        self, tend: ModelState, slab: RowSlab | None = None
    ) -> ModelState:
        """The ``F`` operator: the local full-circle variant where
        ``geom.full_x`` (with ``slab``, on its masked target rows only),
        else the ``filter_x`` hook."""
        if self.polar_filter is None:
            if self.filter_x is None:
                raise RuntimeError(
                    "no local polar filter on a split-x geometry"
                )
            self.filter_x(tend)
        else:
            (self._polar if slab is None else slab.polar).apply(tend)
        return tend

    # ---- the internal update ---------------------------------------------------
    def update(
        self,
        kind: str,
        psi: ModelState,
        base: ModelState,
        vd: VerticalDiagnostics,
        dt: float,
        out: ModelState,
        slab: RowSlab | None = None,
        midpoint: bool = False,
    ) -> ModelState:
        """One internal update, ``out = base + dt * F(T(psi))`` with ``T``
        the ``kind`` tendency (``"adaptation"`` / ``"advection"``) under
        the bundle ``vd`` — with ``midpoint`` the mean of that and ``base``,
        the state the third update of an iteration evaluates — on the
        target rows of ``slab`` (default: every working row) and on no
        other row of ``out``, which must be neither ``psi`` nor ``base``.

        Bit for bit tendency -> :meth:`apply_filter` -> ``axpy_into``
        (-> ``midpoint_into``): a fused kernel folds the update into its
        store wherever the polar filter leaves the row alone; the
        filtered rows, and every row of a field no kernel finished, are
        updated here with the same ufuncs.
        """
        if out is psi or out is base:
            raise ValueError("an update must not overwrite its inputs")
        polar = self._polar if slab is None else slab.polar
        store = polar.store(base, dt, out, midpoint)
        tend = self.apply_filter(
            self._tendency(kind, psi, vd, slab, store), slab
        )
        for name in FIELD_NAMES:
            if store is not None and name in store.done:
                bands = polar.bands[FIELD_FAMILY[name]]
            else:
                bands = [polar.rows]
            for rows in bands:
                b, t, o = (
                    getattr(s, name)[..., rows, :] for s in (base, tend, out)
                )
                np.multiply(t, dt, out=o)
                np.add(b, o, out=o)
                if midpoint:
                    np.add(b, o, out=o)
                    np.multiply(o, 0.5, out=o)
        return out
