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
from functools import partial
from typing import Callable

from repro.constants import ModelParameters
from repro.core.rowslab import RowSlab
from repro.core.workspace import Workspace
from repro.kernels import KernelSet
from repro.kernels.dispatch import Store, update_into
from repro.obs.spans import span, traced
from repro.operators.filter import PolarFilter
from repro.operators.geometry import WorkingGeometry
from repro.operators.shifts import (
    fill_pole_ghosts,
    fill_pole_ghosts_vrow,
    fill_z_edge_ghosts,
)
from repro.operators.vertical import GatherFn, VerticalDiagnostics
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
        self._tend = ModelState.zeros(self.geom.shape3d)
        self._slabs: dict[tuple[int, int, int], RowSlab] = {}
        #: the pass over every working row: what ``slab=None`` means
        self._whole = self.slab(0, self.geom.shape2d[0], 0)
        #: the polar filter's stack and spectrum, one pair for every pass
        (nz, _, nx), pf = self.geom.shape3d, self.polar_filter
        n = pf and (2 * nz + 1) * int(pf.mask_c.sum()) + nz * int(pf.mask_v.sum())
        self._fft = pf and (
            self.ws.take((n, nx)), self.ws.take((n, nx // 2 + 1), complex)
        )

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

        This is the only tendency ingredient that needs the z-collective
        (the ``gather_z`` allgather).  With ``slab`` the (working-height)
        bundle is computed on the slab's rows only.
        """
        slab = slab or self._whole
        return self.kernels.vertical(
            state.U, state.V, state.Phi, state.psa, slab.geom, self.gather_z,
            self.ws, slab.cache("vertical"),
            out=self.ws.take_vd(self.geom.shape3d), view=slab.view,
        )

    # ---- composite tendencies ----------------------------------------------------
    def _tendency(
        self, kind: str, state: ModelState, vd: VerticalDiagnostics,
        slab: RowSlab | None, store: Store | None = None,
    ) -> ModelState:
        slab = slab or self._whole
        cache = slab.cache(kind)
        with span(kind, "tendency"):
            if kind == "adaptation":
                self.kernels.adaptation(
                    state, vd, slab.geom, self.params, self.ws, self._tend,
                    cache, store, slab.view,
                )
            else:
                self.kernels.advection(
                    state, vd, slab.geom, self.ws, self._tend, cache, store,
                    slab.view,
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
        self, tend: ModelState, slab: RowSlab | None = None, finish=None, done=()
    ) -> ModelState:
        """The ``F`` operator: the local full-circle variant where
        ``geom.full_x`` (with ``slab``, on its masked target rows only, the
        fields in ``done`` left to ``finish``), else the ``filter_x`` hook."""
        if self.polar_filter is None:
            if self.filter_x is None:
                raise RuntimeError("no local polar filter on a split-x geometry")
            self.filter_x(tend)
        else:
            (slab or self._whole).polar.apply(tend, self._fft, finish, done)
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
        store wherever the polar filter leaves the row alone, the filter's
        store pass (``KernelSet.store_rows``) on the rows it filters; every
        row of a field no kernel finished is updated here, same ufuncs.
        """
        if out is psi or out is base:
            raise ValueError("an update must not overwrite its inputs")
        polar = (slab or self._whole).polar
        store = polar.store(base, dt, out, midpoint)
        tend = self._tendency(kind, psi, vd, slab, store)
        done = store.done if store is not None else ()
        self.apply_filter(tend, slab, partial(self.kernels.store_rows, kind, store), done)
        for name in (n for n in FIELD_NAMES if n not in done):
            b, t, o = (getattr(s, name)[..., polar.rows, :] for s in (base, tend, out))
            update_into(b, t, dt, midpoint, o)
        return out
