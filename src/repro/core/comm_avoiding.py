"""The communication-avoiding algorithm (Algorithm 2, Sec. 4.4).

Runs only on the Y-Z decomposition (``p_x = 1``), which makes the Fourier
filter communication-free (Sec. 4.2.1).  Per model step it performs
exactly **two** halo exchanges instead of the original thirteen:

1. the *adaptation exchange* — wide halos (``3M + 2`` rows in y, ``3M``
   levels in z, Figure 4) carrying the pre-smoothing state ``xi^(k-1)``
   plus the stale ``C`` bundle, fused with the smoothing data (Sec.
   4.3.2) and overlapped with the former smoothing and the inner-block
   part of the first internal update (Sec. 4.3.1);
2. the *advection exchange* — 3-wide halos for the three advection
   updates, also overlapped with the inner-block update.

All ``3M`` adaptation updates then run on block + *shrinking* halo with
redundant computation and zero additional point-to-point communication:
update ``u`` of a batch of ``H`` (``H = 3M`` for adaptation, 3 for
advection) sweeps only the rows that can still be valid — the block plus
``H - u`` rows on each side that has a y-neighbour, and nothing beyond the
block towards a pole, whose ghost rows are a local mirror kept filled to
the stencil reach (:func:`update_windows`, Figure 4).  Every per-update
operation — ``C``, then ``A``/``L``, the polar filter and the update
through :meth:`TendencyEngine.update`, the pole fill — runs on that row
window through views of the working arrays
(:class:`repro.core.rowslab.RowSlab`); ``S1`` runs on the block
rows, ``S2`` on the received rows.  The approximate nonlinear iteration
(Sec. 4.2.2) reuses the cached ``C`` bundle for the first internal update
of every iteration, so only ``2M`` z-collectives happen per step instead
of ``3M``.  Under ``p_z > 1`` the windows are in y only: all (ghost) levels
are swept.

Deviation noted in DESIGN.md: the stale ``C`` bundle must be valid on the
fresh halo rows for the first internal update; the exchange therefore
carries the bundle's y-slabs (``phi'``, ``PW``, column sum, ``P``) in
addition to the state — engineering the paper glosses over, covered by
its "a little more communication volume" remark.
"""
from __future__ import annotations

import numpy as np

from repro.core.distributed import (
    DistributedConfig,
    PHASE_STENCIL,
    RankContext,
    RankResult,
)
from repro.core.halo import PackPool
from repro.core.rowslab import RowSlab
from repro.core.workspace import StateRing
from repro.obs.spans import span
from repro.operators.geometry import WorkingGeometry
from repro.operators.smoothing import (
    FieldSmoother,
    OFFSETS_L,
    OFFSETS_L_PRIME,
    OFFSETS_R,
    OFFSETS_R_PRIME,
)
from repro.operators.stencil_meta import row_window_schedule
from repro.operators.vertical import VerticalDiagnostics
from repro.simmpi.comm import SimComm
from repro.state.variables import FIELD_NAMES, ModelState

#: tag base of the stale-bundle y-messages (distinct from halo tags)
TAG_BUNDLE = 30_000

#: strip width of the former/later smoothing split (the smoother radius)
STRIP = 2

#: ghost rows mirrored across a pole: the deepest y-reach of any pass (the
#: smoother's; ``C``, ``A`` and ``L`` reach one row)
POLE_REACH = STRIP


def strip_partial(
    sm: FieldSmoother, a: np.ndarray, rows: slice,
    offsets: tuple[int, ...], out: np.ndarray, ws, add: bool = False,
) -> None:
    """Rows ``rows`` of ``sm.partial_into(a, offsets)`` into (with
    ``add``: added to) the same rows of ``out``.

    Evaluated on the strip's row window only (``rows +- STRIP``, a view):
    every offset of a target row stays inside the window, so the values
    are the whole-array ones at a fraction of the work.
    """
    window = a[..., rows.start - STRIP: rows.stop + STRIP, :]
    part = sm.partial_into(window, offsets, ws.take(window.shape), ws)
    target = out[..., rows, :]
    if add:
        np.add(target, part[..., STRIP:-STRIP, :], out=target)
    else:
        target[...] = part[..., STRIP:-STRIP, :]
    ws.give(part)


def update_windows(
    geom: WorkingGeometry, batch: int
) -> tuple[tuple[int, int], ...]:
    """Working rows ``[lo, hi)`` each of ``batch`` halo-batched updates
    targets on the rank owning ``geom``: the block plus ``batch - u`` rows
    on every side that has a y-neighbour, nothing beyond the block towards
    a pole (:func:`repro.operators.stencil_meta.row_window_schedule`)."""
    gy = geom.gy
    return row_window_schedule(
        gy, gy + geom.extent.ny, batch,
        north=not geom.touches_north, south=not geom.touches_south,
    )


class CommAvoidingRank(RankContext):
    """Per-rank state of the communication-avoiding core."""

    def __init__(self, comm: SimComm, cfg: DistributedConfig) -> None:
        decomp = cfg.decomp
        if decomp.kind not in ("yz", "serial"):
            raise ValueError("Algorithm 2 requires the Y-Z decomposition")
        M = cfg.params.m_iterations
        gy = 3 * M + STRIP
        gz = 3 * M if decomp.pz > 1 else 0
        super().__init__(comm, cfg, gy=gy, gz=gz, gx=0)
        self.halo_updates = 3 * M  # usable y/z halo after smoothing
        # y-neighbour ranks for the bundle messages
        self.north_nb = decomp.neighbour(comm.rank, 0, -1, 0)
        self.south_nb = decomp.neighbour(comm.rank, 0, +1, 0)
        self._bundle_pool = PackPool(comm)
        # ---- the row-window schedule (built once per rank) ----
        slab = self.engine.slab
        #: row window of each of the 3M adaptation / 3 advection updates.
        #: One window (reach 1) serves the update's C, A/L, filter and
        #: store: C-then-A still has y-reach 1, because the only C
        #: output A reads off-row is phi' at j + 1, which is column-local
        #: and hence valid on the window's margin row too.
        self.adapt = [slab(lo, hi) for lo, hi in update_windows(self.geom, 3 * M)]
        self.advec = [slab(lo, hi) for lo, hi in update_windows(self.geom, 3)]
        ny_i, ny_w = self.extent.ny, self.geom.shape2d[0]
        #: the block rows (S1 and the final smoothing)
        self.block = slab(gy, gy + ny_i, STRIP)
        #: the received halo rows S2 can smooth fully, per neighbour side
        self.received = []
        if not self.geom.touches_north:
            self.received.append(slab(STRIP, gy, STRIP))
        if not self.geom.touches_south:
            self.received.append(slab(gy + ny_i, ny_w - STRIP, STRIP))

    def restart(self) -> None:
        """A restart has no previous step: no stale ``C`` bundle."""
        super().restart()
        self.vd_stale: VerticalDiagnostics | None = None

    def state_ring(self) -> StateRing:
        """The step's state rotation.  Zero-initialised: the windowed
        sweeps never write (nor read) the rows beyond their reach, and
        whole-array passes such as the forcing must find finite values
        there.  ``np.zeros`` maps zero pages lazily, so rows and members
        never touched cost no memory."""
        return StateRing.of(
            ModelState.zeros(self.geom.shape3d) for _ in range(3)
        )

    def fill_bc(self, state: ModelState) -> None:
        """Pole mirror to the stencil reach (not all ``gy`` rows) and the
        z-edge fill; no windowed pass reads further across a pole."""
        self.engine.fill_physical_ghosts(state, depth=POLE_REACH)

    # ------------------------------------------------------------------
    # stale-bundle exchange (y-direction only; bundles are z-complete)
    # ------------------------------------------------------------------
    def _bundle_fields(self, vd: VerticalDiagnostics) -> list[np.ndarray]:
        return [vd.phi_prime, vd.pw_iface, vd.column_sum, vd.p_fac]

    def start_bundle_exchange(self, vd: VerticalDiagnostics, wy: int):
        """Post the y-slab sends/recvs of the stale ``C`` bundle."""
        gy = self.geom.gy
        ny_i = self.extent.ny
        sends, recvs = [], []
        self.comm.set_phase(PHASE_STENCIL)
        for nb, side in ((self.north_nb, "n"), (self.south_nb, "s")):
            if nb is None or nb == self.comm.rank:
                continue
            for fi, arr in enumerate(self._bundle_fields(vd)):
                tag = TAG_BUNDLE + (0 if side == "n" else 100) + fi
                recvs.append((self.comm.irecv(nb, tag=tag), fi, side))
        for nb, side, tag_off in (
            (self.north_nb, "n", 100),  # my north slab arrives as their south
            (self.south_nb, "s", 0),
        ):
            if nb is None or nb == self.comm.rank:
                continue
            for fi, arr in enumerate(self._bundle_fields(vd)):
                rows = (
                    slice(gy, gy + wy)
                    if side == "n"
                    else slice(gy + ny_i - wy, gy + ny_i)
                )
                slab = arr[..., rows, :]
                payload = self._bundle_pool.pack((side, fi) + slab.shape, slab)
                sends.append(
                    self.comm.isend(nb, payload, tag=TAG_BUNDLE + tag_off + fi)
                )
        self.comm.set_phase(None)
        return sends, recvs

    def finish_bundle_exchange(self, vd: VerticalDiagnostics, wy: int, pending) -> None:
        """Unpack bundle slabs and rebuild the derived interface fields on
        the refreshed rows."""
        sends, recvs = pending
        gy = self.geom.gy
        ny_i = self.extent.ny
        self.comm.set_phase(PHASE_STENCIL)
        fields = self._bundle_fields(vd)
        refreshed = {}
        for req, fi, side in recvs:
            payload = req.wait()
            rows = refreshed[side] = (
                slice(gy - wy, gy) if side == "n"
                else slice(gy + ny_i, gy + ny_i + wy)
            )
            target = fields[fi][..., rows, :]
            fields[fi][..., rows, :] = payload.reshape(target.shape)
        for req in sends:
            req.wait()
        self.comm.set_phase(None)
        # rebuild w / sigma-dot where pw and P just changed
        for rows in refreshed.values():
            p = vd.p_fac[rows]
            pw = vd.pw_iface[:, rows]
            t2 = self.ws.take(p.shape)
            np.divide(pw, p[None], out=vd.w_iface[:, rows])
            np.power(p, 2, out=t2)
            np.divide(pw, t2[None], out=vd.sdot_iface[:, rows])
            self.ws.give(t2)

    # ------------------------------------------------------------------
    # the fused smoothing (Sec. 4.3.2)
    # ------------------------------------------------------------------
    def smooth_block(self, state: ModelState, out: ModelState) -> ModelState:
        """``S(state)`` on the block rows of ``out`` (charged)."""
        self.charge(self.cfg.weights.smoothing, self.block.npoints)
        self.block.smooth(self.kernels, self.ws, self.smoothers, state, out)
        return out

    def former_smoothing(self, pre: ModelState, out: ModelState) -> ModelState:
        """``S1`` into the block rows of ``out``: full smoothing away from
        rank-boundary strips, partial (locally computable offsets) on the
        strips.

        Pole-side edges have valid mirror ghosts, so they are smoothed
        fully; only true rank boundaries need the split.
        """
        self.smooth_block(pre, out)
        for name in FIELD_NAMES:
            sm = self.smoothers[name]
            if sm.has_y_stencil:
                self._strips(
                    sm, getattr(pre, name), getattr(out, name),
                    OFFSETS_R, OFFSETS_L,
                )
        return out

    def _strips(self, sm, a, out, north, south, add=False) -> None:
        """:func:`strip_partial` of ``a`` into ``out`` on the block's
        rank-boundary strips: over offsets ``north`` on the strip next to
        a northern neighbour, ``south`` on the one next to a southern."""
        g = self.geom
        for lo, offsets, inner in (
            (g.gy, north, not g.touches_north),
            (g.gy + self.extent.ny - STRIP, south, not g.touches_south),
        ):
            if inner:
                rows = slice(lo, lo + STRIP)
                strip_partial(sm, a, rows, offsets, out, self.ws, add)

    def later_smoothing(self, smoothed: ModelState, pre: ModelState) -> None:
        """``S2``: complete the strips with the deferred offsets and smooth
        the freshly received halo rows / levels, in place on ``smoothed``."""
        g = self.geom
        gy, gz = g.gy, g.gz
        nz_i = self.extent.nz
        # deferred offsets on the strips + the received rows, per y side
        self.charge(
            self.cfg.weights.smoothing,
            (g.shape3d[0] * g.shape3d[2])
            * (len(self.received) * gy + 2 * gz),
        )
        for name in FIELD_NAMES:
            sm = self.smoothers[name]
            a_pre = getattr(pre, name)
            a_out = getattr(smoothed, name)
            if sm.has_y_stencil:
                self._strips(
                    sm, a_pre, a_out, OFFSETS_R_PRIME, OFFSETS_L_PRIME, add=True
                )
            # full smoothing of the received halo rows / levels
            for sl in self.received:
                self.kernels.smooth_field(
                    sm, a_pre, a_out, self.ws, rows=sl.inner, view=sl.view
                )
            if a_pre.ndim == 3 and gz > 0:
                levels = []
                if not g.touches_top:
                    levels.append(slice(0, gz))
                if not g.touches_bottom:
                    levels.append(slice(nz_i + gz, None))
                for lv in levels:
                    self.kernels.smooth_field(
                        sm, a_pre, a_out, self.ws, levels=lv
                    )

    # ------------------------------------------------------------------
    # the windowed internal updates
    # ------------------------------------------------------------------
    def window_update(
        self,
        kind: str,
        slab: RowSlab,
        psi: ModelState,
        base: ModelState,
        vd: VerticalDiagnostics,
        dt: float,
        out: ModelState,
        midpoint: bool = False,
    ) -> ModelState:
        """One internal update ``base + dt * F(T(psi))`` (``T`` =
        ``"adaptation"``: ``C-hat + A-hat`` with the bundle ``vd``;
        ``"advection"``: ``L``) — with ``midpoint`` its mean with ``base``
        — on the rows of ``slab``, then the pole / z-edge ghost fill of
        ``out``.  Charged by the program (:meth:`charge_update` and the
        overlap split), not here."""
        self.engine.update(kind, psi, base, vd, dt, out, slab, midpoint)
        self.fill_bc(out)
        return out

    def charge_update(self, slabs: list[RowSlab]) -> None:
        """Charge the axpy/midpoint work of the updates on ``slabs``."""
        self.charge(
            self.cfg.weights.update, sum(sl.npoints for sl in slabs)
        )

    # ------------------------------------------------------------------
    # overlap helper: charge the inner-block compute before the wait
    # ------------------------------------------------------------------
    @property
    def _inner_points(self) -> int:
        """The region whose stencils need no halo data (Sec. 4.3.1)."""
        inner_y = max(0, self.extent.ny - 2)
        inner_z = max(1, self.extent.nz - (2 if self.geom.gz else 0))
        return inner_z * inner_y * self.geom.shape3d[2]

    def charge_inner(self, weight: float) -> None:
        """Charge the inner-part update (the overlap of Sec. 4.3.1)."""
        self.charge(weight, self._inner_points)

    def charge_outer(self, weight: float, slab: RowSlab) -> None:
        """Charge the remaining (outer + halo) part of the update on
        ``slab`` whose inner part :meth:`charge_inner` already charged."""
        self.charge(weight, slab.npoints - self._inner_points)


def final_smoothing(ctx: CommAvoidingRank, xi_pre: ModelState, out: ModelState):
    """Algorithm 2 line 30: one extra (narrow) exchange, then ``S`` on the
    block.  The span name is distinct from the per-step pair so trace-based
    accounting of "halo-exchange" spans per step reads exactly 2."""
    cfg = ctx.cfg
    with span("smoothing-exchange", "comm"):
        ctx.comm.set_phase(PHASE_STENCIL)
        ctx.halo.exchange(
            [xi_pre.U, xi_pre.V, xi_pre.Phi, xi_pre.psa], wy=STRIP,
            wz=min(STRIP, ctx.geom.gz) or None,
        )
        ctx.comm.set_phase(None)
        ctx.fill_bc(xi_pre)
    ctx.smooth_block(xi_pre, out)
    ctx.fill_bc(out)
    if cfg.forcing is not None:
        cfg.forcing(out, ctx.geom, cfg.params.dt_advection)
    return out


def ca_program(comm: SimComm, cfg: DistributedConfig):
    """Build Algorithm 2 on one rank.  Same contract as
    :func:`repro.core.distributed.original_program`: returns
    ``advance(initial, nsteps, out) -> RankResult``, every call a restart from
    ``initial`` (first step unsmoothed, fresh ``C`` bundle, final
    smoothing) on the context built here."""
    ctx = CommAvoidingRank(comm, cfg)
    params = cfg.params
    dt1, dt2, M = params.dt_adaptation, params.dt_advection, params.m_iterations
    W = cfg.weights
    state_fields = lambda s: [s.U, s.V, s.Phi, s.psa]  # noqa: E731
    A, L = ctx.adapt, ctx.advec
    scr = ctx.state_ring().scratch

    def advance(
        initial: ModelState, nsteps: int, out: ModelState
    ) -> RankResult:
        ctx.restart()
        # xi_pre is the *unsmoothed* advected state zeta_3 of the previous step
        xi_pre = ctx.pad_local(initial, out=scr())
        ctx.fill_bc(xi_pre)
        for k in range(nsteps):
            xi_pre = step(xi_pre, first_step=k == 0)
            ctx.record_telemetry(k + 1, xi_pre)
        return ctx.result(final_smoothing(ctx, xi_pre, scr(xi_pre)), out)

    def step(xi_pre: ModelState, first_step: bool) -> ModelState:
        with span("step", "step"):
            # ---- fused smoothing + adaptation exchange (1st of 2 per step) ----
            # Algorithm 2 lines 4-12: the smoothing belongs to the *previous*
            # step and is skipped on the first one (k = 1).
            pre = xi_pre.copy_into(scr(xi_pre))
            smoothed = (
                None if first_step else ctx.former_smoothing(pre, out=scr(pre))
            )

            with span("halo-exchange", "comm"):
                comm.set_phase(PHASE_STENCIL)
                pending = ctx.halo.start(state_fields(pre))
                comm.set_phase(None)
                bundle_pending = None
                if ctx.vd_stale is not None:
                    bundle_pending = ctx.start_bundle_exchange(
                        ctx.vd_stale, wy=ctx.geom.gy
                    )

                # overlap: the inner-block part of the first internal update is
                # computed while the exchange is in flight (Sec. 4.3.1)
                overlap = cfg.ca_overlap
                if overlap:
                    ctx.charge_inner(W.adaptation)

                comm.set_phase(PHASE_STENCIL)
                ctx.halo.finish(pending, state_fields(pre))
                comm.set_phase(None)
                ctx.exchanges += 1
                if bundle_pending is not None:
                    ctx.finish_bundle_exchange(
                        ctx.vd_stale, ctx.geom.gy, bundle_pending
                    )
                ctx.fill_bc(pre)

            if smoothed is None:
                psi = pre
            else:
                ctx.later_smoothing(smoothed, pre)
                ctx.fill_bc(smoothed)
                psi = smoothed
                if cfg.forcing is not None:
                    # forcing of the *previous* step, applied after its smoothing
                    cfg.forcing(psi, ctx.geom, dt2)
                    ctx.fill_bc(psi)

            # ---- M nonlinear iterations, 3 internal updates each, every
            # update on its own (shrinking) row window ----
            for i in range(M):
                w1, w2, w3 = A[3 * i: 3 * i + 3]
                if cfg.ca_approximate_c and ctx.vd_stale is not None:
                    vd1 = ctx.vd_stale  # C(psi^{i-2}) + O(dt1): no collective
                else:
                    # fresh (cold start / ablation)
                    vd1 = ctx.vd_stale = ctx.vertical_fresh(psi, w1)
                if i == 0 and overlap:
                    # the overlapped inner part was charged before the wait;
                    # charge only the remainder here
                    ctx.charge_outer(W.adaptation, w1)
                else:
                    ctx.charge(W.adaptation, w1.npoints)
                eta1 = ctx.window_update(
                    "adaptation", w1, psi, psi, vd1, dt1, scr(psi)
                )

                vd2 = ctx.vd_stale = ctx.vertical_fresh(eta1, w2)
                ctx.charge(W.adaptation, w2.npoints)
                mid = ctx.window_update(
                    "adaptation", w2, eta1, psi, vd2, dt1, scr(psi, eta1),
                    midpoint=True,
                )

                vd3 = ctx.vd_stale = ctx.vertical_fresh(mid, w3)
                ctx.charge(W.adaptation, w3.npoints)
                psi = ctx.window_update(
                    "adaptation", w3, mid, psi, vd3, dt1, scr(psi, mid)
                )
                ctx.charge_update([w1, w2, w3])

            vd_frozen = ctx.vd_stale

            # ---- advection exchange (2nd of 2 per step) ----
            with span("halo-exchange", "comm"):
                comm.set_phase(PHASE_STENCIL)
                pending = ctx.halo.start(
                    state_fields(psi), wy=3, wz=3 if ctx.geom.gz else None
                )
                comm.set_phase(None)
                bundle_pending = ctx.start_bundle_exchange(vd_frozen, wy=3)

                if overlap:  # overlap with the first zeta update
                    ctx.charge_inner(W.advection)

                comm.set_phase(PHASE_STENCIL)
                ctx.halo.finish(pending, state_fields(psi))
                comm.set_phase(None)
                ctx.exchanges += 1
                ctx.finish_bundle_exchange(vd_frozen, 3, bundle_pending)
                ctx.fill_bc(psi)

            if overlap:
                ctx.charge_outer(W.advection, L[0])
            else:
                ctx.charge(W.advection, L[0].npoints)
            zeta1 = ctx.window_update(
                "advection", L[0], psi, psi, vd_frozen, dt2, scr(psi)
            )

            ctx.charge(W.advection, L[1].npoints)
            mid = ctx.window_update(
                "advection", L[1], zeta1, psi, vd_frozen, dt2,
                scr(psi, zeta1), midpoint=True,
            )

            ctx.charge(W.advection, L[2].npoints)
            xi_pre = ctx.window_update(
                "advection", L[2], mid, psi, vd_frozen, dt2, scr(psi, mid)
            )
            ctx.charge_update(L)
        return xi_pre

    return advance


def ca_rank_program(
    comm: SimComm, cfg: DistributedConfig, initial: ModelState,
    out: ModelState,
) -> RankResult:
    """Algorithm 2 as a one-shot rank program: build, then advance
    ``cfg.nsteps`` steps from ``initial`` into ``out``."""
    return ca_program(comm, cfg)(initial, cfg.nsteps, out)
