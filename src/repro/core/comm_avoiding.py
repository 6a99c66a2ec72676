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

All ``3M`` adaptation updates then run on block + (shrinking) halo with
redundant computation and zero additional point-to-point communication;
the approximate nonlinear iteration (Sec. 4.2.2) reuses the cached ``C``
bundle for the first internal update of every iteration, so only ``2M``
z-collectives happen per step instead of ``3M``.

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
from repro.core.workspace import StateRing
from repro.obs.spans import span
from repro.operators.smoothing import (
    FieldSmoother,
    OFFSETS_L,
    OFFSETS_L_PRIME,
    OFFSETS_R,
    OFFSETS_R_PRIME,
)
from repro.operators.vertical import VerticalDiagnostics
from repro.simmpi.comm import SimComm
from repro.state.variables import ModelState

#: tag base of the stale-bundle y-messages (distinct from halo tags)
TAG_BUNDLE = 30_000

#: strip width of the former/later smoothing split (the smoother radius)
STRIP = 2


def strip_partial(
    sm: FieldSmoother, a: np.ndarray, rows: slice, offsets: tuple[int, ...]
) -> np.ndarray:
    """Rows ``rows`` of ``sm.partial(a, offsets)``.

    Evaluated on the strip's row window only (``rows +- STRIP``, a view):
    every offset of a target row stays inside the window, so the values
    are the whole-array ones at a fraction of the work.
    """
    window = a[..., rows.start - STRIP: rows.stop + STRIP, :]
    return sm.partial(window, offsets)[..., STRIP:-STRIP, :]


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
        self.vd_stale: VerticalDiagnostics | None = None
        # y-neighbour ranks for the bundle messages
        self.north_nb = decomp.neighbour(comm.rank, 0, -1, 0)
        self.south_nb = decomp.neighbour(comm.rank, 0, +1, 0)
        self._bundle_pool = PackPool(comm)

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
        """Unpack bundle slabs and rebuild the derived interface fields."""
        sends, recvs = pending
        gy = self.geom.gy
        ny_i = self.extent.ny
        self.comm.set_phase(PHASE_STENCIL)
        fields = self._bundle_fields(vd)
        for req, fi, side in recvs:
            payload = req.wait()
            rows = (
                slice(gy - wy, gy) if side == "n"
                else slice(gy + ny_i, gy + ny_i + wy)
            )
            target = fields[fi][..., rows, :]
            fields[fi][..., rows, :] = payload.reshape(target.shape)
        for req in sends:
            req.wait()
        self.comm.set_phase(None)
        # rebuild w / sigma-dot on the refreshed rows (cheap: whole array)
        t2 = self.ws.take(vd.p_fac.shape)
        np.divide(vd.pw_iface, vd.p_fac[None], out=vd.w_iface)
        np.power(vd.p_fac, 2, out=t2)
        np.divide(vd.pw_iface, t2[None], out=vd.sdot_iface)
        self.ws.give(t2)

    # ------------------------------------------------------------------
    # the fused smoothing (Sec. 4.3.2)
    # ------------------------------------------------------------------
    def former_smoothing(self, pre: ModelState, out: ModelState) -> ModelState:
        """``S1`` into ``out``: full smoothing away from rank-boundary
        strips, partial (locally computable offsets) on the strips.

        Pole-side edges have valid mirror ghosts, so they are smoothed
        fully; only true rank boundaries need the split.
        """
        g = self.geom
        gy = g.gy
        ny_i = self.extent.ny
        self.charge(self.cfg.weights.smoothing, self._wpoints)
        self.kernels.smooth_state_into(
            pre, self.cfg.params, out, self.ws, self.smoothers
        )
        for name in ("U", "V", "Phi", "psa"):
            sm = self.smoothers[name]
            if not sm.has_y_stencil:
                continue
            a_pre = getattr(pre, name)
            a_out = getattr(out, name)
            if not g.touches_north:
                rows = slice(gy, gy + STRIP)
                a_out[..., rows, :] = strip_partial(sm, a_pre, rows, OFFSETS_R)
            if not g.touches_south:
                rows = slice(gy + ny_i - STRIP, gy + ny_i)
                a_out[..., rows, :] = strip_partial(sm, a_pre, rows, OFFSETS_L)
        return out

    def later_smoothing(self, smoothed: ModelState, pre: ModelState) -> None:
        """``S2``: complete the strips with the deferred offsets and smooth
        the freshly received halo regions, in place on ``smoothed``."""
        g = self.geom
        gy, gz = g.gy, g.gz
        ny_i, nz_i = self.extent.ny, self.extent.nz
        # deferred offsets on the strips
        self.charge(
            self.cfg.weights.smoothing,
            (g.shape3d[0] * g.shape3d[2])
            * (2 * STRIP + 2 * (gy - STRIP) + 2 * gz),
        )
        north_strip = not g.touches_north
        south_strip = not g.touches_south
        for name in ("U", "V", "Phi", "psa"):
            sm = self.smoothers[name]
            a_pre = getattr(pre, name)
            a_out = getattr(smoothed, name)
            if sm.has_y_stencil:
                if north_strip:
                    rows = slice(gy, gy + STRIP)
                    a_out[..., rows, :] += strip_partial(
                        sm, a_pre, rows, OFFSETS_R_PRIME
                    )
                if south_strip:
                    rows = slice(gy + ny_i - STRIP, gy + ny_i)
                    a_out[..., rows, :] += strip_partial(
                        sm, a_pre, rows, OFFSETS_L_PRIME
                    )
            # full smoothing of the received halo rows / levels
            full = self.kernels.smooth_field(
                sm, a_pre, self.ws.take(a_pre.shape), self.ws
            )
            if north_strip:
                a_out[..., :gy, :] = full[..., :gy, :]
            if south_strip:
                a_out[..., gy + ny_i:, :] = full[..., gy + ny_i:, :]
            if a_pre.ndim == 3 and gz > 0:
                if not g.touches_top:
                    a_out[:gz] = full[:gz]
                if not g.touches_bottom:
                    a_out[nz_i + gz:] = full[nz_i + gz:]
            self.ws.give(full)

    # ------------------------------------------------------------------
    # overlap helper: charge the inner-block compute before the wait
    # ------------------------------------------------------------------
    def charge_inner(self, weight: float) -> None:
        """Charge the inner-part update (Sec. 4.3.1 overlap): the region
        whose stencils need no halo data."""
        nz_w, ny_w, nx_w = self.geom.shape3d
        inner_y = max(0, self.extent.ny - 2)
        inner_z = max(1, self.extent.nz - (2 if self.geom.gz else 0))
        self.charge(weight, inner_z * inner_y * nx_w)

    def charge_outer(self, weight: float) -> None:
        """Charge the remaining (outer + halo) part of a full-array update."""
        nz_w, ny_w, nx_w = self.geom.shape3d
        inner_y = max(0, self.extent.ny - 2)
        inner_z = max(1, self.extent.nz - (2 if self.geom.gz else 0))
        self.charge(weight, nz_w * ny_w * nx_w - inner_z * inner_y * nx_w)


def _adaptation_update(
    ctx: CommAvoidingRank,
    psi: ModelState,
    base: ModelState,
    vd: VerticalDiagnostics,
    dt1: float,
    out: ModelState,
) -> ModelState:
    """One internal update ``base + dt1 * F(C + A)(psi)`` on block+halo."""
    tend = ctx.engine.adaptation(psi, vd)
    ctx.engine.apply_filter(tend)
    base.axpy_into(dt1, tend, out)
    ctx.engine.fill_physical_ghosts(out)
    return out


def ca_rank_program(
    comm: SimComm, cfg: DistributedConfig, initial: ModelState
) -> RankResult:
    """Algorithm 2 on one rank.  Same contract as
    :func:`repro.core.distributed.original_rank_program`."""
    if (
        cfg.executor == "taskgraph"
        and cfg.decomp.pz == 1
    ):
        from repro.core.taskgraph.ca import ca_rank_program_taskgraph

        return ca_rank_program_taskgraph(comm, cfg, initial)
    ctx = CommAvoidingRank(comm, cfg)
    params = cfg.params
    dt1, dt2, M = params.dt_adaptation, params.dt_advection, params.m_iterations
    W = cfg.weights
    state_fields = lambda s: [s.U, s.V, s.Phi, s.psa]  # noqa: E731

    # xi_pre is the *unsmoothed* advected state zeta_3 of the previous step
    xi_pre = ctx.pad_local(initial)
    ctx.fill_bc(xi_pre)
    first_step = True

    scr = StateRing(ctx.ws, ctx.geom.shape3d).scratch

    for _step in range(cfg.nsteps):
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

            # ---- M nonlinear iterations, 3 internal updates each ----
            for i in range(M):
                if cfg.ca_approximate_c and ctx.vd_stale is not None:
                    vd1 = ctx.vd_stale  # C(psi^{i-2}) + O(dt1): no collective
                else:
                    vd1 = ctx.vertical_fresh(psi)  # fresh (cold start / ablation)
                    ctx.vd_stale = vd1
                if i == 0 and overlap:
                    # the overlapped inner part was charged before the wait;
                    # charge only the remainder here
                    ctx.charge_outer(W.adaptation)
                else:
                    ctx.charge(W.adaptation, ctx._wpoints)
                eta1 = _adaptation_update(ctx, psi, psi, vd1, dt1, scr(psi))

                vd2 = ctx.vertical_fresh(eta1)
                ctx.vd_stale = vd2
                ctx.charge(W.adaptation, ctx._wpoints)
                eta2 = _adaptation_update(
                    ctx, eta1, psi, vd2, dt1, scr(psi, eta1)
                )

                mid = ModelState.midpoint_into(psi, eta2, scr(psi, eta2))
                vd3 = ctx.vertical_fresh(mid)
                ctx.vd_stale = vd3
                ctx.charge(W.adaptation, ctx._wpoints)
                psi = _adaptation_update(ctx, mid, psi, vd3, dt1, scr(psi, mid))
                ctx.charge(W.update, 3 * ctx._wpoints)

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
                ctx.charge_outer(W.advection)
            else:
                ctx.charge(W.advection, ctx._wpoints)
            tend = ctx.engine.apply_filter(ctx.engine.advection(psi, vd_frozen))
            zeta1 = psi.axpy_into(dt2, tend, scr(psi))
            ctx.engine.fill_physical_ghosts(zeta1)

            ctx.charge(W.advection, ctx._wpoints)
            tend = ctx.engine.apply_filter(ctx.engine.advection(zeta1, vd_frozen))
            zeta2 = psi.axpy_into(dt2, tend, scr(psi, zeta1))
            ctx.engine.fill_physical_ghosts(zeta2)

            mid = ModelState.midpoint_into(psi, zeta2, scr(psi, zeta2))
            ctx.charge(W.advection, ctx._wpoints)
            tend = ctx.engine.apply_filter(ctx.engine.advection(mid, vd_frozen))
            xi_pre = psi.axpy_into(dt2, tend, scr(psi, mid))
            ctx.engine.fill_physical_ghosts(xi_pre)
            ctx.charge(W.update, 3 * ctx._wpoints)
            first_step = False
        ctx.record_telemetry(_step + 1, xi_pre)

    # ---- final smoothing (Algorithm 2 line 30): one extra exchange ----
    # (span name distinct from the per-step pair so trace-based accounting
    # of "halo-exchange" spans per step reads exactly 2)
    with span("smoothing-exchange", "comm"):
        comm.set_phase(PHASE_STENCIL)
        ctx.halo.exchange(
            state_fields(xi_pre), wy=STRIP,
            wz=min(STRIP, ctx.geom.gz) or None,
        )
        comm.set_phase(None)
        ctx.fill_bc(xi_pre)
    ctx.charge(cfg.weights.smoothing, ctx._wpoints)
    out = ctx.kernels.smooth_state_into(
        xi_pre, params, scr(xi_pre), ctx.ws, ctx.smoothers
    )
    ctx.fill_bc(out)
    if cfg.forcing is not None:
        cfg.forcing(out, ctx.geom, dt2)

    return RankResult(
        state=ctx.strip_local(out),
        c_calls=ctx.c_calls,
        exchanges=ctx.exchanges,
        telemetry=ctx.telemetry_partials if cfg.telemetry else None,
        ws_counters=ctx.ws_counters(),
    )
