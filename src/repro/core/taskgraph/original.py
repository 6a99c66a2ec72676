"""Task-graph build of Algorithm 1 (the original distributed core).

The original schedule refreshes the full halo before *every* internal
update, and most refreshes are followed by a whole-array vertical
diagnostics call that reads the freshly exchanged rows — those windows
have no legally overlappable compute and stay synchronous (single tasks
calling the exact synchronous helpers).  Real overlap exists where the
next update uses the *frozen* C bundle of the advection phase: the last
adaptation refresh and the three advection refreshes each overlap the
inner rows (radius-1 stencil, so rows ``[gy+1, gy+ny_i-1)``) of the
following update, the midpoint (elementwise) runs on all interior rows
in-window, and the smoothing exchange overlaps the radius-2 inner rows of
the smoother.  Boundary rows run after the unpack.  The trajectory stays
bit-identical to :func:`repro.core.distributed.original_rank_program`
(pinned with ``==`` by the tests).

The caller guarantees ``full_x`` (one x block, local filter) and
``pz == 1`` (no z halos); ranks whose block is too small for a split
degenerate to a fully synchronous-shaped graph.
"""
from __future__ import annotations

import math

from repro.core import distributed as dist_mod
from repro.core.distributed import PHASE_STENCIL, RankResult
from repro.core.taskgraph import GraphExecutor, TaskGraph
from repro.core.rowslab import RowSlab
from repro.core.workspace import StateRing
from repro.obs.spans import span
from repro.state.variables import ModelState


def _fields(s: ModelState) -> list:
    return [s.U, s.V, s.Phi, s.psa]


def original_program_taskgraph(comm, cfg):
    """Algorithm 1 with the per-rank task-graph executor: returns
    ``advance(initial, nsteps)`` like the synchronous build."""
    gy = 2
    ctx = dist_mod.RankContext(comm, cfg, gy=gy, gz=0, gx=0)
    params = cfg.params
    dt1, dt2, M = params.dt_adaptation, params.dt_advection, params.m_iterations
    W = cfg.weights
    g = ctx.geom
    ny_i, ny_w = ctx.extent.ny, g.shape3d[1]
    pf = ctx.engine.polar_filter

    # static slab splits (per-rank geometry, built once)
    a, b = gy + 1, gy + ny_i - 1
    a_s, b_s = gy + 2, gy + ny_i - 2
    split = b - a >= 1 and b_s - a_s >= 1
    if split:
        tend_in = RowSlab(g, a, b, 1, pf)
        tend_bd = [RowSlab(g, 0, a, 1, pf), RowSlab(g, b, ny_w, 1, pf)]
        mid_in = RowSlab(g, gy, gy + ny_i, 0)
        mid_bd = [RowSlab(g, 0, gy, 0), RowSlab(g, gy + ny_i, ny_w, 0)]
        sm_in = RowSlab(g, a_s, b_s, 2)
        sm_bd = [RowSlab(g, 0, a_s, 2), RowSlab(g, b_s, ny_w, 2)]

    def charge_filter():
        if pf is not None and pf.active:
            ctx.charge(
                W.filter_fft * math.log2(g.grid.nx) * pf.n_filtered_rows,
                g.shape3d[0] * g.grid.nx,
            )

    def pin_pole_v(state):
        # The one interior row fill_bc touches: the south-pole interface
        # (V is stored on interfaces, so a south-touching block's *last
        # interior row* is the theta = pi interface where V vanishes).
        # The synchronous schedule re-imposes the zero inside the refresh
        # that follows every update, i.e. before any read; in-window inner
        # tasks read freshly updated arrays *before* their wait + fill_bc,
        # so the producer must pin the row early.  Bit-identical: fill_bc
        # zeroes the same row unconditionally (idempotent), and the row is
        # never packed into a halo message (no rank south of the pole).
        if g.touches_south:
            state.V[..., ny_w - 1 - gy, :] = 0.0

    ring = StateRing(ctx.ws, g.shape3d)

    def advance(initial: ModelState, nsteps: int) -> RankResult:
        ctx.restart()
        ex = GraphExecutor(comm, fuzz=cfg.taskgraph_fuzz_seed)
        psi = ctx.pad_local(initial)
        ctx.refresh_halos(psi)
        for step_no in range(nsteps):
            psi = step(ex, psi)
            ctx.record_telemetry(step_no + 1, psi)
        return ctx.result(psi, overlap=ex.metrics.as_dict())

    def step(ex: GraphExecutor, psi: ModelState) -> ModelState:
        with span("step", "step"):
            gr = TaskGraph()
            rt: dict = {}  # run-time handles (pending exchange, frozen vd)
            t_prev: int | None = None

            def dep():
                return () if t_prev is None else (t_prev,)

            # ---- adaptation: M iterations x 3 internal updates ----
            # Each refresh feeds a whole-array vertical call: synchronous.
            cur = psi
            for i in range(M):
                e1 = ring.scratch(cur)

                def adapt1(cur=cur, e1=e1):
                    vd = ctx.vertical_fresh(cur)
                    dist_mod._update(
                        cur, dt1, ctx.filtered_adaptation(cur, vd), ctx, e1
                    )

                t_prev = gr.add(f"adapt1:i{i}", adapt1, deps=dep())
                t_prev = gr.add(
                    f"refresh:eta1:i{i}",
                    lambda e1=e1: ctx.refresh_halos(e1),
                    deps=dep(),
                )

                e2 = ring.scratch(cur, e1)

                def adapt2(cur=cur, e1=e1, e2=e2):
                    vd = ctx.vertical_fresh(e1)
                    dist_mod._update(
                        cur, dt1, ctx.filtered_adaptation(e1, vd), ctx, e2
                    )

                t_prev = gr.add(f"adapt2:i{i}", adapt2, deps=dep())
                t_prev = gr.add(
                    f"refresh:eta2:i{i}",
                    lambda e2=e2: ctx.refresh_halos(e2),
                    deps=dep(),
                )

                md = ring.scratch(cur, e2)
                t_prev = gr.add(
                    f"mid:i{i}",
                    lambda cur=cur, e2=e2, md=md: ModelState.midpoint_into(
                        cur, e2, md
                    ),
                    deps=dep(),
                )
                nxt = ring.scratch(cur, md)

                def adapt3(cur=cur, md=md, out=nxt):
                    vd = ctx.vertical_fresh(md)
                    rt["vd"] = vd  # the advection phase freezes the last C
                    dist_mod._update(
                        cur, dt1, ctx.filtered_adaptation(md, vd), ctx, out
                    )

                t_prev = gr.add(f"adapt3:i{i}", adapt3, deps=dep())
                cur = nxt
                if i < M - 1:
                    t_prev = gr.add(
                        f"refresh:psi:i{i}",
                        lambda cur=cur: ctx.refresh_halos(cur),
                        deps=dep(),
                    )

            # ---- advection: overlapped chain on the frozen C bundle ----
            def make_post(name, state):
                def post(state=state):
                    comm.set_phase(PHASE_STENCIL)
                    pending = ctx.halo.start(_fields(state))
                    comm.set_phase(None)
                    rt["h"] = pending
                    return [r for (r, _f, _s, _n) in pending.recv_reqs]

                return gr.post(name, post, deps=dep())

            def make_wait(name, token, post_idx, state):
                def wait(state=state):
                    comm.set_phase(PHASE_STENCIL)
                    ctx.halo.finish(rt["h"], _fields(state))
                    comm.set_phase(None)
                    ctx.fill_bc(state)
                    ctx.exchanges += 1

                return gr.wait(name, token, wait, deps=(post_idx,))

            def advec_inner(src, base, out):
                pin_pole_v(src)
                ctx.charge(W.advection, tend_in.npoints)
                tend_in.update(
                    ctx.engine, "advection", src, base, rt["vd"], dt2, out
                )
                ctx.charge(W.update, tend_in.npoints)

            def advec_boundary(src, base, out):
                ctx.charge(W.advection, ctx._wpoints - tend_in.npoints)
                charge_filter()
                for sl in tend_bd:
                    sl.update(
                        ctx.engine, "advection", src, base, rt["vd"], dt2, out
                    )
                ctx.charge(W.update, ctx._wpoints - tend_in.npoints)
                pin_pole_v(out)

            def advec_full(src, base, out):
                dist_mod._update(
                    base, dt2, ctx.filtered_advection(src, rt["vd"]), ctx, out
                )

            if not split:
                t_prev = gr.add(
                    f"refresh:psi:i{M - 1}",
                    lambda cur=cur: ctx.refresh_halos(cur),
                    deps=dep(),
                )
                z1 = ring.scratch(cur)
                t_prev = gr.add(
                    "advec1",
                    lambda cur=cur, z1=z1: advec_full(cur, cur, z1),
                    deps=dep(),
                )
                t_prev = gr.add(
                    "refresh:zeta1", lambda z1=z1: ctx.refresh_halos(z1),
                    deps=dep(),
                )
                z2 = ring.scratch(cur, z1)
                t_prev = gr.add(
                    "advec2",
                    lambda cur=cur, z1=z1, z2=z2: advec_full(z1, cur, z2),
                    deps=dep(),
                )
                t_prev = gr.add(
                    "refresh:zeta2", lambda z2=z2: ctx.refresh_halos(z2),
                    deps=dep(),
                )
                md2 = ring.scratch(cur, z2)
                t_prev = gr.add(
                    "mid:advect",
                    lambda cur=cur, z2=z2, md2=md2: ModelState.midpoint_into(
                        cur, z2, md2
                    ),
                    deps=dep(),
                )
                xi = ring.scratch(cur, md2)
                t_prev = gr.add(
                    "advec3",
                    lambda cur=cur, md2=md2, xi=xi: advec_full(md2, cur, xi),
                    deps=dep(),
                )
                t_prev = gr.add(
                    "refresh:xi", lambda xi=xi: ctx.refresh_halos(xi),
                    deps=dep(),
                )
                out_s = ring.scratch(xi)

                def smooth_full(xi=xi, out_s=out_s):
                    ctx.charge(W.smoothing, ctx._wpoints)
                    ctx.kernels.smooth_state_into(
                        xi, params, out_s, ctx.ws, ctx.smoothers
                    )

                t_prev = gr.add("smooth", smooth_full, deps=dep())
                psi = out_s
            else:
                # last adaptation refresh || zeta1 inner rows
                p, tok = make_post("post-halo:psi", cur)
                z1 = ring.scratch(cur)
                gr.add(
                    "advec1:inner",
                    lambda cur=cur, z1=z1: advec_inner(cur, cur, z1),
                    deps=dep(),
                )
                t_prev = make_wait("wait-halo:psi", tok, p, cur)
                t_prev = gr.add(
                    "advec1:boundary",
                    lambda cur=cur, z1=z1: advec_boundary(cur, cur, z1),
                    deps=dep(),
                )

                # zeta1 refresh || zeta2 inner rows
                p, tok = make_post("post-halo:zeta1", z1)
                z2 = ring.scratch(cur, z1)
                gr.add(
                    "advec2:inner",
                    lambda cur=cur, z1=z1, z2=z2: advec_inner(z1, cur, z2),
                    deps=dep(),
                )
                t_prev = make_wait("wait-halo:zeta1", tok, p, z1)
                t_prev = gr.add(
                    "advec2:boundary",
                    lambda cur=cur, z1=z1, z2=z2: advec_boundary(z1, cur, z2),
                    deps=dep(),
                )

                # zeta2 refresh || midpoint (all interior rows) + xi inner
                p, tok = make_post("post-halo:zeta2", z2)
                md2 = ring.scratch(cur, z2)
                gr.add(
                    "mid:inner",
                    lambda cur=cur, z2=z2, md2=md2: mid_in.midpoint(
                        cur, z2, md2
                    ),
                    deps=dep(),
                )
                xi = ring.scratch(cur, md2)
                gr.add(
                    "advec3:inner",
                    lambda cur=cur, md2=md2, xi=xi: advec_inner(md2, cur, xi),
                    deps=dep(),
                )
                t_prev = make_wait("wait-halo:zeta2", tok, p, z2)

                def mid_boundary(cur=cur, z2=z2, md2=md2):
                    for sl in mid_bd:
                        sl.midpoint(cur, z2, md2)

                t_prev = gr.add("mid:boundary", mid_boundary, deps=dep())
                t_prev = gr.add(
                    "advec3:boundary",
                    lambda cur=cur, md2=md2, xi=xi: advec_boundary(
                        md2, cur, xi
                    ),
                    deps=dep(),
                )

                # xi refresh || smoothing inner rows (radius 2)
                p, tok = make_post("post-halo:xi", xi)
                out_s = ring.scratch(xi)

                def smooth_inner(xi=xi, out_s=out_s):
                    ctx.charge(W.smoothing, sm_in.npoints)
                    sm_in.smooth(ctx.kernels, ctx.ws, ctx.smoothers, xi, out_s)

                gr.add("smooth:inner", smooth_inner, deps=dep())
                t_prev = make_wait("wait-halo:xi", tok, p, xi)

                def smooth_boundary(xi=xi, out_s=out_s):
                    ctx.charge(W.smoothing, ctx._wpoints - sm_in.npoints)
                    for sl in sm_bd:
                        sl.smooth(
                            ctx.kernels, ctx.ws, ctx.smoothers, xi, out_s
                        )

                t_prev = gr.add("smooth:boundary", smooth_boundary, deps=dep())
                psi = out_s

            if cfg.forcing is not None:
                t_prev = gr.add(
                    "forcing",
                    lambda psi=psi: cfg.forcing(psi, ctx.geom, dt2),
                    deps=dep(),
                )
            gr.add(
                "refresh:final", lambda psi=psi: ctx.refresh_halos(psi),
                deps=dep(),
            )
            ex.run(gr)
        return psi

    return advance
