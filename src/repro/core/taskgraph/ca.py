"""Task-graph build of Algorithm 2 (the communication-avoiding core).

Each step becomes one DAG: the wide adaptation exchange and the stale-C
bundle are *post* tasks, the former smoothing ``S1`` and the inner-block
rows of the first internal update run as compute tasks while those
messages are in flight, and the *wait* tasks apply the completions in the
synchronous program's order before the later smoothing ``S2`` and the
boundary rows run.  The advection exchange overlaps the inner rows of the
first ``zeta`` update the same way.  All other operations are single
tasks that call the exact synchronous helpers on the same row windows
(:func:`repro.core.comm_avoiding.update_windows`: every update targets
only the rows that can still be valid), so the trajectory *and* the
logical clocks stay bit-identical to
:func:`repro.core.comm_avoiding.ca_rank_program` (the tests pin this with
``==``).  The split passes are row slabs of the first update's window —
views of the same working arrays the whole-window passes use, so they run
the same fused kernels.

Inner-row eligibility (window 1): the first internal update may start
before the unpack only when its inputs cannot change at the unpack —
``psi`` rows ``[gy+STRIP, gy+ny_i-STRIP)`` are final after ``S1`` (``S2``
touches only the strips and halo rows) and the stale C bundle is reused
(``ca_approximate_c``) so no fresh vertical collective is needed.  The
update's radius-1 stencil then yields target rows
``[gy+STRIP+1, gy+ny_i-STRIP-1)``.
"""
from __future__ import annotations

from repro.core import comm_avoiding as ca_mod
from repro.core.distributed import PHASE_STENCIL, RankResult
from repro.core.taskgraph import GraphExecutor, TaskGraph
from repro.obs.spans import span
from repro.state.variables import ModelState


def _fields(s: ModelState) -> list:
    return [s.U, s.V, s.Phi, s.psa]


def ca_program_taskgraph(comm, cfg):
    """Algorithm 2 with the per-rank task-graph executor: returns
    ``advance(initial, nsteps)`` like the synchronous build.

    Caller (``ca_program``) guarantees ``pz == 1`` (no z halos), so
    ``gz == 0``.
    """
    ctx = ca_mod.CommAvoidingRank(comm, cfg)
    params = cfg.params
    dt1, dt2, M = params.dt_adaptation, params.dt_advection, params.m_iterations
    W = cfg.weights
    gy, ny_i = ctx.geom.gy, ctx.extent.ny
    strip = ca_mod.STRIP
    overlap = cfg.ca_overlap
    A, L = ctx.adapt, ctx.advec

    def split(window, a, b):
        """(inner slab ``[a, b)``, the rest of ``window``), or ``None``."""
        if b - a < 1:
            return None
        slab = ctx.engine.slab
        return slab(a, b), [slab(window.lo, a), slab(b, window.hi)]

    # static slab splits of the two overlapped updates (built once)
    adapt_slabs = split(A[0], gy + strip + 1, gy + ny_i - strip - 1)
    advec_slabs = split(L[0], gy + 1, gy + ny_i - 1)
    ring = ctx.state_ring()

    def advance(initial: ModelState, nsteps: int) -> RankResult:
        ctx.restart()
        ex = GraphExecutor(comm, fuzz=cfg.taskgraph_fuzz_seed)
        xi_pre = ctx.pad_local(initial)
        ctx.fill_bc(xi_pre)
        for k in range(nsteps):
            xi_pre = step(ex, xi_pre, first_step=k == 0)
            ctx.record_telemetry(k + 1, xi_pre)
        out = ca_mod.final_smoothing(ctx, xi_pre, ring.scratch(xi_pre))
        return ctx.result(out, overlap=ex.metrics.as_dict())

    def step(ex: GraphExecutor, xi_pre: ModelState, first_step: bool):
        with span("step", "step"):
            gr = TaskGraph()
            rt: dict = {}  # run-time handles (pending exchanges)

            pre = ring.scratch(xi_pre)
            t_prev = gr.add(
                "copy-pre", lambda s=xi_pre, d=pre: s.copy_into(d)
            )
            smoothed = None if first_step else ring.scratch(pre)
            have_bundle = ctx.vd_stale is not None

            # ---- window 1: wide state halo + stale C bundle ----
            def post_halo1():
                comm.set_phase(PHASE_STENCIL)
                pending = ctx.halo.start(_fields(pre))
                comm.set_phase(None)
                rt["h1"] = pending
                return [r for (r, _f, _s, _n) in pending.recv_reqs]

            p1, tok1 = gr.post("post-halo:adapt", post_halo1, deps=(t_prev,))
            pb1 = tokb1 = None
            if have_bundle:
                def post_bundle1():
                    rt["b1"] = ctx.start_bundle_exchange(ctx.vd_stale, wy=gy)
                    return [r for (r, _f, _s) in rt["b1"][1]]

                pb1, tokb1 = gr.post(
                    "post-bundle:adapt", post_bundle1, deps=(t_prev,)
                )

            if smoothed is not None:
                t_s1 = gr.add(
                    "smooth:former",
                    lambda: ctx.former_smoothing(pre, out=smoothed),
                    deps=(t_prev,),
                )
            else:
                t_s1 = t_prev
            psi = pre if smoothed is None else smoothed

            # eta1 is written before S2 reads all of pre, so exclude pre
            eta1 = (
                ring.scratch(smoothed, pre)
                if smoothed is not None
                else ring.scratch(pre)
            )
            inner1 = (
                overlap
                and adapt_slabs is not None
                and smoothed is not None
                and have_bundle
                and cfg.ca_approximate_c
                and cfg.forcing is None
            )
            if inner1:
                def adapt1_inner():
                    ctx.charge_inner(W.adaptation)
                    adapt_slabs[0].update(
                        ctx.engine, "adaptation", psi, psi, ctx.vd_stale,
                        dt1, eta1,
                    )

                gr.add("adapt1:inner", adapt1_inner, deps=(t_s1,))
            elif overlap:
                gr.add(
                    "charge:inner-adapt",
                    lambda: ctx.charge_inner(W.adaptation),
                    deps=(t_s1,),
                )

            def wait_halo1():
                comm.set_phase(PHASE_STENCIL)
                ctx.halo.finish(rt["h1"], _fields(pre))
                comm.set_phase(None)
                ctx.exchanges += 1

            t_prev = gr.wait("wait-halo:adapt", tok1, wait_halo1, deps=(p1,))
            if have_bundle:
                t_prev = gr.wait(
                    "wait-bundle:adapt",
                    tokb1,
                    lambda: ctx.finish_bundle_exchange(
                        ctx.vd_stale, gy, rt["b1"]
                    ),
                    deps=(pb1, t_prev),
                )
            t_prev = gr.add(
                "fill-bc:pre", lambda: ctx.fill_bc(pre), deps=(t_prev,)
            )

            if smoothed is not None:
                def smooth_later():
                    ctx.later_smoothing(smoothed, pre)
                    ctx.fill_bc(smoothed)
                    if cfg.forcing is not None:
                        cfg.forcing(smoothed, ctx.geom, dt2)
                        ctx.fill_bc(smoothed)

                t_prev = gr.add("smooth:later", smooth_later, deps=(t_prev,))

            # ---- M nonlinear iterations, 3 internal updates each ----
            cur = psi
            for i in range(M):
                w1, w2, w3 = A[3 * i: 3 * i + 3]
                e1 = eta1 if i == 0 else ring.scratch(cur)
                approx = cfg.ca_approximate_c and (have_bundle or i > 0)
                if i == 0 and inner1:
                    def adapt1_boundary(cur=cur, e1=e1, w1=w1):
                        ctx.charge_outer(W.adaptation, w1)
                        ctx.update(
                            "adaptation", adapt_slabs[1], cur, cur,
                            ctx.vd_stale, dt1, e1,
                        )

                    t_prev = gr.add(
                        "adapt1:boundary", adapt1_boundary, deps=(t_prev,)
                    )
                else:
                    def adapt1_full(cur=cur, e1=e1, i=i, approx=approx, w1=w1):
                        if not approx:
                            ctx.vd_stale = ctx.vertical_fresh(cur, w1)
                        if i == 0 and overlap:
                            ctx.charge_outer(W.adaptation, w1)
                        else:
                            ctx.charge(W.adaptation, w1.npoints)
                        ctx.update(
                            "adaptation", [w1], cur, cur, ctx.vd_stale,
                            dt1, e1,
                        )

                    t_prev = gr.add(
                        f"adapt1:i{i}", adapt1_full, deps=(t_prev,)
                    )

                e2 = ring.scratch(cur, e1)

                def adapt2(cur=cur, e1=e1, e2=e2, w2=w2):
                    ctx.vd_stale = ctx.vertical_fresh(e1, w2)
                    ctx.charge(W.adaptation, w2.npoints)
                    ctx.update(
                        "adaptation", [w2], e1, cur, ctx.vd_stale, dt1, e2
                    )

                t_prev = gr.add(f"adapt2:i{i}", adapt2, deps=(t_prev,))

                md = ring.scratch(cur, e2)
                t_prev = gr.add(
                    f"mid:i{i}",
                    lambda cur=cur, e2=e2, md=md, w2=w2: ctx.midpoint(
                        w2, cur, e2, md
                    ),
                    deps=(t_prev,),
                )
                nxt = ring.scratch(cur, md)

                def adapt3(cur=cur, md=md, out=nxt, ws=(w1, w2, w3)):
                    ctx.vd_stale = ctx.vertical_fresh(md, ws[2])
                    ctx.charge(W.adaptation, ws[2].npoints)
                    ctx.update(
                        "adaptation", [ws[2]], md, cur, ctx.vd_stale, dt1, out
                    )
                    ctx.charge_update(ws)

                t_prev = gr.add(f"adapt3:i{i}", adapt3, deps=(t_prev,))
                cur = nxt

            # ---- window 2: 3-wide advection halo + frozen C bundle ----
            def post_halo2(cur=cur):
                comm.set_phase(PHASE_STENCIL)
                pending = ctx.halo.start(_fields(cur), wy=3, wz=None)
                comm.set_phase(None)
                rt["h2"] = pending
                return [r for (r, _f, _s, _n) in pending.recv_reqs]

            p2, tok2 = gr.post("post-halo:advect", post_halo2, deps=(t_prev,))

            def post_bundle2():
                rt["b2"] = ctx.start_bundle_exchange(ctx.vd_stale, wy=3)
                return [r for (r, _f, _s) in rt["b2"][1]]

            pb2, tokb2 = gr.post(
                "post-bundle:advect", post_bundle2, deps=(t_prev,)
            )

            z1 = ring.scratch(cur)
            inner2 = overlap and advec_slabs is not None
            if inner2:
                def advec1_inner(cur=cur, z1=z1):
                    ctx.charge_inner(W.advection)
                    advec_slabs[0].update(
                        ctx.engine, "advection", cur, cur, ctx.vd_stale,
                        dt2, z1,
                    )

                gr.add("advec1:inner", advec1_inner, deps=(t_prev,))
            elif overlap:
                gr.add(
                    "charge:inner-advec",
                    lambda: ctx.charge_inner(W.advection),
                    deps=(t_prev,),
                )

            def wait_halo2(cur=cur):
                comm.set_phase(PHASE_STENCIL)
                ctx.halo.finish(rt["h2"], _fields(cur))
                comm.set_phase(None)
                ctx.exchanges += 1

            t_prev = gr.wait("wait-halo:advect", tok2, wait_halo2, deps=(p2,))
            t_prev = gr.wait(
                "wait-bundle:advect",
                tokb2,
                lambda: ctx.finish_bundle_exchange(ctx.vd_stale, 3, rt["b2"]),
                deps=(pb2, t_prev),
            )
            t_prev = gr.add(
                "fill-bc:psi",
                lambda cur=cur: ctx.fill_bc(cur),
                deps=(t_prev,),
            )

            def advec1(cur=cur, z1=z1):
                if overlap:
                    ctx.charge_outer(W.advection, L[0])
                else:
                    ctx.charge(W.advection, L[0].npoints)
                ctx.update(
                    "advection", advec_slabs[1] if inner2 else [L[0]],
                    cur, cur, ctx.vd_stale, dt2, z1,
                )

            t_prev = gr.add(
                "advec1:boundary" if inner2 else "advec1", advec1,
                deps=(t_prev,),
            )

            z2 = ring.scratch(cur, z1)

            def advec2(cur=cur, z1=z1, z2=z2):
                ctx.charge(W.advection, L[1].npoints)
                ctx.update("advection", [L[1]], z1, cur, ctx.vd_stale, dt2, z2)

            t_prev = gr.add("advec2", advec2, deps=(t_prev,))

            md2 = ring.scratch(cur, z2)
            t_prev = gr.add(
                "mid:advect",
                lambda cur=cur, z2=z2, md2=md2: ctx.midpoint(
                    L[1], cur, z2, md2
                ),
                deps=(t_prev,),
            )
            xi_new = ring.scratch(cur, md2)

            def advec3(cur=cur, md2=md2, out=xi_new):
                ctx.charge(W.advection, L[2].npoints)
                ctx.update(
                    "advection", [L[2]], md2, cur, ctx.vd_stale, dt2, out
                )
                ctx.charge_update(L)

            gr.add("advec3", advec3, deps=(t_prev,))

            ex.run(gr)
        return xi_new

    return advance
