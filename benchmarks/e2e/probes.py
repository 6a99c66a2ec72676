"""Per-layer probes of the traced pass.

Each probe wraps spans around calls into one layer's *public* functions,
driven at the workload's own rank-0 working shape, decomposition and field
list, and returns that layer's metrics.  A layer that does not run on a
workload reports 0 for every metric (its contribution there), so every
workload emits the same metric names.  Per-step call counts are exact:
they come from ``repro.core.operator_form.step_schedule`` and from the
marginal ``StepDiagnostics`` of the traced long and short calls.

The traced closed loop gets 30 % of ``--seconds``; every variant of the
core (other executor, observed, one rank, unchunked) gets 15 %; the
micro-probes are sized by ``common.Sizing``.
"""
from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from spans import SpanRecorder
from loop import Case, Pairs, Tally, run_pairs

MAIN_SHARE = 0.30
VARIANT_SHARE = 0.15
TAG_PING = 50_000


# ---------------------------------------------------------------------------
# the rank program: kernels, halo, shm and collectives at the working shape
# ---------------------------------------------------------------------------
def rank_probe(comm, wl, cfg, state0, sizing) -> dict:
    """Runs on every rank of the benchmark-owned launch; returns this
    rank's spans and the shape facts the estimates need."""
    from repro.core.comm_avoiding import CommAvoidingRank
    from repro.core.distributed import RankContext
    from repro.core.integrator import SERIAL_GHOST_Y
    from repro.core.workspace import StateRing
    from repro.operators.smoothing import smooth_state_into

    rec = SpanRecorder(
        wl.name, lane=f"rank{comm.rank}", id_base=(comm.rank + 1) << 32
    )
    ca = wl.algorithm == "ca"
    ctx = (
        CommAvoidingRank(comm, cfg)
        if ca
        # the original algorithm's working arrays on a y-only split carry
        # the smoother radius in y, like the serial core's, and no other ghosts
        else RankContext(comm, cfg, gy=SERIAL_GHOST_Y, gz=0, gx=0)
    )
    gy = ctx.geom.gy
    psi = ctx.pad_local(state0)
    fields = [psi.U, psi.V, psi.Phi, psi.psa]
    ctx.halo.exchange(fields)
    ctx.fill_bc(psi)
    ring = StateRing(ctx.ws, ctx.geom.shape3d)

    def smooth() -> None:
        out = ring.scratch(psi)
        if ca:
            ctx.later_smoothing(ctx.former_smoothing(psi, out=out), psi)
        elif (
            ctx.kernels is None
            or ctx.kernels.smooth_state_into(
                psi, cfg.params, out, ctx.ws, ctx.smoothers
            ) is None
        ):
            smooth_state_into(psi, cfg.params, out, ctx.ws, ctx.smoothers)

    vd = None
    for _ in range(sizing.kernel_reps):
        with rec.span("kernels.vertical", "kernels"):
            vd = ctx.vertical_fresh(psi)
        with rec.span("kernels.adaptation", "kernels"):
            tend = ctx.engine.adaptation(psi, vd)
        with rec.span("kernels.filter", "kernels"):
            ctx.engine.apply_filter(tend)
        with rec.span("kernels.advection", "kernels"):
            ctx.engine.advection(psi, vd)
        with rec.span("kernels.smoothing", "kernels"):
            smooth()

    if comm.size > 1:
        def ca_exchange(wy: int) -> None:
            # the core's order: state halos and the stale C bundle in flight
            # together, then the boundary fill
            pending = ctx.halo.start(fields, wy=wy)
            bundle = ctx.start_bundle_exchange(vd, wy=wy)
            ctx.halo.finish(pending, fields)
            ctx.finish_bundle_exchange(vd, wy, bundle)
            ctx.fill_bc(psi)

        comm.barrier()
        for _ in range(sizing.halo_reps):
            if ca:
                with rec.span("halo.exchange.wide", "halo"):
                    ca_exchange(gy)
                with rec.span("halo.exchange.thin", "halo"):
                    ca_exchange(3)
            else:
                with rec.span("halo.exchange", "halo"):
                    ctx.refresh_halos(psi)

        for name, nbytes, reps in (
            ("shm.pingpong.1k", 1 << 10, sizing.latency_reps),
            ("shm.pingpong.1m", 1 << 20, sizing.bandwidth_reps),
        ):
            buf = np.zeros(nbytes // 8)
            comm.barrier()
            for _ in range(reps):
                if comm.rank == 0:
                    with rec.span(name, "shm"):
                        comm.send(1, buf, tag=TAG_PING)
                        comm.recv(1, tag=TAG_PING + 1)
                elif comm.rank == 1:
                    comm.recv(0, tag=TAG_PING)
                    comm.send(0, buf, tag=TAG_PING + 1)

        # the z-collective's payload: the C operator's two stacked
        # per-level contributions on this rank's working rows
        nz_w, ny_w, nx_w = ctx.geom.shape3d
        stack = np.zeros((2, ctx.extent.nz, ny_w, nx_w))
        comm.barrier()
        for _ in range(sizing.halo_reps):
            with rec.span("collectives.allgather", "collectives"):
                comm.allgather(stack)

    return {
        "spans": rec.spans,
        "working_rows": ctx.geom.shape3d[1],
        "interior": ctx.extent.shape3d,
    }


def rank_layers(rec, case: Case, main: Pairs, sizing) -> dict:
    """kernels, halo, shm and collectives metrics from one launch of
    :func:`rank_probe` on the workload's own decomposition."""
    from repro.core.distributed import DistributedConfig
    from repro.core.operator_form import step_schedule
    from repro.simmpi import run_spmd
    from repro.simmpi.transport import TransportConfig

    wl, config = case.wl, case.core.config
    cfg = DistributedConfig(
        grid=case.grid, decomp=config.resolve_decomposition(),
        params=config.params, sigma=config.sigma, kernel_tier="fused",
    )
    resilient = wl.chunk is not None  # run_resilient arms both by default
    with rec.span("probe.launch", "launcher") as launch:
        result = run_spmd(
            wl.nprocs, rank_probe, wl, cfg, case.state0, sizing,
            backend="process", verify_checksums=resilient,
            transport=TransportConfig() if resilient else None,
        )
    for r in result.results:
        rec.absorb(r["spans"], launch.id)
    facts = result.results[0]
    ms = lambda name: rec.median_ms(name, "rank0")  # noqa: E731

    schedule = step_schedule(
        "ca" if wl.algorithm == "ca" else "original", "yz",
        config.params.m_iterations,
    )
    kernels = {
        "vertical": ms("kernels.vertical"),
        "adaptation": ms("kernels.adaptation"),
        "advection": ms("kernels.advection"),
        "smoothing": ms("kernels.smoothing"),
        "filter": ms("kernels.filter"),
    }
    calls = {
        "vertical": main.per_step("c_calls"),
        "adaptation": schedule.count("A"),
        "advection": schedule.count("L"),
        "smoothing": schedule.count("S"),
        "filter": schedule.count("F"),
    }
    kernel_step = sum(calls[k] * kernels[k] for k in kernels)
    nz, ny, nx = facts["interior"]
    out = {f"kernels.{k}_ms": v for k, v in kernels.items()}
    out.update({
        "kernels.step_ms_est": kernel_step,
        "kernels.mpoints_per_s": nz * ny * nx / (kernel_step * 1e3),
        "kernels.redundant_frac": (facts["working_rows"] - ny) / ny,
        "core.c_calls_per_step": calls["vertical"],
        "halo.exchanges_per_step": main.per_step("exchanges"),
        "halo.msgs_per_step": main.per_step("p2p_messages"),
        "halo.bytes_per_step": main.per_step("p2p_bytes"),
        "collectives.per_step": main.per_step("collective_ops"),
    })
    if wl.nprocs == 1:
        out.update({
            "halo.exchange_us": 0.0, "halo.step_ms_est": 0.0,
            "shm.latency_us_1k": 0.0, "shm.bandwidth_mb_s_1m": 0.0,
            "collectives.allgather_us": 0.0,
        })
        return out
    if wl.algorithm == "ca":  # one wide and one thin exchange per step
        halo_step = ms("halo.exchange.wide") + ms("halo.exchange.thin")
    else:
        halo_step = out["halo.exchanges_per_step"] * ms("halo.exchange")
    out.update({
        "halo.step_ms_est": halo_step,
        "halo.exchange_us": halo_step / out["halo.exchanges_per_step"] * 1e3,
        # one way = half a round trip
        "shm.latency_us_1k": ms("shm.pingpong.1k") / 2 * 1e3,
        "shm.bandwidth_mb_s_1m": (1 << 20) / 1e6
        / (ms("shm.pingpong.1m") / 2 / 1e3),
        "collectives.allgather_us": ms("collectives.allgather") * 1e3,
    })
    return out


# ---------------------------------------------------------------------------
# parent-side layers
# ---------------------------------------------------------------------------
def _noop(comm) -> None:
    return None


def launcher_layer(rec, case: Case, sizing) -> dict:
    from repro.simmpi import run_spmd

    wl = case.wl
    if wl.nprocs == 1:
        return {"launcher.spawn_join_ms": 0.0, "launcher.launches_per_run": 0}
    for _ in range(sizing.launch_reps):
        with rec.span("launcher.spawn_join", "launcher"):
            run_spmd(wl.nprocs, _noop, backend="process")
    return {
        "launcher.spawn_join_ms": rec.median_ms("launcher.spawn_join"),
        # one launch per chunk under run_resilient, else one per run
        "launcher.launches_per_run":
            wl.steps_long // wl.chunk if wl.chunk else 1,
    }


def decomposition_layer(rec, case: Case, sizing) -> dict:
    if case.wl.nprocs == 1:
        return {"decomposition.scatter_gather_ms": 0.0}
    decomp = case.core.config.resolve_decomposition()
    arrays = list(case.state0.fields().values())
    for _ in range(sizing.launch_reps):
        with rec.span("decomposition.scatter_gather", "decomposition"):
            for a in arrays:
                decomp.gather(
                    [decomp.scatter(a, r) for r in range(decomp.nranks)]
                )
    return {
        "decomposition.scatter_gather_ms":
            rec.median_ms("decomposition.scatter_gather"),
    }


def io_layer(rec, case: Case, sizing) -> dict:
    from repro.state.io import load_state, save_state

    if case.wl.chunk is None:
        return {
            "io.checkpoint_write_ms": 0.0, "io.checkpoint_read_ms": 0.0,
            "io.checkpoint_bytes": 0,
        }
    path = case.ckpt_dir / "probe.npz"
    case.ckpt_dir.mkdir(parents=True, exist_ok=True)
    try:
        for _ in range(sizing.io_reps):
            with rec.span("io.checkpoint_write", "io"):
                save_state(path, case.state0, step=0)
            with rec.span("io.checkpoint_read", "io"):
                load_state(path)
        nbytes = path.stat().st_size
    finally:
        case.cleanup()
    return {
        "io.checkpoint_write_ms": rec.median_ms("io.checkpoint_write"),
        "io.checkpoint_read_ms": rec.median_ms("io.checkpoint_read"),
        "io.checkpoint_bytes": nbytes,
    }


def cold_build_s(rec, case: Case) -> float:
    """Seconds a fresh interpreter needs to build and load the compiled
    kernels into an empty ``REPRO_KERNELS_CACHE`` (0 when the fused tier
    resolves to a backend that compiles nothing ahead of time)."""
    from repro.kernels import resolve_backend

    if resolve_backend("auto") != "c":
        return 0.0
    cache = case.out / f"cold-cache-{os.getpid()}"
    code = (
        "import time; t = time.perf_counter();"
        "from repro.kernels.cbackend import load_library; load_library();"
        "print(time.perf_counter() - t)"
    )
    try:
        with rec.span("kernels.cold_build", "kernels"):
            done = subprocess.run(
                [sys.executable, "-c", code], check=True, text=True,
                capture_output=True, timeout=150,
                env={**os.environ, "REPRO_KERNELS_CACHE": str(cache)},
            )
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# variants of the core, timed like the workload itself
# ---------------------------------------------------------------------------
def variant(rec, base: Case, tally: Tally, seconds, sizing, label,
            wl=None, **core_extra) -> Pairs | None:
    """Step time of the workload's core with one thing changed.  None when
    this repo no longer has the option that selects the variant."""
    try:
        case = Case(
            wl or base.wl, base.grid, base.state0, base.out, **core_extra
        )
    except (TypeError, ValueError):
        return None
    case.warm_up()
    with rec.span(label, "core"):
        pairs = run_pairs(
            case, tally, seconds * VARIANT_SHARE, 1,
            1 if sizing.pairs else None, rec, label,
        )
    return pairs if pairs.longs else None


def all_layers(rec, case: Case, tally: Tally, seconds, sizing) -> dict:
    wl = case.wl
    cpu0 = _cpu_seconds(wl)
    with rec.span("e2e", "core"):
        main = run_pairs(
            case, tally, seconds * MAIN_SHARE, sizing.min_pairs,
            sizing.pairs, rec, "run",
        )
    cpu = _cpu_seconds(wl) - cpu0
    wall = sum(main.shorts) + sum(main.longs)
    step_ms = main.step_ms
    m = {"core.step_ms": step_ms, "core.rank_cpu_util": cpu / (wall * wl.nprocs)}

    m.update(rank_layers(rec, case, main, sizing))
    m["kernels.cold_build_s"] = cold_build_s(rec, case)
    m.update(launcher_layer(rec, case, sizing))
    m.update(decomposition_layer(rec, case, sizing))
    m.update(io_layer(rec, case, sizing))

    residual = step_ms - m["kernels.step_ms_est"] - m["halo.step_ms_est"]
    m["core.residual_ms"] = residual
    m["core.residual_frac"] = residual / step_ms

    # resilience: the same core, chunked vs plain
    m["resilience.chunk_overhead_ms"] = m["resilience.unattributed_ms"] = 0.0
    if wl.chunk is not None:
        plain = variant(rec, case, tally, seconds, sizing, "plain",
                        wl=replace(wl, chunk=None))
        if plain is not None:
            overhead = wl.chunk * (step_ms - plain.step_ms)
            m["resilience.chunk_overhead_ms"] = overhead
            m["resilience.unattributed_ms"] = (
                overhead - m["launcher.spawn_join_ms"]
                - m["io.checkpoint_write_ms"]
                - m["decomposition.scatter_gather_ms"]
            )

    # taskgraph: the other executor, while the option exists
    m["taskgraph.step_ratio"] = m["taskgraph.overlap_ms_per_step"] = 0.0
    if wl.nprocs > 1:
        tg = variant(rec, case, tally, seconds, sizing, "taskgraph",
                     executor="taskgraph")
        if tg is not None:
            m["taskgraph.step_ratio"] = tg.step_ms / step_ms
            m["taskgraph.overlap_ms_per_step"] = (
                tg.per_step("overlap_seconds") / wl.nprocs * 1e3
            )

    # core: what CA's redundant wide-halo work costs with no neighbour
    m["core.ca1_over_orig1"] = 0.0
    if wl.algorithm == "ca":
        one = replace(wl, nprocs=1, chunk=None)
        ca1 = variant(rec, case, tally, seconds, sizing, "ca@1", wl=one)
        orig1 = variant(rec, case, tally, seconds, sizing, "orig@1",
                        wl=replace(one, algorithm="original-yz"))
        if ca1 is not None and orig1 is not None:
            m["core.ca1_over_orig1"] = ca1.step_ms / orig1.step_ms

    # model: the logical clock's prediction of the same step
    logical = main.per_step("makespan") * 1e3
    m["model.logical_step_ms"] = logical
    m["model.logical_comm_frac"] = main.diag_long.comm_fraction
    m["model.measured_over_logical"] = step_ms / logical if logical else 0.0

    # obs: the same core, observed
    m["obs.overhead_frac"] = m["obs.spans_per_step"] = 0.0
    obs = variant(rec, case, tally, seconds, sizing, "observed", observe=True)
    if obs is not None:
        tracer = obs.case.core.observation.tracer
        calls = len(obs.longs) + 1  # + the warm-up
        steps = calls * wl.steps_short + len(obs.longs) * wl.steps_long
        m["obs.overhead_frac"] = obs.step_ms / step_ms - 1.0
        m["obs.spans_per_step"] = len(tracer.spans) / steps

    # bench: what this recorder's spans cost the traced pass so far
    now = time.perf_counter()
    traced = now - min(s.start for s in rec.spans)
    m["bench.trace_overhead_frac"] = len(rec.spans) * rec.span_cost() / traced
    return m


def _cpu_seconds(wl) -> float:
    """CPU seconds of the processes that execute model steps: the reaped
    rank processes, or this process for the one-rank core."""
    who = resource.RUSAGE_CHILDREN if wl.nprocs > 1 else resource.RUSAGE_SELF
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime

