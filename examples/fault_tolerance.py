#!/usr/bin/env python
"""Fault injection and checkpoint/restart recovery, end to end.

Part 1 — resilience: run the communication-avoiding core with a fault
plan that crashes rank 1 partway through the integration.  The resilient
driver checkpoints after every chunk, detects the crash, rolls back to
the last checkpoint and re-runs the chunk; the recovered run ends
bit-identical to a fault-free run of the same chunked driver.

Part 2 — perturbed schedules: run one step under a degraded-network
window plus a straggler rank, with tracing on, and render the Gantt
timeline next to the clean schedule.  The injected X marks and the
stretched compute/wait spans show exactly where the perturbation landed.

Chaos mode (``--chaos``): run the escalation ladder under an aggressive
seeded fault plan — background message drops and corruption on every
link plus one rank crash — and verify that the whole run self-heals
*without touching disk*: transients are absorbed by message-level
retransmission and the crash by one in-memory buddy restore.  The
process exits nonzero if any disk rollback happened or the result
diverged, which makes it a CI gate; with ``--trace-dir`` the
observability trace and event log are written there as artifacts.

Rank-loss mode (``--rankloss``): the elastic-recovery gate.  A node
loss permanently removes rank 1 of 4 mid-run — on the process backend
this is a real SIGKILL of the rank's OS process — and the run must
complete on the shrunken 3-rank layout, bit-identical to a fault-free
run re-decomposed at the same chunk boundary, with zero leaked shared
memory segments and a flight-recorder dump naming the lost rank.  Exits
nonzero on any miss, which makes it the CI permanent-loss gate.

Usage::

    python examples/fault_tolerance.py [--steps 4] [--nprocs 4]
    python examples/fault_tolerance.py --chaos --trace-dir chaos-artifacts/
    python examples/fault_tolerance.py --rankloss --backend process
"""
import argparse
import sys
import tempfile
from pathlib import Path

from repro.constants import ModelParameters
from repro.core.driver import DynamicalCore
from repro.core.resilience import ResilienceConfig
from repro.grid import Decomposition, LatLonGrid
from repro.physics import perturbed_rest_state
from repro.simmpi import (
    CrashSpec,
    DegradedWindow,
    FaultPlan,
    LinkFault,
    MachineModel,
    Straggler,
    run_spmd,
)
from repro.simmpi.trace import render_gantt
from repro.state.variables import ModelState

#: communication-heavy machine so waits are visible in the Gantt chart
COMM_HEAVY = MachineModel(
    alpha=2.0e-5, beta=2.0e-9, gamma=1.0e-9, seconds_per_point=4.0e-10
)


def demo_recovery(args) -> None:
    grid = LatLonGrid(nx=32, ny=16, nz=8)
    params = ModelParameters(
        dt_adaptation=60.0, dt_advection=60.0, m_iterations=1
    )
    state0 = perturbed_rest_state(grid, amplitude_k=2.0)
    core = DynamicalCore(
        grid, algorithm="ca", nprocs=args.nprocs, params=params,
        backend=args.backend,
    )
    if args.backend == "process":
        print("note: fault-injected attempts always run on the thread "
              "backend; --backend process applies to fault-free chunks")

    crash_chunk = max(2, args.steps // 2)
    plan = FaultPlan(
        seed=0,
        crashes=(CrashSpec(rank=1, at_attempt=crash_chunk, at_call=5),),
    )
    print(f"== Part 1: crash rank 1 in chunk {crash_chunk} of {args.steps}, "
          f"recover from checkpoint ==")
    with tempfile.TemporaryDirectory() as dref, \
            tempfile.TemporaryDirectory() as dcr:
        ref, _, _ = core.run_resilient(
            state0, args.steps,
            ResilienceConfig(checkpoint_dir=dref, checkpoint_interval=1),
        )
        rec, diag, report = core.run_resilient(
            state0, args.steps,
            ResilienceConfig(
                checkpoint_dir=dcr, checkpoint_interval=1, faults=plan
            ),
        )
        print(report.describe())
        for ev in report.fault_events:
            print(f"  fault event: rank {ev.rank} {ev.kind} at t={ev.t:.3e} "
                  f"(attempt {ev.attempt}) {ev.detail}")
        diff = ref.max_difference(rec)
        print(f"max |recovered - fault-free| = {diff:.3e}  "
              f"({'bit-identical' if diff == 0.0 else 'DIVERGED'})")
        print(f"total makespan over {len(report.chunk_makespans)} committed "
              f"chunks: {diag.makespan:.3e} simulated s")


def demo_chaos(args) -> int:
    """Self-healing under drops + corruption + one crash; 0 on success."""
    from repro.obs import ObsConfig
    from repro.obs.flightrec import FlightRecorder

    grid = LatLonGrid(nx=32, ny=16, nz=8)
    params = ModelParameters(
        dt_adaptation=60.0, dt_advection=60.0, m_iterations=1
    )
    state0 = perturbed_rest_state(grid, amplitude_k=2.0)

    observe: ObsConfig | bool = True
    recorder = None
    if args.trace_dir:
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        observe = ObsConfig(
            chrome_trace=str(trace_dir / "chaos_trace.json"),
            jsonl=str(trace_dir / "chaos_events.jsonl"),
        )
        recorder = FlightRecorder(
            trace_dir / "chaos_flight.json", meta={"gate": "chaos"}
        )

    chaos = FaultPlan(
        seed=7,
        crashes=(CrashSpec(rank=1, at_attempt=2, at_call=5),),
        link_faults=(LinkFault(
            drop_probability=0.1, corrupt_probability=0.1,
        ),),
    )
    print(f"== Chaos: 10% drops + 10% corruption on every link, rank 1 "
          f"crashes in chunk 2 of {args.steps} ==")
    with tempfile.TemporaryDirectory() as dref, \
            tempfile.TemporaryDirectory() as dch:
        ref_core = DynamicalCore(
            grid, algorithm="original-yz", nprocs=args.nprocs, params=params,
            backend=args.backend,
        )
        ref, _, _ = ref_core.run_resilient(
            state0, args.steps,
            ResilienceConfig(checkpoint_dir=dref, checkpoint_interval=1),
        )
        core = DynamicalCore(
            grid, algorithm="original-yz", nprocs=args.nprocs,
            params=params, observe=observe,
        )
        rec, _, report = core.run_resilient(
            state0, args.steps,
            ResilienceConfig(
                checkpoint_dir=dch, checkpoint_interval=1, faults=chaos
            ),
        )
        print(report.describe())
        reg = core.observation.registry
        retransmits = sum(
            reg.counter("simmpi_retransmits_total", rank=str(r)).value
            for r in range(args.nprocs)
        )
        diff = ref.max_difference(rec)
        print(f"retransmits absorbed in place:  {retransmits:.0f}")
        print(f"buddy restores (diskless):      {report.buddy_restores}")
        print(f"disk rollbacks:                 {report.disk_rollbacks}")
        print(f"max |recovered - fault-free| = {diff:.3e}  "
              f"({'bit-identical' if diff == 0.0 else 'DIVERGED'})")
        if args.trace_dir:
            print(f"obs artifacts written to {args.trace_dir}")
        ok = (
            diff == 0.0
            and report.buddy_restores == 1
            and report.disk_rollbacks == 0
        )
        if recorder is not None:
            recorder.note(
                "chaos-run", retransmits=int(retransmits),
                buddy_restores=report.buddy_restores,
                disk_rollbacks=report.disk_rollbacks, max_diff=diff,
            )
            recorder.dump(f"chaos gate {'PASS' if ok else 'FAIL'}")
        print("CHAOS GATE:", "PASS — healed without touching disk"
              if ok else "FAIL")
        return 0 if ok else 1


def demo_rankloss(args) -> int:
    """Permanent 1-of-4 loss healed by the elastic tier; 0 on success."""
    from repro.obs import flightrec
    from repro.obs.flightrec import load_dump
    from repro.simmpi import NodeLoss
    from repro.simmpi.shm import live_segment_names

    grid = LatLonGrid(nx=32, ny=16, nz=8)
    params = ModelParameters(
        dt_adaptation=60.0, dt_advection=60.0, m_iterations=1
    )
    state0 = perturbed_rest_state(grid, amplitude_k=2.0)
    plan = FaultPlan(seed=7, node_losses=(NodeLoss(rank=1, at_call=30),))
    chunk = 2

    print(f"== Rank loss: rank 1 of {args.nprocs} permanently lost mid-run "
          f"({args.backend} backend), policy=shrink ==")
    with tempfile.TemporaryDirectory() as droot:
        flight_dir = Path(droot) / "flight"
        prev = flightrec.get_recorder()
        flightrec.install(
            flight_dir / "run.json", signals=False, logs=False,
        )
        try:
            core = DynamicalCore(
                grid, algorithm="original-yz", nprocs=args.nprocs,
                params=params, backend=args.backend,
            )
            rec, _, report = core.run_resilient(
                state0, args.steps,
                ResilienceConfig(
                    checkpoint_dir=Path(droot) / "ck",
                    checkpoint_interval=chunk,
                    rank_loss_policy="shrink", faults=plan,
                ),
            )
        finally:
            flightrec._installed = prev
        print(report.describe())
        rl = report.rank_losses[0]
        print(f"  lost {rl.lost} at step {rl.step}: policy {rl.policy}, "
              f"epoch {rl.epoch}, restored via {rl.source}, "
              f"mttr {rl.mttr:.3e} s, now {rl.new_size} ranks")

        # reference: fault-free 4-rank run to the loss boundary, then a
        # fault-free run at the recovered layout — same chunking
        transport = ResilienceConfig(checkpoint_dir="/unused").transport
        ref, step = state0, 0
        for nprocs, until in ((args.nprocs, rl.step),
                              (report.final_nranks, args.steps)):
            seg = DynamicalCore(
                grid, algorithm="original-yz", nprocs=nprocs, params=params
            )
            while step < until:
                c = min(chunk, args.steps - step)
                ref, _, _ = seg._run_once(
                    ref, c, faults=None, verify_checksums=True,
                    transport=transport, timeout=None, step0=step,
                )
                step += c
        diff = rec.max_difference(ref)

        leaked = live_segment_names()
        dumps = sorted(flight_dir.glob("*lostrank*"))
        dump_ok = args.backend != "process" or (
            bool(dumps) and "rank 1" in load_dump(dumps[0])["reason"]
        )
        print(f"max |recovered - fault-free@new-layout| = {diff:.3e}  "
              f"({'bit-identical' if diff == 0.0 else 'DIVERGED'})")
        print(f"leaked shm segments:            {leaked or 'none'}")
        if args.backend == "process":
            print(f"flight dump from killed rank:   "
                  f"{dumps[0].name if dumps else 'MISSING'}")
        ok = (
            diff == 0.0
            and report.final_nranks == args.nprocs - 1
            and report.membership_epoch == 1
            and not leaked
            and dump_ok
        )
        print("RANK-LOSS GATE:", "PASS — healed on the shrunken layout"
              if ok else "FAIL")
        return 0 if ok else 1


def demo_perturbed_schedule(args) -> None:
    from repro.core.comm_avoiding import ca_rank_program
    from repro.core.distributed import DistributedConfig

    grid = LatLonGrid(nx=32, ny=16, nz=8)
    params = ModelParameters(
        dt_adaptation=60.0, dt_advection=60.0, m_iterations=1
    )
    decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 2, 2)
    state0 = perturbed_rest_state(grid, amplitude_k=2.0)
    dcfg = DistributedConfig(
        grid=grid, decomp=decomp, params=params, sigma=None, nsteps=1
    )

    # the clean reference honours --backend; the perturbed run injects
    # faults and therefore always uses the thread backend
    clean = run_spmd(
        decomp.nranks, ca_rank_program, dcfg, state0,
        ModelState.zeros(grid.shape3d),
        machine=COMM_HEAVY, trace=True, backend=args.backend,
    )
    plan = FaultPlan(
        seed=0,
        degraded=(DegradedWindow(
            t_start=0.0, t_end=clean.makespan, beta_factor=8.0,
        ),),
        stragglers=(Straggler(rank=2, slowdown=2.5),),
    )
    perturbed = run_spmd(
        decomp.nranks, ca_rank_program, dcfg, state0,
        ModelState.zeros(grid.shape3d),
        machine=COMM_HEAVY, trace=True, faults=plan,
    )
    print("\n== Part 2: degraded network (beta x8) + straggler rank 2 ==")
    print("clean schedule:")
    print(render_gantt(clean.traces, width=args.width))
    print("perturbed schedule (same time axis scale markers, X = fault):")
    print(render_gantt(perturbed.traces, width=args.width))
    slowdown = perturbed.makespan / clean.makespan
    print(f"makespan: clean {clean.makespan:.3e} s -> perturbed "
          f"{perturbed.makespan:.3e} s  ({slowdown:.2f}x slower)")
    nevents = len(perturbed.fault_events())
    print(f"fault events recorded across ranks: {nevents}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=4)
    parser.add_argument("--nprocs", type=int, default=4)
    parser.add_argument("--width", type=int, default=72)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (overrides size flags)")
    parser.add_argument("--chaos", action="store_true",
                        help="run only the chaos gate: drops + corruption "
                             "+ one crash must heal with zero disk rollbacks")
    parser.add_argument("--rankloss", action="store_true",
                        help="run only the rank-loss gate: a permanent "
                             "1-of-4 loss must heal elastically (shrink), "
                             "bit-identical, no shm leaks")
    parser.add_argument("--trace-dir", default=None,
                        help="with --chaos: write obs trace artifacts here")
    parser.add_argument("--backend", choices=("thread", "process"),
                        default="thread",
                        help="rank backend for fault-FREE runs and for "
                             "node-loss-only plans (a node loss SIGKILLs "
                             "the process rank); other injected faults "
                             "always use the thread backend")
    args = parser.parse_args()
    if args.quick:
        args.steps = 3
        args.nprocs = 4
    if args.chaos:
        sys.exit(demo_chaos(args))
    if args.rankloss:
        sys.exit(demo_rankloss(args))
    demo_recovery(args)
    demo_perturbed_schedule(args)


if __name__ == "__main__":
    main()
