#!/usr/bin/env python
"""Fault injection and checkpoint/restart recovery, end to end.

Part 1 — resilience: run the communication-avoiding core with a fault
plan that crashes rank 1 partway through the integration.  The resilient
driver checkpoints after every chunk, detects the crash, rewinds to the
last committed chunk boundary it holds in memory and re-runs the chunk;
the recovered run ends bit-identical to a fault-free run of the same
chunked driver.

Part 2 — perturbed schedules: run one step under a degraded-network
window plus a straggler rank, with tracing on, and render the Gantt
timeline next to the clean schedule.  The injected X marks and the
stretched compute/wait spans show exactly where the perturbation landed.

Chaos mode (``--chaos``): run the recovery ladder under an aggressive
seeded fault plan — background message drops and corruption on every
link plus one rank crash — and verify that the whole run self-heals
*without reading disk*: transients are absorbed by message-level
retransmission and the crash by one in-memory rewind.  The process
exits nonzero if a checkpoint was read back, the rewind count is not 1
or the result diverged, which makes it a CI gate; with ``--trace-dir``
the observability trace and event log are written there as artifacts.

Rank-kill mode (``--rankloss``): a node loss kills rank 1 of 4 mid-run
— on the process backend a real SIGKILL of the rank's OS process — and
the run must rewind, relaunch the world at the same 4-rank layout and
end bit-identical to the fault-free run, with two rank worlds forked, no
child process or shared memory segment left behind and a flight-recorder
dump naming the killed rank.  Exits nonzero on any miss, which makes it
the CI rank-kill gate.

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
COMM_HEAVY = MachineModel(alpha=2.0e-5, beta=2.0e-9, seconds_per_point=4.0e-10)


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
    from unittest import mock

    from repro.core import resilience
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
        with mock.patch.object(
            resilience, "load_state", wraps=resilience.load_state
        ) as disk_reads:
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
        print(f"rewinds (in memory):            {report.nrestarts}")
        print(f"checkpoints read back:          {disk_reads.call_count}")
        print(f"max |recovered - fault-free| = {diff:.3e}  "
              f"({'bit-identical' if diff == 0.0 else 'DIVERGED'})")
        if args.trace_dir:
            print(f"obs artifacts written to {args.trace_dir}")
        ok = (
            diff == 0.0
            and report.nrestarts == 1
            and disk_reads.call_count == 0
        )
        if recorder is not None:
            recorder.note(
                "chaos-run", retransmits=int(retransmits),
                rewinds=report.nrestarts,
                disk_reads=disk_reads.call_count, max_diff=diff,
            )
            recorder.dump(f"chaos gate {'PASS' if ok else 'FAIL'}")
        print("CHAOS GATE:", "PASS — healed in memory, no disk read"
              if ok else "FAIL")
        return 0 if ok else 1


def demo_rankloss(args) -> int:
    """A killed rank healed by a relaunch at the same layout; 0 on success."""
    import multiprocessing

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

    def run(ckdir, faults=None):
        core = DynamicalCore(
            grid, algorithm="original-yz", nprocs=args.nprocs,
            params=params, backend=args.backend,
        )
        return core.run_resilient(
            state0, args.steps,
            ResilienceConfig(
                checkpoint_dir=ckdir, checkpoint_interval=2, faults=faults,
            ),
        )

    print(f"== Rank kill: rank 1 of {args.nprocs} killed mid-run "
          f"({args.backend} backend), relaunch at the same layout ==")
    with tempfile.TemporaryDirectory() as droot:
        ref, _, _ = run(Path(droot) / "ref")
        flight_dir = Path(droot) / "flight"
        prev = flightrec.get_recorder()
        flightrec.install(
            flight_dir / "run.json", signals=False, logs=False,
        )
        try:
            rec, _, report = run(Path(droot) / "ck", plan)
        finally:
            flightrec._installed = prev
        print(report.describe())
        diff = rec.max_difference(ref)
        launches = 2 if args.backend == "process" else 0
        leaked = live_segment_names()
        children = multiprocessing.active_children()
        dumps = sorted(flight_dir.glob("*lostrank*"))
        dump_ok = args.backend != "process" or (
            bool(dumps) and "rank 1" in load_dump(dumps[0])["reason"]
        )
        print(f"max |recovered - fault-free| = {diff:.3e}  "
              f"({'bit-identical' if diff == 0.0 else 'DIVERGED'})")
        print(f"rank worlds forked:             {report.rank_launches} "
              f"(want {launches})")
        print(f"leftover child processes:       {children or 'none'}")
        print(f"leaked shm segments:            {leaked or 'none'}")
        if args.backend == "process":
            print(f"flight dump from killed rank:   "
                  f"{dumps[0].name if dumps else 'MISSING'}")
        ok = (
            diff == 0.0
            and [r.kind for r in report.restarts] == ["crash"]
            and report.rank_launches == launches
            and not children
            and not leaked
            and dump_ok
        )
        print("RANK-KILL GATE:", "PASS — healed by a relaunch at the same "
              "layout" if ok else "FAIL")
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
                             "+ one crash must heal with one in-memory "
                             "rewind and zero disk reads")
    parser.add_argument("--rankloss", action="store_true",
                        help="run only the rank-kill gate: a killed rank "
                             "of 4 must heal by a relaunch at the same "
                             "layout, bit-identical, nothing left behind")
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
