#!/usr/bin/env python
"""Timeline traces: watch the overlap of Algorithm 2, rank by rank.

Runs the Y-Z original and the communication-avoiding core with event
tracing enabled and renders text Gantt charts of each rank's logical
timeline — compute (#), collective waits (=) and receive waits (~).  The
original's 13 exchange stalls per step versus the CA core's 2 are plainly
visible.

Usage::

    python examples/timeline_trace.py [--steps 1] [--nprocs 4] \
        [--chrome-trace out.json]

``--chrome-trace`` additionally exports both timelines to one
Chrome-trace JSON (open in ``chrome://tracing`` or
https://ui.perfetto.dev), one process lane per algorithm.
"""
import argparse

from repro.constants import ModelParameters
from repro.core.comm_avoiding import ca_rank_program
from repro.core.distributed import DistributedConfig, original_rank_program
from repro.grid import Decomposition, LatLonGrid
from repro.obs.exporters import logical_events, write_chrome_trace
from repro.physics import perturbed_rest_state
from repro.simmpi import MachineModel, run_spmd
from repro.simmpi.trace import busy_fraction, render_gantt
from repro.state.variables import ModelState

#: a communication-heavy machine (high latency, fast cores) — the regime
#: of the paper's Figure 1, where the CA schedule pays off; at toy problem
#: sizes a laptop-like model would be compute-bound instead
COMM_HEAVY = MachineModel(alpha=2.0e-5, beta=2.0e-9, seconds_per_point=4.0e-10)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=1)
    parser.add_argument("--nprocs", type=int, default=4)
    parser.add_argument("--width", type=int, default=72)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (overrides size flags)")
    parser.add_argument("--chrome-trace", metavar="OUT.json", default=None,
                        help="export both timelines to a Chrome-trace JSON")
    parser.add_argument("--backend", choices=("thread", "process"),
                        default="thread",
                        help="rank execution backend; 'process' runs one OS "
                             "process per rank over shared-memory rings "
                             "(identical logical timelines, real multicore)")
    args = parser.parse_args()
    if args.quick:
        args.steps = 1
        args.nprocs = 4

    grid = LatLonGrid(nx=32, ny=16, nz=8)
    params = ModelParameters(
        dt_adaptation=60.0, dt_advection=60.0, m_iterations=1
    )
    if args.nprocs == 4:
        decomp = Decomposition(grid.nx, grid.ny, grid.nz, 1, 2, 2)
    else:
        from repro.grid.decomposition import yz_decomposition

        decomp = yz_decomposition(grid.nx, grid.ny, grid.nz, args.nprocs)
    state0 = perturbed_rest_state(grid, amplitude_k=2.0)

    chrome_events = []
    for pid, (name, program) in enumerate((
        ("original (Y-Z, Algorithm 1)", original_rank_program),
        ("communication-avoiding (Algorithm 2)", ca_rank_program),
    ), start=1):
        cfg = DistributedConfig(
            grid=grid, decomp=decomp, params=params, nsteps=args.steps,
        )
        res = run_spmd(
            decomp.nranks, program, cfg, state0,
            ModelState.zeros(grid.shape3d),
            machine=COMM_HEAVY, trace=True, backend=args.backend,
        )
        print(f"\n=== {name} ===  (makespan {max(res.clocks):.6f} s)")
        print(render_gantt(res.traces, width=args.width))
        for rec in res.traces:
            print(
                f"  rank {rec.rank}: compute "
                f"{100 * busy_fraction(rec, 'compute'):.0f}%  "
                f"collective {100 * busy_fraction(rec, 'collective'):.0f}%  "
                f"recv-wait {100 * busy_fraction(rec, 'recv_wait'):.0f}%"
            )
        if args.chrome_trace:
            chrome_events.extend(
                logical_events(res.traces, pid=pid, process_name=name)
            )

    if args.chrome_trace:
        out = write_chrome_trace(args.chrome_trace, chrome_events)
        print(f"\nChrome trace written to {out} "
              f"(open in chrome://tracing or https://ui.perfetto.dev)")


if __name__ == "__main__":
    main()
