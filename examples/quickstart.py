#!/usr/bin/env python
"""Quickstart: run the dynamical core for a few hours of model time.

Builds a small latitude-longitude mesh, initializes a resting atmosphere
with a warm bump, runs the serial reference core with Held-Suarez forcing,
and prints per-step diagnostics.

Usage::

    python examples/quickstart.py [--steps N] [--nx 48 --ny 24 --nz 8]
"""
import argparse

import numpy as np

from repro.analysis.energy import energy_budget
from repro.constants import ModelParameters
from repro.core import SerialCore
from repro.grid import LatLonGrid, cfl_report
from repro.physics import HeldSuarezForcing, perturbed_rest_state


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=20)
    parser.add_argument("--nx", type=int, default=48)
    parser.add_argument("--ny", type=int, default=24)
    parser.add_argument("--nz", type=int, default=8)
    parser.add_argument("--dt", type=float, default=100.0,
                        help="adaptation sub-step [s]")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (overrides size flags)")
    args = parser.parse_args()
    if args.quick:
        args.steps = 3
        args.nx = 32
        args.ny = 16
        args.nz = 6

    grid = LatLonGrid(nx=args.nx, ny=args.ny, nz=args.nz)
    params = ModelParameters(
        dt_adaptation=args.dt, dt_advection=3 * args.dt, m_iterations=3
    )
    print(f"grid: {grid}   step: {params.dt_advection:.0f} s")

    report = cfl_report(grid, params.dt_adaptation)
    print(
        f"CFL: zonal(worst/pole)={report.cfl_zonal_worst:.2f} "
        f"zonal(filtered)={report.cfl_zonal_filtered:.3f} "
        f"meridional={report.cfl_meridional:.3f} "
        f"-> stable with polar filter: {report.stable_filtered}"
    )

    core = SerialCore(grid, params=params, forcing=HeldSuarezForcing())
    state = perturbed_rest_state(grid, amplitude_k=2.0)

    def monitor(k: int, s) -> None:
        if k % 5 == 0 or k == 1:
            e = energy_budget(s, grid)
            print(
                f"step {k:>4}  t={k * params.dt_advection / 3600:6.1f} h  "
                f"max|u'|={np.abs(s.U).max():7.3f} m/s  "
                f"max|p'_s|={np.abs(s.psa).max():7.1f} Pa  "
                f"KE={e.kinetic:9.3e}"
            )

    final = core.run(state, args.steps, monitor=monitor)
    print(f"\ndone: {core.steps_taken} steps, {core.c_calls} C-operator "
          f"applications, final state finite: {final.isfinite()}")


if __name__ == "__main__":
    main()
