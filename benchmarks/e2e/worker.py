"""One workload in this process: set-up, the timed closed loop, or the
traced per-layer pass.  Started by ``run.py`` with a scrubbed environment
(thread pins and ``PYTHONPATH`` are set before numpy is imported); prints
one JSON object on its last stdout line.

The core receives only the generated state: ``--seed`` feeds
``balanced_random_state`` and nothing else.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import sys
from pathlib import Path

import numpy as np

from common import (
    FULL_SIZING, SMOKE_SIZING, WORKLOADS, Sizing, Workload, smoke_workload,
)
from loop import Case, Tally, make_inputs, run_pairs, same_state


def oracle_check(case: Case, steps: int) -> dict:
    """Compare the workload's final state with its oracle, untimed."""
    from repro.core.driver import DynamicalCore
    from repro.core.integrator import SerialCore

    wl, grid, s0 = case.wl, case.grid, case.state0
    try:
        got, _ = case.call(steps)
    finally:
        case.cleanup()
    if wl.chunk is not None:
        # not one unchunked run: CA restarts its approximate iteration
        # with a fresh C bundle at every launch, i.e. at every chunk
        rule, tol = "== plain runs of the same core chained per chunk", 0.0
        want = s0
        for _ in range(steps // wl.chunk):
            want, _ = case.core.run(want, wl.chunk)
    elif wl.algorithm == "serial":
        rule, tol = "== reference-tier serial run", 0.0
        want, _ = DynamicalCore(
            grid, algorithm="serial", kernel_tier="reference"
        ).run(s0, steps)
    elif wl.algorithm == "ca":
        rule, tol = "|diff| < 1e-11 vs SerialCore(approximate_c=True)", 1e-11
        want = SerialCore(
            grid, approximate_c=True, kernel_tier="fused"
        ).run(s0, steps)
    else:
        rule, tol = "|diff| < 1e-12 vs the serial core", 1e-12
        want, _ = DynamicalCore(
            grid, algorithm="serial", kernel_tier="fused"
        ).run(s0, steps)
    diff = float(got.max_difference(want))
    ok = got.isfinite() and (
        same_state(got, want) if tol == 0.0 else diff < tol
    )
    return {"ok": bool(ok), "max_abs_diff": diff, "rule": rule, "steps": steps}


def find_leaks(shm_before: list[str], case: Case) -> list[str]:
    """What a finished workload must not leave behind."""
    from repro.simmpi.shm import live_segment_names

    leaks = []
    alive = multiprocessing.active_children()
    if alive:
        leaks.append(f"live child processes: {[p.pid for p in alive]}")
    new = sorted(set(live_segment_names()) - set(shm_before))
    if new:
        leaks.append(f"new /dev/shm segments: {new}")
    if case.ckpt_dir.exists():
        leaks.append(f"leftover checkpoint directory: {case.ckpt_dir}")
    return leaks


def finish(tally: Tally, oracle: dict, leaks: list[str], **extra) -> dict:
    """Fold the oracle and leak verdicts into the tally; the JSON result."""
    from repro.kernels import resolve_backend

    tally.attempted += 1  # the leak check
    if leaks:
        tally.fail("; ".join(leaks))
    if not oracle["ok"]:
        # a wrong answer voids every timing of the workload
        tally.notes.append(f"oracle failed: {oracle}")
        tally.failed = tally.attempted
    return {
        "attempted": tally.attempted, "failed": tally.failed,
        "notes": tally.notes, "oracle": oracle,
        "numpy": np.__version__, "fused_backend": resolve_backend("auto"),
        **extra,
    }


def peak_rss_mb(nprocs: int) -> float:
    """Upper bound: a forked rank's ``ru_maxrss`` counts the pages it still
    shares with this process, and all ``nprocs`` ranks are charged the
    largest one."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ranks = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (nprocs * ranks if nprocs > 1 else 0)) / 1024.0


def role_setup(wl: Workload, args, sizing: Sizing) -> dict:
    """Everything a fresh interpreter does before its first result; the
    orchestrator times this process from spawn to exit."""
    Case(wl, *make_inputs(wl, args.seed), args.out).warm_up()
    return {"ok": True}


def role_measure(wl: Workload, args, sizing: Sizing) -> dict:
    from repro.simmpi.shm import live_segment_names

    shm_before = live_segment_names()
    tally = Tally()
    case = Case(wl, *make_inputs(wl, args.seed), args.out)
    case.warm_up()
    pairs = run_pairs(
        case, tally, args.seconds, sizing.min_pairs, sizing.pairs
    )
    rss = peak_rss_mb(wl.nprocs)  # before the oracle builds more cores
    oracle = oracle_check(case, sizing.oracle_steps * (wl.chunk or 1))
    return finish(
        tally, oracle, find_leaks(shm_before, case),
        short_ms=[s * 1e3 for s in pairs.shorts],
        step_ms=pairs.step_ms if pairs.longs else None,
        step_ms_estimates=pairs.step_ms_estimates,
        peak_rss_mb=rss,
    )


def role_trace(wl: Workload, args, sizing: Sizing) -> dict:
    import probes
    from repro.simmpi.shm import live_segment_names
    from spans import SpanRecorder

    shm_before = live_segment_names()
    tally = Tally()
    rec = SpanRecorder(wl.name)
    with rec.span(f"workload:{wl.name}", "bench"):
        case = Case(wl, *make_inputs(wl, args.seed), args.out)
        case.warm_up()
        metrics = probes.all_layers(rec, case, tally, args.seconds, sizing)
        with rec.span("oracle", "bench"):
            oracle = oracle_check(case, sizing.oracle_steps * (wl.chunk or 1))
    metrics["core.oracle_max_abs_diff"] = oracle["max_abs_diff"]
    trace_path = args.out / f"trace_{wl.name}.json"
    rec.write_chrome_trace(trace_path)
    return finish(
        tally, oracle, find_leaks(shm_before, case),
        metrics=metrics, trace=str(trace_path), spans=len(rec.spans),
    )


ROLES = {"setup": role_setup, "measure": role_measure, "trace": role_trace}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("role", choices=sorted(ROLES))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    sizing = FULL_SIZING
    if args.smoke:
        wl, sizing = smoke_workload(wl), SMOKE_SIZING
    args.out.mkdir(parents=True, exist_ok=True)
    print(json.dumps(ROLES[args.role](wl, args, sizing)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
