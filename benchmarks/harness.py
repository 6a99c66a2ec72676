#!/usr/bin/env python
"""Wall-clock benchmark CLI: emit and gate BENCH_<date>.json artifacts.

Usage:

    PYTHONPATH=src python benchmarks/harness.py --quick \
        --out artifacts/ --baseline benchmarks/baseline/BENCH_baseline.json

Runs the executed-kernel benchmark suite of :mod:`repro.perf.wallclock`
(serial + distributed step throughput, per-kernel breakdown, workspace
allocation counters) and writes a schema-versioned JSON report.  With
``--baseline`` the report is compared against the committed reference and
the process exits nonzero when step throughput regresses by more than
``--tolerance`` (default 20%) — this is the CI gate.

``--check`` only compares an existing report (no benchmarks are run).
"""
from __future__ import annotations

import argparse
import datetime
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.perf.wallclock import (  # noqa: E402
    compare_reports,
    kernel_tier_violations,
    load_report,
    parallel_scaling_violations,
    recovery_mttr_violations,
    run_benchmarks,
    transport_overhead_violations,
    write_report,
)


def _render(report: dict) -> str:
    lines = [f"benchmark report (schema v{report['schema_version']}, "
             f"quick={report['quick']})"]
    for case in report["cases"]:
        if case["kind"] == "kernels":
            lines.append(f"  kernels [{case['mesh']}]:")
            for name, rec in case["kernels"].items():
                lines.append(f"    {name:<11} {rec['ws_ms']:8.3f} ms")
            continue
        if case["kind"] == "kernel_tiers":
            gate = " [gate]" if case.get("gate_enforced") else ""
            bits = "bit-identical" if case["bit_identical"] else "DIVERGED"
            lines.append(
                f"  kernel tiers [{case['mesh']:<6}] "
                f"reference {case['reference_ms_per_step']:8.2f} ms/step   "
                f"fused[{case['backend']}] "
                f"{case['fused_ms_per_step']:8.2f} ms/step   "
                f"x{case['speedup']:.2f}  ({bits}){gate}"
            )
            continue
        if case["kind"] == "transport_overhead":
            tag = f"transport {case['algorithm']}@{case['nprocs']}"
            lines.append(
                f"  {tag:<28} [{case['mesh']:<6}] "
                f"plain {case['plain_ms_per_step']:8.2f} ms/step   "
                f"resilient {case['resilient_ms_per_step']:8.2f} ms/step"
            )
            lines.append(
                f"  {'':<28} logical overhead "
                f"{case['logical_overhead_frac'] * 100.0:+.3f}%   "
                f"wall {case['wall_overhead_frac'] * 100.0:+.1f}% "
                f"(informational)"
            )
            continue
        if case["kind"] == "recovery_mttr":
            lines.append(
                f"  recovery mttr [{case['mesh']:<6}] "
                f"{case['algorithm']}@{case['nprocs']}, "
                f"clean makespan {case['clean_makespan']:.4f} s"
            )
            for policy, rec in case["policies"].items():
                anomaly = (
                    "bit-identical" if rec["trajectory_max_diff"] == 0.0
                    else f"ANOMALY {rec['trajectory_max_diff']:.3e}"
                )
                lines.append(
                    f"    {policy:<7} mttr {rec['mttr'] * 1e3:8.3f} ms "
                    f"(detect {rec['detect_s'] * 1e3:.3f} + migrate "
                    f"{rec['migrate_s'] * 1e3:.3f})   "
                    f"overhead {rec['recovery_frac'] * 100.0:.1f}%   "
                    f"-> {rec['final_nranks']} ranks via {rec['source']} "
                    f"({anomaly})"
                )
            continue
        if case["kind"] == "parallel_scaling":
            tag = f"scaling {case['algorithm']}@{case['nprocs']}"
            gate = " [gate]" if case.get("gate_enforced") else ""
            lines.append(
                f"  {tag:<28} [{case['mesh']:<6}] "
                f"{case['ms_per_step']:8.2f} ms/step   "
                f"x{case['speedup_vs_serial']:.2f} vs serial "
                f"({case['serial_ws_ms_per_step']:.2f} ms)   "
                f"eff {case['efficiency'] * 100.0:.0f}%"
                f"{gate}"
            )
            continue
        tag = case["kind"] + (
            f" {case['algorithm']}@{case['nprocs']}" if "algorithm" in case
            else ""
        )
        lines.append(
            f"  {tag:<28} [{case['mesh']:<6}] "
            f"{case['ws_ms_per_step']:8.2f} ms/step   "
            f"({case['steps_per_sec']:.2f} steps/s)"
        )
        if "allocations" in case:
            a = case["allocations"]
            lines.append(
                f"  {'':<28} pool: {a['fresh']} fresh / {a['reuses']} "
                f"reuses / {a['pooled_bytes'] / 1e6:.2f} MB parked"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI-sized run: small mesh, fewer steps")
    ap.add_argument("--tiers", action="store_true",
                    help="kernel-tier cases only: medium-mesh reference vs "
                         "fused with the bit-identity + speedup gates")
    ap.add_argument("--repeats", type=int, default=1,
                    help="best-of-N repeats for the serial throughput cases")
    ap.add_argument("--out", default=".",
                    help="directory (or full path) of the emitted JSON")
    ap.add_argument("--baseline", default=None,
                    help="committed baseline JSON to gate against")
    ap.add_argument("--tolerance", type=float, default=0.2,
                    help="allowed fractional throughput drop (default 0.2)")
    ap.add_argument("--transport-limit", type=float, default=0.05,
                    help="max fault-free logical overhead of the reliable "
                         "transport (default 0.05)")
    ap.add_argument("--recovery-limit", type=float, default=0.5,
                    help="max rank-loss recovery time as a fraction of the "
                         "fault-free makespan (default 0.5)")
    ap.add_argument("--check", default=None, metavar="REPORT",
                    help="compare an existing report only; run nothing")
    ap.add_argument("--profile", default=None, metavar="OUT",
                    help="run the sampling profiler over the benchmark "
                         "suite; writes a collapsed-stack flamegraph file")
    args = ap.parse_args(argv)

    profiler = None
    if args.profile is not None and args.check is None:
        from repro.obs.profile import SamplingProfiler

        profiler = SamplingProfiler(out=args.profile)
        profiler.start()

    if args.check is not None:
        report = load_report(args.check)
    elif args.tiers:
        from repro.perf.wallclock import (
            MEDIUM,
            SMALL,
            BENCH_SEED,
            SCHEMA_VERSION,
            bench_kernel_tiers,
            machine_info,
        )

        report = {
            "schema_version": SCHEMA_VERSION,
            "quick": args.quick,
            "bench_seed": BENCH_SEED,
            "machine": machine_info(),
            "cases": [
                bench_kernel_tiers(
                    SMALL if args.quick else MEDIUM, repeats=args.repeats
                )
            ],
        }
    else:
        report = run_benchmarks(quick=args.quick, repeats=args.repeats)
    if profiler is not None:
        profiler.stop()
        print(f"profile: {profiler.write()} "
              f"({profiler.nsamples} samples @ {profiler.config.hz:g} Hz)")
    if args.check is None:
        out = Path(args.out)
        if out.suffix != ".json":
            stamp = datetime.date.today().isoformat()
            out = out / f"BENCH_{stamp}.json"
        path = write_report(report, out)
        print(f"wrote {path}")
    print(_render(report))
    baseline = load_report(args.baseline) if args.baseline else None

    # absolute gate: the fused kernel tier must track the reference tier
    # bit for bit, and (where a compiled backend resolved on the medium
    # mesh) at least double its step rate.  Hosts without a C compiler
    # run the numpy fallback: recorded, warned about, never gated.
    tiers = kernel_tier_violations(report, baseline)
    if tiers:
        print("\nKERNEL TIER gate failures:")
        for v in tiers:
            print(f"  {v}")
        return 1
    soft = [
        c for c in report["cases"]
        if c.get("kind") == "kernel_tiers" and not c.get("gate_enforced")
    ]
    for c in soft:
        print(f"\nnote: kernel-tier speedup gate skipped on "
              f"{c['mesh']} (backend {c['backend']!r}, "
              f"compiled={c['compiled']}) — recorded only")

    # absolute gate, no baseline needed: a clean run through the
    # reliable transport must stay within --transport-limit of the raw
    # network's logical makespan
    violations = transport_overhead_violations(
        report, limit=args.transport_limit
    )
    if violations:
        print("\nTRANSPORT OVERHEAD over limit:")
        for v in violations:
            print(f"  {v}")
        return 1

    # absolute gates on the elastic tier: rank-loss recovery must stay
    # within --recovery-limit of the fault-free makespan, and the
    # recovered trajectory must be bit-identical to the fault-free
    # reference at the recovered layout (zero-tolerance anomaly gate)
    recovery = recovery_mttr_violations(report, limit=args.recovery_limit)
    if recovery:
        print("\nRECOVERY MTTR gate failures:")
        for v in recovery:
            print(f"  {v}")
        return 1

    # absolute gate: CA on process ranks must beat the serial step —
    # enforced only where the host actually has the cores
    scaling = parallel_scaling_violations(report)
    if scaling:
        print("\nPARALLEL SCALING below serial:")
        for v in scaling:
            print(f"  {v}")
        return 1
    ncpu = report.get("machine", {}).get("cpu_count") or 1
    gated = [
        c for c in report["cases"]
        if c.get("kind") == "parallel_scaling" and c.get("gate_beats_serial")
    ]
    if gated and not any(c.get("gate_enforced") for c in gated):
        print(f"\nnote: parallel-scaling gate recorded but not enforced "
              f"(host has {ncpu} core(s))")

    if baseline is not None:
        regressions = compare_reports(
            report, baseline, tolerance=args.tolerance
        )
        if regressions:
            print("\nREGRESSIONS vs baseline:")
            for r in regressions:
                print(f"  {r}")
            return 1
        print(f"\nno regressions vs {args.baseline} "
              f"(tolerance {args.tolerance * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
