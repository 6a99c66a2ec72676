#!/usr/bin/env python3
"""The repo benchmark: wall-clock step time of the executed cores on real
ranks, with per-layer probes.

    python3 benchmarks/e2e/run.py [--workload W] [--seed 1234] [--seconds 20]
                                  [--trace 0|1] [--out DIR] [--smoke]
    python3 benchmarks/e2e/run.py --compare A.json B.json

``--trace 0`` is the end-to-end pass (tracing off), ``--trace 1`` the
per-layer pass (one Chrome trace per workload).  With ``--workload`` the
last stdout line is the driver's JSON object; without it every workload of
``BENCHMARK.json`` runs, one after the other, and the summary adds the
speed-up ratios.  Either way every metric is printed by name with unit,
median, quartiles and sample count, the output is checked against the
workload's oracle, and one JSON result set is written under ``--out``.

Each workload runs in fresh interpreters (``worker.py``) as a closed loop
of one client.  Load is sized for a 2-core host: at most 2 rank processes,
their parent blocked in join, this process blocked in wait.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import compare
from common import (
    DEFAULT_OUT, FULL_SIZING, HERE, ROOT, SMOKE_SIZING, SRC, WORKLOADS,
    load_contract, metric_specs, summarize,
)

#: core-selecting variables a caller's shell may carry; a benchmark run
#: must measure the repo defaults, not the caller's overrides
SCRUBBED_ENV = ("REPRO_KERNEL_TIER", "REPRO_KERNEL_BACKEND", "REPRO_EXECUTOR")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: a worker that has not answered by then is killed and counted as failed
#: (the driver allows one run 180 s)
WORKER_TIMEOUT_S = 150
SCHEMA = 1


def worker_env(out: Path) -> dict:
    """The environment every worker starts in: core-selecting variables
    scrubbed, BLAS/OpenMP pinned to one thread before numpy loads, and the
    compiled-kernel cache inside the checkout."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.update({k: "1" for k in THREAD_ENV})
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    env["REPRO_KERNELS_CACHE"] = str(out / "kernel-cache")
    return env


def run_worker(role: str, args, workload: str) -> tuple[dict | None, float]:
    """Run one worker to completion; ``(its JSON or None, wall seconds)``.
    The worker leads its own process group, so a timeout takes its rank
    processes down with it."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), role,
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--out", str(args.out),
    ]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, env=worker_env(args.out), cwd=ROOT, text=True,
        stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"{role} worker of {workload} timed out", file=sys.stderr)
        return None, time.perf_counter() - t0
    wall = time.perf_counter() - t0
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{role} worker of {workload} exited {proc.returncode}",
              file=sys.stderr)
        return None, wall
    return json.loads(lines[-1]), wall


def run_workload(name: str, args, contract: dict) -> dict:
    """One pass over one workload -> its entry of the result set."""
    trace = bool(args.trace)
    specs = metric_specs(contract, trace)
    sizing = SMOKE_SIZING if args.smoke else FULL_SIZING
    attempted = failed = 0
    samples: dict[str, list[float]] = {}
    if not trace:
        # the first interpreter also warms the kernel and bytecode caches
        # for everything timed after it, so it is not a sample
        setups = []
        for i in range(sizing.setup_samples + 1):
            res, wall = run_worker("setup", args, name)
            if i:
                attempted += 1
                failed += res is None
                setups.append(wall)
        samples["setup_s"] = setups
    res, _ = run_worker("trace" if trace else "measure", args, name)
    entry = {"metrics": {}, "notes": [], "correct": False}
    if res is None:
        attempted, failed = attempted + 1, failed + 1
    else:
        attempted += res["attempted"]
        failed += res["failed"]
        entry.update(
            correct=res["oracle"]["ok"], oracle=res["oracle"],
            notes=res["notes"], numpy=res["numpy"],
            fused_backend=res["fused_backend"],
        )
        if trace:
            entry["trace"] = res["trace"]
            samples.update({k: [v] for k, v in res["metrics"].items()})
        elif res["step_ms"] is not None:
            samples["short_run_ms"] = res["short_ms"]
            samples["step_ms"] = res["step_ms_estimates"]
            samples["peak_rss_mb"] = [res["peak_rss_mb"]]
    for metric, values in samples.items():
        entry["metrics"][metric] = {
            "unit": specs[metric]["unit"], **summarize(values)
        }
    if not trace and res is not None and res["step_ms"] is not None:
        # step_ms is defined on the medians of the two call lengths; the
        # per-pair estimates above only give its quartiles
        entry["metrics"]["step_ms"]["median"] = res["step_ms"]
    if set(entry["metrics"]) != set(specs):
        entry["notes"].append(
            f"metrics emitted != BENCHMARK.json: "
            f"{sorted(set(entry['metrics']) ^ set(specs))}"
        )
        entry["correct"] = False
    if not entry["correct"]:
        failed = attempted
    entry.update(attempted=attempted, failed=failed)
    return entry


def print_entry(name: str, entry: dict) -> None:
    print(f"\n== {name}: attempted {entry['attempted']}, "
          f"failed {entry['failed']}, correct {entry['correct']}")
    if "oracle" in entry:
        o = entry["oracle"]
        print(f"   oracle ({o['steps']} steps): {o['rule']}; "
              f"max |diff| = {o['max_abs_diff']:.3g}")
    for note in entry["notes"]:
        print(f"   note: {note}")
    print(f"   {'metric':<34}{'unit':<10}{'median':>14}{'q1':>14}"
          f"{'q3':>14}{'n':>5}")
    for metric, m in entry["metrics"].items():
        print(f"   {metric:<34}{m['unit']:<10}{m['median']:>14.6g}"
              f"{m['q1']:>14.6g}{m['q3']:>14.6g}{m['n']:>5}")


def derived_ratios(workloads: dict) -> dict:
    """The paper's headline, as ratios with their base (not gated)."""
    def step(name):
        m = workloads.get(name, {}).get("metrics", {}).get("step_ms")
        return m["median"] if m else None

    out = {}
    serial, ca, orig = step("serial"), step("ca-y2"), step("orig-y2")
    for name, x in (("ca-y2", ca), ("orig-y2", orig)):
        if serial and x:
            out[f"speedup_vs_serial[{name}]"] = {
                "value": serial / x, "base": "serial.step_ms / X.step_ms"}
    if ca and orig:
        out["ca_over_orig"] = {
            "value": orig / ca, "base": "orig-y2.step_ms / ca-y2.step_ms"}
    return out


def provenance(args, entries: dict) -> dict:
    def first_line(cmd):
        try:
            return subprocess.run(
                cmd, capture_output=True, text=True, cwd=ROOT, timeout=10,
            ).stdout.strip().splitlines()[0]
        except (OSError, subprocess.SubprocessError, IndexError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh
                 if ln.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = os.cpu_count() or 1
    any_entry = next(iter(entries.values()), {})
    return {
        "git_sha": first_line(["git", "rev-parse", "HEAD"]),
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": any_entry.get("numpy", "unknown"),
        "compiler": first_line(["cc", "--version"]),
        "fused_backend": any_entry.get("fused_backend", "unknown"),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": bool(args.smoke),
        "oversubscribed": nproc < max(WORKLOADS[w].nprocs for w in entries),
    }


def driver_line(entry: dict) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    return json.dumps({
        "correct": bool(entry["correct"]),
        "attempted": max(1, entry["attempted"]),
        "failed": entry["failed"],
        "metrics": {
            k: {"value": m["median"], "unit": m["unit"]}
            for k, m in entry["metrics"].items()
        },
    })


def main(argv=None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--seconds", type=float, default=contract["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny mesh, 2 pairs: checks the plumbing, not speed")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare, contract)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if set(names) != set(WORKLOADS):
        print("BENCHMARK.json and common.WORKLOADS disagree", file=sys.stderr)
        return 2
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)

    selected = [args.workload] if args.workload else names
    entries = {}
    for name in selected:
        entries[name] = run_workload(name, args, contract)
        print_entry(name, entries[name])
    result = {
        "schema": SCHEMA,
        "provenance": provenance(args, entries),
        "workloads": entries,
        "derived": derived_ratios(entries),
    }
    for key, d in result["derived"].items():
        print(f"   {key} = {d['value']:.3f}x  ({d['base']})")
    stem = "results_trace" if args.trace else "results"
    if args.workload:
        stem += f"_{args.workload}"
    path = args.out / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1))
    print(f"\nresult set: {path}")
    ok = all(e["correct"] and e["failed"] == 0 for e in entries.values())
    if args.workload:
        print(driver_line(entries[args.workload]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
