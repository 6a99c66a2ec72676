"""Wall-clock benchmark harness for the executed cores.

Unlike :mod:`repro.perf.model` (the paper's *analytic* cost model, in
simulated-machine seconds), this module measures real elapsed time of the
executed kernels and integrators on fixed meshes with pinned seeds, and
emits a schema-versioned JSON artifact that CI archives and gates on:

* per-kernel timings of the serial hot path (``C`` / adaptation /
  advection / smoothing);
* end-to-end step throughput of the serial core and the distributed rank
  programs (original-yz and CA on the simulated cluster);
* workspace allocation counters (fresh vs reused buffers), which make the
  "zero steady-state allocations" claim measurable.

The regression gate compares the current report's step throughput
against a committed baseline and fails on slowdowns beyond a tolerance;
speedups just move the baseline the next time it is refreshed.
"""
from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 2

#: pinned RNG seed of the benchmark initial states
BENCH_SEED = 1234


@dataclass(frozen=True)
class MeshSpec:
    """A fixed benchmark mesh."""

    name: str
    nx: int
    ny: int
    nz: int
    nsteps: int  # timed steps for throughput cases


SMALL = MeshSpec("small", 32, 16, 6, nsteps=5)
#: tall enough that CA at 4 ranks keeps ny/p_y = 12 > 3M + 2 = 11 halo rows
MEDIUM = MeshSpec("medium", 72, 48, 12, nsteps=8)
#: CA needs ny/p_y > 3M + 2 halo rows, hence the taller mesh
CA_SMALL = MeshSpec("ca-small", 32, 32, 6, nsteps=5)

MESHES = {m.name: m for m in (SMALL, MEDIUM, CA_SMALL)}


def _grid(mesh: MeshSpec):
    from repro.grid.latlon import LatLonGrid

    return LatLonGrid(nx=mesh.nx, ny=mesh.ny, nz=mesh.nz)


def _initial(grid):
    from repro.physics.initial import balanced_random_state

    return balanced_random_state(grid, np.random.default_rng(BENCH_SEED))


# ---------------------------------------------------------------------------
# serial step throughput
# ---------------------------------------------------------------------------
def bench_serial(mesh: MeshSpec, repeats: int = 1) -> dict:
    """Time the serial core on ``mesh``; returns the case record."""
    from repro.core.integrator import SerialCore

    grid = _grid(mesh)
    s0 = _initial(grid)
    best = float("inf")
    for _ in range(repeats):
        core = SerialCore(grid)
        w = core.pad(s0)
        w = core.step(w)  # warmup: pool fill, code paths hot
        t0 = time.perf_counter()
        for _ in range(mesh.nsteps):
            w = core.step(w)
        best = min(best, (time.perf_counter() - t0) / mesh.nsteps)
    return {
        "kind": "serial_step",
        "mesh": mesh.name,
        "shape": [mesh.nz, mesh.ny, mesh.nx],
        "timed_steps": mesh.nsteps,
        "ws_ms_per_step": best * 1e3,
        "steps_per_sec": 1.0 / best,
        "allocations": {
            "fresh": core.ws.fresh_allocations,
            "reuses": core.ws.reuses,
            "pooled_bytes": core.ws.pooled_bytes,
        },
    }


# ---------------------------------------------------------------------------
# per-kernel timings on the serial engine
# ---------------------------------------------------------------------------
def bench_kernels(mesh: MeshSpec, inner: int = 5) -> dict:
    """Time each hot-path kernel of the reference tier in isolation."""
    from repro.core.integrator import SerialCore
    from repro.operators.filter import apply_filter_rows, filter_plan

    grid = _grid(mesh)
    core = SerialCore(grid)
    eng = core.engine
    w = core.pad(_initial(grid))
    vd = eng.vertical(w)
    out = core._ring.scratch(w)
    geom, params = core.geom, core.params

    def polar_filter() -> None:
        mask, factors = filter_plan(
            geom.sin_c, geom.grid.nx, params.filter_latitude,
            params.filter_profile,
        )
        if mask.any():
            apply_filter_rows(w.U, mask, factors)

    def timed(fn) -> float:
        fn()  # warmup
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        return (time.perf_counter() - t0) / inner * 1e3  # ms

    kernels = {
        "vertical": lambda: eng.vertical(w),
        "adaptation": lambda: eng.adaptation(w, vd),
        "advection": lambda: eng.advection(w, vd),
        "smoothing": lambda: core.kernels.smooth_state_into(
            w, params, out, core.ws, core._smoothers
        ),
        "polar_filter": polar_filter,
    }
    return {
        "kind": "kernels",
        "mesh": mesh.name,
        "kernels": {name: {"ws_ms": timed(fn)} for name, fn in kernels.items()},
    }


# ---------------------------------------------------------------------------
# kernel tiers: reference vs fused serial step throughput
# ---------------------------------------------------------------------------
def bench_kernel_tiers(mesh: MeshSpec, repeats: int = 1) -> dict:
    """Serial step throughput of the reference vs fused kernel tiers.

    Both tiers step the serial core from the same pinned initial
    state; the final trajectories must be bitwise equal (recorded as
    ``bit_identical``, gated absolutely by
    :func:`kernel_tier_violations`).  The fused-throughput gate is armed
    only on the medium mesh when the compiled C backend actually
    resolved — on hosts without a C compiler the numpy fallback is
    recorded and the gate skipped, so the benchmark degrades gracefully
    instead of failing.
    """
    from repro.core.integrator import SerialCore
    from repro.kernels import kernel_set

    grid = _grid(mesh)
    s0 = _initial(grid)
    times: dict[str, float] = {"reference": float("inf"), "fused": float("inf")}
    finals: dict[str, object] = {}
    # tiers are interleaved within each repeat so a load spike on a busy
    # host degrades both measurements instead of skewing the ratio
    for _ in range(max(repeats, 2)):
        for tier in ("reference", "fused"):
            core = SerialCore(grid, kernel_tier=tier)
            w = core.pad(s0)
            w = core.step(w)  # warmup: pool fill, plan + library build
            t0 = time.perf_counter()
            for _ in range(mesh.nsteps):
                w = core.step(w)
            dt = (time.perf_counter() - t0) / mesh.nsteps
            times[tier] = min(times[tier], dt)
            finals[tier] = w
    bit_identical = all(
        np.array_equal(
            getattr(finals["reference"], f), getattr(finals["fused"], f)
        )
        for f in ("U", "V", "Phi", "psa")
    )
    fused = kernel_set("fused").describe()
    backend = fused["backend"]
    compiled = backend == "c"
    return {
        "kind": "kernel_tiers",
        "mesh": mesh.name,
        "shape": [mesh.nz, mesh.ny, mesh.nx],
        "timed_steps": mesh.nsteps,
        "reference_ms_per_step": times["reference"] * 1e3,
        "fused_ms_per_step": times["fused"] * 1e3,
        "speedup": times["reference"] / times["fused"],
        "steps_per_sec": 1.0 / times["fused"],
        "backend": backend,
        "division": fused["division"],
        "compiled": compiled,
        "bit_identical": bit_identical,
        "gate_min_speedup": 2.0,
        "gate_enforced": compiled and mesh.name == "medium",
    }


def kernel_tier_violations(
    report: dict, baseline: dict | None = None
) -> list[str]:
    """Kernel-tier cases that break bit-identity or the fused-speedup gate.

    Bit-identity is absolute: wherever a tier case ran, whatever the
    backend, the fused trajectory must equal the reference bitwise.  The
    throughput gate requires the fused tier to reach
    ``gate_min_speedup`` times the reference serial step rate — measured
    against the committed baseline's reference time when a baseline is
    supplied (the acceptance form of the gate), else against the
    same-run reference — and fires only on cases marked
    ``gate_enforced`` (medium mesh with a compiled backend; the numpy
    fallback is recorded but never gated).
    """
    base_by_key = (
        {case_key(c): c for c in baseline["cases"]} if baseline else {}
    )
    violations = []
    for case in report["cases"]:
        if case.get("kind") != "kernel_tiers":
            continue
        if not case.get("bit_identical", True):
            violations.append(
                f"{case_key(case)}: fused[{case['backend']}] trajectory "
                f"diverges bitwise from the reference tier"
            )
        if not case.get("gate_enforced"):
            continue
        ref_ms = case["reference_ms_per_step"]
        ref_src = "same-run reference"
        base = base_by_key.get(case_key(case))
        if base is not None and "reference_ms_per_step" in base:
            ref_ms = base["reference_ms_per_step"]
            ref_src = "baseline reference"
        need = case.get("gate_min_speedup", 2.0)
        speedup = ref_ms / case["fused_ms_per_step"]
        if speedup < need:
            violations.append(
                f"{case_key(case)}: fused[{case['backend']}] at "
                f"{case['fused_ms_per_step']:.2f} ms/step is only "
                f"x{speedup:.2f} vs the {ref_src} ({ref_ms:.2f} ms), "
                f"below the x{need:.1f} gate"
            )
    return violations


# ---------------------------------------------------------------------------
# distributed rank programs on the simulated cluster
# ---------------------------------------------------------------------------
def bench_core(mesh: MeshSpec, algorithm: str, nprocs: int, nsteps: int) -> dict:
    """Wall-clock one distributed run (executed numerics, simulated comm).

    The measured time includes the launcher's thread scheduling, so this
    is a *pipeline* throughput number, not a projection of cluster
    performance — that is :mod:`repro.perf.model`'s job.
    """
    from repro.core.driver import DynamicalCore

    grid = _grid(mesh)
    s0 = _initial(grid)
    core = DynamicalCore(
        grid, algorithm=algorithm, nprocs=nprocs,
        kernel_tier="reference",  # the tier the baseline was recorded on
    )
    core.run(s0, 1)  # warmup
    t0 = time.perf_counter()
    core.run(s0, nsteps)
    per_step = (time.perf_counter() - t0) / nsteps
    return {
        "kind": "distributed_step",
        "mesh": mesh.name,
        "algorithm": algorithm,
        "nprocs": nprocs,
        "timed_steps": nsteps,
        "ws_ms_per_step": per_step * 1e3,
        "steps_per_sec": 1.0 / per_step,
    }


# ---------------------------------------------------------------------------
# multicore scaling of the process backend
# ---------------------------------------------------------------------------
def bench_parallel_scaling(
    mesh: MeshSpec,
    algorithms: tuple[str, ...] = ("original-yz", "ca"),
    nprocs_list: tuple[int, ...] = (1, 2, 4),
    nsteps: int | None = None,
) -> list[dict]:
    """Wall-clock the process backend across rank counts.

    Unlike :func:`bench_core` (threads multiplexed on one core, so wall
    time is *pipeline* throughput), the process backend runs one OS
    process per rank over shared-memory rings — on a multicore host the
    ranks genuinely overlap and the CA core's communication avoidance
    shows up as wall-clock speedup.  Emits one case per (algorithm,
    nprocs) with parallel efficiency relative to the 1-rank run and the
    serial workspace step as the absolute reference; the ``ca`` case at
    the highest rank count carries ``gate_beats_serial`` so the
    regression gate can require real multicore wins where the host has
    the cores (see :func:`parallel_scaling_violations`).
    """
    from repro.core.driver import DynamicalCore
    from repro.core.integrator import SerialCore

    grid = _grid(mesh)
    s0 = _initial(grid)
    if nsteps is None:
        nsteps = mesh.nsteps

    score = SerialCore(grid)
    w = score.pad(s0)
    w = score.step(w)  # warmup
    t0 = time.perf_counter()
    for _ in range(nsteps):
        w = score.step(w)
    serial_ms = (time.perf_counter() - t0) / nsteps * 1e3

    ncpu = os.cpu_count() or 1
    gate_n = max(nprocs_list)
    cases = []
    for algorithm in algorithms:
        base_ms = None  # 1-rank time of this algorithm (efficiency base)
        for nprocs in nprocs_list:
            core = DynamicalCore(
                grid, algorithm=algorithm, nprocs=nprocs, backend="process",
                kernel_tier="reference",  # the tier of the serial base above
            )
            core.run(s0, 1)  # warmup: forks ranks, fills pools
            t0 = time.perf_counter()
            core.run(s0, nsteps)
            ms = (time.perf_counter() - t0) / nsteps * 1e3
            if base_ms is None:
                base_ms = ms * nprocs_list[0]  # normalise if list skips 1
            speedup_vs_base = base_ms / ms
            cases.append(
                {
                    "kind": "parallel_scaling",
                    "mesh": mesh.name,
                    "algorithm": algorithm,
                    "nprocs": nprocs,
                    "backend": "process",
                    "timed_steps": nsteps,
                    "ms_per_step": ms,
                    "steps_per_sec": 1e3 / ms,
                    "serial_ws_ms_per_step": serial_ms,
                    "speedup_vs_serial": serial_ms / ms,
                    "efficiency": speedup_vs_base / nprocs,
                    "cpu_count": ncpu,
                    # the gate targets the medium mesh: on toy meshes the
                    # per-message overhead can dominate any parallel win
                    "gate_beats_serial": (
                        algorithm == "ca"
                        and nprocs == gate_n
                        and mesh.name == "medium"
                    ),
                    "gate_enforced": (
                        algorithm == "ca"
                        and nprocs == gate_n
                        and mesh.name == "medium"
                        and ncpu >= nprocs
                    ),
                }
            )
    return cases


def parallel_scaling_violations(report: dict) -> list[str]:
    """Gated parallel-scaling cases that fail to beat the serial step.

    A case marked ``gate_beats_serial`` (the CA core at the highest
    benchmarked rank count) must out-run the serial workspace step in
    wall-clock — but only on hosts with at least that many cores; on
    smaller machines the processes time-share one core and no parallel
    speedup is physically possible, so the case is recorded (with its
    ``cpu_count``) and the gate is skipped.  CI runs this on multicore
    runners where the gate is real.
    """
    violations = []
    ncpu = report.get("machine", {}).get("cpu_count") or 1
    for case in report["cases"]:
        if case.get("kind") != "parallel_scaling":
            continue
        if not case.get("gate_beats_serial"):
            continue
        if ncpu < case["nprocs"]:
            continue  # single/few-core host: parallel win not expected
        if case["ms_per_step"] >= case["serial_ws_ms_per_step"]:
            violations.append(
                f"{case_key(case)}: {case['ms_per_step']:.2f} ms/step on "
                f"{case['nprocs']} process ranks does not beat the serial "
                f"workspace step ({case['serial_ws_ms_per_step']:.2f} ms) "
                f"on a {ncpu}-core host"
            )
    return violations


# ---------------------------------------------------------------------------
# fault-free overhead of the reliable transport
# ---------------------------------------------------------------------------
def bench_transport_overhead(mesh: MeshSpec, nsteps: int) -> dict:
    """Cost of the reliable transport on a clean network.

    Runs the same distributed program twice — once on the raw network
    (``transport=None``) and once with the sequence-numbered retransmit
    layer armed — with no faults injected.  The *logical* makespans are
    deterministic (a fault-free reliable send pays no retransmissions,
    so they should be identical); the wall-clock numbers are reported
    for context but are too noisy to gate on shared runners.
    """
    from repro.core.driver import DynamicalCore
    from repro.simmpi import TransportConfig

    grid = _grid(mesh)
    s0 = _initial(grid)
    wall: dict[str, float] = {}
    logical: dict[str, float] = {}
    for label, transport in (("plain", None), ("resilient", TransportConfig())):
        core = DynamicalCore(
            grid, algorithm="original-yz", nprocs=2, transport=transport
        )
        core.run(s0, 1)  # warmup
        t0 = time.perf_counter()
        _, diag = core.run(s0, nsteps)
        wall[label] = (time.perf_counter() - t0) / nsteps
        logical[label] = diag.makespan
    return {
        "kind": "transport_overhead",
        "mesh": mesh.name,
        "algorithm": "original-yz",
        "nprocs": 2,
        "timed_steps": nsteps,
        "plain_ms_per_step": wall["plain"] * 1e3,
        "resilient_ms_per_step": wall["resilient"] * 1e3,
        "plain_makespan": logical["plain"],
        "resilient_makespan": logical["resilient"],
        "logical_overhead_frac": (
            (logical["resilient"] - logical["plain"]) / logical["plain"]
        ),
        "wall_overhead_frac": wall["resilient"] / wall["plain"] - 1.0,
    }


def transport_overhead_violations(report: dict, limit: float = 0.05) -> list[str]:
    """Transport-overhead cases whose *logical* overhead exceeds ``limit``.

    This gate is absolute (no baseline needed): the simulated clocks are
    deterministic, so a clean run through the reliable transport must
    cost within ``limit`` of the raw network — today it costs exactly
    nothing, and this keeps it honest.
    """
    violations = []
    for case in report["cases"]:
        if case.get("kind") != "transport_overhead":
            continue
        frac = case["logical_overhead_frac"]
        if frac > limit:
            violations.append(
                f"{case_key(case)}: resilient transport costs "
                f"{frac * 100.0:.2f}% logical makespan on a clean network "
                f"(limit {limit * 100.0:.0f}%)"
            )
    return violations


# ---------------------------------------------------------------------------
# elastic rank-loss recovery MTTR
# ---------------------------------------------------------------------------
def bench_recovery_mttr(mesh: MeshSpec, nsteps: int) -> dict:
    """MTTR of one permanent rank loss under each elastic policy.

    Runs a 4-rank resilient integration that loses rank 1 mid-run, once
    per policy (``spare``, ``shrink``), and decomposes the logical MTTR
    into detection+consensus and block-migration time.  Two gates ride
    on this case (:func:`recovery_mttr_violations`):

    * **overhead** — the total recovery time must stay within a bounded
      fraction of the fault-free resilient run's makespan (all logical
      clocks, hence deterministic and safe to gate absolutely);
    * **trajectory anomaly** — the recovered final state must be
      bit-identical to the fault-free chunked trajectory at the
      recovered layout resumed from the same chunk boundary (zero
      tolerance: any drift is an anomaly, not noise).
    """
    import tempfile

    from repro.core.driver import DynamicalCore
    from repro.core.resilience import ResilienceConfig, run_resilient
    from repro.simmpi import FaultPlan, NodeLoss

    grid = _grid(mesh)
    s0 = _initial(grid)
    nprocs, chunk = 4, 2

    def resilient(policy, faults, workdir):
        core = DynamicalCore(grid, algorithm="original-yz", nprocs=nprocs)
        rcfg = ResilienceConfig(
            checkpoint_dir=workdir, checkpoint_interval=chunk,
            max_restarts=4, rank_loss_policy=policy, spare_ranks=1,
            faults=faults,
        )
        return core, *run_resilient(core, s0, nsteps, rcfg)

    def chunked_reference(segments):
        """Fault-free trajectory, chunked like the resilient driver."""
        transport = ResilienceConfig(checkpoint_dir="/unused").transport
        state, step = s0, 0
        for ranks, until in segments:
            core = DynamicalCore(
                grid, algorithm="original-yz", nprocs=ranks,
            )
            while step < until:
                c = min(chunk, nsteps - step)
                state, _, _ = core._run_once(
                    state, c, faults=None, verify_checksums=True,
                    transport=transport, timeout=None, step0=step,
                )
                step += c
        return state

    with tempfile.TemporaryDirectory() as tmp:
        _, _, clean_diag, _ = resilient("abort", None, f"{tmp}/clean")
        policies = {}
        for policy in ("spare", "shrink"):
            faults = FaultPlan(
                seed=BENCH_SEED,
                node_losses=(NodeLoss(rank=1, at_call=30),),
            )
            t0 = time.perf_counter()
            _, final, diag, report = resilient(
                policy, faults, f"{tmp}/{policy}"
            )
            wall = time.perf_counter() - t0
            rl = report.rank_losses[0]
            segments = (
                [(nprocs, nsteps)] if policy == "spare"
                else [(nprocs, rl.step), (report.final_nranks, nsteps)]
            )
            ref = chunked_reference(segments)
            policies[policy] = {
                "mttr": rl.mttr,
                "detect_s": rl.detect_s,
                "migrate_s": rl.migrate_s,
                "recovery_time": report.recovery_time,
                "recovery_frac": report.recovery_time / clean_diag.makespan,
                "final_nranks": report.final_nranks,
                "source": rl.source,
                "trajectory_max_diff": final.max_difference(ref),
                "wall_s": wall,
            }
    return {
        "kind": "recovery_mttr",
        "mesh": mesh.name,
        "algorithm": "original-yz",
        "nprocs": nprocs,
        "timed_steps": nsteps,
        "clean_makespan": clean_diag.makespan,
        "policies": policies,
    }


def recovery_mttr_violations(report: dict, limit: float = 0.5) -> list[str]:
    """Recovery cases breaking the MTTR or trajectory gates.

    ``limit`` bounds the *logical* recovery overhead as a fraction of
    the fault-free makespan; the trajectory gate is zero-tolerance.
    Both are absolute (deterministic logical clocks, bit-level state
    comparison): no baseline report is needed.
    """
    violations = []
    for case in report["cases"]:
        if case.get("kind") != "recovery_mttr":
            continue
        for policy, rec in case["policies"].items():
            if rec["recovery_frac"] > limit:
                violations.append(
                    f"{case_key(case)}[{policy}]: recovery costs "
                    f"{rec['recovery_frac'] * 100.0:.1f}% of the "
                    f"fault-free makespan (limit {limit * 100.0:.0f}%)"
                )
            if rec["trajectory_max_diff"] != 0.0:
                violations.append(
                    f"{case_key(case)}[{policy}]: trajectory anomaly — "
                    f"recovered state differs from the fault-free "
                    f"reference by {rec['trajectory_max_diff']:.3e}"
                )
    return violations


# ---------------------------------------------------------------------------
# report assembly / IO / regression gate
# ---------------------------------------------------------------------------
def _git_sha() -> str | None:
    """Short commit SHA of the working tree, or None outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def machine_info() -> dict:
    """Provenance of one benchmark report: where and on what it ran."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hostname": socket.gethostname(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def run_benchmarks(quick: bool = False, repeats: int = 1) -> dict:
    """The full benchmark suite; ``quick`` trims it to CI size."""
    meshes = [SMALL] if quick else [SMALL, MEDIUM]
    cases = []
    for mesh in meshes:
        cases.append(bench_serial(mesh, repeats=repeats))
    cases.append(bench_kernels(SMALL if quick else MEDIUM))
    cases.append(bench_kernel_tiers(SMALL if quick else MEDIUM, repeats=repeats))
    # distributed cases: a warmup run precedes timing, and enough timed
    # steps to keep launcher scheduling jitter out of the per-step number
    dist_steps = 2 if quick else 6
    cases.append(bench_core(SMALL, "original-yz", 2, dist_steps))
    cases.append(bench_core(CA_SMALL, "ca", 2, dist_steps))
    if quick:
        # CA at 4 ranks needs ny >= 48; the quick mesh tops out at 2
        cases.extend(
            bench_parallel_scaling(CA_SMALL, nprocs_list=(1, 2), nsteps=dist_steps)
        )
    else:
        cases.extend(bench_parallel_scaling(MEDIUM, nprocs_list=(1, 2, 4)))
    cases.append(bench_transport_overhead(SMALL, nsteps=dist_steps))
    cases.append(bench_recovery_mttr(SMALL, nsteps=4))
    return {
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "bench_seed": BENCH_SEED,
        "machine": machine_info(),
        "cases": cases,
    }


def case_key(case: dict) -> str:
    """Stable identity of a case across reports."""
    parts = [case["kind"], case["mesh"]]
    if "algorithm" in case:
        parts += [case["algorithm"], str(case["nprocs"])]
    return ":".join(parts)


def write_report(report: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def load_report(path: str | Path) -> dict:
    report = json.loads(Path(path).read_text())
    version = report.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"benchmark schema {version!r} unsupported "
            f"(expected {SCHEMA_VERSION})"
        )
    return report


def compare_reports(
    current: dict, baseline: dict, tolerance: float = 0.2
) -> list[str]:
    """Regressions of ``current`` vs ``baseline``.

    A case regresses when its step throughput drops more than
    ``tolerance`` (fractional) below the baseline's.  Cases present in
    only one report are ignored (the gate must not block adding or
    retiring benchmarks), as are kernel breakdowns (micro-timings are too
    noisy for shared CI runners; the throughput cases gate).
    """
    base_by_key = {case_key(c): c for c in baseline["cases"]}
    regressions = []
    for case in current["cases"]:
        ref = base_by_key.get(case_key(case))
        if ref is None or "steps_per_sec" not in case:
            continue
        cur, old = case["steps_per_sec"], ref["steps_per_sec"]
        if cur < old * (1.0 - tolerance):
            regressions.append(
                f"{case_key(case)}: {cur:.3f} steps/s vs baseline "
                f"{old:.3f} (-{(1.0 - cur / old) * 100.0:.1f}%, "
                f"tolerance {tolerance * 100.0:.0f}%)"
            )
    return regressions
