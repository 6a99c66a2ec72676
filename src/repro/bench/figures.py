"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench.figures fig1
    python -m repro.bench.figures fig6 fig7 fig8
    python -m repro.bench.figures tables
    python -m repro.bench.figures measured   # executes the real cores
    python -m repro.bench.figures all
    python -m repro.bench.figures --json [out.json]   # the report as JSON

The ``fig*``, ``scaling`` and ``sweeps`` targets and the JSON report behind
EXPERIMENTS.md evaluate :class:`repro.perf.PerformanceModel` on the paper's
machine at the paper's scale (720 x 360 x 30, 10 model years, 128..1024
ranks), which no single machine can execute; ``measured`` runs the actual
algorithms at a reduced scale, to check that the projected orderings also
hold for the executable implementations.
"""
from __future__ import annotations

import json
import sys
from dataclasses import replace
from functools import partial
from typing import Any, Iterator

from repro.analysis.imbalance import compare_decompositions
from repro.analysis.lower_bounds import Sec53Costs, section53_costs
from repro.constants import ModelParameters
from repro.core.driver import DynamicalCore, StepDiagnostics
from repro.core.operator_form import render_flow, step_schedule
from repro.grid.decomposition import Decomposition, xy_decomposition, yz_decomposition
from repro.grid.latlon import LatLonGrid, paper_grid
from repro.operators.stencil_meta import (
    TABLE1_ADAPTATION,
    TABLE2_ADVECTION,
    TABLE3_SMOOTHING,
    render_table,
)
from repro.perf.model import ALGORITHMS, PAPER_PROC_SWEEP, PerformanceModel
from repro.physics import HeldSuarezForcing, perturbed_rest_state
from repro.simmpi.machine import TIANHE2_LIKE
from repro.state.variables import ModelState

#: Figures 6-8: the :class:`repro.perf.model.AlgorithmTiming` attribute
#: each one plots, and its title
FIGURES = {
    "fig6": ("collective_comm_time", "Figure 6: time for collective communication"),
    "fig7": ("stencil_comm_time", "Figure 7: communication time of stencil"),
    "fig8": ("total_time", "Figure 8: total runtime of dynamical core"),
}

#: ``(label, CA, Y-Z, X-Y)`` total runtimes of one sweep configuration
SweepRow = tuple[str, float, float, float]

#: the resolution sweep's meshes: 2, 1 and 0.5 degrees
RESOLUTIONS = ((180, 90, 30), (360, 180, 30), (720, 360, 30))

#: per-algorithm series of the JSON report: name -> ``AlgorithmTiming`` attribute
REPORT_SERIES = {
    "collective_s": "collective_comm_time",
    "stencil_s": "stencil_comm_time",
    "compute_s": "compute_time",
    "total_s": "total_time",
    "comm_fraction": "comm_fraction",
}


def _paper_model() -> PerformanceModel:
    return PerformanceModel(paper_grid())


# ---- Figures 1, 6, 7, 8: the projection -------------------------------------
def fig1_series(
    model: PerformanceModel, procs: list[int] = PAPER_PROC_SWEEP
) -> dict[str, list[float]]:
    """Figure 1: communication vs computation percentage of the dycore
    runtime (original algorithm, both decompositions)."""
    series: dict[str, list[float]] = {}
    for alg in ("original-xy", "original-yz"):
        frac = [model.timing(alg, p).comm_fraction for p in procs]
        series[f"{alg} comm%"] = [100.0 * f for f in frac]
        series[f"{alg} comp%"] = [100.0 * (1.0 - f) for f in frac]
    return series


def figure_series(
    model: PerformanceModel, attr: str, procs: list[int] = PAPER_PROC_SWEEP
) -> dict[str, list[float]]:
    """Figures 6-8: ``attr`` of every algorithm's timing, per process count."""
    return {
        alg: [getattr(model.timing(alg, p), attr) for p in procs]
        for alg in ALGORITHMS
    }


def render_figure(
    target: str,
    model: PerformanceModel | None = None,
    procs: list[int] = PAPER_PROC_SWEEP,
) -> str:
    """Plain-text rendering of ``fig1`` / ``fig6`` / ``fig7`` / ``fig8``
    (rows = series, columns = p)."""
    pm = model or _paper_model()
    if target == "fig1":
        title = "Figure 1: communication/computation share of dycore runtime [%]"
        series = fig1_series(pm, procs)
    else:
        attr, title = FIGURES[target]
        title += " (10 model years) [s]"
        series = figure_series(pm, attr, procs)
    header = f"{'algorithm':>14} " + " ".join(f"{p:>12}" for p in procs)
    lines = [title, header, "-" * len(header)]
    for name, values in series.items():
        lines.append(f"{name:>14} " + " ".join(f"{v:>12.1f}" for v in values))
    return "\n".join(lines)


# ---- tables, Sec. 5.3 and Figure 2 ------------------------------------------
def render_tables() -> str:
    """Tables 1-3 as declared stencil footprints."""
    tables = [
        (TABLE1_ADAPTATION, "Adaptation Process"),
        (TABLE2_ADVECTION, "Advection Process"),
        (TABLE3_SMOOTHING, "Smoothing"),
    ]
    return "\n\n".join(
        render_table(table, f"Table {i}: Stencil Computation in {what}")
        for i, (table, what) in enumerate(tables, start=1)
    )


def _sec53(grid: LatLonGrid) -> Iterator[tuple[int, str, Sec53Costs]]:
    """Per-step Sec. 5.3 costs of each algorithm on its realistic
    decomposition, for every paper process count."""
    for p in PAPER_PROC_SWEEP:
        dyz = yz_decomposition(grid.nx, grid.ny, grid.nz, p)
        dxy = xy_decomposition(grid.nx, grid.ny, grid.nz, p)
        for alg, d in (("ca", dyz), ("yz", dyz), ("xy", dxy)):
            yield p, alg, section53_costs(
                alg, grid.nx, grid.ny, grid.nz, d.px, d.py, d.pz
            )


def render_sec53() -> str:
    """The Section 5.3 asymptotic W / S costs at paper scale."""
    lines = ["Section 5.3: asymptotic communication (W) and latency (S) costs"]
    lines.append(f"{'p':>6} {'alg':>6} {'W [words]':>14} {'S [syncs]':>10}")
    for p, alg, c in _sec53(paper_grid()):
        lines.append(f"{p:>6} {alg:>6} {c.W:>14.0f} {c.S:>10.0f}")
    return "\n".join(lines)


def render_fig2() -> str:
    """Figure 2: the operator form of the calculating flow, for both
    algorithms."""
    return "\n\n".join(
        [
            "Figure 2: the operator form of the calculating flow",
            render_flow(step_schedule("original", "yz", 3)),
            render_flow(step_schedule("ca", "yz", 3)),
        ]
    )


# ---- the executed cores -----------------------------------------------------
def small_scale_measured(
    nsteps: int = 2,
) -> dict[str, tuple[Decomposition, StepDiagnostics, ModelState]]:
    """Execute the three algorithms on 4 simulated ranks at 32x16x8, all
    from the same initial condition: per algorithm its decomposition,
    diagnostics (logical-clock breakdown + counters) and final state."""
    grid = LatLonGrid(nx=32, ny=16, nz=8)
    params = ModelParameters(dt_adaptation=60.0, dt_advection=60.0, m_iterations=1)
    forcing = HeldSuarezForcing()
    state0 = perturbed_rest_state(grid, amplitude_k=2.0)
    out = {}
    for alg in ALGORITHMS:
        core = DynamicalCore(
            grid, algorithm=alg, nprocs=4, params=params, forcing=forcing
        )
        final, diag = core.run(state0, nsteps)
        out[alg] = (core.config.resolve_decomposition(), diag, final)
    return out


def render_measured() -> str:
    """Small-scale executed comparison of the three algorithms."""
    lines = [
        "Executed small-scale comparison (simulated cluster, logical clock)",
        f"{'algorithm':>14} {'decomp':>10} {'stencil[s]':>11} {'collect[s]':>11} "
        f"{'compute[s]':>11} {'msgs':>8} {'c_calls':>8} {'exchanges':>9}",
    ]
    for alg, (dec, d, _) in small_scale_measured().items():
        lines.append(
            f"{alg:>14} {f'{dec.px}x{dec.py}x{dec.pz}':>10} "
            f"{d.stencil_comm_time:>11.5f} {d.collective_comm_time:>11.5f} "
            f"{d.compute_time:>11.5f} {d.p2p_messages:>8} {d.c_calls:>8} "
            f"{d.exchanges:>9}"
        )
    return "\n".join(lines)


# ---- strong scaling and parameter sweeps (the projection) -------------------
def strong_scaling(
    model: PerformanceModel, algorithm: str, procs: list[int] = PAPER_PROC_SWEEP
) -> list[dict[str, float]]:
    """Sec. 5.3's scalability claim, quantified: total time, speedup and
    per-processor efficiency ``(T_base p_base) / (T_p p)`` relative to the
    smallest job size."""
    base = min(procs)
    t_base = model.timing(algorithm, base).total_time
    out = []
    for p in sorted(procs):
        t = model.timing(algorithm, p).total_time
        out.append(
            {
                "p": p,
                "total_s": t,
                "speedup": t_base / t,
                "efficiency": (t_base * base) / (t * p),
            }
        )
    return out


def render_scaling(
    model: PerformanceModel | None = None,
    algorithms: tuple[str, ...] = ("original-xy", "original-yz", "original-3d", "ca"),
    procs: list[int] = PAPER_PROC_SWEEP,
) -> str:
    """Strong-scaling comparison (by default incl. the 3-D baseline)."""
    pm = model or _paper_model()
    g = pm.grid
    lines = [
        f"strong scaling, {pm.nsteps} steps ({g.nx}x{g.ny}x{g.nz})",
        f"{'algorithm':>14} {'p':>6} {'total[s]':>12} {'speedup':>8} {'eff':>6}",
    ]
    for alg in algorithms:
        for pt in strong_scaling(pm, alg, procs):
            lines.append(
                f"{alg:>14} {pt['p']:>6} {pt['total_s']:>12.0f} "
                f"{pt['speedup']:>8.2f} {pt['efficiency']:>6.2f}"
            )
    return "\n".join(lines)


def sweep(nprocs: int, models: dict[str, PerformanceModel]) -> list[SweepRow]:
    """One ``(label, CA, Y-Z, X-Y)`` row of projected total runtimes on
    ``nprocs`` ranks per labelled model."""
    algs = ("ca", "original-yz", "original-xy")
    return [
        (label, *(pm.timing(a, nprocs).total_time for a in algs))
        for label, pm in models.items()
    ]


def resolution_sweep(nprocs: int = 256) -> list[SweepRow]:
    """CA advantage across the ``RESOLUTIONS`` (the paper's mesh is the
    0.5-degree point).  The time step shrinks proportionally with
    resolution."""
    return sweep(
        nprocs,
        {
            f"{nx}x{ny}x{nz}": PerformanceModel(
                LatLonGrid(nx=nx, ny=ny, nz=nz),
                dt_step=PerformanceModel.PAPER_DT * (720 / nx),
            )
            for nx, ny, nz in RESOLUTIONS
        },
    )


def m_iterations_sweep(
    nprocs: int = 512, m_values: tuple[int, ...] = (1, 2, 3, 4)
) -> list[SweepRow]:
    """Sensitivity to the number of nonlinear iterations M.

    Two competing effects: larger M saves more exchanges (the original
    pays 3M + 4, CA always 2) but also widens CA's halos (3M), growing
    the redundant computation quadratically on small blocks.  At the
    paper's block sizes the redundancy effect wins, so the CA *speedup
    ratio* shrinks with M even though CA stays ahead — a trade-off the
    paper does not discuss but the model exposes.
    """
    return sweep(
        nprocs,
        {
            f"M={m}": PerformanceModel(
                paper_grid(),
                params=ModelParameters(
                    dt_adaptation=60.0, dt_advection=60.0 * m, m_iterations=m
                ),
            )
            for m in m_values
        },
    )


def latency_sweep(
    nprocs: int = 512, factors: tuple[float, ...] = (0.25, 1.0, 4.0)
) -> list[SweepRow]:
    """Sensitivity to network latency: every latency-like term of the
    paper's machine (per message, per round, per collective) scaled.

    The CA algorithm trades volume for frequency, so its advantage grows
    on higher-latency fabrics and shrinks toward zero-latency ones.
    """
    m = TIANHE2_LIKE
    return sweep(
        nprocs,
        {
            f"latency x{f:g}": PerformanceModel(
                paper_grid(),
                machine=replace(
                    m,
                    alpha=m.alpha * f,
                    round_overhead=m.round_overhead * f,
                    sync_base=m.sync_base * f,
                    sync_per_doubling=m.sync_per_doubling * f,
                ),
            )
            for f in factors
        },
    )


def render_sweep(rows: list[SweepRow], title: str) -> str:
    """Plain-text table of one sweep."""
    lines = [
        title,
        f"{'config':>14} {'CA[s]':>10} {'YZ[s]':>10} {'XY[s]':>10} "
        f"{'CA/YZ':>7} {'CA/XY':>7}",
    ]
    for label, ca, yz, xy in rows:
        lines.append(
            f"{label:>14} {ca:>10.0f} {yz:>10.0f} {xy:>10.0f} "
            f"{yz / ca:>7.2f} {xy / ca:>7.2f}"
        )
    return "\n".join(lines)


def render_sweeps() -> str:
    """Parameter sweeps around the paper's configuration."""
    return "\n\n".join(
        [
            render_sweep(resolution_sweep(), "resolution sweep (p = 256)"),
            render_sweep(m_iterations_sweep(), "M sweep (p = 512)"),
            render_sweep(latency_sweep(), "network-latency sweep (p = 512)"),
        ]
    )


def render_imbalance() -> str:
    """Polar-filter load imbalance per decomposition."""
    g = paper_grid()
    lines = ["polar-filter load imbalance (720x360x30)"]
    lines.append(f"{'p':>6} {'decomp':>6} {'imbalance':>10} {'idle ranks':>11}")
    for p in PAPER_PROC_SWEEP:
        for name, rep in compare_decompositions(g, p).items():
            lines.append(
                f"{p:>6} {name:>6} {rep.imbalance_factor:>10.1f} "
                f"{100 * rep.idle_fraction:>10.0f}%"
            )
    return "\n".join(lines)


# ---- the JSON report ----------------------------------------------------------
def headline_claims(model: PerformanceModel) -> dict[str, dict[str, float]]:
    """The paper's anchor numbers, as reproduced."""
    t = {(a, p): model.timing(a, p) for a in ALGORITHMS for p in PAPER_PROC_SWEEP}

    def mean_yz_over_ca(attr: str) -> float:
        ratios = [
            getattr(t["original-yz", p], attr) / getattr(t["ca", p], attr)
            for p in PAPER_PROC_SWEEP
        ]
        return sum(ratios) / len(ratios)

    def saved_1024(alg: str) -> float:
        return t[alg, 1024].total_time - t["ca", 1024].total_time

    ca_512, xy_512 = t["ca", 512].total_time, t["original-xy", 512].total_time
    claims = [
        ("reduction_vs_xy_512", 0.54, 1.0 - ca_512 / xy_512),
        ("stencil_speedup_avg", 3.9, mean_yz_over_ca("stencil_comm_time")),
        ("collective_speedup_avg", 1.4, mean_yz_over_ca("collective_comm_time")),
        ("stencil_time_yz_1024_s", 17_400, t["original-yz", 1024].stencil_comm_time),
        ("stencil_time_ca_1024_s", 2_800, t["ca", 1024].stencil_comm_time),
        ("saved_vs_xy_1024_s", 113_500, saved_1024("original-xy")),
        ("saved_vs_yz_1024_s", 46_300, saved_1024("original-yz")),
    ]
    return {name: {"paper": paper, "reproduced": ours} for name, paper, ours in claims}


def full_report(model: PerformanceModel | None = None) -> dict[str, Any]:
    """Everything: figures, headline claims, Sec. 5.3 costs, scaling."""
    model = model or _paper_model()
    figures: dict[str, Any] = {"procs": PAPER_PROC_SWEEP}
    for alg in ALGORITHMS:
        timings = [model.timing(alg, p) for p in PAPER_PROC_SWEEP]
        figures[alg] = {
            key: [getattr(t, attr) for t in timings]
            for key, attr in REPORT_SERIES.items()
        }
    sec53: dict[int, dict[str, Any]] = {}
    for p, alg, c in _sec53(model.grid):
        row = sec53.setdefault(p, {"p": p})
        row[f"W_{alg}"] = c.W
        row[f"S_{alg}"] = c.S
    return {
        "meta": {
            "paper": "Xiao et al., Communication-Avoiding for Dynamical "
            "Core of Atmospheric General Circulation Model, ICPP 2018",
            "mesh": [model.grid.nx, model.grid.ny, model.grid.nz],
            "model_steps": model.nsteps,
            "dt_step_s": model.dt_step,
        },
        "figures": figures,
        "headline_claims": headline_claims(model),
        "sec53": list(sec53.values()),
        "strong_scaling": {alg: strong_scaling(model, alg) for alg in ALGORITHMS},
    }


TARGETS = {
    "fig1": partial(render_figure, "fig1"),
    "fig2": render_fig2,
    "fig6": partial(render_figure, "fig6"),
    "fig7": partial(render_figure, "fig7"),
    "fig8": partial(render_figure, "fig8"),
    "tables": render_tables,
    "sec53": render_sec53,
    "measured": render_measured,
    "scaling": render_scaling,
    "sweeps": render_sweeps,
    "imbalance": render_imbalance,
}


def main(argv: list[str]) -> int:
    if argv[:1] == ["--json"]:
        if len(argv) > 2:
            print("usage: --json [out.json]")
            return 2
        text = json.dumps(full_report(), indent=2)
        if len(argv) == 2:
            with open(argv[1], "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {argv[1]}")
        else:
            print(text)
        return 0
    targets = argv or ["all"]
    if targets == ["all"]:
        targets = list(TARGETS)
    unknown = [t for t in targets if t not in TARGETS]
    if unknown:
        print(f"unknown targets: {unknown}; available: {sorted(TARGETS)} or 'all'")
        return 2
    for t in targets:
        print(TARGETS[t]())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
