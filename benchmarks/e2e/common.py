"""What the benchmark measures: contract, workloads, run sizing, statistics.

Standard library only: the orchestrator (``run.py``) imports this before
any worker has imported numpy.  ``BENCHMARK.json`` at the repo root is the
single source of workload and metric names, units and bounds; the table
below adds what a *name* cannot say — mesh, algorithm, rank count and call
lengths.  A workload pins only what defines it (mesh, ``algorithm``,
``nprocs``, ``backend="process"``, ``kernel_tier="fused"``); every other
core option keeps the repo default, so a change that only flips a default
moves nothing here and a deleted option needs no edit here.
"""
from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CONTRACT_PATH = ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "out"

LARGE = (144, 96, 16)
MEDIUM = (72, 48, 12)
#: smallest mesh the CA core runs at p_y = 2 (needs ny/p_y > 3M + 2 = 11)
SMOKE = (32, 32, 6)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a core configuration and its two call lengths."""

    name: str
    algorithm: str
    nprocs: int
    mesh: tuple[int, int, int]  # (nx, ny, nz)
    steps_short: int
    steps_long: int
    #: ``checkpoint_interval`` of ``run_resilient``; None = plain ``run``
    chunk: int | None = None

    @property
    def step_span(self) -> int:
        return self.steps_long - self.steps_short


#: Call lengths are sized so that a 20 s run holds >= 15 pairs on every
#: workload: each call forks fresh rank processes whose placement on the
#: cores is re-drawn, so the call time is multi-modal and only many draws
#: give a steady median.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("serial", "serial", 1, LARGE, 1, 6),
        Workload("ca-y2", "ca", 2, LARGE, 1, 6),
        Workload("orig-y2", "original-yz", 2, LARGE, 1, 6),
        Workload("ca-y2-chunked", "ca", 2, MEDIUM, 2, 8, chunk=2),
    )
}


@dataclass(frozen=True)
class Sizing:
    """How much one run measures (everything ``--seconds`` does not set)."""

    setup_samples: int = 7
    min_pairs: int = 3
    #: fixed pair count (smoke only); None = fill ``--seconds``
    pairs: int | None = None
    oracle_steps: int = 2
    kernel_reps: int = 12
    halo_reps: int = 30
    latency_reps: int = 300
    bandwidth_reps: int = 30
    launch_reps: int = 8
    io_reps: int = 5


FULL_SIZING = Sizing()
SMOKE_SIZING = Sizing(
    setup_samples=1, min_pairs=2, pairs=2, kernel_reps=2, halo_reps=3,
    latency_reps=20, bandwidth_reps=3, launch_reps=2, io_reps=2,
)


def smoke_workload(wl: Workload) -> Workload:
    """The same configuration on the tiny mesh with the shortest calls."""
    if wl.chunk:
        return replace(
            wl, mesh=SMOKE, steps_short=wl.chunk, steps_long=2 * wl.chunk
        )
    return replace(wl, mesh=SMOKE, steps_short=1, steps_long=3)


def load_contract() -> dict:
    with open(CONTRACT_PATH) as fh:
        return json.load(fh)


def metric_specs(contract: dict, trace: bool) -> dict[str, dict]:
    """name -> spec of the metrics one pass must emit."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in contract[key]}


def summarize(values: list[float]) -> dict:
    """Median, quartiles and count of one metric's samples."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("no samples")
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {
        "median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals),
    }
