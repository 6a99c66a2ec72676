"""The closed loop of one client: a workload's core, the request a client
sends it, and the interleaved short/long calls both passes time."""
from __future__ import annotations

import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import Workload

#: stop a loop whose calls keep failing instead of filling --seconds with them
MAX_FAILED_PAIRS = 3


@dataclass
class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)


def make_inputs(wl: Workload, seed: int):
    """The workload's grid and the initial state generated from ``seed``."""
    from repro.grid.latlon import LatLonGrid
    from repro.physics.initial import balanced_random_state

    nx, ny, nz = wl.mesh
    grid = LatLonGrid(nx=nx, ny=ny, nz=nz)
    return grid, balanced_random_state(grid, np.random.default_rng(seed))


class Case:
    """A workload's core and the one request a client sends it."""

    def __init__(self, wl: Workload, grid, state0, out: Path, **core_extra):
        from repro.core.driver import DynamicalCore

        self.wl = wl
        self.grid = grid
        self.state0 = state0
        self.out = out
        self.core = DynamicalCore(
            grid, algorithm=wl.algorithm, nprocs=wl.nprocs,
            backend="process", kernel_tier="fused", **core_extra,
        )
        self.ckpt_dir = out / f"ckpt-{os.getpid()}"

    def call(self, nsteps: int):
        """One request: ``(final_state, StepDiagnostics)`` after ``nsteps``."""
        if self.wl.chunk is None:
            return self.core.run(self.state0, nsteps)
        from repro.core.resilience import ResilienceConfig

        final, diag, _ = self.core.run_resilient(
            self.state0, nsteps,
            ResilienceConfig(
                checkpoint_dir=self.ckpt_dir,
                checkpoint_interval=self.wl.chunk,
            ),
        )
        return final, diag

    def cleanup(self) -> None:
        """Drop the call's checkpoints (outside the timed region)."""
        shutil.rmtree(self.ckpt_dir, ignore_errors=True)

    def warm_up(self) -> None:
        """First call: kernels built and loaded, pools filled."""
        try:
            self.call(self.wl.steps_short)
        finally:
            self.cleanup()


def same_state(a, b) -> bool:
    return all(
        np.array_equal(x, y)
        for x, y in zip(a.fields().values(), b.fields().values())
    )


@dataclass
class Pairs:
    """Samples of a case's interleaved short/long calls (seconds) and the
    diagnostics of the last call of each length."""

    case: Case
    shorts: list[float] = field(default_factory=list)
    longs: list[float] = field(default_factory=list)
    diag_short: object = None
    diag_long: object = None

    @property
    def step_ms(self) -> float:
        """Marginal wall time per model step."""
        return (
            (statistics.median(self.longs) - statistics.median(self.shorts))
            / self.case.wl.step_span * 1e3
        )

    @property
    def step_ms_estimates(self) -> list[float]:
        return [
            (lg - sh) / self.case.wl.step_span * 1e3
            for sh, lg in zip(self.shorts, self.longs)
        ]

    def per_step(self, attr: str) -> float:
        """Marginal per-step count of a ``StepDiagnostics`` field."""
        return (
            getattr(self.diag_long, attr) - getattr(self.diag_short, attr)
        ) / self.case.wl.step_span


def run_pairs(
    case: Case,
    tally: Tally,
    seconds: float,
    min_pairs: int,
    fixed_pairs: int | None = None,
    rec=None,
    label: str = "run",
) -> Pairs:
    """A short call, then a long call, the next starting when the previous
    returns, until ``seconds`` have passed (or ``fixed_pairs`` are done).
    Every result must equal the first one of its length bit for bit; a pair
    with a failed call is dropped whole."""
    wl = case.wl
    pairs = Pairs(case)
    first: dict[int, object] = {}
    failed_pairs = 0
    deadline = time.perf_counter() + seconds
    while failed_pairs < MAX_FAILED_PAIRS:
        done = len(pairs.longs)
        if fixed_pairs is not None:
            if done >= fixed_pairs:
                break
        elif done >= min_pairs and time.perf_counter() >= deadline:
            break
        sample = []
        for kind, steps in (("short", wl.steps_short), ("long", wl.steps_long)):
            tally.attempted += 1
            try:
                t0 = time.perf_counter()
                if rec is not None:
                    with rec.span(f"{label}.{kind}", "core"):
                        final, diag = case.call(steps)
                else:
                    final, diag = case.call(steps)
                dt = time.perf_counter() - t0
            except Exception as exc:  # a failed request is a result
                tally.fail(f"{label}.{kind}: {type(exc).__name__}: {exc}")
                break
            finally:
                case.cleanup()
            if not same_state(final, first.setdefault(steps, final)):
                tally.fail(f"{label}.{kind}: result differs from first call")
                break
            sample.append((dt, diag))
        if len(sample) < 2:
            failed_pairs += 1
            continue
        (sh, pairs.diag_short), (lg, pairs.diag_long) = sample
        pairs.shorts.append(sh)
        pairs.longs.append(lg)
    return pairs
