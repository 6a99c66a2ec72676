"""Performance model: per-operator compute weights, closed-form per-step
event counts for each algorithm/decomposition, and the projection to the
paper's scale (720x360x30, 10 model years, up to 1024 ranks)."""
from repro.perf.costs import ComputeWeights, DEFAULT_WEIGHTS, StepEvents, step_events
from repro.perf.model import (
    ALGORITHMS,
    AlgorithmTiming,
    Calibration,
    DEFAULT_CALIBRATION,
    PAPER_PROC_SWEEP,
    PerformanceModel,
)

__all__ = [
    "ComputeWeights",
    "DEFAULT_WEIGHTS",
    "StepEvents",
    "step_events",
    "ALGORITHMS",
    "AlgorithmTiming",
    "Calibration",
    "DEFAULT_CALIBRATION",
    "PAPER_PROC_SWEEP",
    "PerformanceModel",
]
